"""Decomposition trees and oracle files keep their bytes.

The digests below are of the current code.  A change that alters trees or
the file format on purpose updates them and says so in CHANGES.md; any
other change must leave them as they are.  Generated graphs are grids
only: their generator uses no floating point, so the digests hold on every
platform.  The triangulation and the disconnected graph are read from text
fixtures for the same reason: ``data/tri300.pgr`` is ``planar-oracle gen
--kind tri --n 300 --max-weight 20 --seed 3``, and ``data/multi.pgr`` is
the disjoint union of a 9x9 grid, an isolated vertex, a 4x5 grid, a
5-vertex path and another isolated vertex, whose splits pack components
both beside a cycle-split giant and on their own.
"""

import hashlib
import os

import pytest

from planar_oracle.decomposition import build_decomposition
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.generate import generate_grid
from planar_oracle.graph import load_graph
from planar_oracle.oraclefile import save_oracle
from planar_oracle.tradeoff_oracle import TradeoffOracle

from conftest import DATA

# sha256 over repr((parent, vertices, boundary, arcs)) of every piece of
# the trees of three seeded grids, per leaf size
TREE_DIGESTS = {
    3: "abeb7bab101afc399b78c17a1ea4e3ef7aa7e12f3b4a7031a6fc01b37060b5a2",
    8: "4b3a0638bc077abd405ac470efcaba7b55c2d3c2a3f09d55bfdaf689b2e35a76",
    16: "9e80ec91e99c78f53a24ce35196fff34e96e599a9bb5308356badccd09abb4d9",
}

# the same digest over one tree of a fixture graph, per (fixture, leaf size)
FIXTURE_TREE_DIGESTS = {
    ("tri300", 8): "192207a866cfc754653f09a589d88988bd476e01ff41fc7c4b17b4b6b2da2986",
    ("tri300", 16): "760c604ac16d20457221d7dbd775faae84d1ffbaaca74fb7aa682cd107fa6888",
    ("multi", 4): "1a5a6344d0d6111fbe5dbb2a72af739b2b25af72da197f41963206146222f5f5",
    ("multi", 8): "0c809c160f7a265c576e226e6bfdfb4b877f01c81264dc4334b53eff6a1a2996",
}

# sha256 of the saved oracle file of a 12x12 grid
FILE_DIGESTS = {
    "failure": "ebc955868899e775fb84d496ca6730f73878ef1aba3a72ae8974407b5606055b",
    "tradeoff": "e37736ddff04b4889cd1538d0e87a07e496f521d0036b07f890fc9285016d022",
}


def _grid(seed):
    return generate_grid(10 + seed, 12, max_weight=9, seed=seed)


def _digest_pieces(h, tree):
    for p in tree.pieces:
        h.update(repr((p.parent, p.vertices, p.boundary, p.arcs)).encode())


@pytest.mark.parametrize("leaf_size", sorted(TREE_DIGESTS))
def test_tree_digest(leaf_size):
    h = hashlib.sha256()
    for seed in range(3):
        _digest_pieces(h, build_decomposition(_grid(seed), leaf_size=leaf_size))
    assert h.hexdigest() == TREE_DIGESTS[leaf_size]


@pytest.mark.parametrize("name,leaf_size", sorted(FIXTURE_TREE_DIGESTS))
def test_fixture_tree_digest(name, leaf_size):
    g = load_graph(os.path.join(DATA, f"{name}.pgr"))
    h = hashlib.sha256()
    _digest_pieces(h, build_decomposition(g, leaf_size=leaf_size))
    assert h.hexdigest() == FIXTURE_TREE_DIGESTS[name, leaf_size]


@pytest.mark.parametrize("mode", sorted(FILE_DIGESTS))
def test_oracle_file_digest(tmp_path, mode):
    g = generate_grid(12, 12, max_weight=9, seed=1)
    if mode == "failure":
        oracle = FailureOracle(g, leaf_size=8)
    else:
        oracle = TradeoffOracle(g, r=32, k=1, leaf_size=8)
    path = tmp_path / "o.oracle"
    save_oracle(oracle, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FILE_DIGESTS[mode]
