"""Decomposition trees and oracle files keep their bytes.

The digests below are of the current code.  A change that alters trees or
the file format on purpose updates them and says so in CHANGES.md; any
other change must leave them as they are.  Grids only: their generator
uses no floating point, so the digests hold on every platform.
"""

import hashlib

import pytest

from planar_oracle.decomposition import build_decomposition
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.generate import generate_grid
from planar_oracle.oraclefile import save_oracle
from planar_oracle.tradeoff_oracle import TradeoffOracle

# sha256 over repr((parent, vertices, boundary, arcs)) of every piece of
# the trees of three seeded grids, per leaf size
TREE_DIGESTS = {
    3: "abeb7bab101afc399b78c17a1ea4e3ef7aa7e12f3b4a7031a6fc01b37060b5a2",
    8: "4b3a0638bc077abd405ac470efcaba7b55c2d3c2a3f09d55bfdaf689b2e35a76",
    16: "9e80ec91e99c78f53a24ce35196fff34e96e599a9bb5308356badccd09abb4d9",
}

# sha256 of the saved oracle file of a 12x12 grid
FILE_DIGESTS = {
    "failure": "ebc955868899e775fb84d496ca6730f73878ef1aba3a72ae8974407b5606055b",
    "tradeoff": "e37736ddff04b4889cd1538d0e87a07e496f521d0036b07f890fc9285016d022",
}


def _grid(seed):
    return generate_grid(10 + seed, 12, max_weight=9, seed=seed)


@pytest.mark.parametrize("leaf_size", sorted(TREE_DIGESTS))
def test_tree_digest(leaf_size):
    h = hashlib.sha256()
    for seed in range(3):
        tree = build_decomposition(_grid(seed), leaf_size=leaf_size)
        for p in tree.pieces:
            h.update(repr((p.parent, p.vertices, p.boundary, p.arcs)).encode())
    assert h.hexdigest() == TREE_DIGESTS[leaf_size]


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
