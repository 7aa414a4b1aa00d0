"""On-disk oracle format: round trips, byte stability, corruption handling."""

import hashlib
import random

import pytest

from planar_oracle import oraclefile
from planar_oracle.baseline import distance_avoiding
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.generate import generate_grid
from planar_oracle.graph import GraphFormatError
from planar_oracle.oraclefile import OracleFileError, load_oracle, save_oracle
from planar_oracle.tradeoff_oracle import TradeoffOracle


def file_sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def fo8(grid8):
    return FailureOracle(grid8, leaf_size=8, r_base=4)


@pytest.fixture(scope="module")
def to8(grid8):
    return TradeoffOracle(grid8, r=32, k=1, leaf_size=8, r_base=4)


def test_failure_round_trip(tmp_path, grid8, fo8):
    path = tmp_path / "f.bin"
    save_oracle(fo8, path)
    loaded = load_oracle(path)
    assert loaded.graph == grid8
    rng = random.Random("rt-f")
    for _ in range(80):
        u, v = rng.randrange(64), rng.randrange(64)
        if u == v:
            continue
        x = {c for c in (rng.randrange(64),) if c not in (u, v)}
        assert loaded.distance(u, v, x) == fo8.distance(u, v, x)


def test_tradeoff_round_trip(tmp_path, grid8, to8):
    path = tmp_path / "t.bin"
    save_oracle(to8, path)
    loaded = load_oracle(path)
    assert loaded.graph == grid8
    assert loaded.r == to8.r and loaded.k == to8.k
    assert loaded.vor.keys() == to8.vor.keys()
    rng = random.Random("rt-t")
    for _ in range(80):
        u, v = rng.randrange(64), rng.randrange(64)
        if u == v:
            continue
        x = {c for c in (rng.randrange(64),) if c not in (u, v)}
        got = loaded.distance(u, v, x)
        assert got == distance_avoiding(grid8, u, v, x)


def test_bytes_do_not_depend_on_build(tmp_path, grid8):
    a = FailureOracle(grid8, leaf_size=8, r_base=4)
    b = FailureOracle(grid8, leaf_size=8, r_base=4)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_oracle(a, pa)
    save_oracle(b, pb)
    assert file_sha(pa) == file_sha(pb)


def test_bytes_do_not_depend_on_query_history(tmp_path, grid8, to8):
    before = tmp_path / "before.bin"
    after = tmp_path / "after.bin"
    save_oracle(to8, before)
    rng = random.Random("hist")
    for _ in range(150):
        u, v = rng.randrange(64), rng.randrange(64)
        if u != v:
            to8.distance(u, v)
    save_oracle(to8, after)
    assert file_sha(before) == file_sha(after)


def test_reload_is_identity(tmp_path, to8):
    p1 = tmp_path / "one.bin"
    p2 = tmp_path / "two.bin"
    save_oracle(to8, p1)
    save_oracle(load_oracle(p1), p2)
    assert file_sha(p1) == file_sha(p2)


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(OracleFileError):
        load_oracle(p)


@pytest.mark.parametrize("version", [1, 99])
def test_bad_version(tmp_path, fo8, version):
    p = tmp_path / "v.bin"
    save_oracle(fo8, p)
    raw = bytearray(p.read_bytes())
    raw[4:6] = version.to_bytes(2, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(OracleFileError):
        load_oracle(p)


def test_truncation(tmp_path, fo8):
    p = tmp_path / "t.bin"
    save_oracle(fo8, p)
    raw = p.read_bytes()
    for cut in (10, len(raw) // 2, len(raw) - 3):
        p.write_bytes(raw[:cut])
        with pytest.raises(OracleFileError):
            load_oracle(p)


def _bad_variant(fo, path, monkeypatch):
    # every stored matrix gets a variant code past the known ones
    with monkeypatch.context() as m:
        m.setattr(oraclefile, "_VARIANTS", ("?",) * 8 + oraclefile._VARIANTS)
        save_oracle(fo, path)


def _graph_byte(value):
    def write(fo, path, monkeypatch):
        save_oracle(fo, path)
        raw = bytearray(path.read_bytes())
        raw[11] = value  # the graph text's first byte: after magic, version, kind, length
        path.write_bytes(bytes(raw))

    return write


@pytest.mark.parametrize(
    "write, cause",
    [
        (_bad_variant, IndexError),
        (_graph_byte(0xFF), UnicodeDecodeError),
        (_graph_byte(ord("x")), GraphFormatError),
    ],
    ids=["ddg-variant", "non-ascii-graph", "bad-graph-text"],
)
def test_decode_faults_raise_file_error(tmp_path, monkeypatch, write, cause):
    fo = FailureOracle(generate_grid(6, 6, max_weight=5, seed=3), leaf_size=8)
    p = tmp_path / "f.bin"
    write(fo, p, monkeypatch)
    with pytest.raises(OracleFileError) as info:
        load_oracle(p)
    assert isinstance(info.value.__cause__, cause)


def test_unserializable_type(tmp_path):
    with pytest.raises(TypeError):
        save_oracle(object(), tmp_path / "x.bin")


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_oracle(tmp_path / "absent.bin")
