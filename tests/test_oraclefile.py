"""On-disk oracle format: round trips, byte stability, corruption handling."""

import copy
import hashlib
import random
import struct
import time
import zlib
from math import comb
from types import SimpleNamespace

import pytest

from planar_oracle import oraclefile
from planar_oracle.baseline import distance_avoiding, sssp
from planar_oracle.decomposition import build_decomposition
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.generate import generate_grid
from planar_oracle.graph import MATRIX_SENTINEL, EmbeddedPlanarGraph, GraphFormatError
from planar_oracle.oraclefile import OracleFileError, load_oracle, save_oracle
from planar_oracle.tradeoff_oracle import TradeoffOracle, division_tuples

from conftest import run_with_2gib_address_space


def file_sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_resealed(path, raw):
    """Write edited file bytes with a trailer that matches them again, so
    the edit reaches the parser's own checks."""
    raw[-4:] = zlib.crc32(raw[:-4]).to_bytes(4, "little")
    path.write_bytes(bytes(raw))


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
    # the file holds no table: a load rebuilds every one the build made
    assert list(loaded.ext) == list(to8.ext)
    for ids, ext in to8.ext.items():
        assert loaded.ext[ids].nodes == ext.nodes
        assert loaded.ext[ids].matrix.tobytes() == ext.matrix.tobytes()
    assert list(loaded.vor) == list(to8.vor)
    for key, row in to8.vor.items():
        assert loaded.vor[key].tobytes() == row.tobytes()
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


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 99])
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


def test_tampered_strict_entry_cannot_reach_a_load(tmp_path):
    # a strict matrix entry lowered before the save: when files stored the
    # internal matrices, this one (20 set to 0) loaded under a valid
    # trailer and gave wrong answers; a load now rebuilds every matrix
    g = generate_grid(12, 12, max_weight=9, seed=1)
    fo = FailureOracle(g, leaf_size=8)
    pid, i = next(
        (p.id, i)
        for p in fo.tree.pieces
        if not p.is_leaf
        for i, x in enumerate(fo.store.strict(p.id).matrix)
        if 10 <= x < MATRIX_SENTINEL
    )
    fo.store.strict(pid).matrix[i] = 0
    path = tmp_path / "f.bin"
    save_oracle(fo, path)
    loaded = load_oracle(path)
    for u in range(g.n):
        want = sssp(g, u)
        assert [loaded.distance(u, v) for v in range(g.n) if v != u] == [
            want[v] for v in range(g.n) if v != u
        ], u
    rng = random.Random("tamper")
    for _ in range(300):
        u, v, *x = rng.sample(range(g.n), 2 + rng.randint(1, 3))
        assert loaded.distance(u, v, x) == distance_avoiding(g, u, v, x), (u, v, x)


def test_tampered_tradeoff_entry_cannot_reach_a_load(tmp_path):
    # an ext(T) entry and a directional row entry lowered before the save:
    # when files stored those tables, the load kept them and answered
    # wrongly; a load now rebuilds both
    g = generate_grid(12, 12, max_weight=9, seed=1)
    to = TradeoffOracle(g, r=32, k=1, leaf_size=8)
    for tables in ([ext.matrix for ext in to.ext.values()], list(to.vor.values())):
        table, i = next(
            (t, i) for t in tables for i, x in enumerate(t) if 0 < x < MATRIX_SENTINEL
        )
        table[i] = 0
    path = tmp_path / "t.bin"
    save_oracle(to, path)
    loaded = load_oracle(path)
    for u in range(g.n):
        want = sssp(g, u)
        assert [loaded.distance(u, v) for v in range(g.n) if v != u] == [
            want[v] for v in range(g.n) if v != u
        ], u
    rng = random.Random("tamper-tradeoff")
    for _ in range(300):
        u, v, x = rng.sample(range(g.n), 3)
        assert loaded.distance(u, v, [x]) == distance_avoiding(g, u, v, [x]), (u, v, x)


def _graph_byte(value):
    def write(fo, path, monkeypatch):
        save_oracle(fo, path)
        raw = bytearray(path.read_bytes())
        raw[11] = value  # the graph text's first byte: after magic, version, kind, length
        write_resealed(path, raw)

    return write


@pytest.mark.parametrize(
    "write, cause",
    [
        (_graph_byte(0xFF), UnicodeDecodeError),
        (_graph_byte(ord("x")), GraphFormatError),
    ],
    ids=["non-ascii-graph", "bad-graph-text"],
)
def test_decode_faults_raise_file_error(tmp_path, monkeypatch, write, cause):
    fo = FailureOracle(generate_grid(6, 6, max_weight=5, seed=3), leaf_size=8)
    p = tmp_path / "f.bin"
    write(fo, p, monkeypatch)
    with pytest.raises(OracleFileError) as info:
        load_oracle(p)
    assert isinstance(info.value.__cause__, cause)


@pytest.fixture(scope="module")
def fo6():
    return FailureOracle(generate_grid(6, 6, max_weight=5, seed=3), leaf_size=8)


def _crafted(fo, tmp_path, field, value):
    """fo's file with the graph section's length, the piece count, piece
    0's parent, or a field of the first leaf overwritten."""
    p = tmp_path / "f.bin"
    save_oracle(fo, p)
    raw = bytearray(p.read_bytes())
    # magic, version and kind, then the graph length and text; then the r
    # sequence, the piece count and one parent id per piece; then each
    # leaf's vertex and arc lists
    graph_end = 11 + int.from_bytes(raw[7:11], "little")
    count_at = graph_end + 4 + 4 * len(fo.tree.r_sequence)
    leaf_at = count_at + 4 + 4 * len(fo.tree.pieces)
    if field == "graph-length":
        raw[7:11] = value.to_bytes(4, "little")
    elif field == "piece-count":
        raw[count_at : count_at + 4] = value.to_bytes(4, "little")
    elif field == "parent":
        raw[count_at + 4 : count_at + 8] = value.to_bytes(4, "little", signed=True)
    elif field == "vertex-list-length":  # the first leaf's
        raw[leaf_at : leaf_at + 4] = value.to_bytes(4, "little")
    else:  # the first leaf's first vertex id, after its vertex-list length
        raw[leaf_at + 4 : leaf_at + 8] = value.to_bytes(4, "little")
    write_resealed(p, raw)
    return p


@pytest.mark.parametrize("kind", ["failure", "tradeoff"])
def test_every_bit_flip_raises_file_error(tmp_path, fo8, kind):
    # flips in matrix entries and weights used to load cleanly and answer
    # wrongly; the trailer catches every single-bit error
    oracle = fo8 if kind == "failure" else TradeoffOracle(
        generate_grid(5, 5, max_weight=5, seed=3), r=16, k=1, leaf_size=4
    )
    p = tmp_path / "o.bin"
    save_oracle(oracle, p)
    raw = p.read_bytes()
    rng = random.Random(f"flip-{kind}")
    for _ in range(300):
        bit = rng.randrange(8 * len(raw))
        flipped = bytearray(raw)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        p.write_bytes(bytes(flipped))
        with pytest.raises(OracleFileError):
            load_oracle(p)


def test_trailer_is_crc32_of_the_rest(tmp_path, fo8):
    p = tmp_path / "o.bin"
    save_oracle(fo8, p)
    raw = p.read_bytes()
    assert raw[-4:] == zlib.crc32(raw[:-4]).to_bytes(4, "little")


def test_bad_parent_id(tmp_path, fo6):
    count = len(fo6.tree.pieces)
    # piece 0 is the root, whose parent is -1; past the piece list, below
    # -1, or itself (a loop that made queries walk up the tree forever)
    for parent in (count + 5, count, -2, 0):
        p = _crafted(fo6, tmp_path, "parent", parent)
        with pytest.raises(OracleFileError):
            load_oracle(p)


def test_vertex_id_past_graph(tmp_path, fo6):
    # queries size their label lists by the largest vertex id they meet
    for value in (fo6.graph.n, 10**6, 0xFFFFFFFF):
        p = _crafted(fo6, tmp_path, "first-vertex", value)
        with pytest.raises(OracleFileError):
            load_oracle(p)


def _save_with_tree(oracle, path, monkeypatch, edit):
    """Save oracle with its tree section written from a copy that ``edit``
    changed; the oracle's own tree stays as it is."""
    write = oraclefile._write_tree

    def edited(fh, tree):
        copy = SimpleNamespace(
            r_sequence=tree.r_sequence,
            pieces=[
                SimpleNamespace(
                    parent=p.parent, is_leaf=p.is_leaf, vertices=p.vertices, arcs=p.arcs
                )
                for p in tree.pieces
            ],
        )
        edit(copy, tree)
        write(fh, copy)

    with monkeypatch.context() as m:
        m.setattr(oraclefile, "_write_tree", edited)
        save_oracle(oracle, path)


def _leaves(tree):
    return [p for p in tree.pieces if p.is_leaf]


def _arc_past_graph(copy, tree):
    leaf = copy.pieces[_leaves(tree)[0].id]
    leaf.arcs = leaf.arcs + (tree.graph.m,)


def _arc_outside_piece(copy, tree):
    leaf = _leaves(tree)[0]
    inside = set(leaf.vertices)
    g = tree.graph
    stray = next(a for a in range(g.m) if g.tails[a] not in inside and g.heads[a] not in inside)
    copy.pieces[leaf.id].arcs = tuple(sorted(leaf.arcs + (stray,)))


def _leaf_arc_dropped(copy, tree):
    leaf = copy.pieces[_leaves(tree)[0].id]
    leaf.arcs = leaf.arcs[1:]


def _arc_in_two_leaves(copy, tree):
    # the second leaf also gains the arc's ends, so only the sharing is wrong
    first, second = _leaves(tree)[:2]
    g = tree.graph
    arc = next(a for a in first.arcs if a not in second.arcs)
    other = copy.pieces[second.id]
    other.arcs = tuple(sorted(second.arcs + (arc,)))
    other.vertices = tuple(sorted({*second.vertices, g.tails[arc], g.heads[arc]}))


def _leaf_ids_reversed(copy, tree):
    leaf = copy.pieces[_leaves(tree)[0].id]
    leaf.arcs = leaf.arcs[::-1]


@pytest.mark.parametrize(
    "edit, match",
    [
        (_arc_past_graph, "arc id"),
        (_arc_outside_piece, "end outside"),
        (_leaf_arc_dropped, "root piece"),
        (_arc_in_two_leaves, "share an arc"),
        (_leaf_ids_reversed, "strictly increasing"),
    ],
    ids=[
        "arc-past-graph",
        "arc-outside-piece",
        "leaf-arc-dropped",
        "arc-in-two-leaves",
        "leaf-ids-reversed",
    ],
)
def test_tree_ids_out_of_range(tmp_path, monkeypatch, fo6, edit, match):
    # a file stores only the tree's shape and its leaves: a leaf list the
    # build could not make raises at load, before any query reads it
    p = tmp_path / "f.bin"
    _save_with_tree(fo6, p, monkeypatch, edit)
    with pytest.raises(OracleFileError, match=match):
        load_oracle(p)


def _leaf_to_grandparent(copy, tree):
    # the old parent keeps one child and the grandparent gains a third
    leaf = next(
        p
        for p in reversed(tree.pieces)
        if p.is_leaf and p.parent is not None and tree.pieces[p.parent].parent is not None
    )
    copy.pieces[leaf.id].parent = tree.pieces[leaf.parent].parent


@pytest.mark.parametrize("oracle", ["fo6", "to8"])
def test_piece_without_two_children(tmp_path, monkeypatch, request, oracle):
    # queries pair each piece with its one sibling: such a failure file
    # loaded and its queries raised ValueError, and such a trade-off file
    # raised ValueError inside load_oracle
    p = tmp_path / "f.bin"
    _save_with_tree(request.getfixturevalue(oracle), p, monkeypatch, _leaf_to_grandparent)
    with pytest.raises(OracleFileError, match="children"):
        load_oracle(p)


def _tree_facts(tree):
    """Everything a loaded tree holds: per piece its parent, children,
    vertices, boundary and arcs, then every r-division and home leaf."""
    pieces = [(p.parent, p.children, p.vertices, p.boundary, p.arcs) for p in tree.pieces]
    divisions = {r: tree.r_division(r) for r in tree.r_sequence}
    return pieces, divisions, tree.leaf_of


@pytest.mark.parametrize(
    "name", ["grid4", "grid8", "grid16", "tri60", "tri200", "path12", "disconnected", "single"]
)
def test_load_rebuilds_the_built_tree(tmp_path, zoo, name):
    fo = FailureOracle(zoo[name], leaf_size=3, r_base=4)
    p = tmp_path / "f.bin"
    save_oracle(fo, p)
    assert _tree_facts(load_oracle(p).tree) == _tree_facts(fo.tree)


def test_crafted_division_raises_at_load(tmp_path, monkeypatch):
    # a trade-off file whose r-division lacks a piece, with tables that
    # match it: when files stored their divisions it loaded and then raised
    # AssertionError on queries; the division now follows from the tree
    g = generate_grid(8, 8, max_weight=9, seed=3)
    tree = build_decomposition(g, leaf_size=8, r_base=4)
    division = tree.r_division(32)
    monkeypatch.setattr(tree, "r_division", lambda r: division[1:])
    crafted = TradeoffOracle(g, r=32, k=1, tree=tree)
    p = tmp_path / "t.bin"
    save_oracle(crafted, p)
    with pytest.raises(OracleFileError):
        load_oracle(p)


def test_tradeoff_r_below_a_leaf(tmp_path):
    # the division of an r below some leaf's size leaves that leaf under no
    # division piece, and queries whose anchors sit there had no tuple
    g = generate_grid(6, 6, max_weight=5, seed=3)
    tree = build_decomposition(g, leaf_size=8, r_base=4)
    tree.r_sequence = (4, *tree.r_sequence)
    with pytest.raises(ValueError, match="leaf"):
        TradeoffOracle(g, r=4, k=1, tree=tree)
    to = TradeoffOracle(g, r=32, k=1, tree=tree)
    to.r = 4  # marked, but below the leaves; the tree section is unchanged
    p = tmp_path / "t.bin"
    save_oracle(to, p)
    with pytest.raises(OracleFileError, match="leaf"):
        load_oracle(p)


def test_tradeoff_r_not_marked(tmp_path):
    to = TradeoffOracle(generate_grid(6, 6, max_weight=5, seed=3), r=16, k=1, leaf_size=4)
    to.r = 17  # not a marked r; the tree section is unchanged
    p = tmp_path / "t.bin"
    save_oracle(to, p)
    with pytest.raises(OracleFileError):
        load_oracle(p)


def _spans(oracle, raw):
    """(ids, start, end) of every tuple's stored ids in ``raw``, the
    oracle's file, in file order (none for a failure oracle); they end
    where the trailer starts."""
    tuples = []
    if isinstance(oracle, TradeoffOracle):
        tuples = list(division_tuples(oracle.rdiv, oracle.k))
    start = len(raw) - 4 - 4 * sum(map(len, tuples))
    spans = []
    for ids in tuples:
        spans.append((ids, start, start + 4 * len(ids)))
        start += 4 * len(ids)
    return spans


def _rewritten(edit):
    """Save the oracle, then rewrite the file's bytes with ``edit(o, raw,
    spans)`` and reseal them."""

    def craft(oracle, path):
        save_oracle(oracle, path)
        raw = bytearray(path.read_bytes())
        edit(oracle, raw, _spans(oracle, raw))
        write_resealed(path, raw)

    return craft


def _tuple_ids(n, ids_of):
    """The n-th tuple's stored ids replaced with ``ids_of(o, ids, spans)``."""

    def edit(o, raw, spans):
        ids, start, end = spans[n]
        new = ids_of(o, ids, spans)
        raw[start:end] = struct.pack(f"<{len(new)}I", *new)

    return _rewritten(edit)


def _outside_division(o, ids, spans):
    other = next(p.id for p in o.tree.pieces if p.id not in o.rdiv)
    return tuple(sorted((ids[0], other)))


def _trailing_entry(o, raw, spans):
    raw[-4:-4] = bytes(8)


@pytest.mark.parametrize(
    "craft",
    [
        _tuple_ids(0, _outside_division),
        _tuple_ids(0, lambda o, ids, spans: ids[:1]),
        _tuple_ids(1, lambda o, ids, spans: spans[0][0]),
    ],
    ids=[
        "ext-key-outside-division",
        "ext-key-wrong-size",
        "tuple-ids-repeated",
    ],
)
def test_tradeoff_tables_checked_at_load(tmp_path, to8, craft):
    # with a valid trailer these loaded, then answered wrongly or raised
    # IndexError or KeyError at query time.  A file's tuple ids must be the
    # ones the build makes next, in its order
    p = tmp_path / "t.bin"
    craft(to8, p)
    with pytest.raises(OracleFileError):
        load_oracle(p)


def _last_entry_cut(o, raw, spans):
    del raw[-12:-4]


@pytest.mark.parametrize(
    "craft, kind",
    [
        pytest.param(craft, kind, id=f"{name}-{kind}")
        for name, craft in [
            ("one-entry-short", _rewritten(_last_entry_cut)),
            ("one-entry-extra", _rewritten(_trailing_entry)),
        ]
        for kind in ["failure", "tradeoff"]
    ],
)
def test_tables_fill_the_file_exactly(tmp_path, fo8, to8, kind, craft):
    # no section stores its length, so a file 8 bytes short or long reads
    # the same up to its last tuple (a failure oracle file's last leaf);
    # the byte count alone tells it apart
    p = tmp_path / "o.bin"
    craft(fo8 if kind == "failure" else to8, p)
    with pytest.raises(OracleFileError):
        load_oracle(p)


def test_tuple_walk_bounded_by_file_size(tmp_path, monkeypatch):
    # a file with no tuple ids, a graph without arcs, so no piece has a
    # boundary, and k + 1 = 41 of an 80-piece division: about 10**23
    # tuples, none of which has a table to build, so only the tuple ids
    # each must store stop the walk
    g = EmbeddedPlanarGraph(400, [], [[] for _ in range(400)])
    to = TradeoffOracle(g, r=g.n, k=0, leaf_size=3, r_base=2)
    crafted = copy.copy(to)
    crafted.r = to.tree.r_sequence[0]
    rdiv = to.tree.r_division(crafted.r)
    crafted.k = len(rdiv) // 2
    assert comb(len(rdiv), crafted.k + 1) > 10**19
    p = tmp_path / "t.bin"
    monkeypatch.setattr(oraclefile, "_write_tuples", lambda fh, oracle: None)
    save_oracle(crafted, p)
    start = time.perf_counter()
    with pytest.raises(OracleFileError):
        load_oracle(p)
    assert time.perf_counter() - start < 1.0


def test_huge_k(tmp_path, to8):
    # no tuple has 2**32 pieces, so the walk ends early and bytes remain
    p = tmp_path / "t.bin"
    save_oracle(to8, p)
    raw = bytearray(p.read_bytes())
    at = _spans(to8, raw)[0][1] - 4  # k sits just before the first tuple
    assert int.from_bytes(raw[at : at + 4], "little") == to8.k
    raw[at : at + 4] = (0xFFFFFFFF).to_bytes(4, "little")
    write_resealed(p, raw)
    start = time.perf_counter()
    with pytest.raises(OracleFileError):
        load_oracle(p)
    assert time.perf_counter() - start < 1.0


def _load_error_with_2gib_address_space(path):
    """Name of the exception load_oracle raises in a child process whose
    address space is capped at 2 GiB, where an allocation sized by an
    unchecked length field fails with MemoryError."""
    code = (
        "from planar_oracle.oraclefile import load_oracle\n"
        "try:\n"
        "    load_oracle(sys.argv[1])\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    return run_with_2gib_address_space(code, str(path))


def test_huge_graph_length(tmp_path, fo6):
    p = _crafted(fo6, tmp_path, "graph-length", 0xFFFFFFF0)
    assert _load_error_with_2gib_address_space(p) == "OracleFileError"


def test_huge_id_list_length(tmp_path, fo6):
    p = _crafted(fo6, tmp_path, "vertex-list-length", 0xFFFFFFFF)
    assert _load_error_with_2gib_address_space(p) == "OracleFileError"


def test_huge_piece_count(tmp_path, fo6):
    p = _crafted(fo6, tmp_path, "piece-count", 0xFFFFFFFF)
    assert _load_error_with_2gib_address_space(p) == "OracleFileError"


def test_unserializable_type(tmp_path):
    with pytest.raises(TypeError):
        save_oracle(object(), tmp_path / "x.bin")


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_oracle(tmp_path / "absent.bin")
