"""Dense distance graphs: strict, leaf, tables, and the closure law against
the reference closed DDG."""

import random
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from planar_oracle.baseline import sssp
from planar_oracle.ddg import (
    DdgStore,
    DenseDistanceGraph,
    LocalMember,
    compute_ddg_internal,
    compute_leaf_ddg,
    compute_piece_distance_table,
    repair_strict_matrix,
    strict_matrix,
)
from planar_oracle.decomposition import build_decomposition
from planar_oracle.frdijkstra import DdgUnion, SparseMember, multi_dijkstra
from planar_oracle.generate import generate_grid, generate_random_triangulation
from planar_oracle.graph import MATRIX_SENTINEL, EmbeddedPlanarGraph

from conftest import compute_ddg, explicit_dijkstra, in_piece_distance, leaves, minplus_closure


@pytest.fixture(scope="module")
def setup8(grid8):
    tree = build_decomposition(grid8, leaf_size=8, r_base=4)
    return grid8, tree


def test_strict_matrix_zero_weights():
    # a zero-length path through another boundary vertex is still not strict
    g = EmbeddedPlanarGraph(
        3, [(0, 1, 0), (1, 2, 0)], [[0], [0, 1], [1]]
    )
    piece = SimpleNamespace(id=0, vertices=(0, 1, 2), boundary=(0, 1, 2), arcs=(0, 1))
    strict = compute_ddg_internal(g, piece)
    S = MATRIX_SENTINEL
    assert list(strict.matrix) == [0, 0, S, S, 0, 0, S, S, 0]
    ddg = compute_ddg(g, piece)
    assert ddg.matrix[ddg.nodes.index(0) * len(ddg.nodes) + ddg.nodes.index(2)] == 0


def test_full_ddg_matches_in_piece_brute(setup8):
    # the reference compute_ddg in conftest, which criterion 3 and
    # test_closure_identity check the strict matrices against, agrees with
    # pairwise in-piece Dijkstra
    g, tree = setup8
    for p in tree.pieces[:12]:
        ddg = compute_ddg(g, p)
        k = len(ddg.nodes)
        assert ddg.nodes == p.boundary
        for s in ddg.nodes:
            for t in ddg.nodes:
                want = in_piece_distance(g, p, s, t)
                raw = ddg.matrix[ddg.nodes.index(s) * k + ddg.nodes.index(t)]
                if want >= MATRIX_SENTINEL:
                    assert raw >= MATRIX_SENTINEL
                else:
                    assert raw == want


def test_dist_accessor(setup8):
    # a stored strict matrix reads 0 on its diagonal
    g, tree = setup8
    p = next(p for p in tree.pieces if not p.is_leaf and p.boundary)
    ddg = DdgStore(g, tree).strict(p.id)
    s = ddg.nodes[0]
    i = ddg.nodes.index(s)
    assert ddg.matrix[i * len(ddg.nodes) + i] == 0


def test_root_ddg_is_empty(setup8):
    g, tree = setup8
    ddg = DdgStore(g, tree).strict(tree.pieces[0].id)
    assert ddg.nodes == ()
    assert len(ddg.matrix) == 0


def test_sssp_consistency_of_full_ddg(setup8):
    # stored strict entries never beat the unrestricted graph distance
    g, tree = setup8
    p = next(p for p in tree.pieces if not p.is_leaf and p.boundary)
    ddg = DdgStore(g, tree).strict(p.id)
    k = len(ddg.nodes)
    for s in ddg.nodes[:3]:
        ref = sssp(g, s)
        for t in ddg.nodes:
            d = ddg.matrix[ddg.nodes.index(s) * k + ddg.nodes.index(t)]
            if d < MATRIX_SENTINEL:
                assert d >= ref[t]


def test_closure_identity(setup8, tri60, path12, disconnected):
    cases = [setup8[:2]]
    for g in (tri60, path12, disconnected):
        cases.append((g, build_decomposition(g, leaf_size=6, r_base=4)))
    for g, tree in cases:
        store = DdgStore(g, tree)
        for p in tree.pieces:
            if p.is_leaf:
                continue
            closed = minplus_closure(store.strict(p.id))
            assert closed.matrix == compute_ddg(g, p).matrix


def test_strict_entries_dominate_full(setup8):
    # strict paths are a subset of all paths, so entries only grow
    g, tree = setup8
    store = DdgStore(g, tree)
    for p in tree.pieces:
        if p.is_leaf:
            continue
        full = compute_ddg(g, p)
        strict = store.strict(p.id)
        assert strict.nodes == full.nodes
        for i in range(len(full.matrix)):
            assert strict.matrix[i] >= full.matrix[i]


def test_leaf_ddg_with_failures(setup8):
    # the leaf member's own arcs, with the failed vertices forbidden in the
    # scan, give exact in-leaf distances avoiding them, boundary and
    # interior alike
    g, tree = setup8
    rng = random.Random(3)
    for leaf in leaves(tree)[:6]:
        piece = tree.pieces[leaf]
        failed = frozenset(rng.sample(piece.vertices, min(2, len(piece.vertices) - 1)))
        member = compute_leaf_ddg(g, piece)
        alive = [v for v in piece.vertices if v not in failed]
        for s in alive:
            res = multi_dijkstra([member], [(s, 0)], forbidden=failed)
            for t in alive:
                assert res.raw(t) == in_piece_distance(g, piece, s, t, failed)


def test_leaf_extras_become_nodes(setup8):
    # every leaf vertex is a node, so query endpoints need no grafting, and
    # every leaf arc is kept, each in its tail's row of the member's slot
    g, tree = setup8
    for leaf in leaves(tree)[:6]:
        piece = tree.pieces[leaf]
        member = compute_leaf_ddg(g, piece)
        assert member.nodes == piece.vertices
        assert member.arcs == tuple(g.arcs[a] for a in piece.arcs)
        rows = DdgUnion([member]).rows
        assert rows.keys() == set(piece.vertices)
        indexed = [
            (t, h, w)
            for t, (row,) in rows.items()
            for h, w in zip(row[1], row[2][row[3] : row[3] + len(row[1])])
        ]
        assert sorted(indexed) == sorted(member.arcs)


def test_piece_distance_table(setup8):
    g, tree = setup8
    for leaf in leaves(tree)[:4]:
        piece = tree.pieces[leaf]
        table = compute_piece_distance_table(g, piece)
        width = len(piece.vertices)
        assert len(table) == len(piece.boundary) * width
        for i, s in enumerate(piece.boundary):
            for j, t in enumerate(piece.vertices):
                want = in_piece_distance(g, piece, s, t)
                raw = table[i * width + j]
                if want >= MATRIX_SENTINEL:
                    assert raw >= MATRIX_SENTINEL
                else:
                    assert raw == want


def test_closure_matches_floyd_warshall():
    rng = random.Random(9)
    k = 7
    mat = array("q", [MATRIX_SENTINEL]) * (k * k)
    for i in range(k):
        for j in range(k):
            if i == j:
                mat[i * k + j] = 0
            elif rng.random() < 0.6:
                mat[i * k + j] = rng.randrange(0, 50)
    ddg = DenseDistanceGraph(tuple(range(k)), mat)
    closed = minplus_closure(ddg)
    fw = [[min(mat[i * k + j], MATRIX_SENTINEL) for j in range(k)] for i in range(k)]
    for m in range(k):
        for i in range(k):
            for j in range(k):
                if fw[i][m] + fw[m][j] < fw[i][j]:
                    fw[i][j] = fw[i][m] + fw[m][j]
    for i in range(k):
        for j in range(k):
            got = closed.matrix[i * k + j]
            if fw[i][j] >= MATRIX_SENTINEL:
                assert got >= MATRIX_SENTINEL
            else:
                assert got == fw[i][j]


def test_strict_matrix_mixes_members_and_extra_targets():
    # sparse and matrix members on scattered ids, with a node and a target
    # that no member holds; every row is a Dijkstra over the members' literal arcs
    # that never passes through a node
    S = MATRIX_SENTINEL
    rng = random.Random(28)
    for _ in range(60):
        ids = rng.sample(range(3, 300), 12)
        members = []
        for _ in range(rng.randint(1, 4)):
            verts = rng.sample(ids, rng.randint(2, 6))
            if rng.random() < 0.5:
                arcs = {(t, h): rng.randint(0, 9) for t in verts for h in verts if t != h}
                kept = rng.sample(sorted(arcs), rng.randint(0, len(arcs)))
                members.append(SparseMember(verts, [(t, h, arcs[t, h]) for t, h in kept]))
            else:
                entries = [rng.choice([S, 0, rng.randint(1, 20)]) for _ in verts for _ in verts]
                members.append(DenseDistanceGraph(tuple(verts), array("q", entries)))
        held = sorted({v for m in members for v in m.nodes})
        outside, beyond = 1, 2  # no member holds either
        nodes = [*rng.sample(held, rng.randint(1, len(held))), outside]
        rng.shuffle(nodes)
        targets = [*nodes, *rng.sample(held, rng.randint(0, len(held))), beyond]
        got = strict_matrix(members, nodes, targets)
        assert len(got) == len(nodes) * len(targets)
        for i, y in enumerate(nodes):
            if y == outside:
                want = {y: 0}
            else:
                want = explicit_dijkstra(members, [(y, 0)], forbidden=nodes)
            row = got[i * len(targets) : (i + 1) * len(targets)]
            assert list(row) == [want.get(t, S) for t in targets]


def test_store_memoizes(setup8):
    # a new store holds every piece's matrix, each leaf's as its own arcs
    # give it, and every one of them counts as stored entries
    g, tree = setup8
    store = DdgStore(g, tree)
    assert sorted(store._strict) == [p.id for p in tree.pieces]
    leaf = leaves(tree)[0]
    assert store.strict(leaf) is store.strict(leaf)
    assert store.strict(leaf).matrix == compute_ddg_internal(g, tree.pieces[leaf]).matrix
    assert store.stored_entry_count() == sum(len(p.boundary) ** 2 for p in tree.pieces)
    assert any(p.is_leaf and p.boundary for p in tree.pieces)


def test_ddg_validation():
    with pytest.raises(ValueError):
        DenseDistanceGraph((0, 1), array("q", [0]))


REPAIR_GRAPHS = [
    generate_grid(4, 4, max_weight=6, seed=4),
    generate_grid(6, 5, max_weight=6, seed=5),
    generate_random_triangulation(30, max_weight=6, seed=6),
]


@settings(max_examples=400, deadline=None)
@given(
    gi=st.integers(0, len(REPAIR_GRAPHS) - 1),
    pick=st.integers(0, 10**6),
    others=st.lists(st.integers(0, 10**6), max_size=8),
    tail_node=st.booleans(),
    head_node=st.booleans(),
    kind=st.sampled_from(["cut", "raise", "equal", "zero", "delete", "insert"]),
    w=st.integers(0, 9),
    dw=st.integers(1, 9),
    zeros=st.booleans(),
)
def test_repair_matches_strict_matrix(
    gi, pick, others, tail_node, head_node, kind, w, dw, zeros
):
    # one arc changes; the repaired matrix is the one strict_matrix computes
    # from scratch, byte for byte, whether or not the arc's ends are nodes
    g = REPAIR_GRAPHS[gi]
    arcs = [(t, h, wt % 3 if zeros else wt) for t, h, wt in g.arcs]
    i = pick % len(arcs)
    t, h, _ = arcs[i]
    nodes = {x % g.n for x in others} - {t, h}
    if tail_node:
        nodes.add(t)
    if head_node:
        nodes.add(h)
    nodes = sorted(nodes)
    w_old, w_new = {
        "cut": (w + dw, w),
        "raise": (w, w + dw),
        "equal": (w, w),
        "zero": (dw, 0),
        "delete": (w, None),
        "insert": (None, w),
    }[kind]

    def arcs_with(wt):
        return arcs[:i] + ([] if wt is None else [(t, h, wt)]) + arcs[i + 1 :]

    before, after = (SparseMember(range(g.n), arcs_with(wt)) for wt in (w_old, w_new))
    member = LocalMember(range(g.n), before.arcs, nodes)
    matrix = member.strict_matrix()
    assert matrix.tobytes() == strict_matrix([before], nodes).tobytes()
    member.edit(t, h, w_old, w_new)
    assert sorted(member.arcs) == sorted(after.arcs)
    repair_strict_matrix(member, matrix, t, h, w_old, w_new)
    assert matrix.tobytes() == strict_matrix([after], nodes).tobytes()
