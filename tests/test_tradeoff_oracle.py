"""The space-bounded oracle: precomputed tuple tables plus a query search."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from planar_oracle import external, tradeoff_oracle
from planar_oracle.baseline import distance_avoiding, sssp
from planar_oracle.decomposition import build_decomposition
from planar_oracle.external import ExternalDdgBuilder
from planar_oracle.generate import generate_grid, generate_random_triangulation
from planar_oracle.graph import MATRIX_SENTINEL, UNREACHABLE
from planar_oracle.oraclefile import load_oracle, save_oracle
from planar_oracle.tradeoff_oracle import TradeoffOracle

from conftest import run_with_2gib_address_space


@pytest.fixture(scope="module")
def to8(grid8):
    return TradeoffOracle(grid8, r=32, k=1, leaf_size=8, r_base=4)


@pytest.fixture(scope="module")
def to16(grid16):
    return TradeoffOracle(grid16, r=64, k=2, leaf_size=16, r_base=2)


def test_exact_k1_both_paths(grid8, to8):
    rng = random.Random("to-k1")
    main = fallback = 0
    for qi in range(250):
        u, v = rng.randrange(64), rng.randrange(64)
        if u == v:
            continue
        x = set()
        while len(x) < qi % 2:
            c = rng.randrange(64)
            if c not in (u, v):
                x.add(c)
        if to8._plan(u, v, tuple(sorted(x))) is None:
            fallback += 1
        else:
            main += 1
        assert to8.distance(u, v, x) == distance_avoiding(grid8, u, v, x)
    # the suite must exercise both the table path and the fallback
    assert main > 10 and fallback > 10


def test_loaded_oracle_builds_no_external_tables(tmp_path, grid8, to8, monkeypatch):
    # every query, main or fallback, answers from stored tables and the
    # failure oracle's strict matrices; no external matrix is built late
    path = tmp_path / "to8.bin"
    save_oracle(to8, path)
    loaded = load_oracle(path)

    def no_ext(*args, **kwargs):
        raise AssertionError("external matrix built at query time")

    monkeypatch.setattr(ExternalDdgBuilder, "ext", no_ext)
    rng = random.Random("to-no-ext")
    main = fallback = 0
    for _ in range(200):
        u, v, f = rng.sample(range(64), 3)
        x = (f,) if rng.random() < 0.8 else ()
        if loaded._plan(u, v, x) is None:
            fallback += 1
        else:
            main += 1
        assert loaded.distance(u, v, x) == distance_avoiding(grid8, u, v, x)
    assert main > 10 and fallback > 10


def test_exact_k2(grid16, to16):
    rng = random.Random("to-k2")
    for qi in range(120):
        u, v = rng.randrange(256), rng.randrange(256)
        if u == v:
            continue
        x = set()
        while len(x) < qi % 3:
            c = rng.randrange(256)
            if c not in (u, v):
                x.add(c)
        assert to16.distance(u, v, x) == distance_avoiding(grid16, u, v, x)


def test_exact_on_triangulation(tri60):
    to = TradeoffOracle(tri60, r=32, k=1, leaf_size=8, r_base=4)
    rng = random.Random("to-tri")
    for qi in range(150):
        u, v = rng.randrange(60), rng.randrange(60)
        if u == v:
            continue
        x = set()
        while len(x) < qi % 2:
            c = rng.randrange(60)
            if c not in (u, v):
                x.add(c)
        assert to.distance(u, v, x) == distance_avoiding(tri60, u, v, x)


def test_k0_failure_free(grid8):
    to = TradeoffOracle(grid8, r=32, k=0, leaf_size=8, r_base=4)
    ref = sssp(grid8, 10)
    for v in range(0, 64, 3):
        assert to.distance(10, v) == ref[v]
    with pytest.raises(ValueError):
        to.distance(0, 5, {7})


def test_budget_enforced(to8):
    with pytest.raises(ValueError):
        to8.distance(0, 5, {7, 9})


def test_validation(grid8, to8):
    with pytest.raises(ValueError):
        to8.distance(0, 5, {0})
    with pytest.raises(ValueError):
        to8.distance(0, 5, {5})
    with pytest.raises(ValueError):
        to8.distance(64, 5)
    assert to8.distance(7, 7, {9}) == 0


def test_construction_validation(grid8):
    with pytest.raises(ValueError):
        TradeoffOracle(grid8, r=33, k=1, leaf_size=8)
    with pytest.raises(ValueError):
        TradeoffOracle(grid8, r=32, k=-1, leaf_size=8)


def test_table_shapes(to8):
    tree = to8.tree
    tuples = dict(to8._tuples())
    assert list(tuples) == list(itertools.combinations(to8.rdiv, to8.k + 1))
    for ids, exits in tuples.items():
        assert ids in to8.ext
        bset = sorted({v for pid in ids for v in tree.pieces[pid].boundary})
        for q in exits:
            qb = tree.pieces[q].boundary
            for y in bset:
                row = to8.vor[(ids, q, y)]
                assert len(row) == len(qb)
    for q, table in to8.piece_tables.items():
        piece = tree.pieces[q]
        assert len(table) == len(piece.boundary) * len(piece.vertices)


@pytest.fixture(scope="module")
def tri32(tri60):
    return TradeoffOracle(tri60, r=32, k=1, leaf_size=8, r_base=4)


@pytest.mark.parametrize("name", ["to8", "to16", "tri32"])
def test_vor_rows_only_for_tuple_exits(request, name):
    # a sibling off one tuple piece's root path that holds another tuple
    # piece is no exit: no query reads its rows, so none is stored
    to = request.getfixturevalue(name)
    tree = to.tree
    exits_of = {}
    for ids, exits in to._tuples():
        assert exits == external.tuple_exits(tree, ids) == tuple(sorted(exits))
        assert not any(tree.is_ancestor(q, pid) for q in exits for pid in ids), ids
        exits_of[ids] = exits
    assert to.vor
    for ids, q, y in to.vor:
        assert q in exits_of[ids], (ids, q)
    rows = sum(len(exits) * len(to.ext[ids].nodes) for ids, exits in exits_of.items())
    assert len(to.vor) == rows


@pytest.mark.parametrize("name", ["to8", "to16", "tri32"])
def test_plan_exit_is_a_tuple_exit(request, name):
    to = request.getfixturevalue(name)
    rng = random.Random(f"plan-exit-{name}")
    main = 0
    for u, v, x in _queries(rng, to.graph.n, to.k, 400):
        plan = to._plan(u, v, x)
        if plan is not None:
            ids, q = plan
            assert q in external.tuple_exits(to.tree, ids), (u, v, x)
            main += 1
    assert main > 50


@pytest.mark.parametrize("name", ["to8", "to16", "tri32"])
def test_piece_tables_built_at_setup(tmp_path, request, monkeypatch, name):
    # the exit pieces' tables depend on the graph and the tree alone: set-up
    # builds them, walking no tuple, and a load builds the same bytes
    to = request.getfixturevalue(name)
    path = tmp_path / "o.bin"
    save_oracle(to, path)

    def no_walk(self):
        raise AssertionError("set-up walked the tuples")

    with monkeypatch.context() as m:
        m.setattr(TradeoffOracle, "_tuples", no_walk)
        bare = TradeoffOracle.__new__(TradeoffOracle)
        bare._setup(to.graph, to.tree, to.r, to.k)
    loaded = load_oracle(path)
    for oracle in (bare, loaded):
        assert oracle.piece_tables.keys() == to.piece_tables.keys()
        for q, table in to.piece_tables.items():
            assert oracle.piece_tables[q].tobytes() == table.tobytes(), q
    # a table for every exit of some tuple, and for no other piece
    exits = {q for _, qs in to._tuples() for q in qs}
    assert exits == loaded.piece_tables.keys()


def test_no_piece_tables_without_exits(grid8):
    # with k + 1 pieces or more no tuple has an exit
    rdiv = build_decomposition(grid8, leaf_size=8, r_base=4).r_division(32)
    for k in (len(rdiv) - 1, len(rdiv)):
        to = TradeoffOracle(grid8, r=32, k=k, leaf_size=8, r_base=4)
        assert not to.vor and not to.piece_tables, k


def test_vor_rows_avoid_tuple_interiors(grid8, to8):
    """Every stored row must be achievable without entering the tuple."""
    tree = to8.tree
    checked = 0
    for (ids, q, y), row in to8.vor.items():
        if checked >= 40:
            break
        banned = set()
        for pid in ids:
            banned.update(tree.pieces[pid].arcs)
        import heapq

        dist = {y: 0}
        heap = [(0, y)]
        bset = {w for pid in ids for w in tree.pieces[pid].boundary}
        adj = {}
        for a, (t, h, w) in enumerate(grid8.arcs):
            if a not in banned:
                adj.setdefault(t, []).append((h, w))
        while heap:
            d, vv = heapq.heappop(heap)
            if d > dist.get(vv, MATRIX_SENTINEL):
                continue
            if vv in bset and vv != y:
                continue  # strict: other tuple boundary vertices block
            for hh, ww in adj.get(vv, ()):
                nd = d + ww
                if nd < dist.get(hh, MATRIX_SENTINEL):
                    dist[hh] = nd
                    heapq.heappush(heap, (nd, hh))
        qb = tree.pieces[q].boundary
        for s, got in zip(qb, row):
            want = dist.get(s, MATRIX_SENTINEL)
            if want >= MATRIX_SENTINEL:
                assert got >= MATRIX_SENTINEL, (ids, q, y, s)
            else:
                assert got == want, (ids, q, y, s, got, want)
        checked += 1
    assert checked > 0


def test_last_result_instrumentation(to8):
    # each query returns its scan by value, on the main path and on the
    # fallback alike
    main, fallback = (0, 63, (30,)), (0, 63, (2,))
    assert to8._plan(*main) is not None and to8._plan(*fallback) is None
    for u, v, x in (main, fallback):
        res = to8.query_result(u, v, x)
        assert res.label(v) == to8.distance(u, v, x) != UNREACHABLE
        assert res.union_vertices > 0


def test_unreachable_target(path12):
    to = TradeoffOracle(path12, r=8, k=1, leaf_size=4, r_base=2)
    assert to.distance(11, 0) == UNREACHABLE
    assert to.distance(0, 11, {6}) == UNREACHABLE


def test_one_dijkstra_per_tuple_boundary_vertex(grid16, monkeypatch):
    """The build reads ext(T) and the directional rows from the same runs:
    at most one union Dijkstra per vertex of each tuple's boundary."""
    runs = 0
    for mod in (external, tradeoff_oracle):

        def counting(*args, _inner=mod.multi_dijkstra, **kwargs):
            nonlocal runs
            runs += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(mod, "multi_dijkstra", counting)
    to = TradeoffOracle(grid16, r=64, k=1, leaf_size=16, r_base=2)
    bound = sum(len(ext.nodes) for ext in to.ext.values())
    assert 0 < runs <= bound


def _queries(rng, n, k, count):
    for qi in range(count):
        u, v = rng.sample(range(n), 2)
        x = set()
        while len(x) < min(qi % (k + 1), n - 2):
            c = rng.randrange(n)
            if c not in (u, v):
                x.add(c)
        yield u, v, tuple(sorted(x))


@pytest.mark.parametrize(
    "graph, r, k, leaf_size, r_base",
    [
        ("grid8", 32, 0, 8, 4),
        ("grid8", 32, 1, 8, 4),
        ("grid8", 16, 2, 4, 2),
        ("tri60", 32, 0, 8, 4),
        ("tri60", 32, 1, 8, 4),
        ("tri60", 16, 2, 4, 2),
    ],
)
def test_main_path_exact(request, graph, r, k, leaf_size, r_base):
    # every query the tables serve, answered by the main path alone
    g = request.getfixturevalue(graph)
    to = TradeoffOracle(g, r=r, k=k, leaf_size=leaf_size, r_base=r_base)
    rng = random.Random(f"main-{graph}-{k}")
    main = 0
    for u, v, x in _queries(rng, g.n, k, 300):
        plan = to._plan(u, v, x)
        if plan is None:
            continue
        main += 1
        assert to._main(u, v, x, *plan).label(v) == distance_avoiding(g, u, v, x), (u, v, x)
    assert main > 20


def _linear_first_arc(self, piece, i):
    # the plan's arc search before it read i's rotation: the first arc of
    # the piece, in id order, with i as an end
    for a in piece.arcs:
        if self.graph.tails[a] == i or self.graph.heads[a] == i:
            return a
    return None


def test_plan_arc_search_matches_linear_scan(grid8, to8, to16, tri60, monkeypatch):
    tri = TradeoffOracle(tri60, r=32, k=1, leaf_size=8, r_base=4)
    plans = []
    for to in (to8, to16, tri):
        rng = random.Random("plan-arc")
        for u, v, x in _queries(rng, to.graph.n, to.k, 600):
            plans.append((to, u, v, x, to._plan(u, v, x)))
    assert sum(1 for *_, plan in plans if plan is not None) >= 500
    monkeypatch.setattr(TradeoffOracle, "_first_arc_at", _linear_first_arc)
    for to, u, v, x, plan in plans:
        assert to._plan(u, v, x) == plan, (u, v, x)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["grid", "tri"]),
    size=st.integers(4, 7),
    seed=st.integers(0, 10**6),
    k=st.integers(0, 1),
    pick=st.integers(0, 10),
)
def test_exit_cost_bounds_potential(kind, size, seed, k, pick):
    # the main path's exit arcs y -> v keep the landmark potential
    # consistent: π(y) <= c(y) for every tuple T, exit piece q, y in ∂T
    # and v in q, whichever vertex s of ∂T the scan starts from picks
    # the potential's landmarks
    if kind == "grid":
        g = generate_grid(size, size, max_weight=9, seed=seed)
    else:
        g = generate_random_triangulation(size * size, max_weight=9, seed=seed)
    tree = build_decomposition(g, leaf_size=4, r_base=2)
    r = tree.r_sequence[pick % len(tree.r_sequence)]
    to = TradeoffOracle(g, r=r, k=k, tree=tree)
    pis = {}
    checked = 0
    for (ids, q, y), row in to.vor.items():
        table = to.piece_tables[q]
        vertices = to.tree.pieces[q].vertices
        for j, v in enumerate(vertices):
            hop = table[j :: len(vertices)]
            c = min(map(sum, zip(row, hop)), default=MATRIX_SENTINEL)
            if c < MATRIX_SENTINEL:
                for s in to.ext[ids].nodes:
                    if (s, v) not in pis:
                        pis[s, v] = to._potential(s, v)
                    assert pis[s, v](y) <= c, (ids, q, y, v, s)
                checked += 1
    assert checked > 0 or not to.vor


def test_division_index_matches_piece_search(tmp_path, to8, to16, tri60):
    # the per-vertex division pieces _plan reads, on built and loaded oracles
    tri = TradeoffOracle(tri60, r=32, k=1, leaf_size=8, r_base=4)
    for to in (to8, to16, tri):
        path = tmp_path / "o.bin"
        save_oracle(to, path)
        for oracle in (to, load_oracle(path)):
            pieces = oracle.tree.pieces
            assert len(oracle._rdiv_of) == oracle.graph.n
            for w in range(oracle.graph.n):
                want = [pid for pid in oracle.rdiv if pieces[pid].contains(w)]
                assert list(oracle._rdiv_of[w]) == want, w


def test_huge_k_builds_no_tuples():
    # no tuple has 2**32 pieces; unguarded, the build asks for 2**32
    # combination indices, more than a 2 GiB address space holds
    code = (
        "from planar_oracle.generate import generate_grid\n"
        "from planar_oracle.tradeoff_oracle import TradeoffOracle\n"
        "g = generate_grid(6, 6, max_weight=5, seed=3)\n"
        "to = TradeoffOracle(g, r=16, k=2**32 - 1, leaf_size=4)\n"
        "print(len(to.ext), len(to.vor), to._plan(0, 35, (7,)), to.distance(0, 35, {7}))\n"
    )
    got = run_with_2gib_address_space(code)
    g = generate_grid(6, 6, max_weight=5, seed=3)
    assert got == f"0 0 None {distance_avoiding(g, 0, 35, {7})}"
