"""The space-bounded oracle: precomputed tuple tables plus a query search."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from planar_oracle import ddg, failure_oracle, tradeoff_oracle
from planar_oracle.baseline import distance_avoiding, sssp
from planar_oracle.decomposition import build_decomposition
from planar_oracle.external import ExternalDdgBuilder
from planar_oracle.frdijkstra import DdgUnion, multi_dijkstra
from planar_oracle.generate import generate_grid, generate_random_triangulation
from planar_oracle.graph import MATRIX_SENTINEL, UNREACHABLE
from planar_oracle.oraclefile import load_oracle, save_oracle
from planar_oracle.tradeoff_oracle import TradeoffOracle, division_tuples

from conftest import run_with_2gib_address_space


@pytest.fixture(scope="module")
def to16(grid16):
    return TradeoffOracle(grid16, r=64, k=2, leaf_size=16, r_base=2)


def _tuple_exits(to):
    """Each stored tuple, in build order, and its exit pieces: the sorted
    cover of the tuple pieces."""
    return {ids: tuple(sorted(to.tree.cover(ids))) for ids in division_tuples(to.rdiv, to.k)}


def test_exact_k1_both_paths(grid8, to8):
    rng = random.Random("to-k1")
    queries = []
    for qi in range(250):
        u, v = rng.randrange(64), rng.randrange(64)
        if u == v:
            continue
        x = set()
        while len(x) < qi % 2:
            c = rng.randrange(64)
            if c not in (u, v):
                x.add(c)
        queries.append((u, v, tuple(sorted(x))))
    # few random queries fall back; these are built to
    queries += _built_to_fall_back(to8, rng, 20)
    main = fallback = 0
    for u, v, x in queries:
        if to8._plan(u, v, x) is None:
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
    queries = []
    for _ in range(200):
        u, v, f = rng.sample(range(64), 3)
        queries.append((u, v, (f,) if rng.random() < 0.8 else ()))
    queries += _built_to_fall_back(loaded, rng, 20)
    main = fallback = 0
    for u, v, x in queries:
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
    tuples = _tuple_exits(to8)
    assert list(tuples) == list(itertools.combinations(to8.rdiv, to8.k + 1))
    assert list(to8.ext) == list(tuples)
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
    exits_of = _tuple_exits(to)
    for ids, exits in exits_of.items():
        assert len(set(exits)) == len(exits), ids
        assert not any(tree.is_ancestor(q, pid) for q in exits for pid in ids), ids
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
            # a plan with v resident in the tuple has no exit piece
            assert q is None or q in to.tree.cover(ids), (u, v, x)
            main += 1
    assert main > 50


@pytest.mark.parametrize("name", ["fo8", "to8", "tri32"])
def test_union_members_tile_once(request, name):
    # assemble's members tile the graph's arcs exactly once, and on a main
    # plan the members after ext tile the tuple pieces' arcs exactly once
    oracle = request.getfixturevalue(name)
    pieces = oracle.tree.pieces
    piece_of = {
        id(m): pid
        for table in (oracle._leaves, oracle.store._strict)
        for pid, m in table.items()
    }

    def arcs(members):
        return sorted(a for m in members for a in pieces[piece_of[id(m)]].arcs)

    rng = random.Random(f"tile-{name}")
    k = getattr(oracle, "k", 4)
    main = 0
    for u, v, x in _queries(rng, oracle.graph.n, k, 300):
        assert arcs(oracle.assemble(u, v, x).members) == list(pieces[0].arcs), (u, v, x)
        plan = oracle._plan(u, v, x) if isinstance(oracle, TradeoffOracle) else None
        if plan is not None:
            ids, q = plan
            residents = (u, *x) if q is not None else (u, *x, v)
            members = list(oracle._assembly(ids, residents).members)
            # ext(T) is the one member that is no piece's
            (ext,) = [m for m in members if id(m) not in piece_of]
            assert ext is oracle.ext[ids]
            members.remove(ext)
            want = sorted(a for pid in ids for a in pieces[pid].arcs)
            assert arcs(members) == want, (u, v, x, ids)
            main += 1
    assert main > 50 or not isinstance(oracle, TradeoffOracle)


@pytest.mark.parametrize("name", ["fo8", "to8", "tri32"])
def test_query_view_scans_like_a_fresh_union(request, monkeypatch, name):
    # a query scans a view of the union the oracle indexed at set-up; a
    # union built afresh from the view's members, as every query built it
    # before, gives the same labels and counters on every scan
    oracle = request.getfixturevalue(name)
    scans = []

    def both(union, *args, **kwargs):
        res = multi_dijkstra(union, *args, **kwargs)
        scans.append((res, multi_dijkstra(DdgUnion(list(union.members)), *args, **kwargs)))
        return res

    for mod in (failure_oracle, tradeoff_oracle):
        monkeypatch.setattr(mod, "multi_dijkstra", both)
    rng = random.Random(f"view-{name}")
    ids = range(oracle.graph.n)
    for u, v, x in _queries(rng, oracle.graph.n, getattr(oracle, "k", 4), 300):
        scans.clear()
        res = oracle.query_result(u, v, x)
        (got, want), = scans
        assert got is res and res.union.rows is oracle._union.rows
        assert [got.raw(w) for w in ids] == [want.raw(w) for w in ids], (u, v, x)
        assert (got.settled, got.relaxations) == (want.settled, want.relaxations)
        assert (got.union_vertices, got.vertices) == (want.union_vertices, want.vertices)


@pytest.fixture(scope="module")
def to8_k0(grid8):
    return TradeoffOracle(grid8, r=32, k=0, leaf_size=8, r_base=4)


def _home_piece(to, w):
    """The division piece above w's home leaf, by search."""
    tree = to.tree
    (pid,) = [pid for pid in to.rdiv if tree.is_ancestor(pid, tree.leaf_of[w])]
    return pid


def _built_to_fall_back(to, rng, count):
    """Up to ``count`` queries with a failed vertex on the boundary of v's
    exit piece: u and k failed vertices in k + 1 distinct home pieces, and
    v under an exit of their tuple that holds a failed vertex."""
    if not to.k:
        return []
    tree = to.tree
    out = []
    for _ in range(200 * count):
        if len(out) == count:
            break
        u, *x = rng.sample(range(to.graph.n), to.k + 1)
        ids = tuple(sorted({_home_piece(to, w) for w in (u, *x)}))
        if len(ids) <= to.k:
            continue
        holding = [
            q for q in sorted(tree.cover(ids))
            if any(tree.pieces[q].contains(f) for f in x)
        ]
        if not holding:
            continue
        q = rng.choice(holding)
        under = [w for w in tree.pieces[q].vertices if tree.is_ancestor(q, tree.leaf_of[w])]
        if under:
            out.append((u, rng.choice(under), tuple(sorted(x))))
    return out


@pytest.mark.parametrize("name", ["to8", "to16", "tri32", "to8_k0"])
def test_plan_kinds(request, name):
    # every query gets the plan the rule names: v resident in a stored
    # tuple with every home piece, one exit that is v's piece of the
    # anchors' tuple, or the fallback when that exit holds a failure
    to = request.getfixturevalue(name)
    tree = to.tree
    assert len(to.rdiv) > to.k  # a stored tuple always fits
    rng = random.Random(f"plan-kinds-{name}")
    queries = list(_queries(rng, to.graph.n, to.k, 400)) + _built_to_fall_back(to, rng, 20)
    kinds = {"resident": 0, "exit": 0, "fallback": 0}
    for u, v, x in queries:
        anchors = {_home_piece(to, w) for w in (u, *x)}
        home_v = _home_piece(to, v)
        plan = to._plan(u, v, x)
        if home_v in anchors or len(anchors) <= to.k:
            assert plan is not None, (u, v, x)
            ids, q = plan
            assert q is None and ids in to.ext, (u, v, x)
            assert anchors | {home_v} <= set(ids), (u, v, x)
            kinds["resident"] += 1
            continue
        ids = tuple(sorted(anchors))
        leaf = tree.leaf_of[v]
        (q,) = [e for e in tree.cover(ids) if tree.is_ancestor(e, leaf)]
        if any(tree.pieces[q].contains(f) for f in x):
            assert plan is None, (u, v, x)
            kinds["fallback"] += 1
        else:
            assert plan == (ids, q), (u, v, x)
            kinds["exit"] += 1
    assert kinds["resident"] >= 10 and kinds["exit"] >= 10, kinds
    if to.k:
        assert kinds["fallback"] >= 10, kinds
    else:  # with no failure, no exit piece can hold one
        assert kinds["fallback"] == 0, kinds


@pytest.mark.parametrize("name", ["to8", "to16", "tri32"])
def test_piece_tables_built_at_setup(tmp_path, request, name):
    # set-up builds a table for every exit of some tuple and for no other
    # piece, each the in-piece table of the graph and the tree alone, and a
    # load builds the same bytes
    to = request.getfixturevalue(name)
    tree = to.tree
    exits = {q for ids in division_tuples(to.rdiv, to.k) for q in tree.cover(ids)}
    assert exits and to.piece_tables.keys() == exits
    for q, table in to.piece_tables.items():
        want = ddg.compute_piece_distance_table(to.graph, tree.pieces[q])
        assert table.tobytes() == want.tobytes(), q
    path = tmp_path / "o.bin"
    save_oracle(to, path)
    loaded = load_oracle(path)
    assert loaded.piece_tables.keys() == to.piece_tables.keys()
    for q, table in to.piece_tables.items():
        assert loaded.piece_tables[q].tobytes() == table.tobytes(), q


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
    # each query returns its scan by value, on the main path, with an exit
    # piece or with v resident, and on the fallback alike; 20 lies in v's
    # exit piece of the tuple of u's and 20's home pieces
    exit_, resident, fallback = (0, 63, (30,)), (0, 63, (2,)), (63, 0, (20,))
    assert to8._plan(*exit_)[1] is not None and to8._plan(*resident)[1] is None
    assert to8._plan(*fallback) is None
    for u, v, x in (exit_, resident, fallback):
        res = to8.query_result(u, v, x)
        assert res.label(v) == to8.distance(u, v, x) != UNREACHABLE
        assert res.union_vertices > 0


def test_unreachable_target(path12):
    to = TradeoffOracle(path12, r=8, k=1, leaf_size=4, r_base=2)
    assert to.distance(11, 0) == UNREACHABLE
    assert to.distance(0, 11, {6}) == UNREACHABLE


def test_one_dijkstra_per_tuple_boundary_vertex(grid16, monkeypatch):
    """The build reads ext(T) and the directional rows from the same runs:
    exactly one Dijkstra source per vertex of each tuple's boundary, and no
    union scan.  The strict matrices the tables start from are built
    first, with the store."""
    to = TradeoffOracle(grid16, r=64, k=1, leaf_size=16, r_base=2)
    sources = 0
    in_ext = False

    def ext(self, *args, _inner=ExternalDdgBuilder.ext):
        nonlocal in_ext
        in_ext = True
        try:
            return _inner(self, *args)
        finally:
            in_ext = False

    def counting(adj, rows, *args, _inner=ddg._dijkstra_rows):
        nonlocal sources
        if in_ext:
            sources += len(rows)
        return _inner(adj, rows, *args)

    def no_scan(*args, **kwargs):
        raise AssertionError("the build ran a union scan")

    monkeypatch.setattr(ExternalDdgBuilder, "ext", ext)
    monkeypatch.setattr(ddg, "_dijkstra_rows", counting)
    monkeypatch.setattr(tradeoff_oracle, "multi_dijkstra", no_scan)
    # every tuple's tables again, each ext call over the new store's matrices
    fresh = TradeoffOracle(grid16, r=64, k=1, tree=to.tree)
    assert 0 < sum(len(ext.nodes) for ext in fresh.ext.values()) == sources


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


def test_division_index_matches_piece_search(tmp_path, to8, to16, tri32):
    # the home pieces _plan reads, on built and loaded oracles
    for to in (to8, to16, tri32):
        path = tmp_path / "o.bin"
        save_oracle(to, path)
        for oracle in (to, load_oracle(path)):
            assert len(oracle._home) == oracle.graph.n
            for w in range(oracle.graph.n):
                assert oracle._home[w] == _home_piece(oracle, w), w


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
