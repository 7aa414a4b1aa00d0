"""The failed-vertex distance oracle against the brute baseline."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from planar_oracle.baseline import distance_avoiding, sssp
from planar_oracle.failure_oracle import LANDMARKS, FailureOracle, landmark_tables
from planar_oracle.frdijkstra import SparseMember, multi_dijkstra
from planar_oracle.graph import MATRIX_SENTINEL, UNREACHABLE, EmbeddedPlanarGraph
from planar_oracle.oraclefile import load_oracle, save_oracle

from conftest import explicit_dijkstra, union_arcs

# shapes for the landmark potential: strongly connected ones, one-way arcs
# with a zero-weight arc, several components, and a single vertex
ALT_ZOO = ("grid8", "tri200", "path12", "disconnected", "single")


@pytest.fixture(scope="module")
def fo8(grid8):
    return FailureOracle(grid8, leaf_size=8, r_base=4)


@pytest.fixture(scope="module")
def fo_tri(tri60):
    return FailureOracle(tri60, leaf_size=8, r_base=4)


def random_queries(rng, n, count, max_failed=4):
    for qi in range(count):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        x = set()
        while len(x) < min(qi % (max_failed + 1), n - 2):
            c = rng.randrange(n)
            if c not in (u, v):
                x.add(c)
        yield u, v, frozenset(x)


def test_exact_on_grid(grid8, fo8):
    rng = random.Random("fo-grid")
    for u, v, x in random_queries(rng, grid8.n, 250):
        assert fo8.distance(u, v, x) == distance_avoiding(grid8, u, v, x)


def test_exact_on_triangulation(tri60, fo_tri):
    rng = random.Random("fo-tri")
    for u, v, x in random_queries(rng, tri60.n, 250):
        assert fo_tri.distance(u, v, x) == distance_avoiding(tri60, u, v, x)


def test_no_failures_equals_sssp(grid8, fo8):
    for u in (0, 27, 63):
        ref = sssp(grid8, u)
        for v in range(0, grid8.n, 5):
            assert fo8.distance(u, v) == ref[v]


def test_cut_vertex_disconnects(path12):
    fo = FailureOracle(path12, leaf_size=4, r_base=4)
    assert fo.distance(0, 11, {6}) == UNREACHABLE
    assert fo.distance(0, 5, {6}) == distance_avoiding(path12, 0, 5, {6})
    assert fo.distance(7, 11, {6}) == distance_avoiding(path12, 7, 11, {6})


def test_disconnected_graph(disconnected):
    fo = FailureOracle(disconnected, leaf_size=3, r_base=4)
    assert fo.distance(0, 2) == 3
    assert fo.distance(0, 4) == UNREACHABLE
    assert fo.distance(4, 6, {5}) == UNREACHABLE
    assert fo.distance(7, 1) == UNREACHABLE


def test_single_vertex(single):
    fo = FailureOracle(single, leaf_size=3)
    assert fo.distance(0, 0) == 0


def test_strategies_agree(grid8, fo8):
    # the union scan's full label map equals Dijkstra over the assembly's
    # members expanded into literal arcs
    rng = random.Random("fo-strat")
    for u, v, x in random_queries(rng, grid8.n, 60):
        res = fo8.query_result(u, v, x)
        want = explicit_dijkstra(fo8.assemble(u, v, x), [(u, 0)], x)
        assert res.vertices == tuple(sorted(want))
        for w in res.vertices:
            assert res.raw(w) == want[w], (u, v, x, w)


def test_query_result_consistency(grid8, fo8):
    res = fo8.query_result(5, 40, {20})
    assert res.label(40) == fo8.distance(5, 40, {20})
    assert res.union_vertices > 0
    assert 0 < res.settled <= len(res.vertices)


def test_assembly_structure(grid8, fo8):
    members = fo8.assemble(5, 40, {20, 3})
    tree = fo8.tree
    # anchor leaves come first: the home leaves of u, v and the sorted
    # failures, deduped, each as its cached own-arcs member
    homes = list(dict.fromkeys(tree.leaf_of[w] for w in (5, 40, 3, 20)))
    assert members[: len(homes)] == [fo8._leaf(leaf) for leaf in homes]
    rest = members[len(homes) :]
    assert rest and not any(isinstance(m, SparseMember) for m in rest)
    # no member is a marked piece's matrix (those contain failures)
    marked = fo8._marked(frozenset({20, 3}))
    assert marked
    assert not any(m is fo8.store.strict(p) for p in marked for m in rest)
    # endpoints are nodes of their home leaf members
    assert 5 in members[0].nodes


def test_marked_pieces_contain_failures(grid8, fo8):
    members = fo8.assemble(0, 63, {27, 36})
    tree = fo8.tree
    marked = fo8._marked(frozenset({27, 36}))
    for pid in marked:
        assert tree.pieces[pid].contains(27) or tree.pieces[pid].contains(36)
        assert not any(m is fo8.store.strict(pid) for m in members)


def test_validation(grid8, fo8):
    with pytest.raises(ValueError):
        fo8.distance(0, 5, {0})
    with pytest.raises(ValueError):
        fo8.distance(0, 5, {5})
    with pytest.raises(ValueError):
        fo8.distance(-1, 5)
    with pytest.raises(ValueError):
        fo8.distance(0, grid8.n)
    with pytest.raises(ValueError):
        fo8.distance(0, 5, {grid8.n + 3})


def test_self_distance_zero_even_near_failures(grid8, fo8):
    assert fo8.distance(12, 12, {13}) == 0


def test_weighted_zoo_sweep(zoo):
    rng = random.Random("fo-zoo")
    for name, g in zoo.items():
        if g.n < 3:
            continue
        fo = FailureOracle(g, leaf_size=6, r_base=4)
        for u, v, x in random_queries(rng, g.n, 40, max_failed=2):
            assert fo.distance(u, v, x) == distance_avoiding(g, u, v, x), (
                name,
                u,
                v,
                x,
            )


@pytest.fixture(scope="module")
def alt_oracles(zoo):
    return {name: FailureOracle(zoo[name], leaf_size=6, r_base=4) for name in ALT_ZOO}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_potential_consistent_on_union_arcs(alt_oracles, data):
    name = data.draw(st.sampled_from(ALT_ZOO))
    fo = alt_oracles[name]
    g = fo.graph
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    others = [w for w in range(g.n) if w not in (u, v)]
    x = data.draw(st.sets(st.sampled_from(others), max_size=4)) if others else set()
    pi = fo._potential(v)
    assert pi(v) == 0
    members = fo.assemble(u, v, x)
    for y, z, w in union_arcs(members):
        assert pi(y) <= w + pi(z), (name, u, v, x, y, z, w)
    for y in {y for m in members for y in m.nodes}:
        if pi(y) >= MATRIX_SENTINEL:
            # "cannot reach v" must hold even without failures
            assert distance_avoiding(g, y, v) == UNREACHABLE, (name, y, v)


def test_potential_scan_matches_explicit_dijkstra(alt_oracles):
    rng = random.Random("fo-alt")
    for name, fo in alt_oracles.items():
        g = fo.graph
        if g.n < 2:
            continue
        for u, v, x in random_queries(rng, g.n, 60):
            members = fo.assemble(u, v, x)
            res = multi_dijkstra(
                members, [(u, 0)], forbidden=x, target=v, potential=fo._potential(v)
            )
            want = explicit_dijkstra(members, [(u, 0)], x)
            assert res.raw(v) == want[v], (name, u, v, x)


def test_landmark_tables_hold_distances(zoo):
    # to[y][i] = d(y, L_i) and frm[y][i] = d(L_i, y), unreachable as 2 *
    # MATRIX_SENTINEL, for distinct landmarks
    far = 2 * MATRIX_SENTINEL
    for name, g in zoo.items():
        landmarks, to, frm = landmark_tables(g)
        assert len(set(landmarks)) == len(landmarks) == min(LANDMARKS, g.n), name
        assert len(to) == len(frm) == g.n
        for i, lm in enumerate(landmarks):
            ref = sssp(g, lm)
            assert [row[i] for row in frm] == [far if d == UNREACHABLE else d for d in ref]
            for y in range(0, g.n, 7):
                d = distance_avoiding(g, y, lm)
                assert to[y][i] == (far if d == UNREACHABLE else d), (name, y, lm)


def test_zero_weight_cycle_picks_each_vertex_once():
    # both vertices are at round trip 0 from the first landmark
    g = EmbeddedPlanarGraph(2, [(0, 1, 0), (1, 0, 0)], [[0, 1], [0, 1]])
    assert landmark_tables(g)[0] == (0, 1)


@pytest.mark.parametrize("name", ["path12", "disconnected"])
def test_degenerate_graphs_every_pair(tmp_path, zoo, name):
    # one-way arcs, a zero-weight arc, components and an isolated vertex
    # leave landmark table entries unreachable; every ordered pair with up
    # to two failures stays exact, on a built and on a loaded oracle
    g = zoo[name]
    built = FailureOracle(g, leaf_size=3, r_base=4)
    assert FailureOracle(g, leaf_size=3, r_base=4).landmarks == built.landmarks
    assert len(set(built.landmarks)) == len(built.landmarks)
    path = tmp_path / "o.bin"
    save_oracle(built, path)
    loaded = load_oracle(path)
    assert loaded.landmarks == built.landmarks
    for u in range(g.n):
        for v in range(g.n):
            others = [w for w in range(g.n) if w not in (u, v)]
            for k in range(3):
                for x in itertools.combinations(others, k):
                    want = distance_avoiding(g, u, v, x)
                    assert built.distance(u, v, x) == want, (u, v, x)
                    assert loaded.distance(u, v, x) == want, (u, v, x)


def test_path12_landmarks_and_dead_ends(path12):
    fo = FailureOracle(path12, leaf_size=3, r_base=4)
    # vertex 0 first (every vertex ties as unreachable), then the far end
    # of the one-way path
    assert fo.landmarks[:2] == (0, 11)
    # no vertex reaches one behind it; the potential says so whenever a
    # landmark L lies in [v, y]: then y cannot reach L while v can (L < y),
    # or L reaches y but not v (L > v)
    for v in range(path12.n):
        pi = fo._potential(v)
        assert [pi(y) >= MATRIX_SENTINEL for y in range(path12.n)] == [
            y > v and any(v <= lm <= y for lm in fo.landmarks) for y in range(path12.n)
        ], v
