"""The failed-vertex distance oracle against the brute baseline."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from planar_oracle.baseline import distance_avoiding, sssp
from planar_oracle.decomposition import build_decomposition
from planar_oracle.failure_oracle import (
    ACTIVE_LANDMARKS,
    LANDMARKS,
    FailureOracle,
    active_landmarks,
    landmark_potential,
    landmark_tables,
)
from planar_oracle.frdijkstra import SparseMember, multi_dijkstra
from planar_oracle.generate import generate_grid, generate_random_triangulation
from planar_oracle.graph import MATRIX_SENTINEL, UNREACHABLE, EmbeddedPlanarGraph
from planar_oracle.oraclefile import load_oracle, save_oracle
from planar_oracle.tradeoff_oracle import TradeoffOracle

from conftest import explicit_dijkstra, union_arcs

# shapes for the landmark potential: strongly connected ones, one-way arcs
# with a zero-weight arc, several components, and a single vertex
ALT_ZOO = ("grid8", "tri200", "path12", "disconnected", "single")


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
    # the union scan's full label map, run to the end, equals Dijkstra over
    # the assembly's members expanded into literal arcs
    rng = random.Random("fo-strat")
    for u, v, x in random_queries(rng, grid8.n, 60):
        union = fo8.assemble(u, v, x)
        res = multi_dijkstra(union, [(u, 0)], forbidden=x)
        want = explicit_dijkstra(union.members, [(u, 0)], x)
        assert res.vertices == tuple(sorted(want))
        for w in res.vertices:
            assert res.raw(w) == want[w], (u, v, x, w)


def test_query_result_consistency(grid8, fo8):
    res = fo8.query_result(5, 40, {20})
    assert res.label(40) == fo8.distance(5, 40, {20})
    assert res.union_vertices > 0
    assert 0 < res.settled <= len(res.vertices)


def strict_pieces(oracle, members):
    """The pieces whose stored strict matrices are among ``members``."""
    piece_of = {id(m): pid for pid, m in oracle.store._strict.items()}
    return [piece_of[id(m)] for m in members if id(m) in piece_of]


def test_assembly_structure(grid8, fo8):
    members = fo8.assemble(5, 40, {20, 3}).members
    tree = fo8.tree
    # anchor leaves come last, in slot order, which is leaf id order: the
    # home leaves of u, v and the failures, deduped, each as its cached
    # own-arcs member
    homes = sorted({tree.leaf_of[w] for w in (5, 40, 3, 20)})
    rest = members[: -len(homes)]
    assert members[len(rest) :] == tuple(fo8._leaves[leaf] for leaf in homes)
    assert rest and not any(isinstance(m, SparseMember) for m in rest)
    # every other member is a strict matrix, of a piece on no home leaf's
    # root path, in piece order: its slot in the oracle's union
    sibs = strict_pieces(fo8, rest)
    assert len(sibs) == len(rest)
    assert sibs == sorted(sibs)
    assert not any(tree.is_ancestor(p, leaf) for p in sibs for leaf in homes)
    # endpoints are nodes of their home leaf members
    assert 5 in members[len(rest) + homes.index(tree.leaf_of[5])].nodes


def test_no_strict_member_hides_a_failure(grid8, fo8):
    # a failed vertex in a strict member's piece is on its boundary, a
    # node of the matrix where the scan blocks it
    pieces = fo8.tree.pieces
    for x in ({20, 3}, {27, 36}, {9, 18, 27, 54}):
        for u, v in ((5, 40), (0, 63)):
            for pid in strict_pieces(fo8, fo8.assemble(u, v, x).members):
                for f in x:
                    inside = pieces[pid].contains(f) and f not in pieces[pid].boundary
                    assert not inside, (u, v, x, pid, f)


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
    pi = fo._potential(u, v)
    assert pi(v) == 0
    members = fo.assemble(u, v, x).members
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
            union = fo.assemble(u, v, x)
            res = multi_dijkstra(
                union, [(u, 0)], forbidden=x, target=v, potential=fo._potential(u, v)
            )
            want = explicit_dijkstra(union.members, [(u, 0)], x)
            assert res.raw(v) == want[v], (name, u, v, x)


def full_bound(to, frm, y, t):
    """The landmark bound on d(y, t) over every landmark."""
    terms = [a - b for a, b in zip(to[y], to[t])] + [a - b for a, b in zip(frm[t], frm[y])]
    return max(0, *terms)


def test_active_landmarks_carry_the_full_bound_at_the_source(zoo):
    # every subset of landmarks is exact, so only this catches a bad pick:
    # π(s) is the bound over all landmarks, and no π(y) exceeds it
    rng = random.Random("active-landmarks")
    for name, g in zoo.items():
        _, to, frm = landmark_tables(g)
        for _ in range(40):
            s, t = rng.randrange(g.n), rng.randrange(g.n)
            active = active_landmarks(to, frm, s, t)
            assert len(active) == ACTIVE_LANDMARKS, (name, s, t)
            pi = landmark_potential(to, frm, s, t)
            assert pi(s) == full_bound(to, frm, s, t), (name, s, t)
            for y in range(g.n):
                assert pi(y) <= full_bound(to, frm, y, t), (name, s, t, y)


def test_unreachable_source_settles_nothing(zoo):
    # a source the full bound marks as unable to reach t is marked by the
    # active landmarks too, so the scan never queues it
    checked = 0
    for name in ("path12", "disconnected"):
        fo = FailureOracle(zoo[name], leaf_size=3, r_base=4)
        n = fo.graph.n
        for s, t in itertools.permutations(range(n), 2):
            if full_bound(fo._to, fo._frm, s, t) < MATRIX_SENTINEL:
                continue
            assert fo._potential(s, t)(s) >= MATRIX_SENTINEL, (name, s, t)
            res = fo.query_result(s, t)
            assert res.settled == 0 and res.label(t) == UNREACHABLE, (name, s, t)
            checked += 1
    assert checked > 20


def test_fewer_landmarks_than_active():
    # two vertices, two landmarks: the best one fills the third slot
    g = EmbeddedPlanarGraph(2, [(0, 1, 4)], [[0], [0]])
    fo = FailureOracle(g, leaf_size=3, r_base=4)
    assert len(fo._to[0]) == len(fo._frm[0]) == 2
    for s, t in ((0, 1), (1, 0)):
        active = active_landmarks(fo._to, fo._frm, s, t)
        assert len(active) == ACTIVE_LANDMARKS and active[-1] == active[0]
    assert fo.distance(0, 1) == 4
    assert fo.distance(1, 0) == UNREACHABLE


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
    landmarks = landmark_tables(g)[0]
    assert landmark_tables(g)[0] == landmarks
    assert len(set(landmarks)) == len(landmarks)
    path = tmp_path / "o.bin"
    save_oracle(built, path)
    loaded = load_oracle(path)
    assert (loaded._to, loaded._frm) == (built._to, built._frm)
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
    landmarks = landmark_tables(path12)[0]
    # vertex 0 first (every vertex ties as unreachable), then the far end
    # of the one-way path
    assert landmarks[:2] == (0, 11)
    # no vertex reaches one behind it; a scan from s says so whenever one
    # of its active landmarks L lies in [v, y]: then y cannot reach L while
    # v can (L < y), or L reaches y but not v (L > v)
    for s in range(path12.n):
        for v in range(path12.n):
            pi = fo._potential(s, v)
            active = [landmarks[i] for i in active_landmarks(fo._to, fo._frm, s, v)]
            assert [pi(y) >= MATRIX_SENTINEL for y in range(path12.n)] == [
                y > v and any(v <= lm <= y for lm in active) for y in range(path12.n)
            ], (s, v)


def test_tree_of_another_graph_is_rejected(tri60, grid8):
    # these raised KeyError or IndexError partway through the build: a
    # tree of another 60-vertex triangulation, and one of an 8x8 grid on a
    # 4x16 grid
    cases = [
        (tri60, generate_random_triangulation(60, max_weight=10, seed=6)),
        (generate_grid(4, 16, max_weight=9, seed=1), grid8),
    ]
    for g, other in cases:
        tree = build_decomposition(other, leaf_size=8, r_base=4)
        with pytest.raises(ValueError, match="another graph"):
            FailureOracle(g, tree=tree)
        with pytest.raises(ValueError, match="another graph"):
            TradeoffOracle(g, r=tree.r_sequence[0], k=1, tree=tree)


def test_tree_of_the_same_topology_is_accepted(grid8):
    # a tree holds only vertex and arc ids, so one built for other weights
    # on the same topology serves g exactly
    other = generate_grid(8, 8, max_weight=9, seed=2)
    assert other.weights != grid8.weights
    tree = build_decomposition(other, leaf_size=8, r_base=4)
    fo = FailureOracle(grid8, tree=tree)
    to = TradeoffOracle(grid8, r=32, k=1, tree=tree)
    rng = random.Random("same-topology")
    for u, v, x in random_queries(rng, grid8.n, 100, max_failed=1):
        want = distance_avoiding(grid8, u, v, x)
        assert fo.distance(u, v, x) == to.distance(u, v, x) == want, (u, v, x)
