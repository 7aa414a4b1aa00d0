"""The failed-vertex distance oracle against the brute baseline."""

import random

import pytest

from planar_oracle.baseline import distance_avoiding, sssp
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.graph import UNREACHABLE

from conftest import explicit_dijkstra


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
        want = explicit_dijkstra(fo8.assemble(u, v, x).members, [(u, 0)], x)
        assert res.vertices == tuple(sorted(want))
        for w in res.vertices:
            assert res.raw(w) == want[w], (u, v, x, w)


def test_query_result_consistency(grid8, fo8):
    res = fo8.query_result(5, 40, {20})
    assert res.label(40) == fo8.distance(5, 40, {20})
    assert res.union_vertices > 0
    assert 0 < res.settled <= len(res.vertices)


def test_assembly_structure(grid8, fo8):
    asm = fo8.assemble(5, 40, {20})
    kinds = {kind for kind, _ in asm.parts}
    assert kinds == {"leaf", "sibling"}
    tree = fo8.tree
    # anchor leaves are the home leaves of endpoints and failures, deduped
    homes = []
    for w in (5, 40, 20):
        leaf = tree.leaf_of[w]
        if leaf not in homes:
            homes.append(leaf)
    assert list(asm.anchor_leaves) == homes
    # no member is a marked piece (those contain failures)
    for kind, pid in asm.parts:
        if kind == "sibling":
            assert pid not in asm.marked
    # endpoints are grafted into their home leaf members
    first = asm.members[0]
    assert 5 in first.nodes


def test_marked_pieces_contain_failures(grid8, fo8):
    asm = fo8.assemble(0, 63, {27, 36})
    tree = fo8.tree
    for pid in asm.marked:
        assert tree.pieces[pid].contains(27) or tree.pieces[pid].contains(36)


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
