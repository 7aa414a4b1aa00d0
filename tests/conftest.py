"""Shared graph fixtures.

The zoo spans the shapes the library must handle: dense grids, random
triangulations, a one-way path (asymmetric reachability), a disconnected
graph with an isolated vertex, and a single-vertex graph.
"""

import heapq

import pytest

from planar_oracle.graph import MATRIX_SENTINEL, EmbeddedPlanarGraph
from planar_oracle.generate import generate_grid, generate_random_triangulation


def make_path12() -> EmbeddedPlanarGraph:
    """Directed path 0 -> 1 -> ... -> 11 with a zero-weight arc mixed in."""
    arcs = [(i, i + 1, 0 if i == 5 else (i % 3) + 1) for i in range(11)]
    rotation = [[0]] + [[i - 1, i] for i in range(1, 11)] + [[10]]
    return EmbeddedPlanarGraph(12, arcs, rotation)


def make_disconnected() -> EmbeddedPlanarGraph:
    """A directed 4-cycle, a separate 3-vertex path, and an isolated vertex."""
    arcs = [
        (0, 1, 2),
        (1, 2, 1),
        (2, 3, 3),
        (3, 0, 1),
        (4, 5, 5),
        (5, 6, 1),
    ]
    rotation = [[3, 0], [0, 1], [1, 2], [2, 3], [4], [4, 5], [5], []]
    return EmbeddedPlanarGraph(8, arcs, rotation)


def make_single() -> EmbeddedPlanarGraph:
    return EmbeddedPlanarGraph(1, [], [[]])


def in_piece_distance(g, piece, src, dst, failed=frozenset()):
    """Dijkstra restricted to the piece's own arcs, avoiding ``failed``;
    MATRIX_SENTINEL when ``dst`` is out of reach."""
    if src in failed or dst in failed:
        return MATRIX_SENTINEL
    dist = {src: 0}
    heap = [(0, src)]
    adj = {}
    for a in piece.arcs:
        adj.setdefault(g.tails[a], []).append((g.heads[a], g.weights[a]))
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, MATRIX_SENTINEL):
            continue
        for u, w in adj.get(v, ()):
            if u in failed:
                continue
            nd = d + w
            if nd < dist.get(u, MATRIX_SENTINEL):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist.get(dst, MATRIX_SENTINEL)


@pytest.fixture(scope="session")
def grid4():
    return generate_grid(4, 4, max_weight=7, seed=11)


@pytest.fixture(scope="session")
def grid8():
    return generate_grid(8, 8, max_weight=9, seed=1)


@pytest.fixture(scope="session")
def grid16():
    return generate_grid(16, 16, max_weight=13, seed=2)


@pytest.fixture(scope="session")
def tri60():
    return generate_random_triangulation(60, max_weight=10, seed=5)


@pytest.fixture(scope="session")
def tri200():
    return generate_random_triangulation(200, max_weight=15, seed=7)


@pytest.fixture(scope="session")
def path12():
    return make_path12()


@pytest.fixture(scope="session")
def disconnected():
    return make_disconnected()


@pytest.fixture(scope="session")
def single():
    return make_single()


@pytest.fixture(scope="session")
def zoo(grid4, grid8, grid16, tri60, tri200, path12, disconnected, single):
    """Name -> graph for tests that sweep every shape."""
    return {
        "grid4": grid4,
        "grid8": grid8,
        "grid16": grid16,
        "tri60": tri60,
        "tri200": tri200,
        "path12": path12,
        "disconnected": disconnected,
        "single": single,
    }
