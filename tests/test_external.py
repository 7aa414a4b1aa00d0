"""External distance tables: the complement view of piece tuples."""

import heapq
import itertools

import pytest

from planar_oracle.ddg import DdgStore
from planar_oracle.decomposition import build_decomposition
from planar_oracle.external import ExternalDdgBuilder
from planar_oracle.graph import MATRIX_SENTINEL

from conftest import minplus_closure


def masked_sssp(g, banned_arcs, src):
    dist = [MATRIX_SENTINEL] * g.n
    dist[src] = 0
    heap = [(0, src)]
    adj = [[] for _ in range(g.n)]
    for a, (t, h, w) in enumerate(g.arcs):
        if a not in banned_arcs:
            adj[t].append((h, w))
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for h, w in adj[u]:
            if d + w < dist[h]:
                dist[h] = d + w
                heapq.heappush(heap, (d + w, h))
    return dist


def check_tuple(g, tree, builder, ids):
    """closure(ext) must equal brute distances outside the tuple's arcs.
    The directional rows are checked by acceptance criterion 4."""
    ext, _ = builder.ext(ids, tuple(sorted(tree.cover(ids))))
    expect_nodes = tuple(
        sorted({v for pid in ids for v in tree.pieces[pid].boundary})
    )
    assert ext.nodes == expect_nodes
    closed = minplus_closure(ext)
    banned = set()
    for pid in ids:
        banned.update(tree.pieces[pid].arcs)
    k = len(closed.nodes)
    for i, src in enumerate(closed.nodes):
        dist = masked_sssp(g, banned, src)
        for j, dst in enumerate(closed.nodes):
            raw = closed.matrix[i * k + j]
            want = dist[dst]
            if want >= MATRIX_SENTINEL:
                assert raw >= MATRIX_SENTINEL, (ids, src, dst)
            else:
                assert raw == want, (ids, src, dst, raw, want)


@pytest.fixture(scope="module")
def world(grid8):
    tree = build_decomposition(grid8, leaf_size=8, r_base=4)
    return grid8, tree, ExternalDdgBuilder(tree, DdgStore(grid8, tree))


def test_single_pieces(world):
    g, tree, builder = world
    r = tree.r_sequence[0]
    for pid in tree.r_division(r):
        check_tuple(g, tree, builder, (pid,))


def test_pairs(world):
    g, tree, builder = world
    r = tree.r_sequence[0]
    rdiv = tree.r_division(r)
    for ids in itertools.combinations(rdiv, 2):
        check_tuple(g, tree, builder, tuple(sorted(ids)))


def test_triple(tri200):
    tree = build_decomposition(tri200, leaf_size=8, r_base=4)
    builder = ExternalDdgBuilder(tree, DdgStore(tri200, tree))
    r = tree.r_sequence[0]
    rdiv = tree.r_division(r)
    ids = tuple(sorted(rdiv[:3]))
    check_tuple(tri200, tree, builder, ids)

