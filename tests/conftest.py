"""Shared graph and oracle fixtures and reference computations.

The zoo spans the shapes the library must handle: dense grids, random
triangulations, a one-way path (asymmetric reachability), a disconnected
graph with an isolated vertex, and a single-vertex graph; ``tri300`` and
``multi`` are read from the text fixtures under ``data/``.  The references
share no code with the structures under test: plain Dijkstra runs,
``compute_ddg`` (in-piece boundary-to-boundary distances, paths free to pass
other boundary vertices) and ``minplus_closure``, which the strict matrices
must compose back to, and the face walk and components that the
decomposition's kernels must reproduce exactly (``reference_trace_faces``,
``reference_components``).
"""

import heapq
import os
import subprocess
import sys
from array import array

import pytest

from planar_oracle.ddg import DenseDistanceGraph
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.frdijkstra import SparseMember
from planar_oracle.graph import MATRIX_SENTINEL, EmbeddedPlanarGraph, EmbeddingError, load_graph
from planar_oracle.generate import generate_grid, generate_random_triangulation
from planar_oracle.tradeoff_oracle import TradeoffOracle


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


def component_count(g):
    """Connected components of ``g`` with arc directions ignored; isolated
    vertices count one each."""
    return len(reference_components(range(g.n), range(g.m), g.tails, g.heads))


def reference_trace_faces(arc_ids, tails, heads, rotation):
    """Faces as dart cycles (dart 2a walks arc a forwards, 2a + 1 backwards),
    walked dart by dart: the successor of a dart is found at its target by
    looking up its arc's rotation position.  Faces come in order of their
    smallest dart, each starting there."""
    pos = {v: {a: i for i, a in enumerate(rot)} for v, rot in rotation.items()}
    darts = sorted(d for a in arc_ids for d in (2 * a, 2 * a + 1))
    seen = set()
    faces = []
    for start in darts:
        if start in seen:
            continue
        face = []
        d = start
        while d not in seen:
            seen.add(d)
            face.append(d)
            a = d >> 1
            v = heads[a] if d & 1 == 0 else tails[a]
            rot = rotation[v]
            a2 = rot[(pos[v][a] + 1) % len(rot)]
            d = 2 * a2 if tails[a2] == v else 2 * a2 + 1
        if d != start:
            raise EmbeddingError("broken face walk")
        faces.append(face)
    return faces


def reference_components(verts, arcs, tails, heads):
    """(sorted vertices, sorted arcs) per undirected component by
    union-find, largest first, ties by smallest vertex."""
    idx = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in arcs:
        t, h = find(idx[tails[a]]), find(idx[heads[a]])
        if t != h:
            parent[t] = h
    groups = {}
    for i, v in enumerate(verts):
        groups.setdefault(find(i), []).append(v)
    comp_arcs = {r: [] for r in groups}
    for a in arcs:
        comp_arcs[find(idx[tails[a]])].append(a)
    out = [(tuple(sorted(vs)), tuple(sorted(comp_arcs[r]))) for r, vs in groups.items()]
    out.sort(key=lambda cv: (-len(cv[0]), cv[0][0]))
    return out


def piece_rotation(g, piece):
    """Each piece vertex's rotation kept to the piece's own arcs."""
    arcs = set(piece.arcs)
    return {v: [a for a in g.rotation[v] if a in arcs] for v in piece.vertices}


def leaves(tree):
    """Ids of the tree's leaf pieces, in id order."""
    return [p.id for p in tree.pieces if p.is_leaf]


def in_piece_distance(g, piece, src, dst, failed=frozenset()):
    """Dijkstra restricted to the piece's own arcs, avoiding ``failed``;
    MATRIX_SENTINEL when ``dst`` is out of reach."""
    if dst in failed:
        return MATRIX_SENTINEL
    return in_piece_distances(g, piece, src, failed).get(dst, MATRIX_SENTINEL)


def in_piece_distances(g, piece, src, failed=frozenset()):
    """{vertex: distance} from ``src`` over the piece's own arcs, avoiding
    ``failed``; unreached vertices are missing."""
    if src in failed:
        return {}
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
    return dist


def compute_ddg(g, piece):
    """Reference closed DDG: in-piece distances between the piece's
    boundary vertices, paths free to pass other boundary vertices."""
    rows = [in_piece_distances(g, piece, s) for s in piece.boundary]
    matrix = array("q", (row.get(t, MATRIX_SENTINEL) for row in rows for t in piece.boundary))
    return DenseDistanceGraph(piece.boundary, matrix)


def minplus_closure(ddg):
    """All-pairs min-plus closure of a DDG, treating entries as arc weights:
    one Dijkstra per node over the complete digraph the matrix describes."""
    k = len(ddg.nodes)
    out = array("q", [MATRIX_SENTINEL]) * (k * k)
    mat = ddg.matrix
    for i in range(k):
        dist = [MATRIX_SENTINEL] * k
        dist[i] = 0
        heap = [(0, i)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            row = u * k
            for v in range(k):
                w = mat[row + v]
                if w >= MATRIX_SENTINEL:
                    continue
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        row = i * k
        for j in range(k):
            out[row + j] = dist[j]
    return DenseDistanceGraph(ddg.nodes, out)


def dense(nodes, entries):
    """Member from a {(s, t): w} dict; missing pairs are unreachable."""
    k = len(nodes)
    mat = array("q", [MATRIX_SENTINEL]) * (k * k)
    for i in range(k):
        mat[i * k + i] = 0
    for (s, t), w in entries.items():
        mat[nodes.index(s) * k + nodes.index(t)] = w
    return DenseDistanceGraph(tuple(nodes), mat)


def explicit_dijkstra(members, sources, forbidden=()):
    """Reference: expand every member into literal arcs and run Dijkstra."""
    arcs = []
    verts = set()
    for m in members:
        verts.update(m.nodes)
        if isinstance(m, SparseMember):
            arcs.extend(m.arcs)
        else:
            k = len(m.nodes)
            for i in range(k):
                for j in range(k):
                    w = m.matrix[i * k + j]
                    if w < MATRIX_SENTINEL and i != j:
                        arcs.append((m.nodes[i], m.nodes[j], w))
    blocked = set(forbidden)
    dist = {v: MATRIX_SENTINEL for v in verts}
    heap = []
    srcs = set()
    for v, d0 in sources:
        srcs.add(v)
        if d0 < dist[v]:
            dist[v] = d0
            heapq.heappush(heap, (d0, v))
    adj = {}
    for t, h, w in arcs:
        adj.setdefault(t, []).append((h, w))
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        if v in blocked and v not in srcs:
            continue
        for u, w in adj.get(v, ()):
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def union_arcs(members):
    """(tail, head, weight) of every raw arc and finite matrix entry."""
    for m in members:
        if isinstance(m, SparseMember):
            yield from m.arcs
            continue
        k = len(m.nodes)
        for i, y in enumerate(m.nodes):
            for j, z in enumerate(m.nodes):
                w = m.matrix[i * k + j]
                if w < MATRIX_SENTINEL:
                    yield y, z, w


def run_with_2gib_address_space(code, *argv):
    """Standard output (or, when empty, standard error) of ``code`` run in
    a child interpreter whose address space is capped at 2 GiB, where an
    allocation sized by an unchecked length fails with MemoryError.
    ``code`` may use ``sys``; ``argv`` becomes ``sys.argv[1:]``."""
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    prelude = f"import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, ({cap}, {hard}))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run(
        [sys.executable, "-c", prelude + code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return out.stdout.strip() or out.stderr


def rows_by_slot(union):
    """A union's rows per vertex in slot order, to compare two indexes of
    the same members; a vertex a replace left in no slot keeps an empty
    list, which counts as no rows."""
    return {v: sorted(rows, key=lambda row: row[0]) for v, rows in union.rows.items() if rows}


def random_members(rng, n_ids=12, n_members=4):
    ids = list(range(n_ids))
    members = []
    for _ in range(n_members):
        nodes = sorted(rng.sample(ids, rng.randrange(3, 7)))
        entries = {}
        for s in nodes:
            for t in nodes:
                if s != t and rng.random() < 0.5:
                    entries[(s, t)] = rng.randrange(0, 30)
        members.append(dense(nodes, entries))
    return members


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


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def tri300():
    return load_graph(os.path.join(DATA, "tri300.pgr"))


@pytest.fixture(scope="session")
def multi():
    return load_graph(os.path.join(DATA, "multi.pgr"))


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


@pytest.fixture(scope="module")
def fo8(grid8):
    return FailureOracle(grid8, leaf_size=8, r_base=4)


@pytest.fixture(scope="module")
def to8(grid8):
    return TradeoffOracle(grid8, r=32, k=1, leaf_size=8, r_base=4)
