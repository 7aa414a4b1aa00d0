"""Dense distance graphs over piece boundaries.

Every stored matrix is strict: an entry is a path that touches the matrix's
nodes only at its two ends.  One kernel builds them all (``_dijkstra_rows``):
one Dijkstra per node over local out-lists, which settles the other nodes
but never relaxes out of them.  Raw arcs reach it in one form, the lists of
a ``LocalMember``: a leaf's matrix comes from its own arcs.  Every other
matrix comes from the strict matrices tiling its arcs, whose rows
``strict_matrix`` merges, as Fakcharoenphol and Rao (JCSS 2006) build them:
an internal piece's from its children's, ext(T) and its directional rows
from its exit pieces' (``external``).  The piece distance tables of the
trade-off oracle (boundary to every piece vertex, paths unrestricted inside
the piece) run the same Dijkstra over a piece's own arcs with no node
blocked.

The dynamic oracle changes one arc of a region at a time.  A region's
arcs live in a ``LocalMember``: the kernel's local out-lists, with in-lists
beside them, built once per region shape and edited one arc at a time.
``repair_strict_matrix`` turns the region's old matrix into the new one,
in place, over those kept lists: one Dijkstra into the arc's tail and one
out of its head, then a min-plus pass for a cut or an insertion, or the
old rows the arc's old weight attained re-run for a raise or a deletion
(Ramalingam and Reps, J. Algorithms 1996; Demetrescu and Italiano, J. ACM
2004).

A store builds every piece's matrix when it is made, at build and load
alike; queries only look them up.  An anchor leaf joins a union as its own
arcs instead (``compute_leaf_ddg``), so no per-query Dijkstra runs.
"""

from __future__ import annotations

import heapq
from array import array
from operator import sub
from typing import Sequence

from .frdijkstra import SparseMember, _local_ends
from .graph import MATRIX_SENTINEL, EmbeddedPlanarGraph

__all__ = [
    "DenseDistanceGraph",
    "compute_ddg_internal",
    "compute_leaf_ddg",
    "compute_piece_distance_table",
    "DdgStore",
    "LocalMember",
    "repair_strict_matrix",
    "strict_matrix",
]


class DenseDistanceGraph:
    """Complete digraph on an ordered vertex list, stored as a flat matrix.

    ``matrix[i * len(nodes) + j]`` is the distance from nodes[i] to
    nodes[j]; MATRIX_SENTINEL means unreachable.  No entry may be negative.
    """

    __slots__ = ("nodes", "matrix")

    def __init__(self, nodes: tuple[int, ...], matrix: array):
        if len(matrix) != len(nodes) * len(nodes):
            raise ValueError("matrix shape does not match the node list")
        if min(matrix, default=0) < 0:
            raise ValueError("negative entry in a distance matrix")
        self.nodes = nodes
        self.matrix = matrix

    def row(self, i: int) -> tuple[tuple[int, ...], array, int]:
        """Node i's out-pairs as ``(heads, weights, lo)``, copying nothing."""
        return self.nodes, self.matrix, i * len(self.nodes)

    def __repr__(self) -> str:
        return f"DenseDistanceGraph(|nodes|={len(self.nodes)})"


# ----------------------------------------------------------------------
# the local-id Dijkstra kernel
# ----------------------------------------------------------------------


def _dijkstra_rows(
    adj: list[list[tuple[int, int]]],
    sources: Sequence[int],
    targets: Sequence[int],
    blocked: Sequence[bool] | None = None,
) -> array:
    """Flat matrix of local distances, one row per source, one column per
    target; unreachable entries hold MATRIX_SENTINEL.

    ``blocked`` is an optional flag list; flagged vertices other than the
    row's source are settled but never relaxed out of.
    """
    n = len(adj)
    if blocked is None:
        blocked = [False] * n
    heappush, heappop = heapq.heappush, heapq.heappop
    matrix = array("q")
    for s in sources:
        dist = [MATRIX_SENTINEL] * n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u] or (blocked[u] and u != s):
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        matrix.extend([dist[t] for t in targets])
    return matrix


def _local_graph(members: Sequence, nodes: Sequence[int], extra: Sequence[int] = ()):
    """``(loc, adj, blocked)`` for the graph the matrices ``members``
    describe.  ``loc`` numbers the members' vertices in order, then any of
    ``nodes`` and ``extra`` that no member holds; ``adj[i]`` lists local
    vertex i's (local head, weight) out-pairs: its row in each member, less
    the unreachable and diagonal entries, which never lower a label.
    ``blocked`` flags the ``nodes``."""
    loc: dict[int, int] = {}
    for m in members:
        for v in m.nodes:
            loc.setdefault(v, len(loc))
    for v in (*nodes, *extra):
        loc.setdefault(v, len(loc))
    adj: list[list[tuple[int, int]]] = [[] for _ in loc]
    for m in members:
        cols = [loc[v] for v in m.nodes]
        k = len(cols)
        for i, u in enumerate(cols):
            adj[u] += [
                (h, w)
                for h, w in zip(cols, m.matrix[i * k : i * k + k])
                if w < MATRIX_SENTINEL and h != u
            ]
    blocked = [False] * len(loc)
    for v in nodes:
        blocked[loc[v]] = True
    return loc, adj, blocked


def strict_matrix(
    members: Sequence, nodes: Sequence[int], targets: Sequence[int] | None = None
) -> array:
    """Strict matrix of the graph the union of the matrices ``members``
    describes, one row per node and one column per target (``nodes`` by
    default): entry (i, j) is the shortest nodes[i]-to-targets[j] path over
    the members that passes through no other node.  A node or target that
    no member holds reaches only itself."""
    if targets is None:
        targets = nodes
    loc, adj, blocked = _local_graph(members, nodes, targets)
    return _dijkstra_rows(adj, [loc[v] for v in nodes], [loc[t] for t in targets], blocked)


class LocalMember:
    """Raw arcs in the strict kernel's local lists, its one form of them: a
    union member that can be edited one arc at a time (``edit``).

    Local vertex i is ``nodes[i]``, and ``loc`` maps an id back.  ``out[i]``
    and ``into[i]`` list i's (local head, weight) and (local tail, weight)
    pairs; ``out[i]`` keeps the order the arcs were given in, and an added
    arc goes last.  ``ends`` are the local ids of the strict matrix's nodes,
    every one a vertex, in matrix order, and ``blocked`` flags them.  Arcs
    are checked as a ``SparseMember``'s are."""

    __slots__ = ("nodes", "loc", "out", "into", "ends", "blocked")

    def __init__(
        self,
        vertices: Sequence[int],
        arcs: Sequence[tuple[int, int, int]],
        nodes: Sequence[int],
    ):
        self.nodes = tuple(vertices)
        self.loc = loc = {v: i for i, v in enumerate(self.nodes)}
        self.out = out = [[] for _ in self.nodes]
        self.into = into = [[] for _ in self.nodes]
        for t, h, w in arcs:
            a, b = _local_ends(loc, t, h, w)
            out[a].append((b, w))
            into[b].append((a, w))
        self.ends = [loc[v] for v in nodes]
        self.blocked = [False] * len(self.nodes)
        for i in self.ends:
            self.blocked[i] = True

    def row(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Local vertex i's out-arcs as ``(heads, weights, 0)``, in ``out``
        order."""
        nodes = self.nodes
        out = self.out[i]
        return tuple(nodes[j] for j, _ in out), tuple(w for _, w in out), 0

    def strict_matrix(self) -> array:
        """The strict matrix of the arcs over the ``ends``."""
        return _dijkstra_rows(self.out, self.ends, self.ends, self.blocked)

    def edit(self, tail: int, head: int, w_old: int | None, w_new: int | None) -> None:
        """Change the arc tail -> head from weight ``w_old`` to ``w_new``;
        None is an arc absent on that side.  Both ends must be vertices,
        and no two arcs may share both ends."""
        a, b = self.loc[tail], self.loc[head]
        out, into = self.out[a], self.into[b]
        if w_old is None:
            out.append((b, w_new))
            into.append((a, w_new))
            return
        i, j = out.index((b, w_old)), into.index((a, w_old))
        if w_new is None:
            del out[i], into[j]
        else:
            out[i], into[j] = (b, w_new), (a, w_new)


def repair_strict_matrix(
    member: LocalMember,
    matrix: array,
    tail: int,
    head: int,
    w_old: int | None,
    w_new: int | None,
) -> None:
    """Turn ``matrix``, the strict matrix of ``member`` before its arc tail
    -> head changed from weight ``w_old`` to ``w_new`` (None: the arc is
    absent on that side), into ``member.strict_matrix()`` in place.
    ``member`` is already edited, and its nodes are the same on both sides.
    The Dijkstras run on the member's kept out- and in-lists.

    With da[i] the strict distance nodes[i] -> tail and db[j] the strict
    distance head -> nodes[j], a shortest strict path through the arc is
    da[i] + w + db[j].  A shortest path into tail never leaves it by the
    arc, nor one out of head enters it by the arc, so da and db are the
    same on both sides.  A cut or an insertion takes the minimum of the old
    entry and that sum; a raise or a deletion re-runs only the rows with an
    entry the old arc attained.  A strict path passes through no node, so
    a tail or head that is a node ends its vector at itself."""
    local, blocked = member.ends, member.blocked
    a, b = member.loc[tail], member.loc[head]
    if blocked[a]:
        da = [0 if i == a else MATRIX_SENTINEL for i in local]
    else:
        da = _dijkstra_rows(member.into, [a], local, blocked)
    if blocked[b]:
        db = [0 if j == b else MATRIX_SENTINEL for j in local]
    else:
        db = _dijkstra_rows(member.out, [b], local, blocked)
    k = len(local)
    if w_old is None or (w_new is not None and w_new <= w_old):
        for i, x in enumerate(da):
            if x < MATRIX_SENTINEL:
                x += w_new
                row = i * k
                for j, y in enumerate(db):
                    if x + y < matrix[row + j]:
                        matrix[row + j] = x + y
        return
    # no old entry is above the path through the old arc, so row i has an
    # entry that path attains iff its largest matrix[i * k + j] - db[j] is
    # da[i] + w_old; an unreachable db[j] counts as 2 * MATRIX_SENTINEL,
    # which leaves every difference negative
    far = [y if y < MATRIX_SENTINEL else 2 * MATRIX_SENTINEL for y in db]
    rows = [
        i
        for i, x in enumerate(da)
        if x < MATRIX_SENTINEL and max(map(sub, matrix[i * k : i * k + k], far)) == x + w_old
    ]
    if rows:
        fresh = _dijkstra_rows(member.out, [local[i] for i in rows], local, blocked)
        for n, i in enumerate(rows):
            matrix[i * k : (i + 1) * k] = fresh[n * k : (n + 1) * k]


# ----------------------------------------------------------------------
# piece matrices and tables
# ----------------------------------------------------------------------


def compute_ddg_internal(g: EmbeddedPlanarGraph, piece, below=None) -> DenseDistanceGraph:
    """Strict-internal DDG: boundary-to-boundary paths inside the piece
    that visit no other boundary vertex, over a leaf's own arcs, or for an
    internal piece over ``below[c]``, its children's matrices: a child
    holding a boundary vertex has it on its own boundary
    (``child_boundary``), so such a path is a chain of child entries."""
    if below is None:
        matrix = _piece_lists(g, piece).strict_matrix()
    else:
        matrix = strict_matrix([below[c] for c in piece.children], piece.boundary)
    return DenseDistanceGraph(piece.boundary, matrix)


def _piece_lists(g: EmbeddedPlanarGraph, piece) -> LocalMember:
    """A piece's own arcs in the kernel's local lists, on its vertices in
    order, with its boundary as the matrix nodes."""
    arcs = g.arcs
    return LocalMember(piece.vertices, [arcs[a] for a in piece.arcs], piece.boundary)


def compute_leaf_ddg(g: EmbeddedPlanarGraph, piece) -> SparseMember:
    """A leaf piece as a union member of its own arcs.

    Every leaf vertex is a node and every leaf arc is kept; no Dijkstra
    runs here.  Failed vertices stay in: the union scan never relaxes out
    of them, so the oracles build each leaf's member once and reuse it for
    every query.
    """
    arcs = g.arcs
    return SparseMember(piece.vertices, [arcs[a] for a in piece.arcs])


def compute_piece_distance_table(g: EmbeddedPlanarGraph, piece) -> array:
    """Plain in-piece distances from each boundary vertex to every piece
    vertex: a flat matrix with one row per ``piece.boundary`` vertex and one
    column per ``piece.vertices`` vertex."""
    lists = _piece_lists(g, piece)
    # local ids follow piece.vertices, so every column is a piece vertex
    return _dijkstra_rows(lists.out, lists.ends, range(len(piece.vertices)))


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------


class DdgStore:
    """Strict-internal DDGs, one per decomposition node, all built by
    ``compute_ddg_internal`` when the store is made, children before
    parents; ``strict`` is a plain lookup.  Anchor leaves never come from
    here: they join as their own arcs (see ``compute_leaf_ddg``).
    """

    def __init__(self, g: EmbeddedPlanarGraph, tree):
        strict: dict[int, DenseDistanceGraph] = {}
        # every child has a larger id than its parent
        for p in reversed(tree.pieces):
            strict[p.id] = compute_ddg_internal(g, p, None if p.is_leaf else strict)
        self._strict = strict

    def strict(self, node_id: int) -> DenseDistanceGraph:
        return self._strict[node_id]

    def stored_entry_count(self) -> int:
        """Entries of every piece's matrix, the leaves' included."""
        return sum(len(d.matrix) for d in self._strict.values())
