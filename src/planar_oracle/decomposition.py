"""Recursive separator decomposition of an embedded planar graph.

Each tree node is a piece: a subgraph given by an arc set plus the vertices
those arcs touch.  An internal node's two children partition its arcs.  For a
connected piece the partition comes from a fundamental-cycle separator: the
piece is triangulated (star vertices planted in every face of size four or
more), a BFS tree is built, and among all non-tree edges the fundamental
cycle whose two enclosed regions are most balanced is chosen.  Disconnected
pieces are split by grouping whole connected components.

Each split renumbers its piece to local ids (vertex i is the piece's i-th
vertex, arc i its i-th arc) and works on flat per-edge lists from there.  It
walks the piece's faces once, with ``graph.trace_faces`` over the piece's
own rotation, and the face count tells a connected piece (V - E + F = 2)
from one that needs ``graph.components``.  The faces give the triangulated
auxiliary graph, its BFS tree and the dual tree of the non-tree edges.
Candidate cycles are tried in ascending (larger side, edge) order, but only
the smallest key is found without sorting: its cycle nearly always splits,
and the rest are sorted only when it does not.

A vertex of a piece is *boundary* if some arc outside the piece touches it.
Pieces of at most ``leaf_size`` vertices become leaves.  Nodes are additionally
marked for a geometric sequence of r-divisions.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice
from operator import not_
from typing import Iterable, Sequence

from .graph import EmbeddedPlanarGraph, EmbeddingError, sorted_contains, trace_faces
from .graph import arc_ends, components

__all__ = [
    "Piece",
    "DecompositionTree",
    "build_decomposition",
    "child_boundary",
]


class Piece:
    """One node of the decomposition tree."""

    __slots__ = ("id", "parent", "children", "vertices", "boundary", "arcs")

    def __init__(self, pid, parent, vertices, boundary, arcs):
        self.id: int = pid
        self.parent: int | None = parent
        self.children: tuple[int, ...] = ()
        self.vertices: tuple[int, ...] = vertices  # sorted
        self.boundary: tuple[int, ...] = boundary  # sorted
        self.arcs: tuple[int, ...] = arcs  # sorted

    def contains(self, v: int) -> bool:
        return sorted_contains(self.vertices, v)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"Piece(id={self.id}, {kind}, |V|={len(self.vertices)}, |bd|={len(self.boundary)})"


class DecompositionTree:
    """Binary piece tree with r-division marks and per-vertex home leaves.

    ``pieces`` are numbered top-down, each parent before its children.  The
    home leaf of v, the smallest-id leaf holding v, and the r-division of
    each r in ``r_sequence`` follow from the pieces alone, so a built tree
    and one loaded from an oracle file derive them by the same rule.
    """

    def __init__(
        self,
        graph: EmbeddedPlanarGraph,
        pieces: list[Piece],
        r_sequence: tuple[int, ...],
    ):
        self.graph = graph
        self.pieces = pieces
        self.r_sequence = r_sequence

        leaf_of = [-1] * graph.n
        for p in pieces:
            if p.is_leaf:
                for v in p.vertices:
                    if leaf_of[v] == -1:
                        leaf_of[v] = p.id
        if graph.n and min(leaf_of) < 0:
            raise AssertionError("some vertex landed in no leaf")
        self.leaf_of = tuple(leaf_of)

        # Euler intervals for O(1) ancestor tests.
        self._tin = [0] * len(pieces)
        self._tout = [0] * len(pieces)
        clock = 0
        stack: list[tuple[int, bool]] = [(0, False)]
        while stack:
            node, done = stack.pop()
            if done:
                self._tout[node] = clock
                continue
            self._tin[node] = clock
            clock += 1
            stack.append((node, True))
            for c in reversed(pieces[node].children):
                stack.append((c, False))

    # -- navigation -------------------------------------------------------

    def cover(self, starts: Iterable[int], top: int | None = None) -> list[int]:
        """Siblings of the nodes on each start's path up to ``top`` (the
        root by default; never ``top`` itself) that lie on no start's path,
        each once, in the order first found.

        For an antichain of starts under ``top``, the starts and these
        siblings partition ``top``'s arcs: the one walk behind failure
        queries, ext(T), ``vor`` rows and exit pieces."""
        pieces = self.pieces
        on_path: set[int] = set()
        steps: list[tuple[int, int]] = []  # (path node, its parent)
        for node in starts:
            while node != top and node not in on_path:
                on_path.add(node)
                par = pieces[node].parent
                if par is None:
                    break
                steps.append((node, par))
                node = par
        out: list[int] = []
        for node, par in steps:
            a, b = pieces[par].children
            sib = b if node == a else a
            if sib not in on_path:
                out.append(sib)
        return out

    def is_ancestor(self, anc: int, node: int) -> bool:
        """True when ``anc`` equals ``node`` or properly contains it."""
        return self._tin[anc] <= self._tin[node] and self._tout[node] <= self._tout[anc]

    # -- r-divisions --------------------------------------------------------

    def r_division(self, r: int) -> tuple[int, ...]:
        """The pieces of at most r vertices whose parent has more, by id.
        Each caller asks for one r, so no division is computed ahead: a
        loaded sequence may be as long as its file."""
        if r not in self.r_sequence:
            raise ValueError(f"r={r} is not in the marked sequence {self.r_sequence}")
        pieces = self.pieces
        return tuple(
            p.id
            for p in pieces
            if len(p.vertices) <= r
            and (p.parent is None or len(pieces[p.parent].vertices) > r)
        )


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def child_boundary(
    g: EmbeddedPlanarGraph,
    parent_boundary: Sequence[int],
    vertices: Iterable[int],
    sibling_arcs: Sequence[int],
) -> tuple[int, ...]:
    """Boundary of a child piece: those of its ``vertices`` that an arc of
    its sibling touches or that lie on its parent's boundary."""
    edge = arc_ends(sibling_arcs, g.tails, g.heads)
    edge.update(parent_boundary)
    # fresh int objects, made one after another, so a scan relaxing over a
    # strict matrix's nodes reads few cache lines: ints shared with the
    # vertex lists lie scattered, which cost about 4% of the median
    # failure-grid query under CPython 3.11
    return tuple(array("q", filter(edge.__contains__, vertices)))


def build_decomposition(
    g: EmbeddedPlanarGraph,
    leaf_size: int = 32,
    r_base: int = 4,
) -> DecompositionTree:
    """Decompose ``g`` recursively and mark a geometric family of r-divisions.

    ``leaf_size`` caps leaf piece vertex counts; ``r_base`` is the growth
    factor of the marked sequence leaf_size*b, leaf_size*b^2, ..., n.
    """
    if leaf_size < 3:
        raise ValueError("leaf_size must be at least 3")
    if r_base < 2:
        raise ValueError("r_base must be at least 2")

    pieces: list[Piece] = []
    root = Piece(0, None, tuple(range(g.n)), (), tuple(range(g.m)))
    pieces.append(root)

    stack = [0]
    while stack:
        pid = stack.pop()
        piece = pieces[pid]
        if len(piece.vertices) <= leaf_size:
            continue
        _, sides = _split_piece(g, piece.vertices, piece.arcs)
        child_ids = []
        for i, (verts, arcs) in enumerate(sides):
            bd = child_boundary(g, piece.boundary, verts, sides[1 - i][1])
            child = Piece(len(pieces), pid, verts, bd, arcs)
            pieces.append(child)
            child_ids.append(child.id)
        piece.children = tuple(child_ids)
        stack.append(child_ids[1])
        stack.append(child_ids[0])

    rs: list[int] = []
    r = leaf_size * r_base
    while r < g.n:
        rs.append(r)
        r *= r_base
    rs.append(max(g.n, 1))

    return DecompositionTree(g, pieces, tuple(rs))


# ----------------------------------------------------------------------
# splitting machinery
# ----------------------------------------------------------------------


def _split_piece(g, verts, arcs):
    """Partition a piece's arcs into two sides; returns (separator, sides).

    Side vertex sets are induced by the side's arcs, so every produced piece
    is arc-induced.  Components of a disconnected piece are packed whole,
    with an empty separator; isolated vertices travel with the packing.  A
    component holding more than two thirds of the vertices is cycle-split
    first and the rest distributed onto the lighter side, which keeps every
    side within 2|P|/3 + |separator|.
    """
    eu, ev, faces = _local_faces(g, verts, arcs)
    # a piece of a planar embedding is planar, and a planar piece with an
    # arc is connected exactly when V - E + F = 2: each component with arcs
    # adds 2 to the sum and each isolated vertex 1
    if arcs and len(verts) - len(arcs) + len(faces) == 2:
        return _cycle_split(g, verts, arcs, eu, ev, faces)
    comps = components(verts, arcs, g.tails, g.heads)
    giant_vs, giant_arcs = comps[0]
    if 3 * len(giant_vs) > 2 * len(verts):
        sep, sides = _cycle_split(
            g, giant_vs, giant_arcs, *_local_faces(g, giant_vs, giant_arcs)
        )
        return sep, _pack_components(comps[1:], sides)
    return (), _pack_components(comps)


def _pack_components(comps, initial=None):
    """Greedy-balance whole components into two sides (descending, lighter
    side first), optionally on top of a pair of starting sides."""
    if initial is None:
        sides = [([], []), ([], [])]
    else:
        sides = [(list(vs), list(ars)) for vs, ars in initial]
    weights = [len(sides[0][0]), len(sides[1][0])]
    for vs, ars in comps:
        i = 0 if weights[0] <= weights[1] else 1
        sides[i][0].extend(vs)
        sides[i][1].extend(ars)
        weights[i] += len(vs)
    return [
        (tuple(sorted(sides[0][0])), tuple(sorted(sides[0][1]))),
        (tuple(sorted(sides[1][0])), tuple(sorted(sides[1][1]))),
    ]


def _local_faces(g, verts, arcs):
    """The piece on local ids, vertex i being ``verts[i]`` and arc i
    ``arcs[i]``: returns each arc's local tail and head, and the faces
    traced on the piece's own rotation as local darts."""
    loc = dict(zip(verts, range(len(verts))))
    arc_loc = dict(zip(arcs, range(len(arcs))))
    eu = [loc[t] for t in map(g.tails.__getitem__, arcs)]
    ev = [loc[h] for h in map(g.heads.__getitem__, arcs)]
    grot = g.rotation
    rot = {i: [arc_loc[a] for a in grot[v] if a in arc_loc] for i, v in enumerate(verts)}
    return eu, ev, trace_faces(range(len(arcs)), eu, ev, rot)


def _cycle_split(g, verts, arcs, eu, ev, piece_faces):
    """Fundamental-cycle split of a connected piece, given on local ids.

    Auxiliary edge i is arc ``arcs[i]`` for i below len(arcs); star edges
    follow.  Edge e joins ``eu[e]`` and ``ev[e]`` (extended here), and
    ``ef[2*e]`` and ``ef[2*e + 1]`` are the triangulated faces on its two
    sides."""
    p = len(verts)

    # --- triangulated auxiliary graph ---------------------------------
    # dart d of arc d >> 1 lies on face ef[d]; a face of four or more
    # darts gets a star vertex joined to each dart's origin, and its i-th
    # triangle lies between star edges i - 1 and i
    ef = [0] * (2 * len(arcs))
    n_aux = p
    face_id = 0
    for face in piece_faces:
        size = len(face)
        if size <= 3:
            for d in face:
                ef[d] = face_id
            face_id += 1
        else:
            apex = n_aux
            n_aux += 1
            for i, d in enumerate(face):
                ef[d] = face_id + i
                eu.append(apex)
                ev.append(ev[d >> 1] if d & 1 else eu[d >> 1])
                ef.append(face_id + (i - 1) % size)
                ef.append(face_id + i)
            face_id += size
    n_faces = face_id

    # --- BFS tree over the auxiliary graph -----------------------------
    m_aux = len(eu)
    adj: list[list[int]] = [[] for _ in range(n_aux)]
    for e, u, v in zip(range(m_aux), eu, ev):
        adj[u].append(v * m_aux + e)
        adj[v].append(u * m_aux + e)
    par, par_edge, depth, order = _bfs(adj, m_aux)
    del adj  # before the dual is built: the root split sets the peak memory
    nontree_mark = bytearray(b"\x01") * m_aux
    for v in order[1:]:
        nontree_mark[par_edge[v]] = 0
    nontree = list(compress(range(m_aux), nontree_mark))
    if not nontree:
        return _fallback_split(g, verts, arcs)
    if len(nontree) != n_faces - 1:
        raise EmbeddingError(
            f"piece embedding is not planar: {len(nontree)} non-tree edges "
            f"for {n_faces} faces"
        )

    # --- dual tree spanned by the non-tree edges -----------------------
    dadj: list[list[int]] = [[] for _ in range(n_faces)]
    for e in nontree:
        f1, f2 = ef[2 * e], ef[2 * e + 1]
        dadj[f1].append(f2 * m_aux + e)
        dadj[f2].append(f1 * m_aux + e)
    dpar, dpar_edge, _, dorder = _bfs(dadj, m_aux)
    if len(dorder) != n_faces:
        raise EmbeddingError("piece embedding is not planar: its dual is not a tree")
    subtree = [1] * n_faces
    for f in reversed(dorder[1:]):
        subtree[dpar[f]] += subtree[f]

    # each non-tree edge is the dual tree edge above one face, and its
    # cycle encloses that face's subtree; key (larger side, edge) as one int
    keys = [
        max(subtree[f], n_faces - subtree[f]) * m_aux + dpar_edge[f] for f in dorder[1:]
    ]
    best = None  # (max_side, (separator, sides))
    for rank, key in enumerate(_ascending(keys)):
        ei = key % m_aux
        inside = ef[2 * ei]
        if dpar_edge[inside] != ei:
            inside = ef[2 * ei + 1]
        result = _evaluate_candidate(
            g, verts, arcs, eu, ev, ef, par, par_edge, depth, dpar, dorder, inside, ei,
        )
        if result is None:
            continue
        sep, sides, max_side = result
        # contract: each side keeps at most 2|P|/3 + |separator| vertices
        if 3 * max_side <= 2 * p + 3 * len(sep):
            return sep, sides
        if best is None or max_side < best[0]:
            best = (max_side, (sep, sides))
        if rank >= 4096 and best is not None:
            break
    if best is not None:
        return best[1]
    return _fallback_split(g, verts, arcs)


def _ascending(keys):
    """The distinct ints ``keys`` in ascending order, sorting them only once
    the smallest has been passed over: its cycle nearly always splits."""
    yield min(keys)
    keys.sort()
    yield from islice(keys, 1, None)


def _bfs(adj, stride):
    """BFS from node 0 over adjacency lists of ``node * stride + edge``
    ints, sorting each list in place before it is walked, so the tree does
    not depend on input order.  Returns (parent, parent edge, depth, visit
    order), with -1 for the root's parent and edge and for every unreached
    node."""
    n = len(adj)
    par = [-1] * n
    par_edge = [-1] * n
    depth = [-1] * n
    depth[0] = 0
    order = [0]
    for u in order:  # grows while it is walked: the BFS queue
        rows = adj[u]
        rows.sort()
        d = depth[u] + 1
        for x in rows:
            v = x // stride
            if depth[v] == -1:
                depth[v] = d
                par[v] = u
                par_edge[v] = x - v * stride
                order.append(v)
    return par, par_edge, depth, order


def _evaluate_candidate(
    g, verts, arcs, eu, ev, ef, par, par_edge, depth, dpar, dorder, inside_root, ei,
):
    """Work out the split one fundamental cycle would produce.

    Returns (separator, sides, max_side), or None when the cycle fails to
    separate any arcs.  Arcs on the cycle itself join the enclosed side.
    """
    a, b = eu[ei], ev[ei]
    cycle_edges = {ei}
    cycle_verts: set[int] = set()
    while a != b:  # climb from the deeper end until the ends meet
        if depth[a] < depth[b]:
            a, b = b, a
        cycle_verts.add(a)
        cycle_edges.add(par_edge[a])
        a = par[a]
    cycle_verts.add(a)

    # the enclosed faces are inside_root's dual subtree; a BFS order lists
    # every face after its parent
    inside_faces = bytearray(len(dorder))
    inside_faces[inside_root] = 1
    for f in islice(dorder, dorder.index(inside_root) + 1, None):
        if inside_faces[dpar[f]]:
            inside_faces[f] = 1

    # any arc off the cycle has both its faces on one side, so the face of
    # its forward dart places it
    side_a = bytearray(map(inside_faces.__getitem__, islice(ef, 0, 2 * len(arcs), 2)))
    for e in cycle_edges:
        if e < len(arcs):
            side_a[e] = 1
    arcs_a = list(compress(arcs, side_a))
    arcs_b = list(compress(arcs, map(not_, side_a)))
    if not arcs_a or not arcs_b:
        return None

    va = arc_ends(arcs_a, g.tails, g.heads)
    vb = arc_ends(arcs_b, g.tails, g.heads)
    p = len(verts)
    sep = tuple(sorted(verts[x] for x in cycle_verts if x < p))
    sides = [
        (tuple(sorted(va)), tuple(arcs_a)),
        (tuple(sorted(vb)), tuple(arcs_b)),
    ]
    return sep, sides, max(len(va), len(vb))


def _fallback_split(g, verts, arcs):
    """Halve the arc list when no usable cycle exists (degenerate pieces)."""
    if len(arcs) < 2:
        raise EmbeddingError("cannot split a piece with fewer than two arcs")
    half = len(arcs) // 2
    arcs_a, arcs_b = arcs[:half], arcs[half:]
    va = arc_ends(arcs_a, g.tails, g.heads)
    vb = arc_ends(arcs_b, g.tails, g.heads)
    sep = tuple(sorted(va & vb))
    return sep, [
        (tuple(sorted(va)), tuple(arcs_a)),
        (tuple(sorted(vb)), tuple(arcs_b)),
    ]
