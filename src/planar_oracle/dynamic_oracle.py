"""Exact distance oracle under edge and vertex updates.

The oracle keeps regions over a snapshot of the graph, the leaves of a
decomposition with leaf size r (so they form its r-division), a strict
boundary matrix per region, and public vertex/arc ids that stay stable
across internal rebuilds.  Updates touch only the regions they land in:

* a weight change edits one region in place and repairs its matrix,
  re-running only what the changed arc can affect
  (``ddg.repair_strict_matrix``); each matrix depends only on its own
  region's arcs, so every other region's matrix stays bit-identical, and
  setting an arc's current weight changes nothing,
* edge insertions first decide planarity locally, before anything changes:
  one walk of the face at the tail's splice corner, plus a search of the
  tail's component when the walk misses the head's corner; an accepted
  arc between two vertices of one region (a deleted arc put back, say)
  edits that region in place like a weight change, and any other arc
  recomputes the region that takes it and every region whose boundary
  grew,
* edge deletions edit one region in place, leaving its old boundary as a
  valid superset,
* vertex deletions take the vertex and its arcs out of every region that
  holds them and recompute those regions, so no region names a dead vertex.

Queries are exact whatever the regions are; the division only keeps region
sizes and boundaries bounded.  So the whole structure is rebuilt from the
current graph only when, after an arc insertion,

* a region holds more than 2r vertices,
* a region's boundary is more than twice its size at the last division,
  or more than ceil(sqrt(r)) if that is larger, or
* there are more than twice as many regions as the last division made
  (an arc between two regionless vertices starts a new region).

No other update can trip these budgets: deletions only shrink regions, a
new vertex joins no region, and weight changes leave the topology, which is
all the decomposition reads, as it was.

Each region keeps its raw arcs once, as a ``ddg.LocalMember``: the strict
kernel's local out-lists with in-lists beside them.  They are built, and
the region's matrix computed from them, only when the region's shape
changes: at a division, when its boundary or its vertex set changes, or
when it starts.  An in-place edit (a weight change, a deletion, or an
insertion between two of the region's vertices) changes that one arc's
entry in each list, repairs the matrix on the kept lists, and re-writes
one row of the union index: the tail's.  A query is one A* scan from u
toward v over a union of every region matrix plus the raw members of u's
and v's regions.  Every member is a slot of one ``DdgUnion`` that each
division builds and updates edit in place: region ri's matrix sits in
slot 2ri and its raw member in slot 2ri + 1.  A new shape re-indexes
both slots, and a new region appends them; an in-place edit keeps both
members and every row but the tail's raw one, which ``DdgUnion.set_row``
writes.  A query takes a view that marks every matrix slot live and the
raw slots of u's and v's regions, which it looks up, and drops the view
before it returns.

The potential is the landmark bound of ``failure_oracle`` (Goldberg and
Harrelson, SODA 2005), read at the 3 landmarks best at u, over tables
filled at every division and repaired under updates; a division with fewer
landmarks reads its best one more than once.  π stays consistent while
every table row is feasible on every live arc y -> z of length w: to[y] <=
w + to[z] and frm[z] <= w + frm[y].  A weight increase or a deletion keeps
that (Delling and Wagner, WEA 2007), and so leaves the tables alone.  A weight decrease or an
insertion can break it at its one arc; a label-lowering Dijkstra from that
arc, backward over in-arcs for ``to`` and forward over out-arcs for ``frm``,
settling only the labels that fall, restores it (Ramalingam and Reps,
J. Algorithms 1996).  A new vertex starts at _FAR, "unreachable", in every
table.  Region matrix entries are lengths of live paths, so π is consistent
on them too, and every scanned label stays exact.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from operator import sub

from .graph import (
    _MAX_WEIGHT_SUM,
    _check_weight,
    UNREACHABLE,
    EmbeddedPlanarGraph,
    EmbeddingError,
    WeightOverflowError,
    dart_target,
)
from .decomposition import build_decomposition
from .ddg import DenseDistanceGraph, LocalMember, repair_strict_matrix
from .failure_oracle import _FAR, landmark_potential, landmark_tables
from .frdijkstra import DdgUnion, multi_dijkstra

__all__ = ["DynamicOracle"]


def _is_index(x) -> bool:
    """A nonnegative int that is not a bool (True would alias id 1)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


class _Region:
    """One region: its vertices, boundary and arc ids, its raw arcs as a
    union member kept on local ids and the strict matrix over its boundary
    (both made and edited by ``DynamicOracle._recompute``), and its
    boundary size when the last division made it (0 for a region started
    since)."""

    __slots__ = ("vertices", "boundary", "arcs", "ddg", "member", "divided_boundary")

    def __init__(self, vertices: set[int], boundary: set[int], arcs: set[int]):
        self.vertices = vertices
        self.boundary = boundary
        self.arcs = arcs
        self.ddg: DenseDistanceGraph | None = None
        self.member: LocalMember | None = None
        self.divided_boundary = 0


class DynamicOracle:
    """Exact distances on a directed planar graph under updates.

    Vertex and arc ids handed out by this class are stable: deleting or
    rebuilding never renumbers the survivors.
    """

    def __init__(self, g: EmbeddedPlanarGraph, r: int = 32):
        if r < 3:
            raise ValueError("r must be at least 3")
        self.r = r
        self.boundary_floor = math.isqrt(r - 1) + 1  # ceil(sqrt(r))

        # mutable public-id state
        self.v_alive: list[bool] = [True] * g.n
        self.arc_tail: list[int] = list(g.tails)
        self.arc_head: list[int] = list(g.heads)
        self.arc_weight: list[int] = list(g.weights)
        self.arc_alive: list[bool] = [True] * g.m
        # rotations hold alive arcs only: deletions take arcs out of them
        self.rot: list[list[int]] = [list(row) for row in g.rotation]

        self.weight_sum = g.total_weight

        self.regions: list[_Region] = []
        self.region_of_arc: dict[int, int] = {}
        self.divided_regions = 0  # region count at the last division
        self.rebuild_count = 0
        # the input graph was validated on construction, so the first
        # division reads it directly, with public ids equal to its own
        self._divide(g, range(g.n), range(g.m))

    # -- bookkeeping ---------------------------------------------------------

    def _check_alive_vertex(self, v: int) -> None:
        if not (_is_index(v) and v < len(self.v_alive)) or not self.v_alive[v]:
            raise ValueError(f"vertex {v!r} does not exist")

    def _check_alive_arc(self, a: int) -> None:
        if not (_is_index(a) and a < len(self.arc_alive)) or not self.arc_alive[a]:
            raise ValueError(f"arc {a!r} does not exist")

    def _regions_of_vertex(self, v: int) -> list[int]:
        return [ri for ri, reg in enumerate(self.regions) if v in reg.vertices]

    def _check_budget(self, weight_sum: int) -> None:
        if weight_sum > _MAX_WEIGHT_SUM:
            raise WeightOverflowError(
                f"sum of |weights| {weight_sum} would exceed the 63-bit budget"
            )

    def _outgrown(self, touched) -> bool:
        """Whether the regions have outgrown the last division, given that
        only the regions in ``touched`` grew since the last check."""
        if len(self.regions) > 2 * self.divided_regions:
            return True
        for ri in touched:
            reg = self.regions[ri]
            budget = max(2 * reg.divided_boundary, self.boundary_floor)
            if len(reg.vertices) > 2 * self.r or len(reg.boundary) > budget:
                return True
        return False

    # -- snapshot / rebuild ----------------------------------------------------

    def export_graph(self) -> tuple[EmbeddedPlanarGraph, list[int], list[int]]:
        """Compact snapshot plus public ids: (graph, vertex ids, arc ids)."""
        pub_v = [v for v in range(len(self.v_alive)) if self.v_alive[v]]
        int_of_v = {p: i for i, p in enumerate(pub_v)}
        pub_a = [a for a in range(len(self.arc_alive)) if self.arc_alive[a]]
        int_of_a = {p: i for i, p in enumerate(pub_a)}
        arcs = [
            (int_of_v[self.arc_tail[a]], int_of_v[self.arc_head[a]], self.arc_weight[a])
            for a in pub_a
        ]
        rotation = [
            [int_of_a[a] for a in self.rot[p] if self.arc_alive[a]] for p in pub_v
        ]
        return EmbeddedPlanarGraph(len(pub_v), arcs, rotation), pub_v, pub_a

    def _rebuild(self) -> None:
        """A new division of the current graph.  ``export_graph`` checks the
        whole rotation system again, a backstop for the local planarity
        check of ``insert_edge``."""
        self._divide(*self.export_graph())

    def _divide(self, g: EmbeddedPlanarGraph, pub_v, pub_a) -> None:
        """Regions, matrices and landmark tables from the leaves of a
        decomposition of g with leaf size r, whose vertex i and arc j have
        public ids pub_v[i] and pub_a[j]."""
        # with leaf size r, the r-division is the leaves, in id order
        tree = build_decomposition(g, leaf_size=self.r)
        self.regions = []
        self.region_of_arc = {}
        # _recompute fills slots 2ri and 2ri + 1 as the regions come
        self._union = DdgUnion(())
        for piece in (p for p in tree.pieces if p.is_leaf):
            reg = _Region(
                {pub_v[v] for v in piece.vertices},
                {pub_v[v] for v in piece.boundary},
                {pub_a[a] for a in piece.arcs},
            )
            reg.divided_boundary = len(reg.boundary)
            ri = len(self.regions)
            self.regions.append(reg)
            self._recompute(ri)
            for a in reg.arcs:
                self.region_of_arc[a] = ri
        self.divided_regions = len(self.regions)
        _, to, frm = landmark_tables(g)
        # rows of public ids; a dead id's row is never read
        self._to: list = [None] * len(self.v_alive)
        self._frm: list = [None] * len(self.v_alive)
        for p, to_row, frm_row in zip(pub_v, to, frm):
            self._to[p] = list(to_row)
            self._frm[p] = list(frm_row)
        # a new vertex's row; empty when the division had no vertices
        self._far_row = [_FAR] * (len(to[0]) if to else 0)
        self.rebuild_count += 1

    def _recompute(self, ri: int, change=None) -> None:
        """Raw member and strict boundary-to-boundary matrix of region ri,
        public ids.

        ``change`` is (tail, head, old weight, new weight), None for an arc
        absent on that side, when one arc between two of the region's
        vertices is all that changed since its member was made: the member
        is edited in place, the matrix repaired in place
        (``repair_strict_matrix``), and the tail's row in the raw slot
        re-written, so both keep their objects and every other row.
        Otherwise the region's shape changed: a new member is built from
        the region's arcs, its matrix computed afresh, and slots 2ri and
        2ri + 1 re-indexed, appended for a new region."""
        reg = self.regions[ri]
        member = reg.member
        if change is not None:
            tail = change[0]
            member.edit(*change)
            repair_strict_matrix(member, reg.ddg.matrix, *change)
            self._union.set_row(2 * ri + 1, tail, *member.row(tail))
            return
        nodes = tuple(sorted(reg.boundary))
        t, h, w = self.arc_tail, self.arc_head, self.arc_weight
        arcs = [(t[a], h[a], w[a]) for a in sorted(reg.arcs)]
        reg.member = member = LocalMember(sorted(reg.vertices), arcs, nodes)
        reg.ddg = DenseDistanceGraph(nodes, member.strict_matrix())
        self._union.replace(2 * ri, reg.ddg)
        self._union.replace(2 * ri + 1, member)

    def _lower(self, tail: int, head: int, w: int) -> None:
        """Restore table feasibility on the arc tail -> head of length w, the
        one arc where it may fail, by label-lowering Dijkstra per landmark:
        ``to`` labels fall backward from tail over in-arcs, ``frm`` labels
        forward from head over out-arcs, and only labels that fall are
        settled."""
        rot, tails, heads, weights = self.rot, self.arc_tail, self.arc_head, self.arc_weight
        for table, start, via, ends, nexts in (
            (self._to, tail, head, heads, tails),
            (self._frm, head, tail, tails, heads),
        ):
            row, via_row = table[start], table[via]
            if max(map(sub, row, via_row), default=0) <= w:
                continue  # feasible for every landmark, the common case
            for i in range(len(row)):
                d = w + via_row[i]
                if d >= row[i]:
                    continue
                row[i] = d
                heap = [(d, start)]
                while heap:
                    d, y = heappop(heap)
                    if d > table[y][i]:
                        continue
                    # arcs x -> y for to (ends = heads), y -> x for frm
                    for a in rot[y]:
                        if ends[a] == y:
                            x = nexts[a]
                            nd = d + weights[a]
                            x_row = table[x]
                            if nd < x_row[i]:
                                x_row[i] = nd
                                heappush(heap, (nd, x))

    # -- operations -------------------------------------------------------------

    def set_weight(self, arc: int, weight: int) -> None:
        self._check_alive_arc(arc)
        _check_weight(weight)
        old = self.arc_weight[arc]
        if weight == old:
            return
        weight_sum = self.weight_sum + weight - old
        self._check_budget(weight_sum)
        self.arc_weight[arc] = weight
        self.weight_sum = weight_sum
        tail, head = self.arc_tail[arc], self.arc_head[arc]
        self._recompute(self.region_of_arc[arc], (tail, head, old, weight))
        if weight < old:
            self._lower(tail, head, weight)

    def insert_vertex(self) -> int:
        self.v_alive.append(True)
        self.rot.append([])
        self._to.append(list(self._far_row))
        self._frm.append(list(self._far_row))
        return len(self.v_alive) - 1

    def insert_edge(
        self, tail: int, head: int, weight: int, tail_pos: int = 0, head_pos: int = 0
    ) -> int:
        """Add an arc, splicing it into the two rotations at the given
        positions; raises EmbeddingError (and changes nothing) if the spliced
        rotation system is not planar.  Planarity is decided by walking the
        one face at the tail's splice corner, not by tracing every face."""
        self._check_alive_vertex(tail)
        self._check_alive_vertex(head)
        if tail == head:
            raise ValueError("self-loops are not allowed")
        _check_weight(weight)
        for a in self.rot[tail]:
            if self.arc_alive[a] and self.arc_tail[a] == tail and self.arc_head[a] == head:
                raise ValueError(f"arc {tail}->{head} already exists")
        if not (_is_index(tail_pos) and tail_pos <= len(self.rot[tail])):
            raise ValueError("tail rotation position out of range")
        if not (_is_index(head_pos) and head_pos <= len(self.rot[head])):
            raise ValueError("head rotation position out of range")
        self._check_budget(self.weight_sum + weight)
        self._validate_planar(tail, head, tail_pos, head_pos)

        arc = len(self.arc_alive)
        self.arc_tail.append(tail)
        self.arc_head.append(head)
        self.arc_weight.append(weight)
        self.arc_alive.append(True)
        self.rot[tail].insert(tail_pos, arc)
        self.rot[head].insert(head_pos, arc)
        self.weight_sum += weight

        rt = self._regions_of_vertex(tail)
        rh = self._regions_of_vertex(head)
        both = sorted(set(rt) & set(rh))
        if both:
            ri = both[0]
        elif rt:
            ri = rt[0]
        elif rh:
            ri = rh[0]
        else:
            ri = len(self.regions)
            self.regions.append(_Region(set(), set(), set()))
        reg = self.regions[ri]
        # an arc between two of the region's vertices changes only itself
        inside = tail in reg.vertices and head in reg.vertices
        reg.arcs.add(arc)
        reg.vertices.add(tail)
        reg.vertices.add(head)
        self.region_of_arc[arc] = ri

        touched = {ri}
        for z, homes in ((tail, {*rt, ri}), (head, {*rh, ri})):
            if len(homes) > 1:
                for rj in homes:
                    if z not in self.regions[rj].boundary:
                        self.regions[rj].boundary.add(z)
                        touched.add(rj)
        if self._outgrown(touched):
            self._rebuild()
        else:
            for rj in sorted(touched):
                self._recompute(rj, (tail, head, None, weight) if rj == ri and inside else None)
            self._lower(tail, head, weight)
        return arc

    def delete_edge(self, arc: int) -> None:
        self._check_alive_arc(arc)
        self.arc_alive[arc] = False
        self.rot[self.arc_tail[arc]].remove(arc)
        self.rot[self.arc_head[arc]].remove(arc)
        self.weight_sum -= self.arc_weight[arc]
        ri = self.region_of_arc.pop(arc)
        self.regions[ri].arcs.discard(arc)
        self._recompute(ri, (self.arc_tail[arc], self.arc_head[arc], self.arc_weight[arc], None))

    def delete_vertex(self, v: int) -> None:
        """Remove a vertex and every arc touching it."""
        self._check_alive_vertex(v)
        incident = [a for a in self.rot[v] if self.arc_alive[a]]
        touched: set[int] = set()
        for a in incident:
            self.arc_alive[a] = False
            other = self.arc_head[a] if self.arc_tail[a] == v else self.arc_tail[a]
            self.rot[other].remove(a)
            self.weight_sum -= self.arc_weight[a]
            ri = self.region_of_arc.pop(a)
            self.regions[ri].arcs.discard(a)
            touched.add(ri)
        self.rot[v] = []
        self.v_alive[v] = False
        for ri in self._regions_of_vertex(v):
            reg = self.regions[ri]
            reg.vertices.discard(v)
            reg.boundary.discard(v)
            touched.add(ri)
        for ri in sorted(touched):
            self._recompute(ri)

    def _corner(self, v: int, pos: int) -> int:
        """The dart that a new arc spliced in at ``rot[v][pos]`` would follow.

        It is the dart arriving at ``v`` along ``rot[v][pos - 1]``
        (cyclically): a face walk continues such a dart with the next
        rotation entry, which becomes the new arc."""
        a = self.rot[v][pos - 1]
        return 2 * a if self.arc_head[a] == v else 2 * a + 1

    def _validate_planar(self, tail: int, head: int, tail_pos: int, head_pos: int) -> None:
        """Raise EmbeddingError if splicing tail->head at the given rotation
        positions would make the (planar) rotation system non-planar.

        One arc between two corners of the same face splits that face, and
        one arc between two components joins them; both keep every
        component's Euler characteristic at 2.  Any other arc merges two
        faces of one component and raises its genus.  Only the face at the
        tail's corner is walked; a search of the tail's component separates
        the two remaining cases.
        """
        rot, tails, heads = self.rot, self.arc_tail, self.arc_head
        if not rot[tail] or not rot[head]:
            return
        start = self._corner(tail, tail_pos)
        goal = self._corner(head, head_pos)
        d = start
        while True:
            if d == goal:
                return
            v = dart_target(d, tails, heads)
            rv = rot[v]
            a2 = rv[(rv.index(d >> 1) + 1) % len(rv)]
            d = 2 * a2 if tails[a2] == v else 2 * a2 + 1
            if d == start:
                break
        seen = {tail}
        stack = [tail]
        while stack:
            v = stack.pop()
            for a in rot[v]:
                w = heads[a] if tails[a] == v else tails[a]
                if w == head:
                    raise EmbeddingError(
                        f"arc {tail}->{head} at rotation positions "
                        f"({tail_pos}, {head_pos}) would break planarity"
                    )
                if w not in seen:
                    seen.add(w)
                    stack.append(w)

    # -- queries ------------------------------------------------------------------

    def _raw_member(self, v: int) -> int | None:
        """The union slot of the raw member of v's first home region, None
        if v has no home region."""
        for ri, reg in enumerate(self.regions):
            if v in reg.vertices:
                return 2 * ri + 1
        return None

    def distance(self, u: int, v: int):
        """Current length of the shortest path from u to v."""
        self._check_alive_vertex(u)
        self._check_alive_vertex(v)
        if u == v:
            return 0
        su, sv = self._raw_member(u), self._raw_member(v)
        if su is None or sv is None:
            # every arc lies in a region, so a vertex in none has no arcs
            return UNREACHABLE
        base = self._union
        union = base.view([*range(0, len(base.slots), 2), su, sv])
        # with no landmarks (a division of no vertices) the scan is Dijkstra
        pi = landmark_potential(self._to, self._frm, u, v) if self._far_row else None
        res = multi_dijkstra(union, [(u, 0)], target=v, potential=pi)
        return res.label(v)
