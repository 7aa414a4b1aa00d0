"""Dijkstra over unions of dense distance graphs.

A union takes several members, each a complete little distance graph on its
own vertex list (or a raw arc set), overlays them on the shared vertex ids,
and runs a single multi-source Dijkstra across the overlay.  Distances in
the union equal distances in the graph the members jointly describe.

When one of a member's vertices settles, the scan relaxes that vertex's
row, but only over the columns not yet settled: each member keeps a linked
list of its unsettled local indices, and a settled column is unlinked.  A
settled column already has its final label, so skipping it changes no
label.  The scan uses no further Monge structure.

Given a ``target``, the scan stops as soon as the target settles, as point
queries do.  The target's label is then exact, and so is every label at or
below it; other labels are upper bounds only.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Sequence

from .graph import MATRIX_SENTINEL, UNREACHABLE

__all__ = [
    "SparseMember",
    "DdgUnion",
    "MultiDijkstraResult",
    "multi_dijkstra",
]


class SparseMember:
    """Union member backed by raw arcs instead of a distance matrix."""

    __slots__ = ("nodes", "arcs", "piece_id")

    def __init__(
        self,
        nodes: tuple[int, ...],
        arcs: Sequence[tuple[int, int, int]],
        piece_id: int = -1,
    ):
        self.nodes = nodes
        self.arcs = tuple(arcs)
        self.piece_id = piece_id

    def __repr__(self) -> str:
        return f"SparseMember(|nodes|={len(self.nodes)}, |arcs|={len(self.arcs)})"


class DdgUnion:
    """Overlay of members on shared vertex ids, ready to run Dijkstra on."""

    __slots__ = (
        "members",
        "vertices",
        "slot_of",
        "member_slots",
        "dense_in",
        "sparse_adj",
        "union_vertices",
    )

    def __init__(self, members: Sequence):
        self.members = tuple(members)
        seen: set[int] = set()
        total = 0
        for m in self.members:
            total += len(m.nodes)
            seen.update(m.nodes)
        self.union_vertices = total
        self.vertices = tuple(sorted(seen))
        slot_of = self.slot_of = {v: i for i, v in enumerate(self.vertices)}
        # member index -> union slot of each local index (empty for sparse
        # members)
        member_slots: list[list[int]] = []
        # dense membership: slot -> [(member index, local index)]
        dense_in: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        # sparse arcs: slot -> [(target slot, weight)]
        sparse_adj: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for mi, m in enumerate(self.members):
            slots = []
            if isinstance(m, SparseMember):
                for t, h, w in m.arcs:
                    if w < 0:
                        raise ValueError(f"negative member weight in member {mi}")
                    sparse_adj[slot_of[t]].append((slot_of[h], w))
            else:
                if m.min_entry < 0:
                    raise ValueError(f"negative member weight in member {mi}")
                slots = [slot_of[v] for v in m.nodes]
                for li, slot in enumerate(slots):
                    dense_in[slot].append((mi, li))
            member_slots.append(slots)
        self.member_slots = member_slots
        self.dense_in = dense_in
        self.sparse_adj = sparse_adj


class MultiDijkstraResult:
    """Labels plus work counters from one union Dijkstra run.

    After a run with a ``target``, only the labels at or below the target's
    are final; the others are upper bounds.
    """

    __slots__ = (
        "vertices",
        "dist",
        "slot_of",
        "union_vertices",
        "settled",
        "relaxations",
    )

    def __init__(self, vertices, dist, slot_of, union_vertices, settled, relaxations):
        self.vertices: tuple[int, ...] = vertices
        self.dist: list[int] = dist
        self.slot_of = slot_of
        self.union_vertices = union_vertices
        self.settled = settled
        self.relaxations = relaxations

    def raw(self, v: int) -> int:
        slot = self.slot_of.get(v)
        return MATRIX_SENTINEL if slot is None else self.dist[slot]

    def label(self, v: int):
        d = self.raw(v)
        return UNREACHABLE if d >= MATRIX_SENTINEL else d

    def items(self):
        for v, d in zip(self.vertices, self.dist):
            if d < MATRIX_SENTINEL:
                yield v, d


def multi_dijkstra(
    members: Sequence,
    sources: Sequence[tuple[int, int]],
    forbidden: Iterable[int] = (),
    target: int | None = None,
) -> MultiDijkstraResult:
    """Multi-source Dijkstra over a union of members.

    ``sources`` is a list of (vertex, starting distance) pairs; every source
    vertex must belong to some member.  ``forbidden`` vertices are settled
    when reached but never relaxed out of (sources override this), so no
    path may pass through them.

    With a ``target``, the run stops when the target settles.  Its label is
    exact, as is every label at or below it; labels of vertices not yet
    settled are upper bounds only.  A target outside the union never
    settles, so the run goes on to the end and its label is unreachable.
    """
    union = members if isinstance(members, DdgUnion) else DdgUnion(members)
    n = len(union.vertices)
    slot_of = union.slot_of
    stop = slot_of.get(target, -1)

    dist = [MATRIX_SENTINEL] * n
    is_source = bytearray(n)
    heap: list[tuple[int, int]] = []
    for v, d0 in sources:
        if d0 < 0:
            raise ValueError("source distance must be non-negative")
        slot = slot_of.get(v)
        if slot is None:
            raise ValueError(f"source vertex {v} is not in the union")
        is_source[slot] = 1
        if d0 < dist[slot]:
            dist[slot] = d0
            heappush(heap, (d0, slot))
    blocked = bytearray(n)
    for v in forbidden:
        slot = slot_of.get(v)
        if slot is not None:
            blocked[slot] = 1

    mems = union.members
    member_slots = union.member_slots
    dense_in = union.dense_in
    sparse_adj = union.sparse_adj
    done = bytearray(n)
    settled = 0
    relaxations = 0

    # per-member linked list of not-yet-settled local indices
    nxt: list[list[int]] = []
    prv: list[list[int]] = []
    head: list[int] = []
    for m in mems:
        k = len(m.nodes)
        nxt.append(list(range(1, k + 1)))
        prv.append(list(range(-1, k - 1)))
        head.append(0 if k else -1)

    while heap:
        d, u = heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = 1
        settled += 1
        if u == stop:
            break
        for mi, li in dense_in[u]:
            mnxt = nxt[mi]
            mprv = prv[mi]
            nx, pv = mnxt[li], mprv[li]
            if pv >= 0:
                mnxt[pv] = nx
            else:
                head[mi] = nx
            if nx < len(mnxt):
                mprv[nx] = pv
        if blocked[u] and not is_source[u]:
            continue
        for vslot, w in sparse_adj[u]:
            relaxations += 1
            nd = d + w
            if nd < dist[vslot]:
                dist[vslot] = nd
                heappush(heap, (nd, vslot))
        for mi, li in dense_in[u]:
            mat = mems[mi].matrix
            slots = member_slots[mi]
            k = len(slots)
            row = li * k
            mnxt = nxt[mi]
            lj = head[mi]
            while lj < k:
                w = mat[row + lj]
                if w < MATRIX_SENTINEL:
                    relaxations += 1
                    nd = d + w
                    vslot = slots[lj]
                    if nd < dist[vslot]:
                        dist[vslot] = nd
                        heappush(heap, (nd, vslot))
                lj = mnxt[lj]

    return MultiDijkstraResult(
        union.vertices,
        dist,
        slot_of,
        union.union_vertices,
        settled,
        relaxations,
    )

