"""Dijkstra over unions of dense distance graphs.

A union takes several members, each a complete little distance graph on its
own vertex list (or a raw arc set), overlays them on the shared vertex ids,
and runs a single multi-source Dijkstra across the overlay.  Distances in
the union equal distances in the graph the members jointly describe.

Members sit in slots, and a bytearray marks the live ones.  Each vertex
has one row per slot holding it, in one form, ``(slot, heads, weights,
lo)``: a matrix row references its member and copies nothing, and a raw
member's row holds the vertex's out-arcs, grouped once when the member is
indexed.  An owner indexes its members once, and ``replace`` edits one
slot's rows in place through the same routine; an owner that edits one
vertex's arcs of a raw member in place re-writes that vertex's row alone
(``set_row``, which writes every raw row).  A query takes a ``view``
that marks its slots live: it costs a pass over the slots, not over their
nodes, and it is valid until the owner's next ``replace``, ``set_row`` or
in-place edit of a member's matrix.  Labels live in lists indexed by vertex id,
filled afresh per run (one C-level fill of max-id + 1 entries, about
14 µs at n = 4096 in CPython 3.11), so a held result keeps its labels
whatever runs later.

When a vertex settles, the scan relaxes all of its out-pairs in one loop:
its row in every live slot it belongs to.  A matrix row's columns that
have settled already are not skipped: a settled label is final, so
relaxing into it changes nothing, and under a potential few vertices
settle, so keeping lists of unsettled columns would cost more than it
saves.  An unreachable entry gives a length of MATRIX_SENTINEL or more,
which beats no label.  The scan uses no Monge structure.

Given a ``target``, the scan stops as soon as the target settles, as point
queries do.  A target-stopped scan may also be goal-directed: a
``potential`` π gives each vertex a lower bound on its distance to the
target, and the heap is keyed by label + π, which is A* search.  π is
evaluated once per vertex, when the vertex is first pushed; a vertex whose
π says it cannot reach the target is never pushed.  With a consistent π
(π(y) <= w + π(z) on every arc y -> z, and π(target) = 0) every settled
label is exact, the target's included; labels of vertices not settled are
upper bounds only, and with a potential some vertices closer to the source
than the target may never settle.

A target-stopped scan may also give vertices exit arcs to the target that
no member holds: ``exit_cost(y)`` is the length of an arc y -> target,
read once, when y settles and only if y is not blocked, and relaxed into
the target's label like any other arc.  A vertex that never settles never
pays for its exit.  With exits, the label lists cover the target even
when it lies outside the union, so it may be reached through exits
alone.  A potential stays consistent on the exit arcs when
π(y) <= exit_cost(y).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from typing import Callable, Iterable, Sequence

from .graph import MATRIX_SENTINEL, UNREACHABLE

__all__ = [
    "SparseMember",
    "DdgUnion",
    "MultiDijkstraResult",
    "multi_dijkstra",
]


class SparseMember:
    """Union member backed by raw arcs instead of a distance matrix.

    Both ends of every arc must be nodes, and no weight may be negative.
    """

    __slots__ = ("nodes", "arcs")

    def __init__(self, nodes: Sequence[int], arcs: Sequence[tuple[int, int, int]]):
        self.nodes = tuple(nodes)
        self.arcs = tuple(arcs)
        known = set(self.nodes)
        for t, h, w in self.arcs:
            if w < 0:
                raise ValueError(f"negative member weight on arc {t}->{h}")
            if t not in known or h not in known:
                raise ValueError(f"arc {t}->{h} has an end outside the member's nodes")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(|nodes|={len(self.nodes)}, |arcs|={len(self.arcs)})"


class DdgUnion:
    """Overlay of members on shared vertex ids, ready to run Dijkstra on.

    Each member sits in one of ``slots``, and the bytearray ``live`` marks
    the slots that take part; ``members`` are the live slots' members, in
    slot order.  ``rows`` maps a vertex to its rows, one per slot holding
    it, dead ones included (see ``_index``); a vertex a ``replace`` left in
    no slot keeps an empty list.  A union vertex is one with a row in a
    live slot.  ``DdgUnion(members)`` puts member i in slot i, every slot
    live.
    """

    __slots__ = ("slots", "live", "members", "rows", "size", "union_vertices")

    def __init__(self, members: Sequence):
        self.slots = self.members = tuple(members)
        self.live = bytearray(b"\x01") * len(self.slots)
        self.rows: dict[int, list[tuple]] = {}
        # label lists hold one entry per id below this
        self.size = 0
        for mi, m in enumerate(self.slots):
            self._index(mi, m)
        self.union_vertices = sum(len(m.nodes) for m in self.members)

    def _index(self, mi: int, m, old: Sequence[int] = ()) -> None:
        """Check member m, then swap slot mi's rows on the ``old`` nodes
        for m's: the row of node v is ``(mi, heads, weights, lo)``, and v's
        out-pairs in m are ``zip(heads, weights[lo : lo + len(heads)])``.
        A matrix row references m and copies nothing; a raw member's row
        holds v's out-arcs, grouped here."""
        nodes = m.nodes
        raw = isinstance(m, SparseMember)
        if not raw and min(m.matrix, default=0) < 0:
            raise ValueError(f"negative member weight in member {mi}")
        rows = self.rows
        for v in old:
            rows[v] = [row for row in rows[v] if row[0] != mi]
        if raw:
            out: dict[int, tuple[list[int], list[int]]] = {v: ([], []) for v in nodes}
            for t, h, w in m.arcs:
                heads, weights = out[t]
                heads.append(h)
                weights.append(w)
            for v, (heads, weights) in out.items():
                self.set_row(mi, v, heads, weights)
        else:
            k = len(nodes)
            matrix = m.matrix
            for li, v in enumerate(nodes):
                rows.setdefault(v, []).append((mi, nodes, matrix, li * k))
        self.size = max(self.size, max(nodes, default=-1) + 1)

    def set_row(self, mi: int, v: int, heads: Sequence[int], weights: Sequence[int]) -> None:
        """Make v's row in raw slot mi hold its out-arcs to ``heads`` with
        ``weights``, in place of the row v had there, if any.  ``_index``
        writes every raw row here; an owner that edits one vertex's arcs of
        the member in slot mi in place re-writes that vertex's row alone."""
        row = (mi, tuple(heads), tuple(weights), 0)
        rows = self.rows.setdefault(v, [])
        for i, old in enumerate(rows):
            if old[0] == mi:
                rows[i] = row
                return
        rows.append(row)

    def view(self, live_slots: Iterable[int]) -> DdgUnion:
        """A union of this one's slots ``live_slots``.  It shares this
        union's ``slots`` and ``rows`` and builds its own ``live`` and
        ``members``, so its cost grows with the slot count, not with the
        members' nodes.  It is valid until the next ``replace``, ``set_row``
        or in-place edit of a member's matrix."""
        slots = self.slots
        live = bytearray(len(slots))
        for mi in live_slots:
            live[mi] = 1
        new = DdgUnion.__new__(DdgUnion)
        new.slots = slots
        new.live = live
        new.members = members = tuple(compress(slots, live))
        new.rows = self.rows
        new.size = self.size
        new.union_vertices = sum(len(m.nodes) for m in members)
        return new

    def replace(self, mi: int, m) -> None:
        """Put member ``m``, on any node list, in slot ``mi``, or in a new
        live slot if ``mi`` is one past the last.  The rows are edited in
        place, so a view taken before is stale; a matrix m with a negative
        entry raises ValueError and changes nothing."""
        slots = self.slots
        if not 0 <= mi <= len(slots):
            raise IndexError(f"slot {mi} is past the union's {len(slots)} slots")
        old = slots[mi].nodes if mi < len(slots) else ()
        self._index(mi, m, old)
        if mi == len(slots):
            self.live.append(1)
        self.slots = slots = slots[:mi] + (m,) + slots[mi + 1 :]
        self.members = tuple(compress(slots, self.live))
        if self.live[mi]:
            self.union_vertices += len(m.nodes) - len(old)

    def __contains__(self, v) -> bool:
        live = self.live
        return any(live[row[0]] for row in self.rows.get(v, ()))

    @property
    def vertices(self) -> tuple[int, ...]:
        """The union's vertex ids, sorted; computed on each call."""
        return tuple(sorted(v for v in self.rows if v in self))


class MultiDijkstraResult:
    """Labels plus work counters from one union Dijkstra run.

    ``dist[v]`` is vertex v's raw label for every id below the union's
    ``size``; ids outside the union read MATRIX_SENTINEL.  After a run with
    a ``target``, only the labels of settled vertices are final, the
    target's among them; the others are upper bounds.

    ``settled`` counts the vertices settled, forbidden ones and the target
    included.  ``relaxations`` counts every pair examined out of the settled
    vertices that are not blocked and not the target: each one's row in
    every live slot that holds it (a whole matrix row, unreachable and
    settled columns included, or its out-arcs), and each exit read.
    """

    __slots__ = ("dist", "union", "union_vertices", "settled", "relaxations")

    def __init__(self, dist, union, settled, relaxations):
        self.dist: list[int] = dist
        self.union: DdgUnion = union
        self.union_vertices: int = union.union_vertices
        self.settled = settled
        self.relaxations = relaxations

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.union.vertices

    def raw(self, v: int) -> int:
        dist = self.dist
        # a bare dist[v] would read from the end for a negative id
        return dist[v] if 0 <= v < len(dist) else MATRIX_SENTINEL

    def label(self, v: int):
        d = self.raw(v)
        return UNREACHABLE if d >= MATRIX_SENTINEL else d


def multi_dijkstra(
    members: Sequence,
    sources: Sequence[tuple[int, int]],
    forbidden: Iterable[int] = (),
    target: int | None = None,
    potential: Callable[[int], int] | None = None,
    exit_cost: Callable[[int], int] | None = None,
) -> MultiDijkstraResult:
    """Multi-source Dijkstra over a union of members.

    ``sources`` is a list of (vertex, starting distance) pairs; every source
    vertex must belong to some member.  ``forbidden`` vertices are settled
    when reached but never relaxed out of (sources override this), so no
    path may pass through them; forbidden ids outside the union are ignored.

    With a ``target``, the run stops when the target settles.  Labels of
    settled vertices are exact, the target's included; the others are
    upper bounds only.  A target outside the union and without exits
    never settles, so the run goes on to the end and its label is
    unreachable.

    ``potential`` (only with a ``target``) maps a vertex y to a lower bound
    π(y) on its distance to the target, consistent on every union arc and
    every exit arc, and 0 at the target; π(y) >= MATRIX_SENTINEL means y
    cannot reach the target.  Heap keys become label + π(y).

    ``exit_cost`` (only with a ``target``) maps a settled, unblocked vertex
    y to the length of an extra arc y -> target, or to MATRIX_SENTINEL or
    more when y has none.  It is called at most once per settled vertex,
    never for the target.
    """
    if target is None and (potential is not None or exit_cost is not None):
        raise ValueError("a potential or an exit cost needs a target")
    union = members if isinstance(members, DdgUnion) else DdgUnion(members)
    size = union.size
    stop = -1 if target is None else target
    if exit_cost is not None:
        if stop < 0:
            raise ValueError("an exit target must be a vertex id")
        # exits may label a target outside the union
        size = max(size, stop + 1)

    dist = [MATRIX_SENTINEL] * size
    # π per vertex, evaluated on first push: -1 marks "not yet evaluated",
    # and 0 (every entry when there is no potential) needs no check
    pot = [0 if potential is None else -1] * size
    heap: list[tuple[int, int]] = []
    for v, d0 in sources:
        if d0 < 0:
            raise ValueError("source distance must be non-negative")
        if v not in union:
            raise ValueError(f"source vertex {v} is not in the union")
        if d0 < dist[v]:
            h = pot[v]
            if h:
                if h < 0:
                    h = pot[v] = potential(v)
                if h >= MATRIX_SENTINEL:
                    continue
            dist[v] = d0
            heappush(heap, (d0 + h, v))
    blocked = bytearray(size)
    for v in forbidden:
        if 0 <= v < size:
            blocked[v] = 1
    for v, _ in sources:
        blocked[v] = 0

    # an exit row's slot, one past the union's last, is always live
    live = union.live + b"\x01"
    exit_slot = len(live) - 1
    rows = union.rows
    done = bytearray(size)
    settled = 0
    relaxations = 0

    while heap:
        # a vertex's keys only fall, and its smallest key settles it, so
        # any later entry of it is stale
        u = heappop(heap)[1]
        if done[u]:
            continue
        d = dist[u]
        done[u] = 1
        settled += 1
        if u == stop:
            break
        if blocked[u]:
            continue
        # u's out-pairs: its exit and its row in each live slot; an
        # unreachable weight gives d + w >= MATRIX_SENTINEL, which beats no
        # label
        out = rows.get(u, ())
        if exit_cost is not None:
            out = [(exit_slot, (stop,), (exit_cost(u),), 0), *out]
        for row in out:
            # most of a vertex's rows are dead: test before unpacking
            if not live[row[0]]:
                continue
            _, heads, weights, lo = row
            k = len(heads)
            relaxations += k
            for v, w in zip(heads, weights[lo : lo + k]):
                nd = d + w
                if nd < dist[v]:
                    h = pot[v]
                    if h:
                        if h < 0:
                            h = pot[v] = potential(v)
                        if h >= MATRIX_SENTINEL:
                            continue
                    dist[v] = nd
                    heappush(heap, (nd + h, v))

    return MultiDijkstraResult(dist, union, settled, relaxations)
