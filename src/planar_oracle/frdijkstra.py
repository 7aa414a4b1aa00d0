"""Dijkstra over unions of dense distance graphs.

A union takes several members, each a complete little distance graph on its
own vertex list (or a raw arc set), overlays them on the shared vertex ids,
and runs a single multi-source Dijkstra across the overlay.  Distances in
the union equal distances in the graph the members jointly describe.

The union is keyed by vertex id, and a sparse member's per-node out-lists
are built once, so joining a union never touches its arcs.  Members sit in
slots, and a bytearray marks the live ones.  An owner whose matrices change
rarely or never indexes all of them once, one slot each, and a query takes
a ``view`` of that index: it marks the query's slots live and adds its
sparse members, so it costs a pass over its member list, not over their
nodes, and the scan skips the rows of dead slots.  Labels live in lists
indexed by vertex id, filled afresh per run (one C-level fill of max-id + 1
entries, about 14 µs at n = 4096 in CPython 3.11), so a held result keeps
its labels whatever runs later.

When a vertex settles, the scan relaxes all of its out-pairs in one loop:
its sparse arcs and its whole row in every live matrix slot it belongs to.
The row's columns that have settled already are not skipped: a settled
label is final, so relaxing into it changes nothing, and under a potential
few vertices settle, so keeping lists of unsettled columns would cost more
than it saves.  An unreachable entry gives a length of MATRIX_SENTINEL or
more, which beats no label.  The scan uses no Monge structure.

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

    ``out`` maps each node to the (head, weight) pairs of its out-arcs.
    Both ends of every arc must be nodes, and no weight may be negative.
    """

    __slots__ = ("nodes", "arcs", "out")

    def __init__(self, nodes: Sequence[int], arcs: Sequence[tuple[int, int, int]]):
        self.nodes = tuple(nodes)
        self.arcs = tuple(arcs)
        out: dict[int, list[tuple[int, int]]] = {v: [] for v in self.nodes}
        for t, h, w in self.arcs:
            if w < 0:
                raise ValueError(f"negative member weight on arc {t}->{h}")
            if t not in out or h not in out:
                raise ValueError(f"arc {t}->{h} has an end outside the member's nodes")
            out[t].append((h, w))
        self.out = {v: tuple(pairs) for v, pairs in out.items()}

    def __repr__(self) -> str:
        return f"SparseMember(|nodes|={len(self.nodes)}, |arcs|={len(self.arcs)})"


def _merge_sparse(sparse_out: dict, m: SparseMember) -> None:
    """Add sparse member m's out-lists to ``sparse_out`` in place.  A vertex
    already there gets a new tuple; the member's own out-lists are never
    modified."""
    out = m.out
    shared = {v: sparse_out[v] + out[v] for v in sparse_out.keys() & out.keys()}
    sparse_out.update(out)
    sparse_out.update(shared)


class DdgUnion:
    """Overlay of members on shared vertex ids, ready to run Dijkstra on.

    Each member sits in one of ``slots``, and the bytearray ``live`` marks
    the slots that take part; ``members`` are the live slots' members, in
    slot order, followed by any sparse members added by ``view``.
    ``dense_in`` maps a vertex to its (slot, local index) pairs in matrix
    slots, dead ones included; ``sparse_out`` maps it to its (head, weight)
    arcs over the sparse members.  A union vertex is a key of
    ``sparse_out`` or has a live slot in ``dense_in``.

    ``DdgUnion(members)`` puts member i in slot i, every slot live.  An
    owner whose matrices change rarely or never indexes them once this way
    (``replace`` swaps one in place), and each query takes a ``view`` that
    marks its own slots live.
    """

    __slots__ = ("slots", "live", "members", "dense_in", "sparse_out", "size", "union_vertices")

    def __init__(self, members: Sequence):
        self.slots = self.members = tuple(members)
        self.live = bytearray(b"\x01") * len(self.slots)
        dense_in: dict[int, list[tuple[int, int]]] = {}
        sparse_out: dict[int, tuple[tuple[int, int], ...]] = {}
        total = 0
        for mi, m in enumerate(self.members):
            total += len(m.nodes)
            if isinstance(m, SparseMember):
                _merge_sparse(sparse_out, m)
            else:
                if m.min_entry < 0:
                    raise ValueError(f"negative member weight in member {mi}")
                for li, v in enumerate(m.nodes):
                    dense_in.setdefault(v, []).append((mi, li))
        self.dense_in = dense_in
        self.sparse_out = sparse_out
        # label lists hold one entry per id below this
        self.size = max(max(dense_in, default=-1), max(sparse_out, default=-1)) + 1
        self.union_vertices = total

    def view(self, live_slots: Iterable[int], sparse: Sequence[SparseMember]) -> DdgUnion:
        """A union of this one's slots ``live_slots`` and the sparse members
        ``sparse``.  It shares this union's ``slots`` and ``dense_in``, and
        builds only its own ``live`` and ``sparse_out``, so its cost grows
        with its member count and ``sparse``, not with the matrices' nodes;
        neither union modifies the other."""
        slots = self.slots
        live = bytearray(len(slots))
        for mi in live_slots:
            live[mi] = 1
        new = DdgUnion.__new__(DdgUnion)
        new.slots = slots
        new.live = live
        new.members = members = (*compress(slots, live), *sparse)
        new.dense_in = self.dense_in
        new.sparse_out = sparse_out = {}
        for m in members:
            if isinstance(m, SparseMember):
                _merge_sparse(sparse_out, m)
        new.size = max(self.size, max(sparse_out, default=-1) + 1)
        new.union_vertices = sum(len(m.nodes) for m in members)
        return new

    def replace(self, mi: int, m) -> None:
        """Put matrix member ``m`` in slot ``mi``, in place, instead of a
        matrix member on the same node list; ``dense_in`` stays valid.
        Unlike the constructor, this does not scan m's entries for a
        negative one, which would cost a pass over the whole matrix on
        every swap: m must be a strict matrix of nonnegative arcs."""
        slots = self.slots
        if m.nodes != slots[mi].nodes:
            raise ValueError("a replacement member must keep the node list")
        if self.live[mi]:
            # live slots lead ``members``, in slot order
            i = self.live.count(1, 0, mi)
            self.members = self.members[:i] + (m,) + self.members[i + 1 :]
        self.slots = slots[:mi] + (m,) + slots[mi + 1 :]

    def __contains__(self, v) -> bool:
        if v in self.sparse_out:
            return True
        live = self.live
        return any(live[mi] for mi, _ in self.dense_in.get(v, ()))

    @property
    def vertices(self) -> tuple[int, ...]:
        """The union's vertex ids, sorted; computed on each call."""
        return tuple(sorted(v for v in self.dense_in.keys() | self.sparse_out.keys() if v in self))


class MultiDijkstraResult:
    """Labels plus work counters from one union Dijkstra run.

    ``dist[v]`` is vertex v's raw label for every id below the union's
    ``size``; ids outside the union read MATRIX_SENTINEL.  After a run with
    a ``target``, only the labels of settled vertices are final, the
    target's among them; the others are upper bounds.

    ``settled`` counts the vertices settled, forbidden ones and the target
    included.  ``relaxations`` counts every pair examined out of the settled
    vertices that are not blocked and not the target: each one's full row
    in every matrix member it belongs to, unreachable and settled columns
    included, each of its sparse arcs, and each exit read.
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

    mems = union.slots
    live = union.live
    dense_in = union.dense_in
    sparse_out = union.sparse_out
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
        # u's out-pairs: its sparse arcs, its exit, and its row in each
        # matrix member; an unreachable weight gives d + w >= MATRIX_SENTINEL,
        # which beats no label
        out = sparse_out.get(u, ())
        relaxations += len(out)
        rows = [out]
        if exit_cost is not None:
            rows.append(((stop, exit_cost(u)),))
            relaxations += 1
        for mi, li in dense_in.get(u, ()):
            if not live[mi]:
                continue
            m = mems[mi]
            nodes = m.nodes
            k = len(nodes)
            rows.append(zip(nodes, m.matrix[li * k : li * k + k]))
            relaxations += k
        for row in rows:
            for v, w in row:
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
