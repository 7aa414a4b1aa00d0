"""Exact distance oracle under vertex failures.

Build and load alike precompute the strict matrix of every node of the
decomposition tree, bottom-up (``ddg.DdgStore``), and each leaf as a union
member of its own arcs; a build makes the tree, a load reads it from its
file.  Both end by indexing all of them once, piece i's matrix in slot i
of one ``DdgUnion`` and the leaves after the pieces.  Queries only read
this state.  A query with failed set X assembles a small union of members
that jointly cover every path from u that avoids X: the home leaves of u,
v and X as their own arcs, failed vertices included (every leaf vertex is
a node, so u and v need no grafting), and the stored strict matrices of
the siblings hanging off their root paths that lie on no such path.
Together they tile the graph's arcs once: the Fakcharoenphol-Rao union.
``FailureOracle._cover`` picks their slots and states why it is exact,
and the query's union is a view of the oracle's that marks those slots
live, so it indexes nothing.  The trade-off oracle's tuple assembly is
the same walk below each tuple piece.

One Dijkstra over the union from u, never relaxing out of a failed
vertex, then yields the exact label of v.  The scan is A* toward v and
stops when v settles, so only settled labels are final.  Failures
only lengthen distances, and every union arc is the length of a real path
in the graph, so lower bounds on failure-free distances are a consistent
potential on every union.  The bounds come from landmarks L, through the
triangle inequality (Goldberg and Harrelson, SODA 2005):

    π(y) = max over A of d(y, L) - d(v, L) and d(L, v) - d(L, y), and 0,

where A holds the 3 of the 8 landmarks whose bound is largest at the
query's source u (Goldberg and Werneck, ALENEX 2005).  A max over any
subset of consistent terms is consistent, so the choice keeps every label
exact; it only decides how tight π is away from u.

The landmarks are picked farthest-first and their distance tables filled
whenever an oracle is built or loaded; they are a pure function of the
graph, so oracle files do not store them.
"""

from __future__ import annotations

from operator import add
from typing import Callable, Iterable

from .graph import MATRIX_SENTINEL, EmbeddedPlanarGraph
from .decomposition import DecompositionTree, build_decomposition
from .ddg import DdgStore, _dijkstra_rows, compute_leaf_ddg
from .frdijkstra import DdgUnion, MultiDijkstraResult, SparseMember, multi_dijkstra

__all__ = ["FailureOracle"]


LANDMARKS = 8
# landmarks a query's potential reads, the ones best at its source
ACTIVE_LANDMARKS = 3

# Landmark tables hold an unreachable distance as _FAR = 2 * MATRIX_SENTINEL,
# and the potential's terms are plain differences.  A term whose two
# distances are both unreachable, or whose subtracted one alone is, is at
# most 0 and drops out.  A term whose other distance alone is unreachable
# exceeds MATRIX_SENTINEL, which reads "cannot reach v", and rightly: if y
# cannot reach a landmark that v reaches, or a landmark reaches y but not v,
# then y cannot reach v.  Either way the potential stays consistent, since
# each term is a difference of one landmark's table entries.
_FAR = 2 * MATRIX_SENTINEL


def landmark_tables(g: EmbeddedPlanarGraph):
    """``(landmarks, to, frm)`` for min(LANDMARKS, n) landmarks picked
    farthest-first.  Each pick maximises, over vertices not yet picked, the
    smallest round trip d(L, y) + d(y, L) to a landmark so far.  Each
    unreachable direction counts as _FAR, farther than any path; ties go
    to the smallest id, so vertex 0 is the first pick.
    ``to[y][i]`` is d(y, L_i) and ``frm[y][i]`` is d(L_i, y), each _FAR
    when unreachable: one reverse and one forward Dijkstra per landmark."""
    n = g.n
    # equal distances share one int object across the 2 * 8 * n entries
    same = {}.setdefault

    def far(adj, s: int) -> list[int]:
        row = _dijkstra_rows(adj, [s], range(n))
        return [same(d, d) if d < MATRIX_SENTINEL else _FAR for d in row]

    landmarks: list[int] = []
    to_cols: list[list[int]] = []
    frm_cols: list[list[int]] = []
    # with no landmark yet, every round trip is unreachable both ways
    nearest = [2 * _FAR] * n
    while len(landmarks) < min(LANDMARKS, n):
        lm = max(range(n), key=nearest.__getitem__)
        fwd, rev = far(g._out, lm), far(g._in, lm)
        landmarks.append(lm)
        frm_cols.append(fwd)
        to_cols.append(rev)
        nearest = list(map(min, nearest, map(add, fwd, rev)))
        nearest[lm] = -1  # never picked twice; min() keeps it at -1
    return tuple(landmarks), tuple(zip(*to_cols)), tuple(zip(*frm_cols))


def active_landmarks(to, frm, s: int, t: int) -> tuple[int, ...]:
    """Indices of the ACTIVE_LANDMARKS landmarks whose bound on d(s, t) is
    largest, best first, ties to the smaller index; the best one repeats
    when there are fewer landmarks than that."""
    to_t, frm_t = to[t], frm[t]
    bound = [
        max(ts - tt, ft - fs) for ts, tt, ft, fs in zip(to[s], to_t, frm_t, frm[s])
    ]
    # sorted() stays stable under reverse=True, so ties keep index order
    ranked = sorted(range(len(bound)), key=bound.__getitem__, reverse=True)
    ranked += ranked[:1] * ACTIVE_LANDMARKS
    return tuple(ranked[:ACTIVE_LANDMARKS])


def landmark_potential(to, frm, s: int, t: int) -> Callable[[int], int]:
    """The landmark lower bound π(y) on d(y, t) for a scan from s, from
    per-vertex rows ``to[y]`` (bounds on d(y, L) for each landmark L) and
    ``frm[y]`` (on d(L, y)), read only at the ``active_landmarks`` of
    (s, t).  π is consistent on every arc y -> z of length w along which
    the rows are feasible: to[y] <= w + to[z] and frm[z] <= w + frm[y],
    entry by entry.  π(s) is the bound over every landmark, and π(y) is at
    least MATRIX_SENTINEL when y cannot reach t."""
    i, j, l = active_landmarks(to, frm, s, t)
    to_t, frm_t = to[t], frm[t]
    ai, aj, al = to_t[i], to_t[j], to_t[l]
    bi, bj, bl = frm_t[i], frm_t[j], frm_t[l]

    def pi(y: int) -> int:
        ty = to[y]
        fy = frm[y]
        return max(0, ty[i] - ai, ty[j] - aj, ty[l] - al, bi - fy[i], bj - fy[j], bl - fy[l])

    return pi


class FailureOracle:
    """Exact shortest-path lengths avoiding a set of failed vertices."""

    def __init__(
        self,
        g: EmbeddedPlanarGraph,
        leaf_size: int = 32,
        r_base: int = 4,
        tree: DecompositionTree | None = None,
    ):
        self._setup(g, tree if tree is not None else build_decomposition(g, leaf_size, r_base))
        self._index()

    def _setup(self, g: EmbeddedPlanarGraph, tree: DecompositionTree) -> None:
        """The state every oracle over a tree starts from: every piece's
        strict matrix, every leaf's member, and the landmark tables.
        ``tree`` must be one of g's topology; its weights may differ."""
        t = tree.graph
        if (t.n, t.tails, t.heads, t.rotation) != (g.n, g.tails, g.heads, g.rotation):
            raise ValueError("the decomposition tree was built for another graph")
        self.graph = g
        self.tree = tree
        self.store = DdgStore(g, tree)
        # each leaf as its own arcs, the member of a union it anchors;
        # queries only read it: failed vertices stay in, blocked by the scan
        self._leaves: dict[int, SparseMember] = {
            p.id: compute_leaf_ddg(g, p) for p in tree.pieces if p.is_leaf
        }
        _, self._to, self._frm = landmark_tables(g)

    def _index(self, extra=()) -> None:
        """Index once, one slot each, every member a query may join: piece
        i's strict matrix in slot i, then the leaves in id order, then
        ``extra``.  The constructor calls this last, a load included."""
        pieces = len(self.tree.pieces)
        self._leaf_slot = {leaf: pieces + i for i, leaf in enumerate(self._leaves)}
        strict = map(self.store.strict, range(pieces))
        self._union = DdgUnion([*strict, *self._leaves.values(), *extra])

    # -- assembly ----------------------------------------------------------

    def _validate(self, u: int, v: int, failed: Iterable[int]) -> frozenset[int]:
        self.graph.check_vertex(u)
        self.graph.check_vertex(v)
        x = frozenset(failed)
        for f in x:
            self.graph.check_vertex(f)
        if u in x or v in x:
            raise ValueError("query endpoint is a failed vertex")
        return x

    def assemble(self, u: int, v: int, failed: Iterable[int] = ()) -> DdgUnion:
        """The union for (u, v, failed): the view of ``_cover`` of the root
        with residents u, v and the sorted failed vertices."""
        x = self._validate(u, v, failed)
        return self._union.view(self._cover((0,), (u, v, *sorted(x))))

    def _cover(self, tops, residents) -> list[int]:
        """The slots, in the oracle's union, of the members tiling the
        disjoint nodes ``tops`` around the ``residents``, every failed
        vertex among them: the pieces whose strict matrices join, and the
        home leaves that join as their own arcs.  A top holding none of the
        residents' home leaves joins whole; otherwise those leaves join,
        then ``tree.cover(leaves, top)``.

        The members partition the tops' arcs, so every path inside the
        tops is a chain of member entries joined at member nodes.  The
        union is exact for a scan that blocks the failed vertices because
        each one is a node wherever it appears: in its home leaf, a member
        of its own arcs, and on the boundary of every strict member.  A
        strict member lies on no resident's root path, so it does not hold
        the failed vertex's home leaf; a piece holding a vertex strictly
        inside holds every leaf of that vertex, so the vertex is on the
        member's boundary, a node of its strict matrix."""
        tree = self.tree
        homes = dict.fromkeys(tree.leaf_of[w] for w in residents)
        slots: list[int] = []
        for top in tops:
            below = [leaf for leaf in homes if tree.is_ancestor(top, leaf)]
            if not below:
                slots.append(top)
                continue
            slots.extend(self._leaf_slot[leaf] for leaf in below)
            slots.extend(tree.cover(below, top))
        return slots

    # -- queries -----------------------------------------------------------

    def _potential(self, s: int, t: int) -> Callable[[int], int]:
        """Landmark lower bound π(y) on d(y, t) in G minus any failed set,
        for a scan from s; at least MATRIX_SENTINEL when y cannot reach t
        even in G."""
        return landmark_potential(self._to, self._frm, s, t)

    def query_result(self, u: int, v: int, failed: Iterable[int] = ()) -> MultiDijkstraResult:
        """The query's scan: one union A* scan from u toward v over the
        assembly for (u, v, failed), stopped when v settles, so only settled
        labels are final (see ``multi_dijkstra``)."""
        x = self._validate(u, v, failed)
        return multi_dijkstra(
            self.assemble(u, v, x),
            [(u, 0)],
            forbidden=x,
            target=v,
            potential=self._potential(u, v),
        )

    def distance(self, u: int, v: int, failed: Iterable[int] = ()):
        """Length of the shortest u-to-v path avoiding ``failed``."""
        return self.query_result(u, v, failed).label(v)
