"""Exact distance oracle under vertex failures.

Build time precomputes the decomposition tree and the strict matrix of
every internal node.  A query with failed set X assembles a small union of
matrices that jointly cover every path from u that avoids X:

* for each anchor vertex w in {u, v} plus X, w's home leaf joins the union
  as its own arcs, failed vertices included (every leaf vertex is a node,
  so u and v need no grafting); each leaf's member is built once, on first
  use, and reused by every later query, and
* the stored strict matrix of every sibling hanging off the anchor
  leaves' root paths joins in (``DecompositionTree.cover``), except
  siblings whose piece has a failed vertex strictly inside it; such a piece
  is exactly one whose stored matrix may hide a failed vertex on an
  internal path, and the walk from that failed vertex's own leaf re-covers
  its arcs with finer pieces.

One Dijkstra over the union from u, never relaxing out of a failed
vertex, then yields the exact label of v.  The scan is A* toward v: failures
only lengthen distances, and every union arc is the length of a real path
in the graph, so lower bounds on failure-free distances are a consistent
potential on every union.  The bounds come from 8 landmarks L, through the
triangle inequality (Goldberg and Harrelson, SODA 2005):

    π(y) = max over L of d(y, L) - d(v, L) and d(L, v) - d(L, y), and 0.

The landmarks are picked farthest-first and their distance tables filled
whenever an oracle is built or loaded; they are a pure function of the
graph, so oracle files do not store them.
"""

from __future__ import annotations

from operator import add, sub
from typing import Callable, Iterable

from .graph import MATRIX_SENTINEL, EmbeddedPlanarGraph
from .decomposition import DecompositionTree, build_decomposition
from .ddg import DdgStore, _dijkstra_rows, compute_leaf_ddg
from .frdijkstra import MultiDijkstraResult, SparseMember, multi_dijkstra

__all__ = ["FailureOracle"]


LANDMARKS = 8

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


def landmark_potential(to, frm, t: int) -> Callable[[int], int]:
    """The landmark lower bound π(y) on d(y, t), from per-vertex rows
    ``to[y]`` (bounds on d(y, L) for each landmark L) and ``frm[y]`` (on
    d(L, y)).  π is consistent on every arc y -> z of length w along which
    the rows are feasible: to[y] <= w + to[z] and frm[z] <= w + frm[y],
    entry by entry.  It is at least MATRIX_SENTINEL when y cannot reach t."""
    to_t, frm_t = to[t], frm[t]

    def pi(y: int) -> int:
        return max(0, max(map(sub, to[y], to_t)), max(map(sub, frm_t, frm[y])))

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
        self.graph = g
        self.tree = tree if tree is not None else build_decomposition(g, leaf_size, r_base)
        self.store = DdgStore(g, self.tree)
        self.store.prefetch_nonleaf()
        self._leaves: dict[int, SparseMember] = {}
        self.landmarks, self._to, self._frm = landmark_tables(g)

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

    def _marked(self, x: frozenset[int]) -> frozenset[int]:
        """Nodes whose stored matrix is invalidated: ancestors of a failed
        vertex's leaf holding that vertex strictly inside."""
        tree = self.tree
        marked: set[int] = set()
        for f in x:
            for node in tree.root_path(tree.leaf_of[f]):
                if not tree.pieces[node].on_boundary(f):
                    marked.add(node)
        return frozenset(marked)

    def _leaf(self, leaf: int) -> SparseMember:
        """Leaf ``leaf`` as its own arcs, built on first use.  Queries only
        read it: failed vertices stay in and are blocked by the scan."""
        got = self._leaves.get(leaf)
        if got is None:
            got = self._leaves[leaf] = compute_leaf_ddg(self.graph, self.tree.pieces[leaf])
        return got

    def assemble(self, u: int, v: int, failed: Iterable[int] = ()) -> list:
        """Union members for (u, v, failed): the home leaves of u, v and the
        sorted failed vertices, each once, then the strict matrices of the
        unmarked siblings up their root paths."""
        x = self._validate(u, v, failed)
        tree = self.tree
        leaves = list(dict.fromkeys(tree.leaf_of[w] for w in (u, v, *sorted(x))))
        strict = self.store.strict
        return [self._leaf(leaf) for leaf in leaves] + [
            strict(sib) for sib in tree.cover(leaves, self._marked(x))
        ]

    # -- queries -----------------------------------------------------------

    def _potential(self, t: int) -> Callable[[int], int]:
        """Landmark lower bound π(y) on d(y, t) in G minus any failed set;
        at least MATRIX_SENTINEL when y cannot reach t even in G."""
        return landmark_potential(self._to, self._frm, t)

    def query_result(
        self,
        u: int,
        v: int,
        failed: Iterable[int] = (),
        target: int | None = None,
    ) -> MultiDijkstraResult:
        """Union Dijkstra from u over the assembly for (u, v, failed).

        Without a ``target`` every label is final; with one, the scan is A*
        toward the target under the landmark potential and stops when the
        target settles, so only settled labels are final (see
        ``multi_dijkstra``)."""
        return multi_dijkstra(
            self.assemble(u, v, failed),
            [(u, 0)],
            forbidden=frozenset(failed),
            target=target,
            potential=None if target is None else self._potential(target),
        )

    def distance(self, u: int, v: int, failed: Iterable[int] = ()):
        """Length of the shortest u-to-v path avoiding ``failed``."""
        x = self._validate(u, v, failed)
        if u == v:
            return 0
        return self.query_result(u, v, x, target=v).label(v)
