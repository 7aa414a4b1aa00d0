"""Distance oracle trading space against the number of supported failures.

Build time fixes an r-division of the decomposition tree and a failure
budget k, then precomputes, for every (k+1)-subset T of the division:

* ext(T): the strict-external matrix over ∂T, the union of the tuple's
  boundaries (paths outside the tuple pieces), and
* directional tables: for every vertex y of ∂T and every exit piece Q of
  the tuple (a sibling hanging off a tuple piece's root path that holds no
  tuple piece), the distances from y to the boundary of Q through the graph
  outside the tuple pieces, avoiding every other vertex of ∂T in between.

Set-up is one walk over the tuples.  A tuple's exit pieces are
``DecompositionTree.cover`` of its pieces, the walk a query's union also
takes; ext(T) and the directional tables come from one Dijkstra per
vertex of ∂T over those pieces' strict matrices, and each exit the walk
meets gets a boundary-to-everything table the first time.  A load runs
this constructor too: an oracle file stores each tuple's piece ids but no
table, so every ext(T) and directional row is rebuilt from the graph and
the tree.

A query reads the tables of one tuple: the home pieces (each vertex's
division piece above its home leaf) of u and the failed vertices.  When
v's home piece is among them, or there is room for it, v joins them and
the scan needs no exit; the first other division pieces pad the tuple to
k + 1.  Otherwise v lies in one exit piece of the tuple, and each y of ∂T
has an exit arc y -> v whose length is the best directional row entry
plus the table hop from the exit piece's boundary to v; it is read only
if y settles.  Either way one small union A* scan over the tuple's
matrices runs toward v and stops when v settles; below the tuple pieces
its members come from the failure oracle's cover walk,
``FailureOracle._cover``.  The union is a view of the one the oracle
indexes at set-up, which holds ext(T) of every tuple after the pieces'
strict matrices and the leaves.  The exit tables ignore failures, so a query
with a failed vertex in v's exit piece, or one that no stored tuple fits,
runs the failure oracle's query instead, over the same strict matrices;
it is the same kind of target-stopped scan and is exact for any failed
set.  Either way the query returns its scan, and the oracle is not
changed by it.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from operator import add
from typing import Iterable

from .graph import MATRIX_SENTINEL, EmbeddedPlanarGraph
from .decomposition import DecompositionTree, build_decomposition
from .ddg import (
    DenseDistanceGraph,
    compute_leaf_ddg,  # unused here: perfbench/tracing.py wraps this name
    compute_piece_distance_table,
)
from .external import ExternalDdgBuilder
from .failure_oracle import FailureOracle
from .frdijkstra import DdgUnion, MultiDijkstraResult, multi_dijkstra

__all__ = ["TradeoffOracle"]


def checked_division(tree: DecompositionTree, r: int) -> tuple[int, ...]:
    """``tree.r_division(r)``.  r must be marked and no leaf may have more
    than r vertices, or that leaf lies under no division piece; either
    fault raises ValueError."""
    rdiv = tree.r_division(r)
    if any(p.is_leaf and len(p.vertices) > r for p in tree.pieces):
        raise ValueError(f"r={r} is smaller than a leaf of the tree")
    return rdiv


def division_tuples(rdiv: tuple[int, ...], k: int):
    """Every (k+1)-tuple T of the division ``rdiv``, in build and file
    order."""
    # combinations allocates k + 1 indices even when it yields nothing
    return itertools.combinations(rdiv, k + 1) if k < len(rdiv) else iter(())


class TradeoffOracle(FailureOracle):
    """Exact failure oracle with per-tuple precomputation.

    ``r`` must be a value of the tree's marked sequence, with no leaf
    larger; ``k`` is the largest failed-set size queries may use.  Queries
    the tables cannot serve fall back to the inherited ``FailureOracle``
    query.
    """

    def __init__(
        self,
        g: EmbeddedPlanarGraph,
        r: int,
        k: int,
        leaf_size: int = 32,
        r_base: int = 4,
        tree: DecompositionTree | None = None,
    ):
        if k < 0:
            raise ValueError("k must be non-negative")
        tree = tree if tree is not None else build_decomposition(g, leaf_size, r_base)
        rdiv = checked_division(tree, r)
        self._setup(g, tree)
        self.r = r
        self.k = k
        self.rdiv: tuple[int, ...] = rdiv
        pieces = tree.pieces
        # the division piece at or above each piece, None above the division
        division = set(rdiv)
        above: list[int | None] = []
        for p in pieces:  # parents before children
            if p.id in division:
                above.append(p.id)
            else:
                above.append(None if p.parent is None else above[p.parent])
        # home piece: the division piece above each vertex's home leaf
        self._home: tuple[int, ...] = tuple(above[leaf] for leaf in tree.leaf_of)

        self.ext: dict[tuple[int, ...], DenseDistanceGraph] = {}
        # (tuple, exit piece, boundary vertex) -> raw distance row over the
        # exit piece's boundary
        self.vor: dict[tuple[tuple[int, ...], int, int], array] = {}
        # exit piece -> its boundary-to-vertices table, built when a tuple
        # first names it
        self.piece_tables: dict[int, array] = {}
        builder = ExternalDdgBuilder(tree, self.store)
        for ids in division_tuples(rdiv, k):
            exits = tuple(sorted(tree.cover(ids)))
            self.ext[ids], rows = builder.ext(ids, exits)
            self.vor.update(rows)
            for q in exits:
                if q not in self.piece_tables:
                    self.piece_tables[q] = compute_piece_distance_table(g, pieces[q])
        self._index()

    def _index(self) -> None:
        """The failure oracle's union of every piece and leaf, then ext(T)
        of every tuple in ``division_tuples`` order, one slot each."""
        first = len(self.tree.pieces) + len(self._leaves)
        self._ext_slot = {ids: first + i for i, ids in enumerate(self.ext)}
        super()._index(self.ext.values())

    # -- query helpers ---------------------------------------------------------

    def _validate(self, u: int, v: int, failed: Iterable[int]) -> tuple[int, ...]:
        x = super()._validate(u, v, failed)
        if len(x) > self.k:
            raise ValueError(f"more than k={self.k} failed vertices")
        return x

    # -- query -----------------------------------------------------------------

    def query_result(self, u: int, v: int, failed: Iterable[int] = ()) -> MultiDijkstraResult:
        """The scan of the main path when ``_plan`` finds a tuple for the
        query, else the fallback's; both stop when v settles."""
        x = self._validate(u, v, failed)
        plan = self._plan(u, v, x)
        if plan is None:
            return self._fallback(u, v, x)
        ids, q = plan
        return self._main(u, v, x, ids, q)

    def _plan(self, u: int, v: int, x: tuple[int, ...]):
        """``(ids, q)``: the stored tuple ``ids`` and v's exit piece q, or
        q None when v resides in the tuple; None when only the fallback
        works.

        ``chosen`` holds the home pieces of u and the failed vertices.  When
        it holds v's too, or has room for it, v resides in the tuple: v's
        home piece joins, and the first division pieces not chosen, in id
        order, pad the tuple to k + 1; with fewer division pieces no stored
        tuple fits.  Otherwise the k + 1 home pieces are distinct and v's
        lies outside them.  q is then the highest ancestor-or-self of v's
        home leaf that holds no tuple piece; its parent holds one, so q is
        in ``tree.cover(ids)``, an exit the set-up walk met, and has a
        piece table.  That table and the ``vor`` rows ignore failures, so a
        failed vertex in q leaves the query to the fallback.

        Both plans are exact.  A pad never hides a failure: a failed vertex
        strictly inside a division piece has that piece as its home piece,
        so it lies in a chosen piece, whose cover ``_assembly`` refines
        around it.  A failed vertex on a pad's boundary, or in any other
        piece, lies on its home piece's boundary and so on ∂T, where the
        scan blocks it and no ext(T) or ``vor`` path passes through it.  On
        a resident plan v is a node because its home leaf is a member."""
        home = self._home
        chosen = {home[w] for w in (u, *x)}
        if home[v] in chosen or len(chosen) <= self.k:
            chosen.add(home[v])
            for pid in self.rdiv:
                if len(chosen) > self.k:
                    break
                chosen.add(pid)
            if len(chosen) <= self.k:
                return None
            return tuple(sorted(chosen)), None
        ids = tuple(sorted(chosen))
        tree = self.tree
        pieces = tree.pieces
        q = tree.leaf_of[v]
        # the root holds every tuple piece, so the walk stops below it
        while not any(tree.is_ancestor(pieces[q].parent, pid) for pid in ids):
            q = pieces[q].parent
        if any(pieces[q].contains(f) for f in x):
            return None
        return ids, q

    def _assembly(self, ids, residents) -> DdgUnion:
        """The union for a stored tuple under failures: the view of
        ``_cover`` of the tuple pieces plus the slot of ext(T).  The
        residents are u, the failed vertices and, on a plan with no exit
        piece, v.  Tuple pieces are disjoint nodes of one division, so no
        leaf or sibling comes up twice."""
        slots = self._cover(ids, residents)
        slots.append(self._ext_slot[ids])
        return self._union.view(slots)

    def _main(self, u, v, x, ids, q):
        """One union A* scan from u toward v over the tuple's assembly,
        stopped when v settles.  With no exit piece (q None) v is a
        resident and the union alone reaches it.  Otherwise each unfailed y
        of ∂T has an exit arc y -> v of length
        c(y) = min over s in ∂Q of vor(T, Q, y)[s] + hop[s], computed only
        if y settles.  c(y) is the length of a path in the graph, so it
        bounds the landmark potential π(y) from above and π stays
        consistent; v's label is min(d(v), min over y of d(y) + c(y))."""
        if q is None:
            residents, exit_cost = (u, *x, v), None
        else:
            residents = (u, *x)
            vertices = self.tree.pieces[q].vertices
            # hop[i]: in-piece distance from the i-th exit boundary vertex
            # to v, the table's column of v
            hop = self.piece_tables[q][bisect_left(vertices, v) :: len(vertices)]
            vor = self.vor

            def exit_cost(y: int) -> int:
                row = vor.get((ids, q, y))
                if row is None:  # y is not on ∂T
                    return MATRIX_SENTINEL
                # a sum with an unreachable part stays at or above MATRIX_SENTINEL
                return min(map(add, row, hop), default=MATRIX_SENTINEL)

        return multi_dijkstra(
            self._assembly(ids, residents),
            [(u, 0)],
            forbidden=x,
            target=v,
            potential=self._potential(u, v),
            exit_cost=exit_cost,
        )

    def _fallback(self, u, v, x):
        """The failure oracle's query, for layouts the stored tuples cannot
        serve: one union A* scan toward v over the leaves of u, v and the
        failed set and the siblings off their root paths, stopped when v
        settles."""
        return super().query_result(u, v, x)

