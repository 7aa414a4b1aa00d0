"""Distance oracle trading space against the number of supported failures.

Build time fixes an r-division of the decomposition tree and a failure
budget k, then precomputes, for every (k+1)-subset T of the division:

* ext(T): the strict-external matrix over ∂T, the union of the tuple's
  boundaries (paths outside the tuple pieces), and
* directional tables: for every vertex y of ∂T and every exit piece Q of
  the tuple (a sibling hanging off a tuple piece's root path that holds no
  tuple piece), the distances from y to the boundary of Q through the graph
  outside the tuple pieces, avoiding every other vertex of ∂T in between.

Both come from one Dijkstra per vertex of ∂T over the exit pieces' strict
matrices (``external.tuple_exits``, the walk a query's union also takes,
``DecompositionTree.cover``).  Set-up, at build and load alike, builds a
boundary-to-everything table for every piece that can be an exit.

A query picks a tuple that covers u and the failed vertices (one piece
each), reads the precomputed matrices, and runs one small union A* scan
toward v that stops when v settles.  Each y of ∂T has an exit arc y -> v
whose length is the best directional row entry plus the table hop from
the exit piece's boundary to v; it is read only if y settles.  Queries
whose layout the main path cannot serve run the failure oracle's query
instead, over the same strict matrices; it is the same kind of
target-stopped scan and is exact for any failed set.  Either way the
query returns its scan, and the oracle is not changed by it.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from operator import add
from typing import Iterable

from .graph import MATRIX_SENTINEL, EmbeddedPlanarGraph, sorted_contains
from .decomposition import (
    DecompositionTree,
    build_decomposition,
    highest_excluding_ancestor,
)
from .ddg import (
    DenseDistanceGraph,
    compute_leaf_ddg,  # unused here: perfbench/tracing.py wraps this name
    compute_piece_distance_table,
)
from .external import ExternalDdgBuilder, tuple_exits
from .failure_oracle import FailureOracle
from .frdijkstra import MultiDijkstraResult, multi_dijkstra

__all__ = ["TradeoffOracle"]


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
        self._setup(g, tree, r, k)
        self.store.build_internal()
        self._build()

    def _setup(self, g: EmbeddedPlanarGraph, tree: DecompositionTree, r: int, k: int) -> None:
        """Fix the r-division, index for each vertex the division pieces
        that hold it, in division order, and build the exit pieces' tables.
        r must be marked and no leaf may have more than r vertices, or that
        leaf lies under no division piece."""
        rdiv = tree.r_division(r)
        if any(p.is_leaf and len(p.vertices) > r for p in tree.pieces):
            raise ValueError(f"r={r} is smaller than a leaf of the tree")
        super()._setup(g, tree)
        self.r = r
        self.k = k
        self.rdiv: tuple[int, ...] = rdiv
        held: list[list[int]] = [[] for _ in range(g.n)]
        for pid in rdiv:
            for w in tree.pieces[pid].vertices:
                held[w].append(pid)
        self._rdiv_of: list[tuple[int, ...]] = [tuple(pids) for pids in held]

        self.ext: dict[tuple[int, ...], DenseDistanceGraph] = {}
        # (tuple, exit piece, boundary vertex) -> raw distance row over the
        # exit piece's boundary
        self.vor: dict[tuple[tuple[int, ...], int, int], array] = {}
        # exit piece -> its boundary-to-vertices table.  A piece is an exit
        # of some tuple exactly when its parent has more than r vertices (it
        # hangs off a division piece's root path) and at least k + 1
        # division pieces lie outside it (it holds no tuple piece)
        pieces = tree.pieces
        under = [0] * len(pieces)  # division pieces at or below each piece
        for pid in rdiv:
            under[pid] = 1
        for p in reversed(pieces):  # children before parents
            if p.parent is not None:
                under[p.parent] += under[p.id]
        self.piece_tables: dict[int, array] = {
            p.id: compute_piece_distance_table(g, p)
            for p in pieces
            if p.parent is not None
            and len(pieces[p.parent].vertices) > r
            and len(rdiv) - under[p.id] > k
        }

    # -- build ---------------------------------------------------------------

    def _tuples(self):
        """(ids, ``tuple_exits(ids)``) of every (k+1)-tuple T of the
        r-division, in build and file order.

        They hold every exit a query reads.  ``_plan``'s ``q_node`` holds
        no tuple piece: each chosen piece holds u or a failed vertex, which
        ``q_node`` excludes, and each pad is picked outside it.  Its sibling
        ``s_node`` is above the tuple piece ``r_i``, so ``q_node`` hangs
        off ``r_i``'s root path."""
        # combinations allocates k + 1 indices even when it yields nothing
        if self.k >= len(self.rdiv):
            return
        for ids in itertools.combinations(self.rdiv, self.k + 1):
            yield ids, tuple_exits(self.tree, ids)

    def _build(self) -> None:
        builder = ExternalDdgBuilder(self.tree, self.store)
        for ids, exits in self._tuples():
            self.ext[ids], rows = builder.ext(ids, exits)
            self.vor.update(rows)

    # -- query helpers ---------------------------------------------------------

    def _canonical_rdiv(self, w: int) -> int:
        """The division piece above w's home leaf."""
        tree = self.tree
        leaf = tree.leaf_of[w]
        for pid in self._rdiv_of[w]:
            if tree.is_ancestor(pid, leaf):
                return pid
        raise AssertionError("no division piece holds the home leaf")

    def _validate(self, u: int, v: int, failed: Iterable[int]) -> tuple[int, ...]:
        x = super()._validate(u, v, failed)
        if len(x) > self.k:
            raise ValueError(f"more than k={self.k} failed vertices")
        return tuple(sorted(x))

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
        """Choose the tuple and exit piece, or None when only the fallback
        layout works."""
        tree = self.tree
        rdiv_of = self._rdiv_of
        anchors_needed = (u,) + x
        # trigger: two covered vertices inside one division piece; the
        # anchors are distinct, so that is a piece listed twice
        held = [pid for w in anchors_needed for pid in rdiv_of[w]]
        anchored = set(held)
        if len(anchored) < len(held):
            return None
        free_v = [pid for pid in rdiv_of[v] if pid not in anchored]
        if not free_v:
            return None
        r_v = free_v[0]
        q_node = highest_excluding_ancestor(tree, r_v, anchors_needed)
        # q_node is not the root, which holds u
        s_node = tree.sibling_of(q_node)
        spiece = tree.pieces[s_node]
        inside_s = [w for w in anchors_needed if spiece.contains(w)]
        if u in inside_s:
            i = u
        else:
            i = min(inside_s)
        arc = self._first_arc_at(spiece, i)
        if arc is None:
            return None
        # the division piece under s_node owning that arc; s_node's parent
        # holds r_v, so the division pieces under s_node partition its arcs
        under = (pid for pid in self.rdiv if tree.is_ancestor(s_node, pid))
        r_i = next(pid for pid in under if sorted_contains(tree.pieces[pid].arcs, arc))
        anchors = {i: r_i}
        for w in anchors_needed:
            if w != i:
                anchors[w] = self._canonical_rdiv(w)
        # distinct: the trigger rejected a division piece holding two anchors
        chosen = sorted(anchors.values())
        pads: list[int] = []
        need = self.k + 1 - len(chosen)
        if need:
            taken = set(chosen)
            for pid in self.rdiv:
                if len(pads) == need:
                    break
                if pid in taken:
                    continue
                if self.tree.is_ancestor(q_node, pid):
                    continue
                if pid in rdiv_of[v]:
                    continue
                pads.append(pid)
            if len(pads) < need:
                return None
        ids = tuple(sorted(chosen + pads))
        return ids, q_node

    def _first_arc_at(self, piece, i: int) -> int | None:
        """The smallest arc of ``piece`` with i as an end, or None."""
        arcs = piece.arcs
        return min((a for a in self.graph.rotation[i] if sorted_contains(arcs, a)), default=None)

    def _assembly(self, ids, u, x):
        """Union members for a stored tuple under failures: ext of the
        tuple, then per tuple piece its strict matrix when no resident's
        home leaf lies under it, and otherwise those home leaves as their
        own arcs and the strict matrices of the unmarked siblings hanging
        off their paths up to the piece.  The residents are u and the failed
        vertices.

        A resident whose home leaf lies outside the piece necessarily sits
        on the piece boundary, so the strict matrix already exposes it as a
        node and no finer cover is needed for it.  Tuple pieces are disjoint
        nodes of one division, so no leaf or sibling comes up twice."""
        tree = self.tree
        marked = self._marked(x)
        strict = self.store.strict
        homes = dict.fromkeys(tree.leaf_of[w] for w in (u, *x))
        members = [self.ext[ids]]
        for pid in ids:
            leaves = [leaf for leaf in homes if tree.is_ancestor(pid, leaf)]
            if not leaves:
                members.append(strict(pid))
                continue
            members.extend(self._leaves[leaf] for leaf in leaves)
            members.extend(strict(sib) for sib in tree.cover(leaves, marked, pid))
        return members

    def _main(self, u, v, x, ids, q_node):
        """One union A* scan from u toward v over the tuple's assembly,
        stopped when v settles.  Each unfailed y of ∂T has an exit arc
        y -> v of length c(y) = min over s in ∂Q of vor(T, Q, y)[s] + hop[s],
        computed only if y settles.  c(y) is the length of a path in the
        graph, so it bounds the landmark potential π(y) from above and π
        stays consistent; v's label is min(d(v), min over y of d(y) + c(y))."""
        members = self._assembly(ids, u, x)
        vertices = self.tree.pieces[q_node].vertices
        # hop[i]: in-piece distance from the i-th exit boundary vertex to v,
        # the table's column of v
        hop = self.piece_tables[q_node][bisect_left(vertices, v) :: len(vertices)]
        vor = self.vor

        def exit_cost(y: int) -> int:
            row = vor.get((ids, q_node, y))
            if row is None:  # y is not on ∂T
                return MATRIX_SENTINEL
            # a sum with an unreachable part stays at or above MATRIX_SENTINEL
            return min(map(add, row, hop), default=MATRIX_SENTINEL)

        return multi_dijkstra(
            members,
            [(u, 0)],
            forbidden=x,
            target=v,
            potential=self._potential(u, v),
            exit_cost=exit_cost,
        )

    def _fallback(self, u, v, x):
        """The failure oracle's query, for layouts the stored tuples cannot
        serve: one union A* scan toward v over the leaves of u, v and the
        failed set and the unmarked siblings up their root paths, stopped
        when v settles."""
        return super().query_result(u, v, x)

