"""Strict-external dense distance graphs and directional rows.

For a tuple T of pieces taken from one marked r-division, the external DDG
ext(T) is the complete matrix on ∂T, the union of the pieces' boundaries,
where entry (x, y) is the length of the shortest x-to-y path that uses no
arc lying inside any piece of T and visits no other vertex of ∂T in
between.  The directional (``vor``) row of a vertex y ∈ ∂T and an exit
piece Q holds the distances, under the same rules, from y to the boundary
of Q: paths through the graph outside the tuple pieces.

T's exit pieces (``tuple_exits``) are ``DecompositionTree.cover`` of the
tuple pieces: the siblings hanging off their root paths that lie on no
such path, and so hold no tuple piece.  With the tuple pieces they
partition the graph's arcs, so the exits' strict matrices tile the graph
minus the tuple pieces, and both tables come from one pass per tuple:
one forbidden-transit Dijkstra per vertex y of ∂T over the union of
those matrices gives ext(T)'s row y and y's row for every exit piece.
"""

from __future__ import annotations

from array import array

from .graph import MATRIX_SENTINEL
from .ddg import DdgStore, DenseDistanceGraph
from .frdijkstra import DdgUnion, multi_dijkstra

__all__ = ["ExternalDdgBuilder", "tuple_boundary", "tuple_exits"]


def tuple_boundary(pieces, ids: tuple[int, ...]) -> tuple[int, ...]:
    """∂T: the sorted union of the boundaries of the pieces ``ids``."""
    return tuple(sorted({v for pid in ids for v in pieces[pid].boundary}))


def tuple_exits(tree, ids: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted siblings off the tuple pieces' root paths that hold no
    tuple piece: the tuple interiors host the failures at query time, so
    no stored path may run through them."""
    return tuple(sorted(tree.cover(ids)))


class ExternalDdgBuilder:
    """Builds ext(T) and the directional rows of tuples of one tree."""

    def __init__(self, tree, store: DdgStore):
        self.tree = tree
        self.store = store

    def ext(self, ids: tuple[int, ...], exits: tuple[int, ...]):
        """ext(T) for the sorted, distinct piece ids ``ids``, and the
        directional rows keyed by (ids, exit piece, y) for every exit piece
        in ``exits`` and every y ∈ ∂T, each row over the exit piece's
        boundary.  ``exits`` must be ``tuple_exits(tree, ids)``: the scans
        run over their strict matrices."""
        pieces = self.tree.pieces
        nodes = tuple_boundary(pieces, ids)
        node_set = set(nodes)
        union = DdgUnion([self.store.strict(sib) for sib in exits])
        matrix = array("q")
        vor: dict[tuple[tuple[int, ...], int, int], array] = {}
        for y in nodes:
            if y in union:
                # the source overrides its own forbidden entry
                raw = multi_dijkstra(union, [(y, 0)], forbidden=node_set).raw
            else:
                raw = _empty_path_only(y)
            matrix.extend(raw(x) for x in nodes)
            for q in exits:
                vor[(ids, q, y)] = array("q", [raw(s) for s in pieces[q].boundary])
        return DenseDistanceGraph(nodes, matrix), vor


def _empty_path_only(y: int):
    """Distances from a y whose every arc lies inside a tuple piece: the
    only usable path from y is the empty one."""
    return lambda s: 0 if s == y else MATRIX_SENTINEL
