"""Strict-external dense distance graphs and directional rows.

For a tuple T of pieces taken from one marked r-division, the external DDG
ext(T) is the complete matrix on ∂T, the union of the pieces' boundaries,
where entry (x, y) is the length of the shortest x-to-y path that uses no
arc lying inside any piece of T and visits no other vertex of ∂T in
between.  The directional (``vor``) row of a vertex y ∈ ∂T and an exit
piece Q holds the distances, under the same rules, from y to the boundary
of Q: paths through the graph outside the tuple pieces.

T's exit pieces are ``DecompositionTree.cover`` of the tuple pieces: the
siblings hanging off their root paths that lie on no such path, and so
hold no tuple piece; the tuple interiors host the failures at query time,
so no stored path may run through them.  With the tuple pieces they
partition the graph's arcs, so the exits' strict matrices tile the graph
minus the tuple pieces, and both tables come from one pass per tuple:
``ddg.strict_matrix`` over those matrices, with ∂T and then each exit's
boundary as its columns, runs one Dijkstra per vertex y of ∂T that never
passes through another vertex of ∂T.  Row y splits into ext(T)'s row y and
y's exit rows.
"""

from __future__ import annotations

from array import array

from .ddg import DdgStore, DenseDistanceGraph, strict_matrix

__all__ = ["ExternalDdgBuilder", "tuple_boundary"]


def tuple_boundary(pieces, ids: tuple[int, ...]) -> tuple[int, ...]:
    """∂T: the sorted union of the boundaries of the pieces ``ids``."""
    return tuple(sorted({v for pid in ids for v in pieces[pid].boundary}))


class ExternalDdgBuilder:
    """Builds ext(T) and the directional rows of tuples of one tree."""

    def __init__(self, tree, store: DdgStore):
        self.tree = tree
        self.store = store

    def ext(self, ids: tuple[int, ...], exits: tuple[int, ...]):
        """ext(T) for the sorted, distinct piece ids ``ids``, and the
        directional rows keyed by (ids, exit piece, y) for every exit piece
        in ``exits`` and every y ∈ ∂T, each row over the exit piece's
        boundary.  ``exits`` must be the sorted ``tree.cover(ids)``: the
        scans run over their strict matrices."""
        pieces = self.tree.pieces
        nodes = tuple_boundary(pieces, ids)
        # columns: ∂T, then each exit's boundary from its offset
        targets = list(nodes)
        spans = []
        for q in exits:
            spans.append((q, len(targets), len(targets) + len(pieces[q].boundary)))
            targets += pieces[q].boundary
        rows = strict_matrix(list(map(self.store.strict, exits)), nodes, targets)
        width = len(targets)
        matrix = array("q")
        vor: dict[tuple[tuple[int, ...], int, int], array] = {}
        for i, y in enumerate(nodes):
            at = i * width
            matrix += rows[at : at + len(nodes)]
            for q, start, stop in spans:
                vor[(ids, q, y)] = rows[at + start : at + stop]
        return DenseDistanceGraph(nodes, matrix), vor
