"""Strict-external dense distance graphs.

For a tuple T of pieces taken from one marked r-division, the external DDG
ext(T) is the complete matrix on the union of the pieces' boundaries where
entry (x, y) is the length of the shortest x-to-y path that uses no arc
lying inside any piece of T and visits no other boundary vertex of T in
between.

The matrices are produced by induction over the marked r-division sequence,
coarse to fine.  For a tuple T at one level, map every piece to its
ancestor in the next coarser division to get T'; recursively build ext(T');
for each ancestor A build the "inside A minus the contained pieces" matrix
from the strict matrices of unmarked siblings hanging off the paths from
the contained pieces up to A; then stitch ext(T') and those per-ancestor
matrices together with one forbidden-transit Dijkstra per boundary vertex.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

from .graph import MATRIX_SENTINEL, EmbeddedPlanarGraph
from .ddg import DdgStore, DenseDistanceGraph
from .frdijkstra import DdgUnion, multi_dijkstra

__all__ = ["ExternalDdgBuilder"]


class ExternalDdgBuilder:
    """Memoizing builder for external DDGs over one decomposition tree."""

    def __init__(self, g: EmbeddedPlanarGraph, tree, store: DdgStore):
        self.graph = g
        self.tree = tree
        self.store = store
        self.levels: tuple[int, ...] = tree.r_sequence
        self._mark_sets = {r: frozenset(tree.r_division(r)) for r in self.levels}
        self._ext: dict[tuple[int, tuple[int, ...]], DenseDistanceGraph] = {}
        self._inside: dict[tuple[int, tuple[int, ...]], DenseDistanceGraph] = {}

    # -- public entry ------------------------------------------------------

    def ext(self, piece_ids: Iterable[int], r: int) -> DenseDistanceGraph:
        ids = tuple(sorted(set(piece_ids)))
        if not ids:
            raise ValueError("external DDG needs at least one piece")
        if r not in self._mark_sets:
            raise ValueError(f"r={r} is not in the marked sequence {self.levels}")
        if not all(p in self._mark_sets[r] for p in ids):
            raise ValueError("pieces are not all marked in the r-division for r")
        return self._ext_at(self.levels.index(r), ids)

    # -- induction ---------------------------------------------------------

    def _ext_at(self, level: int, ids: tuple[int, ...]) -> DenseDistanceGraph:
        key = (level, ids)
        got = self._ext.get(key)
        if got is not None:
            return got

        tree = self.tree
        nodes = tuple(
            sorted({v for pid in ids for v in tree.pieces[pid].boundary})
        )

        if level == len(self.levels) - 1:
            # coarsest division is the root alone: nothing lies outside it
            out = _all_unreachable(nodes, ids)
            self._ext[key] = out
            return out

        next_marks = self._mark_sets[self.levels[level + 1]]
        by_ancestor: dict[int, list[int]] = {}
        for pid in ids:
            anc = pid
            while anc not in next_marks:
                anc = tree.pieces[anc].parent
            by_ancestor.setdefault(anc, []).append(pid)

        parent_ext = self._ext_at(level + 1, tuple(sorted(by_ancestor)))
        members = [parent_ext]
        for anc in sorted(by_ancestor):
            members.append(self._inside_minus(anc, tuple(sorted(by_ancestor[anc]))))

        out = self._stitch(nodes, members, ids)
        self._ext[key] = out
        return out

    def _inside_minus(self, anc: int, contained: tuple[int, ...]) -> DenseDistanceGraph:
        """Distances inside piece ``anc`` with the contained pieces' arcs
        removed, between the boundaries of ``anc`` and of the contained
        pieces, no transit through those boundaries."""
        key = (anc, contained)
        got = self._inside.get(key)
        if got is not None:
            return got

        tree = self.tree
        marked: set[int] = set()
        for pid in contained:
            cur = pid
            while True:
                marked.add(cur)
                if cur == anc:
                    break
                cur = tree.pieces[cur].parent
        sibs: set[int] = set()
        for node in marked:
            if node == anc:
                continue
            sib = tree.sibling_of(node)
            if sib is not None and sib not in marked:
                sibs.add(sib)
        members = [self.store.strict(s) for s in sorted(sibs)]

        node_set = set(tree.pieces[anc].boundary)
        for pid in contained:
            node_set.update(tree.pieces[pid].boundary)
        nodes = tuple(sorted(node_set))

        out = self._stitch(nodes, members, (anc,) + contained)
        self._inside[key] = out
        return out

    def _stitch(
        self,
        nodes: tuple[int, ...],
        members: Sequence,
        source_pieces: tuple[int, ...],
    ) -> DenseDistanceGraph:
        """One forbidden-transit Dijkstra per node over the member union."""
        k = len(nodes)
        matrix = array("q", [MATRIX_SENTINEL]) * (k * k)
        if k:
            union = DdgUnion(members) if members else None
            node_set = set(nodes)
            for i, src in enumerate(nodes):
                row = i * k
                matrix[row + i] = 0
                if union is None or src not in union:
                    continue
                res = multi_dijkstra(union, [(src, 0)], forbidden=node_set - {src})
                for j, tgt in enumerate(nodes):
                    if j != i:
                        matrix[row + j] = res.raw(tgt)
        return DenseDistanceGraph("strict_external", nodes, matrix, source_pieces)


def _all_unreachable(nodes: tuple[int, ...], ids: tuple[int, ...]) -> DenseDistanceGraph:
    k = len(nodes)
    matrix = array("q", [MATRIX_SENTINEL]) * (k * k)
    for i in range(k):
        matrix[i * k + i] = 0
    return DenseDistanceGraph("strict_external", nodes, matrix, ids)

