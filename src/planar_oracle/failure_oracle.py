"""Exact distance oracle under vertex failures.

Build time precomputes the decomposition tree and the strict matrix of
every internal node.  A query with failed set X assembles a small union of
matrices that jointly cover every path from u that avoids X:

* for each anchor vertex w in {u, v} plus X, w's home leaf joins the union
  as its own arcs, failed vertices included (every leaf vertex is a node,
  so u and v need no grafting); each leaf's member is built once, on first
  use, and reused by every later query, and
* walking from each anchor leaf to the root, the stored strict matrix of
  every sibling hanging off the path joins in, except siblings whose piece
  has a failed vertex strictly inside it; such a piece is exactly one whose
  stored matrix may hide a failed vertex on an internal path, and the walk
  from that failed vertex's own leaf re-covers its arcs with finer pieces.

One multi-source Dijkstra over the union, never relaxing out of a failed
vertex, then yields the exact label of v.
"""

from __future__ import annotations

from typing import Iterable

from .graph import EmbeddedPlanarGraph
from .decomposition import DecompositionTree, build_decomposition
from .ddg import DdgStore, compute_leaf_ddg
from .frdijkstra import MultiDijkstraResult, SparseMember, multi_dijkstra

__all__ = ["FailureAssembly", "FailureOracle"]


class FailureAssembly:
    """The member family one query runs Dijkstra over, with provenance."""

    __slots__ = ("members", "parts", "marked", "anchor_leaves")

    def __init__(self, members, parts, marked, anchor_leaves):
        self.members: tuple = members
        # parts[i] describes members[i]: ("leaf", piece id) for an anchor
        # leaf's own arcs, or ("sibling", piece id) for a stored matrix
        self.parts: tuple[tuple[str, int], ...] = parts
        self.marked: frozenset[int] = marked
        self.anchor_leaves: tuple[int, ...] = anchor_leaves


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

    def assemble(self, u: int, v: int, failed: Iterable[int] = ()) -> FailureAssembly:
        x = self._validate(u, v, failed)
        tree = self.tree
        marked = self._marked(x)

        anchor_leaves: list[int] = []
        seen_leaves: set[int] = set()
        for w in (u, v, *sorted(x)):
            leaf = tree.leaf_of[w]
            if leaf not in seen_leaves:
                seen_leaves.add(leaf)
                anchor_leaves.append(leaf)

        members = []
        parts = []
        seen_sibs: set[int] = set()
        for leaf in anchor_leaves:
            members.append(self._leaf(leaf))
            parts.append(("leaf", leaf))
            for node in tree.root_path(leaf):
                sib = tree.sibling_of(node)
                if sib is None or sib in seen_sibs or sib in marked:
                    continue
                seen_sibs.add(sib)
                members.append(self.store.strict(sib))
                parts.append(("sibling", sib))
        return FailureAssembly(tuple(members), tuple(parts), marked, tuple(anchor_leaves))

    # -- queries -----------------------------------------------------------

    def query_result(
        self,
        u: int,
        v: int,
        failed: Iterable[int] = (),
        target: int | None = None,
    ) -> MultiDijkstraResult:
        """Union Dijkstra from u over the assembly for (u, v, failed).

        Without a ``target`` every label is final; with one, the scan stops
        when the target settles (see ``multi_dijkstra``)."""
        asm = self.assemble(u, v, failed)
        return multi_dijkstra(
            asm.members,
            [(u, 0)],
            forbidden=frozenset(failed),
            target=target,
        )

    def distance(self, u: int, v: int, failed: Iterable[int] = ()):
        """Length of the shortest u-to-v path avoiding ``failed``."""
        x = self._validate(u, v, failed)
        if u == v:
            return 0
        return self.query_result(u, v, x, target=v).label(v)
