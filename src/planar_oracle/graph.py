"""Directed planar graphs with an explicit combinatorial embedding.

A graph is given by its arcs (tail, head, weight) plus, for every vertex, the
clockwise cyclic order of incident arcs.  Both the out-arcs and the in-arcs of
a vertex appear in its rotation, so each arc shows up in exactly two
rotations: once at its tail and once at its head.  Planarity is not taken on
faith: the loader traces the faces induced by the rotation system and checks
Euler's formula per connected component.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Iterable, Mapping, Sequence

__all__ = [
    "UNREACHABLE",
    "MATRIX_SENTINEL",
    "GraphFormatError",
    "EmbeddingError",
    "WeightOverflowError",
    "EmbeddedPlanarGraph",
    "load_graph",
    "loads_graph",
    "parse_int",
    "save_graph",
    "dumps_graph",
    "trace_faces",
    "check_planar",
    "dart_target",
]

UNREACHABLE = float("inf")
"""Sentinel distance: compares greater than every finite length."""

MATRIX_SENTINEL = 1 << 62
"""Stand-in for UNREACHABLE inside integer distance matrices."""

# A simple path uses each arc at most once, so keeping the sum of absolute
# arc weights below MATRIX_SENTINEL keeps every path length below it too,
# and a finite distance never reads as unreachable in a matrix.
_MAX_WEIGHT_SUM = (1 << 62) - 1


def _check_weight(w) -> int:
    """``w`` if it is an arc weight, a nonnegative int; ValueError otherwise.
    A float would be truncated and a bool is not a length, so both fail."""
    if not isinstance(w, int) or isinstance(w, bool):
        raise ValueError(f"arc weight {w!r} is not an integer")
    if w < 0:
        raise ValueError(f"arc weight {w} is negative")
    return w


class GraphFormatError(ValueError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmbeddingError(ValueError):
    """The rotation system does not describe a planar embedding."""


class WeightOverflowError(ValueError):
    """Total absolute weight exceeds the 63-bit accumulation budget."""


def dart_target(dart: int, tails: Sequence[int], heads: Sequence[int]) -> int:
    arc = dart >> 1
    return heads[arc] if dart & 1 == 0 else tails[arc]


def trace_faces(
    arc_ids: Iterable[int],
    tails: Sequence[int],
    heads: Sequence[int],
    rotation: Mapping[int, Sequence[int]],
) -> list[list[int]]:
    """Return the faces of an embedded (sub)graph as dart cycles.

    Darts encode a traversal direction of an arc: ``2*a`` walks arc ``a`` from
    tail to head, ``2*a + 1`` walks it backwards.  ``rotation`` maps each
    vertex to its incident arcs among ``arc_ids``, in clockwise order, and
    lists each of those arcs once at its tail and once at its head.

    The walk runs on a successor array over darts, built from the rotation
    alone: the dart entering v along a rotation entry is followed by the
    dart leaving v along the next entry, cyclically.  From each dart not yet
    seen, in increasing order, the walk follows successors until it comes
    back.  So every dart lies on exactly one face, each face starts at its
    smallest dart, and faces come in order of that dart.  The arrays span
    every dart up to the largest arc id, so callers pass dense ids.  Raises
    EmbeddingError when the rotation does not list each arc twice, or a
    dart's orbit does not close where it began.
    """
    arcs = sorted(arc_ids)
    if not arcs:
        return []
    size = 2 * arcs[-1] + 2
    succ = array("q", [-1]) * size
    # a dart is unseen once some rotation entry makes it enter a vertex;
    # the extra last byte stays set, so a walk reaching dart -1 (no
    # successor) stops there
    seen = bytearray(b"\x01") * (size + 1)
    entries = 0
    try:
        for v, rot in rotation.items():
            if not rot:
                continue
            entries += len(rot)
            prev = rot[-1]
            prev = 2 * prev + (heads[prev] != v)  # the dart entering v along it
            for a in rot:
                if heads[a] == v:  # enters v as 2a, leaves as 2a + 1
                    succ[prev] = 2 * a + 1
                    prev = 2 * a
                else:
                    succ[prev] = 2 * a
                    prev = 2 * a + 1
                seen[prev] = 0
    except IndexError:
        raise EmbeddingError("a rotation lists an arc outside the traced arcs") from None
    if entries != 2 * len(arcs):
        raise EmbeddingError(
            f"rotations list {entries} arc ends for {len(arcs)} traced arcs"
        )

    faces: list[list[int]] = []
    for start in range(size):
        if seen[start]:
            continue
        face = []
        d = start
        while not seen[d]:
            seen[d] = 1
            face.append(d)
            d = succ[d]
        if d != start:  # orbit must close where it began
            raise EmbeddingError("rotation system produced a broken face walk")
        faces.append(face)
    return faces


def arc_ends(arcs: Sequence[int], tails: Sequence[int], heads: Sequence[int]) -> set[int]:
    """The vertices that the ``arcs`` touch."""
    ends = {tails[a] for a in arcs}
    ends.update([heads[a] for a in arcs])
    return ends


def components(
    verts: Sequence[int], arcs: Sequence[int], tails: Sequence[int], heads: Sequence[int]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected components of the subgraph with vertices ``verts``, which
    must hold every arc endpoint, and ``arcs``, ignoring arc directions.
    Each component is labelled by one BFS over the arcs' undirected
    adjacency.  Returns (sorted vertices, sorted arcs) per component,
    largest first, ties by smallest vertex; an isolated vertex is a
    component of its own."""
    idx = {v: i for i, v in enumerate(verts)}
    ends = [(idx[tails[a]], idx[heads[a]]) for a in arcs]
    nbrs: list[list[int]] = [[] for _ in verts]
    for t, h in ends:
        nbrs[t].append(h)
        nbrs[h].append(t)
    label = [-1] * len(verts)
    groups: list[list[int]] = []
    for s in range(len(verts)):
        if label[s] >= 0:
            continue
        c = len(groups)
        label[s] = c
        queue = [s]
        for u in queue:  # grows while it is walked
            for w in nbrs[u]:
                if label[w] < 0:
                    label[w] = c
                    queue.append(w)
        groups.append(queue)
    comp_arcs: list[list[int]] = [[] for _ in groups]
    for a, (t, _) in zip(arcs, ends):
        comp_arcs[label[t]].append(a)
    out = [
        (tuple(sorted(verts[i] for i in queue)), tuple(sorted(ars)))
        for queue, ars in zip(groups, comp_arcs)
    ]
    out.sort(key=lambda cv: (-len(cv[0]), cv[0][0]))
    return out


def check_planar(
    arc_ids: Sequence[int],
    tails: Sequence[int],
    heads: Sequence[int],
    rotation: Mapping[int, Sequence[int]],
) -> tuple[int, int]:
    """Trace the faces of an embedded (sub)graph and check Euler's formula.

    Every connected component that has an arc must satisfy V - E + F = 2,
    counting the vertices, arcs and faces it holds; isolated vertices are
    not counted.  Returns (faces, arc-bearing components) and raises
    EmbeddingError when the rotation system is not planar.
    """
    faces = trace_faces(arc_ids, tails, heads, rotation)
    comps = components(sorted(arc_ends(arc_ids, tails, heads)), arc_ids, tails, heads)
    comp_of = {v: i for i, (vs, _) in enumerate(comps) for v in vs}
    nf = [0] * len(comps)
    for face in faces:
        nf[comp_of[tails[face[0] >> 1]]] += 1
    for (vs, arcs), f in zip(comps, nf):
        if len(vs) - len(arcs) + f != 2:
            raise EmbeddingError(
                f"Euler check failed on a component: V={len(vs)} E={len(arcs)} F={f}"
            )
    return len(faces), len(comps)


class EmbeddedPlanarGraph:
    """Immutable directed planar graph with a validated embedding.

    Parallel arcs (same ordered endpoint pair) and self-loops are rejected.
    Disconnected inputs are accepted; queries across components simply come
    back unreachable.
    """

    __slots__ = (
        "n",
        "arcs",
        "rotation",
        "tails",
        "heads",
        "weights",
        "face_count",
        "total_weight",
        "_out",
        "_in",
    )

    def __init__(
        self,
        n: int,
        arcs: Sequence[tuple[int, int, int]],
        rotation: Sequence[Sequence[int]],
    ):
        self.n = n
        self.arcs = tuple((int(t), int(h), _check_weight(w)) for t, h, w in arcs)
        self.rotation = tuple(tuple(r) for r in rotation)
        self.tails = tuple(a[0] for a in self.arcs)
        self.heads = tuple(a[1] for a in self.arcs)
        self.weights = tuple(a[2] for a in self.arcs)
        self._validate_shape()
        self.face_count = self._check_euler()
        self.total_weight = sum(abs(w) for w in self.weights)
        if self.total_weight > _MAX_WEIGHT_SUM:
            raise WeightOverflowError(
                f"sum of |weights| {self.total_weight} exceeds 63-bit budget"
            )
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for t, h, w in self.arcs:
            out[t].append((h, w))
            inc[h].append((t, w))
        self._out = tuple(tuple(x) for x in out)
        self._in = tuple(tuple(x) for x in inc)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _validate_shape(self) -> None:
        n, m = self.n, len(self.arcs)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.rotation) != n:
            raise EmbeddingError(
                f"expected {n} rotation rows, got {len(self.rotation)}"
            )
        seen_pairs: set[tuple[int, int]] = set()
        for i, (t, h, w) in enumerate(self.arcs):
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError(f"arc {i} endpoint out of range")
            if t == h:
                raise ValueError(f"arc {i} is a self-loop")
            if (t, h) in seen_pairs:
                raise ValueError(f"arc {i} duplicates ordered pair {(t, h)}")
            seen_pairs.add((t, h))
        # Each arc appears exactly once in its tail's rotation and once in
        # its head's rotation, and nowhere else.
        counted = [0] * m
        for v, rot in enumerate(self.rotation):
            local: set[int] = set()
            for a in rot:
                if not (0 <= a < m):
                    raise EmbeddingError(f"vertex {v}: unknown arc id {a}")
                if self.tails[a] != v and self.heads[a] != v:
                    raise EmbeddingError(
                        f"vertex {v}: arc {a} is not incident to it"
                    )
                if a in local:
                    raise EmbeddingError(f"vertex {v}: arc {a} listed twice")
                local.add(a)
                counted[a] += 1
        for a, c in enumerate(counted):
            if c != 2:
                raise EmbeddingError(
                    f"arc {a} appears {c} times across rotations, expected 2"
                )

    def _check_euler(self) -> int:
        """Trace all faces and check V - E + F = 2 on each arc component."""
        if not self.arcs:
            return 1 if self.n else 0
        rot_map = {v: self.rotation[v] for v in range(self.n)}
        faces, components = check_planar(
            range(len(self.arcs)), self.tails, self.heads, rot_map
        )
        # Isolated vertices live inside existing faces and add none of
        # their own; arc-bearing components each contribute their face sets,
        # of which the unbounded ones merge into a single outer face.
        return faces - (components - 1)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.arcs)

    def out_arcs(self, v: int) -> tuple[tuple[int, int], ...]:
        """(head, weight) pairs for arcs leaving ``v``."""
        return self._out[v]

    def check_vertex(self, v: int) -> int:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.n:
            raise ValueError(f"vertex id {v!r} out of range [0, {self.n})")
        return v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddedPlanarGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.arcs == other.arcs
            and self.rotation == other.rotation
        )

    def __hash__(self):
        return hash((self.n, self.arcs, self.rotation))

    def __repr__(self) -> str:
        return f"EmbeddedPlanarGraph(n={self.n}, m={self.m}, faces={self.face_count})"


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------
#
#   line 1:             "<n> <m>"
#   lines 2 .. m+1:     "<tail> <head> <weight>"      (0-based vertex ids)
#   lines m+2 .. m+n+1: clockwise rotation of vertex i as arc indices
#   '#' starts a comment; blank lines are ignored.
#   Every number is ASCII decimal digits; counts and weights may take a
#   leading '-', which their range checks then reject by name.


def parse_int(token: str, signed: bool = False) -> int:
    """The integer ``token`` spells in ASCII decimal digits, after one
    leading '-' if ``signed``; ValueError for anything else.  ``int()``
    alone would also take '1_0', '+1' and non-ASCII digits such as '٣'.
    Every reader of input text parses its numbers here."""
    digits = token[1:] if signed and token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{token!r} is not a decimal integer")
    return int(token)


def loads_graph(text: str) -> EmbeddedPlanarGraph:
    rows: list[tuple[int, list[str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((line_no, body.split()))

    if not rows:
        raise GraphFormatError(1, "empty input")
    line_no, head = rows[0]
    if len(head) != 2:
        raise GraphFormatError(line_no, "expected '<n> <m>' header")
    try:
        n, m = parse_int(head[0], signed=True), parse_int(head[1], signed=True)
    except ValueError:
        raise GraphFormatError(line_no, "header fields must be integers") from None
    if n < 0 or m < 0:
        raise GraphFormatError(line_no, "header counts must be nonnegative")
    if len(rows) != 1 + m + n:
        raise GraphFormatError(
            line_no,
            f"expected {m} arc lines and {n} rotation lines, got {len(rows) - 1}",
        )

    arcs: list[tuple[int, int, int]] = []
    for line_no, fields in rows[1 : 1 + m]:
        if len(fields) != 3:
            raise GraphFormatError(line_no, "expected '<tail> <head> <weight>'")
        try:
            t, h, w = parse_int(fields[0]), parse_int(fields[1]), parse_int(fields[2], signed=True)
        except ValueError:
            raise GraphFormatError(line_no, "arc fields must be integers") from None
        if w < 0:
            raise GraphFormatError(line_no, "arc weights must be nonnegative")
        arcs.append((t, h, w))

    rotation: list[list[int]] = []
    for line_no, fields in rows[1 + m :]:
        if fields == ["-"]:
            rotation.append([])
            continue
        try:
            rotation.append([parse_int(x) for x in fields])
        except ValueError:
            raise GraphFormatError(line_no, "rotation entries must be arc ids") from None

    try:
        return EmbeddedPlanarGraph(n, arcs, rotation)
    except (EmbeddingError, WeightOverflowError):
        raise
    except ValueError as exc:
        raise GraphFormatError(rows[0][0], str(exc)) from None


def load_graph(path: str) -> EmbeddedPlanarGraph:
    with open(path, "r", encoding="ascii") as fh:
        return loads_graph(fh.read())


def dumps_graph(g: EmbeddedPlanarGraph) -> str:
    out = [f"{g.n} {g.m}\n"]
    for t, h, w in g.arcs:
        out.append(f"{t} {h} {w}\n")
    for rot in g.rotation:
        out.append((" ".join(str(a) for a in rot) if rot else "-") + "\n")
    return "".join(out)


def save_graph(g: EmbeddedPlanarGraph, path: str) -> None:
    """Write the text format byte-deterministically."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_graph(g))


def sorted_contains(ordered: Sequence[int], x: int) -> bool:
    """Membership test on a sorted id sequence in logarithmic time."""
    i = bisect.bisect_left(ordered, x)
    return i < len(ordered) and ordered[i] == x
