"""Byte-deterministic oracle files.

Layout (little-endian, fixed-width): a four-byte magic, the format version
(currently 11; files of any other version are rejected), a kind byte, the
graph in its text form, the decomposition tree, and for a trade-off
oracle r, k and the piece ids of every tuple of its r-division, in build
order.  The tree section holds the marked r sequence, the piece count,
one parent id per piece (-1 for the root) and, in piece order, each
leaf's vertex and arc ids; a load derives every other part of the tree by
the build's rules.  No file stores a table: a load is the build's own
constructor over the graph and the tree it read, ``FailureOracle(g,
tree=tree)`` or ``TradeoffOracle(g, r, k, tree=tree)``, so every strict
matrix, piece table, ext(T) and directional row is rebuilt and none is
trusted.  Building the same oracle twice produces identical bytes.

The file ends in a four-byte trailer: the CRC32 (``zlib.crc32``) of every
byte before it.  ``load_oracle`` reads the magic and version, then checks
the trailer before it parses anything else, so a corrupted file raises
OracleFileError instead of loading.  A crafted file with a valid trailer
raises OracleFileError too unless its tree is one the build could make:
parents precede their pieces, every internal piece has two children,
leaf id lists are in range and strictly increasing, leaf arcs end inside
their leaf, sibling arcs are disjoint, and the root is the whole graph.
The trade-off r must be marked and at least every leaf's size.  Each
tuple's stored ids must be the tuple the walk expects next, which bounds
the walk, and so the tables a load builds, by the file's size, and the
ids must fill the file exactly.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import BinaryIO

from .graph import EmbeddedPlanarGraph, dumps_graph, loads_graph
from .decomposition import DecompositionTree, Piece, child_boundary
from .failure_oracle import FailureOracle
from .tradeoff_oracle import TradeoffOracle, checked_division, division_tuples

__all__ = ["save_oracle", "load_oracle", "OracleFileError"]

_MAGIC = b"PODX"
_VERSION = 11
_CRC_CHUNK = 1 << 20  # bytes hashed per read at load
_KIND_FAILURE = 1
_KIND_TRADEOFF = 2


class OracleFileError(ValueError):
    """Corrupt or unsupported oracle file."""


# -- low-level helpers -------------------------------------------------------


def _w_u32(fh: BinaryIO, x: int) -> None:
    if not 0 <= x < 1 << 32:
        raise ValueError(f"{x} does not fit the file's unsigned 32-bit field")
    fh.write(struct.pack("<I", x))


def _pack_ids(ids) -> bytes:
    return struct.pack(f"<{len(ids)}I", *ids)


def _w_ids(fh: BinaryIO, ids) -> None:
    _w_u32(fh, len(ids))
    fh.write(_pack_ids(ids))


def _w_blob(fh: BinaryIO, data: bytes) -> None:
    _w_u32(fh, len(data))
    fh.write(data)


class _Reader:
    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def take(self, size: int) -> bytes:
        # every length field ends up here: check it before reading, so a
        # crafted length never allocates more than the file holds
        if size > self.left:
            raise OracleFileError("truncated oracle file")
        data = self.fh.read(size)
        if len(data) != size:
            raise OracleFileError("truncated oracle file")
        self.left -= size
        return data

    def check_crc(self) -> None:
        """Compare the trailer with the CRC32 of every byte before it, read
        in fixed-size chunks, then go back to where parsing stands; the
        trailer no longer counts as bytes left to parse."""
        if self.left < 4:
            raise OracleFileError("truncated oracle file")
        self.left -= 4
        here = self.fh.tell()
        self.fh.seek(0)
        crc = 0
        body = here + self.left
        while body:
            chunk = self.fh.read(min(_CRC_CHUNK, body))
            if not chunk:
                raise OracleFileError("truncated oracle file")
            crc = zlib.crc32(chunk, crc)
            body -= len(chunk)
        if self.fh.read(4) != struct.pack("<I", crc):
            raise OracleFileError("checksum mismatch: the oracle file is corrupt")
        self.fh.seek(here)

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def ids(self) -> tuple[int, ...]:
        k = self.u32()
        return struct.unpack(f"<{k}I", self.take(4 * k)) if k else ()

    def vertex_ids(self, n: int) -> tuple[int, ...]:
        ids = self.ids()  # queries size their label lists by the largest id
        if ids and max(ids) >= n:
            raise OracleFileError(f"vertex id {max(ids)} past the graph's {n} vertices")
        return ids

    def blob(self) -> bytes:
        return self.take(self.u32())


# -- tree section -------------------------------------------------------------


def _write_tree(fh: BinaryIO, tree: DecompositionTree) -> None:
    pieces = tree.pieces
    _w_ids(fh, tree.r_sequence)
    _w_u32(fh, len(pieces))
    parents = [-1 if p.parent is None else p.parent for p in pieces]
    fh.write(struct.pack(f"<{len(parents)}i", *parents))
    for p in pieces:
        if p.is_leaf:
            _w_ids(fh, p.vertices)
            _w_ids(fh, p.arcs)


def _read_graph(rd: _Reader) -> EmbeddedPlanarGraph:
    # a truncated blob, the decode and every graph error are ValueErrors
    try:
        return loads_graph(rd.blob().decode("ascii"))
    except ValueError as exc:
        raise OracleFileError(f"bad graph section: {exc}") from exc


def _increasing(ids: tuple[int, ...]) -> bool:
    return all(map(int.__lt__, ids, ids[1:]))


def _read_tree(rd: _Reader, g: EmbeddedPlanarGraph) -> DecompositionTree:
    """The stored shape and leaves, with every internal piece rebuilt as the
    build makes it: its arcs are its two children's, disjoint, its vertices
    theirs, and each child's boundary is what ``child_boundary`` gives."""
    r_sequence = rd.ids()
    count = rd.u32()
    parents = struct.unpack(f"<{count}i", rd.take(4 * count))
    pieces = [Piece(pid, None, (), (), ()) for pid in range(count)]
    kids: list[list[int]] = [[] for _ in pieces]
    for pid, parent in enumerate(parents):
        # pieces are numbered top-down: piece 0 is the root (parent -1) and
        # every other piece's parent precedes it, so the links form a tree
        if not (-1 if pid == 0 else 0) <= parent < pid:
            raise OracleFileError(f"piece {pid} has bad parent id {parent}")
        if parent >= 0:
            pieces[pid].parent = parent
            kids[parent].append(pid)
    for piece, ch in zip(pieces, kids):
        if ch:
            # queries pair each piece with its one sibling
            if len(ch) != 2:
                raise OracleFileError(f"piece {piece.id} has {len(ch)} children, not 2")
            piece.children = tuple(ch)
            continue
        vertices = rd.vertex_ids(g.n)
        arcs = rd.ids()
        if not (_increasing(vertices) and _increasing(arcs)):
            raise OracleFileError(f"leaf {piece.id} has an id list not strictly increasing")
        if arcs and arcs[-1] >= g.m:
            raise OracleFileError(f"leaf {piece.id} has arc id {arcs[-1]} of {g.m}")
        inside = set(vertices)
        if not (
            inside.issuperset(map(g.tails.__getitem__, arcs))
            and inside.issuperset(map(g.heads.__getitem__, arcs))
        ):
            raise OracleFileError(f"leaf {piece.id} has an arc with an end outside its vertices")
        piece.vertices, piece.arcs = vertices, arcs
    # children have larger ids than their parent, so bottom-up is by id, down
    for piece in reversed(pieces):
        if piece.children:
            a, b = (pieces[c] for c in piece.children)
            arcs = tuple(sorted(a.arcs + b.arcs))
            if not _increasing(arcs):
                raise OracleFileError(f"the children of piece {piece.id} share an arc")
            piece.vertices = tuple(sorted({*a.vertices, *b.vertices}))
            piece.arcs = arcs
    whole = (tuple(range(g.n)), tuple(range(g.m)))
    if not pieces or (pieces[0].vertices, pieces[0].arcs) != whole:
        raise OracleFileError("the root piece is not the whole graph")
    for piece in pieces:
        if piece.children:
            a, b = (pieces[c] for c in piece.children)
            a.boundary = child_boundary(g, piece.boundary, a.vertices, b.arcs)
            b.boundary = child_boundary(g, piece.boundary, b.vertices, a.arcs)
    return DecompositionTree(g, pieces, r_sequence)


# -- tuple ids ----------------------------------------------------------------


def _write_tuples(fh: BinaryIO, oracle: TradeoffOracle) -> None:
    for ids in division_tuples(oracle.rdiv, oracle.k):
        fh.write(_pack_ids(ids))


def _read_tuples(rd: _Reader, tree: DecompositionTree, r: int, k: int) -> None:
    """Check r, then that the stored tuple ids are the ones a build over
    ``tree``, r and k makes, and that they fill the file: each tuple takes
    its 4 * (k + 1) bytes before the next one is made, so a crafted r or k
    never walks further than the file is long."""
    try:
        rdiv = checked_division(tree, r)
    except ValueError as exc:
        raise OracleFileError(str(exc)) from exc
    for ids in division_tuples(rdiv, k):
        if rd.take(4 * len(ids)) != _pack_ids(ids):
            raise OracleFileError(f"stored tuple ids are not the expected {ids}")
    if rd.left:
        raise OracleFileError(f"{rd.left} bytes after the last tuple")


# -- top level ----------------------------------------------------------------


def save_oracle(oracle, path: str) -> None:
    """Write a failure or trade-off oracle; same build, same bytes."""
    if isinstance(oracle, TradeoffOracle):
        kind = _KIND_TRADEOFF
    elif isinstance(oracle, FailureOracle):
        kind = _KIND_FAILURE
    else:
        raise TypeError(f"cannot serialize {type(oracle).__name__}")

    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<HB", _VERSION, kind))
    _w_blob(buf, dumps_graph(oracle.graph).encode("ascii"))
    _write_tree(buf, oracle.tree)
    if kind == _KIND_TRADEOFF:
        _w_u32(buf, oracle.r)
        _w_u32(buf, oracle.k)
        _write_tuples(buf, oracle)

    with buf.getbuffer() as body:
        crc = zlib.crc32(body)
    _w_u32(buf, crc)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_oracle(path: str):
    """Read back an oracle written by save_oracle."""
    with open(path, "rb") as fh:
        rd = _Reader(fh)
        if rd.take(4) != _MAGIC:
            raise OracleFileError("not an oracle file")
        version, kind = struct.unpack("<HB", rd.take(3))
        if version != _VERSION:
            raise OracleFileError(f"unsupported oracle file version {version}")
        rd.check_crc()
        if kind not in (_KIND_FAILURE, _KIND_TRADEOFF):
            raise OracleFileError(f"unknown oracle kind {kind}")
        g = _read_graph(rd)
        tree = _read_tree(rd, g)
        if kind == _KIND_FAILURE:
            if rd.left:
                raise OracleFileError(f"{rd.left} bytes after the tree")
            return FailureOracle(g, tree=tree)
        r, k = rd.u32(), rd.u32()
        _read_tuples(rd, tree, r, k)
        return TradeoffOracle(g, r, k, tree=tree)
