"""Byte-deterministic oracle files.

Layout (little-endian, fixed-width): a four-byte magic, the format version
(currently 5; files of any other version are rejected), a kind byte, the
graph in its text form, the build parameters, the decomposition tree, and
the strict matrices, each as its node list and entries.  Trade-off files
append the per-tuple external matrices, the directional tables and the
piece tables.  Unreachable entries are written as -1.  All dictionary
sections are emitted in sorted key order, so building the same oracle
twice produces identical bytes.

The file ends in a four-byte trailer: the CRC32 (``zlib.crc32``) of every
byte before it.  ``load_oracle`` reads the magic and version, then checks
the trailer before it parses anything else, so a corrupted file, such as
one with a flipped matrix entry, raises OracleFileError instead of loading
and answering wrongly.  Vertex, arc and piece ids in the tree section, and
the trade-off r, are also range-checked at load, and every stored matrix,
row and table is checked against the shape a build of the same tree makes,
so a crafted file with a valid trailer raises OracleFileError there.
"""

from __future__ import annotations

import io
import os
import struct
import sys
import zlib
from array import array
from math import comb
from typing import BinaryIO

from .graph import (
    MATRIX_SENTINEL,
    EmbeddedPlanarGraph,
    dumps_graph,
    loads_graph,
    sorted_contains,
)
from .decomposition import DecompositionTree, Piece
from .ddg import DdgStore, DenseDistanceGraph, PieceDistanceTable
from .external import tuple_boundary
from .failure_oracle import FailureOracle, landmark_tables
from .tradeoff_oracle import TradeoffOracle

__all__ = ["save_oracle", "load_oracle", "OracleFileError"]

_MAGIC = b"PODX"
_VERSION = 5
_CRC_CHUNK = 1 << 20  # bytes hashed per read at load
_KIND_FAILURE = 1
_KIND_TRADEOFF = 2


class OracleFileError(ValueError):
    """Corrupt or unsupported oracle file."""


# -- low-level helpers -------------------------------------------------------


def _w_u32(fh: BinaryIO, x: int) -> None:
    fh.write(struct.pack("<I", x))


def _w_i64(fh: BinaryIO, x: int) -> None:
    fh.write(struct.pack("<q", x))


def _w_ids(fh: BinaryIO, ids) -> None:
    _w_u32(fh, len(ids))
    fh.write(struct.pack(f"<{len(ids)}I", *ids) if ids else b"")


def _w_matrix(fh: BinaryIO, mat: array) -> None:
    _w_u32(fh, len(mat))
    out = array("q", (x if x < MATRIX_SENTINEL else -1 for x in mat))
    if sys.byteorder == "big":
        out.byteswap()
    fh.write(out.tobytes())


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

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def ids(self) -> tuple[int, ...]:
        k = self.u32()
        return struct.unpack(f"<{k}I", self.take(4 * k)) if k else ()

    def vertex_ids(self, n: int) -> tuple[int, ...]:
        ids = self.ids()  # queries size their label lists by the largest id
        if ids and max(ids) >= n:
            raise OracleFileError(f"vertex id {max(ids)} past the graph's {n} vertices")
        return ids

    def matrix(self) -> array:
        k = self.u32()
        mat = array("q")
        mat.frombytes(self.take(8 * k))
        if sys.byteorder == "big":
            mat.byteswap()
        for i, x in enumerate(mat):
            if x < 0:
                mat[i] = MATRIX_SENTINEL
        return mat

    def blob(self) -> bytes:
        return self.take(self.u32())


# -- tree section -------------------------------------------------------------


def _write_tree(fh: BinaryIO, tree: DecompositionTree) -> None:
    _w_u32(fh, tree.leaf_size)
    _w_u32(fh, tree.r_base)
    _w_ids(fh, tree.r_sequence)
    _w_u32(fh, len(tree.pieces))
    for p in tree.pieces:
        _w_i64(fh, -1 if p.parent is None else p.parent)
        _w_ids(fh, p.vertices)
        _w_ids(fh, p.boundary)
        _w_ids(fh, p.arcs)
    _w_u32(fh, len(tree._marks))
    for r in sorted(tree._marks):
        _w_u32(fh, r)
        _w_ids(fh, tree._marks[r])
    _w_ids(fh, tree.leaf_of)


def _read_graph(rd: _Reader) -> EmbeddedPlanarGraph:
    # a truncated blob, the decode and every graph error are ValueErrors
    try:
        return loads_graph(rd.blob().decode("ascii"))
    except ValueError as exc:
        raise OracleFileError(f"bad graph section: {exc}") from exc


def _read_tree(rd: _Reader, g: EmbeddedPlanarGraph) -> DecompositionTree:
    leaf_size = rd.u32()
    r_base = rd.u32()
    r_sequence = rd.ids()
    count = rd.u32()
    pieces: list[Piece] = []
    for pid in range(count):
        parent = rd.i64()
        # pieces are numbered top-down: piece 0 is the root (parent -1) and
        # every other piece's parent precedes it, so the links form a tree
        if not (-1 if pid == 0 else 0) <= parent < pid:
            raise OracleFileError(f"piece {pid} has bad parent id {parent}")
        vertices = rd.vertex_ids(g.n)
        boundary = rd.vertex_ids(g.n)
        arcs = rd.ids()
        if arcs and max(arcs) >= g.m:
            raise OracleFileError(f"piece {pid} has arc id {max(arcs)} of {g.m}")
        inside = set(vertices)
        if not (
            inside.issuperset(g.tails[a] for a in arcs)
            and inside.issuperset(g.heads[a] for a in arcs)
        ):
            raise OracleFileError(f"piece {pid} has an arc with an end outside its vertices")
        pieces.append(Piece(pid, None if parent < 0 else parent, vertices, boundary, arcs))
    kids: dict[int, list[int]] = {}
    for p in pieces:
        if p.parent is not None:
            kids.setdefault(p.parent, []).append(p.id)
    for pid, ch in kids.items():
        pieces[pid].children = tuple(sorted(ch))
    marks: dict[int, tuple[int, ...]] = {}
    for _ in range(rd.u32()):
        r = rd.u32()
        marks[r] = rd.ids()
        if marks[r] and max(marks[r]) >= count:
            raise OracleFileError(f"r={r} division names piece {max(marks[r])} of {count}")
    leaf_of = rd.ids()
    if len(leaf_of) != g.n:
        raise OracleFileError(f"{len(leaf_of)} home leaves for {g.n} vertices")
    for v, leaf in enumerate(leaf_of):
        if not (leaf < count and pieces[leaf].is_leaf and pieces[leaf].contains(v)):
            raise OracleFileError(f"vertex {v} has bad home leaf {leaf}")
    return DecompositionTree(g, pieces, leaf_size, r_base, r_sequence, marks, leaf_of)


def _write_ddg(fh: BinaryIO, ddg: DenseDistanceGraph) -> None:
    _w_ids(fh, ddg.nodes)
    _w_matrix(fh, ddg.matrix)


def _read_ddg(rd: _Reader, n: int) -> DenseDistanceGraph:
    nodes = rd.vertex_ids(n)
    matrix = rd.matrix()
    try:
        return DenseDistanceGraph(nodes, matrix)
    except ValueError as exc:  # a matrix that does not fit its node list
        raise OracleFileError(f"bad DDG: {exc}") from exc


def _read_strict(rd: _Reader, tree: DecompositionTree) -> dict[int, DenseDistanceGraph]:
    """Strict matrices keyed by piece id, each over its piece's boundary."""
    pieces = tree.pieces
    strict = {}
    for _ in range(rd.u32()):
        pid = rd.u32()
        ddg = _read_ddg(rd, tree.graph.n)
        if pid >= len(pieces) or ddg.nodes != pieces[pid].boundary:
            raise OracleFileError(f"strict matrix {pid} is not over a piece boundary")
        strict[pid] = ddg
    return strict


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

    if kind == _KIND_FAILURE:
        stored = [p.id for p in oracle.tree.pieces if not p.is_leaf]
        _w_u32(buf, len(stored))
        for pid in stored:
            _w_u32(buf, pid)
            _write_ddg(buf, oracle.store.strict(pid))
    else:
        _w_u32(buf, oracle.r)
        _w_u32(buf, oracle.k)
        # The stored set must depend only on the tree, not on which strict
        # matrices queries happened to pull in, or the bytes would drift.
        stored = sorted(
            {p.id for p in oracle.tree.pieces if not p.is_leaf} | set(oracle.rdiv)
        )
        _w_u32(buf, len(stored))
        for pid in stored:
            _w_u32(buf, pid)
            _write_ddg(buf, oracle.store.strict(pid))
        _w_u32(buf, len(oracle.ext))
        for ids in sorted(oracle.ext):
            _w_ids(buf, ids)
            _write_ddg(buf, oracle.ext[ids])
        _w_u32(buf, len(oracle.vor))
        for key in sorted(oracle.vor):
            ids, q, y = key
            _w_ids(buf, ids)
            _w_u32(buf, q)
            _w_u32(buf, y)
            _w_matrix(buf, oracle.vor[key])
        _w_u32(buf, len(oracle.piece_tables))
        for node in sorted(oracle.piece_tables):
            table = oracle.piece_tables[node]
            _w_u32(buf, node)
            _w_ids(buf, table.sources)
            _w_ids(buf, table.targets)
            _w_matrix(buf, table.matrix)

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
            return _restore_failure(g, tree, _read_strict(rd, tree))

        r = rd.u32()
        if r not in tree._marks:
            raise OracleFileError(f"r={r} is not in the marked sequence {tree.r_sequence}")
        k = rd.u32()
        oracle = _restore_failure(g, tree, _read_strict(rd, tree), cls=TradeoffOracle)
        oracle.r = r
        oracle.k = k
        oracle.rdiv = tree.r_division(r)
        oracle.last_result = None
        _read_tradeoff_tables(rd, oracle)
        return oracle


def _read_tradeoff_tables(rd: _Reader, oracle: TradeoffOracle) -> None:
    """Read ext, the directional rows and the piece tables into ``oracle``.

    Each key is checked as it is read, and each section's count against
    what a build of the oracle's tree, r and k makes; distinct valid keys
    in the right number are exactly the build's keys, so no second key set
    is built.  Every row and table must fit its piece."""
    pieces = oracle.tree.pieces
    n = oracle.graph.n
    size = oracle.k + 1
    rdiv = set(oracle.rdiv)

    count = rd.u32()
    if count != comb(len(rdiv), size):
        raise OracleFileError(f"{count} ext tables for {len(rdiv)} pieces and k={oracle.k}")
    ext: dict[tuple[int, ...], DenseDistanceGraph] = {}
    exits: dict[tuple[int, ...], tuple[int, ...]] = {}
    rows = 0
    for _ in range(count):
        ids = rd.ids()
        if (
            len(ids) != size
            or any(a >= b for a, b in zip(ids, ids[1:]))
            or not rdiv.issuperset(ids)
            or ids in ext
        ):
            raise OracleFileError(f"ext key {ids} is not a new {size}-subset of the r-division")
        ddg = _read_ddg(rd, n)
        if ddg.nodes != tuple_boundary(pieces, ids):
            raise OracleFileError(f"ext{ids} is not over the tuple's boundary")
        ext[ids] = ddg
        exits[ids] = oracle._exit_family(ids)
        rows += len(exits[ids]) * len(ddg.nodes)

    count = rd.u32()
    if count != rows:
        raise OracleFileError(f"{count} directional rows where a build makes {rows}")
    vor: dict[tuple[tuple[int, ...], int, int], array] = {}
    for _ in range(count):
        ids = rd.ids()
        q = rd.u32()
        y = rd.u32()
        key = (ids, q, y)
        if (
            ids not in ext
            or not sorted_contains(exits[ids], q)
            or not sorted_contains(ext[ids].nodes, y)
            or key in vor
        ):
            raise OracleFileError(f"directional row {key} is not one a build makes")
        row = rd.matrix()
        if len(row) != len(pieces[q].boundary):
            raise OracleFileError(f"directional row {key} does not fit piece {q}'s boundary")
        vor[key] = row

    wanted = set().union(*exits.values())
    count = rd.u32()
    if count != len(wanted):
        raise OracleFileError(f"{count} piece tables where a build makes {len(wanted)}")
    tables: dict[int, PieceDistanceTable] = {}
    for _ in range(count):
        node = rd.u32()
        sources = rd.ids()
        targets = rd.ids()
        matrix = rd.matrix()
        if node not in wanted or node in tables:
            raise OracleFileError(f"piece table {node} is not one a build makes")
        piece = pieces[node]
        if (
            sources != piece.boundary
            or targets != piece.vertices
            or len(matrix) != len(sources) * len(targets)
        ):
            raise OracleFileError(f"piece table {node} does not fit its piece")
        tables[node] = PieceDistanceTable(sources, targets, matrix)

    oracle.ext = ext
    oracle.vor = vor
    oracle.piece_tables = tables


def _restore_failure(g, tree, strict, cls=FailureOracle):
    oracle = object.__new__(cls)
    oracle.graph = g
    oracle.tree = tree
    oracle.store = DdgStore(g, tree)
    oracle.store._strict.update(strict)
    oracle._leaves = {}
    oracle.landmarks, oracle._to, oracle._frm = landmark_tables(g)
    return oracle
