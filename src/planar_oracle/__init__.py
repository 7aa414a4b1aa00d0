"""Exact distance oracles for directed planar graphs with vertex failures.

The package stores a directed planar graph as a combinatorial embedding,
decomposes it with cycle separators, and summarizes pieces by dense
distance matrices over their boundaries.  On top of that sit three
query structures: a failure oracle (distances avoiding any failed set),
a space/time trade-off oracle for a fixed failure budget, and a dynamic
oracle that tracks edge and vertex updates.  Every answer is an exact
integer, verifiable against the brute-force baseline in
:mod:`planar_oracle.baseline`.
"""

from .graph import (
    MATRIX_SENTINEL,
    UNREACHABLE,
    EmbeddedPlanarGraph,
    EmbeddingError,
    GraphFormatError,
    dumps_graph,
    load_graph,
    loads_graph,
    save_graph,
)
from .generate import generate_grid, generate_random_triangulation
from .baseline import distance_avoiding, sssp
from .decomposition import DecompositionTree, Piece, build_decomposition
from .failure_oracle import FailureOracle
from .tradeoff_oracle import TradeoffOracle
from .dynamic_oracle import DynamicOracle
from .oraclefile import OracleFileError, load_oracle, save_oracle

__version__ = "0.1.0"

__all__ = [
    "DecompositionTree",
    "DynamicOracle",
    "EmbeddedPlanarGraph",
    "EmbeddingError",
    "FailureOracle",
    "GraphFormatError",
    "MATRIX_SENTINEL",
    "OracleFileError",
    "Piece",
    "TradeoffOracle",
    "UNREACHABLE",
    "build_decomposition",
    "distance_avoiding",
    "dumps_graph",
    "generate_grid",
    "generate_random_triangulation",
    "load_graph",
    "load_oracle",
    "loads_graph",
    "save_graph",
    "save_oracle",
    "sssp",
    "__version__",
]
