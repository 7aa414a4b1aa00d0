"""Benchmark sweeps over graph size, division granularity and failure budget.

Each configuration builds one oracle, counts the table entries it
stores, answers a seeded batch of random queries, and cross-checks every
answer against the brute-force baseline.  Configurations run one after
another in the calling process.  Every query of a point carries exactly
its k failures, drawn from a stream seeded by (seed, kind, n, k) alone,
so a failure point and a trade-off point that share those answer the
same queries.  Timings vary between runs; every other record field is
deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from math import ceil, isqrt

from .baseline import distance_avoiding
from .decomposition import build_decomposition
from .failure_oracle import FailureOracle
from .generate import generate_grid, generate_random_triangulation
from .tradeoff_oracle import TradeoffOracle

__all__ = [
    "BenchPointError", "bench_config", "build_oracle", "random_query", "render", "run_bench",
]

_FIELDS = (
    "mode",
    "n",
    "r",
    "k",
    "build_ms",
    "stored_entries",
    "mean_query_us",
    "p95_query_us",
    "union_vertex_count_mean",
    "verified",
)


class BenchPointError(ValueError):
    """A point that would not measure what it names: a graph below 4
    vertices, or a trade-off oracle with no tuple, so no main-path query."""


def bench_config(
    kind: str,
    n: int,
    mode: str,
    seed: int = 0,
    r: int | None = None,
    k: int = 1,
    leaf_size: int = 32,
    r_base: int = 4,
    queries: int = 50,
    max_weight: int | None = 16,
) -> dict:
    """One sweep point.  kind is grid | tri, mode is failure | tradeoff,
    and k is every query's failure count (and the trade-off oracle's budget).
    r=None takes the smallest marked r (see ``build_oracle``), and
    max_weight=None benches the unit-weight instance."""
    if kind not in ("grid", "tri"):
        raise ValueError(f"unknown graph kind {kind!r}")
    if mode not in ("failure", "tradeoff"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    if not 0 <= k < 1 << 32:
        # an oracle file stores k as a u32: bench only what build can write
        raise ValueError(f"k={k} does not fit the oracle file's unsigned 32-bit field")
    if queries < 0:
        raise ValueError(f"queries={queries} is negative")
    if n < 4:
        raise BenchPointError(f"n={n} is below 4, the smallest graph bench generates")
    return {
        "kind": kind,
        "n": n,
        "mode": mode,
        "seed": seed,
        "r": r,
        "k": k,
        "leaf_size": leaf_size,
        "r_base": r_base,
        "queries": queries,
        "max_weight": max_weight,
    }


def build_oracle(g, mode: str, r: int | None, k: int, leaf_size: int, r_base: int):
    """A failure oracle, or a trade-off oracle over r and k.  r=None takes
    the tree's smallest marked r, which no leaf exceeds; the failure oracle
    reads neither r nor k.  A trade-off point whose r-division has at most
    k pieces stores no tuple and raises BenchPointError."""
    if mode == "failure":
        return FailureOracle(g, leaf_size=leaf_size, r_base=r_base)
    tree = build_decomposition(g, leaf_size, r_base)
    oracle = TradeoffOracle(g, r=tree.r_sequence[0] if r is None else r, k=k, tree=tree)
    if len(oracle.rdiv) <= k:
        raise BenchPointError(f"r={oracle.r} gives {len(oracle.rdiv)} pieces, at most k={k}")
    return oracle


def _make_graph(cfg: dict):
    mw = cfg.get("max_weight")
    if cfg["kind"] == "grid":
        side = isqrt(cfg["n"])
        return generate_grid(side, side, max_weight=mw, seed=cfg["seed"])
    return generate_random_triangulation(cfg["n"], max_weight=mw, seed=cfg["seed"])


def random_query(rng: random.Random, n: int, failures: int) -> tuple[int, int, tuple[int, ...]]:
    """(u, v, x) drawn from ``rng`` on n >= 2 vertices: u, then v != u,
    then min(failures, n - 2) distinct failed vertices other than both,
    returned sorted."""
    u = rng.randrange(n)
    v = rng.randrange(n)
    while v == u:
        v = rng.randrange(n)
    x: set[int] = set()
    while len(x) < min(failures, n - 2):
        c = rng.randrange(n)
        if c != u and c != v:
            x.add(c)
    return u, v, tuple(sorted(x))


def _sample_queries(cfg: dict, n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    rng = random.Random(f"bench:{cfg['seed']}:{cfg['kind']}:{n}:{cfg['k']}")
    return [random_query(rng, n, cfg["k"]) for _ in range(cfg["queries"])]


def _run_one(cfg: dict) -> dict:
    g = _make_graph(cfg)

    t0 = time.perf_counter()
    oracle = build_oracle(g, cfg["mode"], cfg["r"], cfg["k"], cfg["leaf_size"], cfg["r_base"])
    build_ms = (time.perf_counter() - t0) * 1e3

    # the oracle's space: internal strict matrices, then a trade-off
    # oracle's ext(T), directional rows and piece tables
    entries = oracle.store.stored_entry_count()
    if cfg["mode"] == "tradeoff":
        entries += sum(len(ext.matrix) for ext in oracle.ext.values())
        entries += sum(map(len, oracle.vor.values()))
        entries += sum(map(len, oracle.piece_tables.values()))

    batch = _sample_queries(cfg, g.n)
    times = []
    unions = []
    verified = True
    for u, v, x in batch:
        t0 = time.perf_counter()
        res = oracle.query_result(u, v, x)
        times.append(time.perf_counter() - t0)
        unions.append(res.union_vertices)
        if res.label(v) != distance_avoiding(g, u, v, x):
            verified = False

    times_us = sorted(t * 1e6 for t in times)
    p95 = times_us[max(0, ceil(0.95 * len(times_us)) - 1)] if times_us else 0.0
    return {
        "mode": cfg["mode"],
        "n": g.n,
        "r": oracle.r if cfg["mode"] == "tradeoff" else 0,
        "k": cfg["k"],
        "build_ms": round(build_ms, 3),
        "stored_entries": entries,
        "mean_query_us": round(sum(times_us) / len(times_us), 1) if times_us else 0.0,
        "p95_query_us": round(p95, 1),
        "union_vertex_count_mean": round(sum(unions) / len(unions), 2) if unions else 0.0,
        "verified": verified,
    }


def run_bench(configs: list[dict]) -> list[dict]:
    """Run the configurations one after another; one record each, in order."""
    return [_run_one(c) for c in configs]


def render(records: list[dict], fmt: str) -> str:
    """The records as CSV (header line first) or as a JSON document."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=_FIELDS, lineterminator="\n")
        w.writeheader()
        w.writerows(records)
        return buf.getvalue()
    if fmt == "json":
        return json.dumps({"records": records}, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
