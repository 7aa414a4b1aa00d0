"""What the benchmark measures: workloads, metrics, units and bounds.

``run.py --write-manifest`` renders this module into ``BENCHMARK.json`` at
the root of the repository, so the two never disagree.

Bounds are the share of the parent commit's median by which an end-to-end
metric may get worse before a change counts as a regression.  Spreads were
measured on a shared 2-core x86-64 machine under CPython 3.11.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 12

# Every workload uses weights 1..16, leaf_size=32 and r_base=4.
WORKLOADS = [
    (
        "failure-grid",
        "FailureOracle on a 64x64 grid, 0-4 failures: the union Dijkstra scan "
        "dominates, so frdijkstra changes show here",
    ),
    (
        "failure-tri",
        "FailureOracle on a 4096-vertex triangulation, 0-16 failures: leaf "
        "rebuilds and assembly dominate, the scan is a minor share",
    ),
    (
        "tradeoff-grid",
        "TradeoffOracle(r=128, k=1) on a 32x32 grid, 1 failure: the only user "
        "of external tables, vor rows, the combine step and a large file",
    ),
    (
        "dynamic-grid",
        "DynamicOracle(r=64) on a 32x32 grid, 60% queries among weight changes "
        "and arc delete/re-insert pairs: updates and rebuilds beside reads",
    ),
]

# (name, unit, better, bound).  Comments give the largest spread (IQR /
# median over ten seeds) seen on any workload in the final set of runs;
# an earlier set saw up to 0.15 for speedup_vs_baseline and 0.11 for
# ops_per_s (both tradeoff-grid), and raw times spread 0.3-0.6 before they
# were scaled to reference speed.  Bounds are at least three times the
# final spreads, capped at 0.25.
END_TO_END = [
    # set-up runs at least 3 times and 2 CPU seconds, median reported;
    # 0.10 (dynamic-grid)
    ("setup_s", "s", "lower", 0.25),
    ("query_us_p50", "us", "lower", 0.25),  # 0.059 (failure-tri)
    ("query_us_p95", "us", "lower", 0.25),  # 0.065 (failure-grid)
    ("ops_per_s", "1/s", "higher", 0.25),  # 0.065 (tradeoff-grid)
    # baseline and oracle timed side by side; the ratio moves with the
    # machine's memory contention: 0.079 (tradeoff-grid)
    ("speedup_vs_baseline", "ratio", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),  # 0.011 (tradeoff-grid)
]

# (name, unit, better), in the traced run's result line.  Every workload
# exercises the layers behind the absolute times here; where a layer serves
# only some workloads its time is given as a share (0 where it is unused),
# and the absolute figure is printed among the DETAIL lines.  Per query
# means per query in the timed window.
PER_LAYER = [
    ("frdijkstra.scan_us", "us", "lower"),
    ("frdijkstra.union_us", "us", "lower"),
    ("frdijkstra.relaxations", "count", "lower"),
    ("frdijkstra.settled", "count", "lower"),
    ("frdijkstra.relax_per_settled", "ratio", "lower"),
    ("frdijkstra.settled_useful_frac", "ratio", "higher"),
    ("frdijkstra.union_vertices", "count", "lower"),
    ("frdijkstra.members", "count", "lower"),
    ("ddg.strict_build_s", "s", "lower"),
    ("ddg.stored_entries", "count", "lower"),
    ("ddg.leaf_rebuilds_per_query", "count", "lower"),
    ("ddg.leaf_rebuild_frac", "ratio", "lower"),
    ("ddg.lazy_strict_builds", "count", "lower"),
    ("ddg.piece_table_frac", "ratio", "lower"),
    ("failure_oracle.assemble_frac", "ratio", "lower"),
    ("decomposition.build_s", "s", "lower"),
    ("decomposition.pieces", "count", "lower"),
    ("decomposition.boundary_mean", "count", "lower"),
    ("decomposition.boundary_max", "count", "lower"),
    ("external.ext_frac", "ratio", "lower"),
    ("external.ext_tables", "count", "lower"),
    ("external.query_ext_calls", "count", "lower"),
    ("tradeoff_oracle.vor_build_frac", "ratio", "lower"),
    ("tradeoff_oracle.vor_rows", "count", "lower"),
    ("tradeoff_oracle.main_frac", "ratio", "higher"),
    ("tradeoff_oracle.combine_frac", "ratio", "lower"),
    ("oraclefile.bytes", "bytes", "lower"),
    ("dynamic_oracle.rebuilds_per_update", "ratio", "lower"),
    ("dynamic_oracle.rebuild_frac", "ratio", "lower"),
    ("dynamic_oracle.planarity_frac", "ratio", "lower"),
    ("dynamic_oracle.regions", "count", "lower"),
    ("baseline.query_us_p50", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

# Printed above the traced run's result line: layer times of layers that
# only some workloads use (0 elsewhere).
DETAIL = [
    ("ddg.leaf_rebuild_us", "us"),
    ("ddg.piece_table_s", "s"),
    ("failure_oracle.assemble_us", "us"),
    ("external.ext_s", "s"),
    ("tradeoff_oracle.vor_build_s", "s"),
    ("tradeoff_oracle.main_us", "us"),
    ("tradeoff_oracle.fallback_us", "us"),
    ("tradeoff_oracle.combine_us", "us"),
    ("oraclefile.save_s", "s"),
    ("oraclefile.load_s", "s"),
    ("dynamic_oracle.update_us_p50", "us"),
    ("dynamic_oracle.update_us_p95", "us"),
    ("dynamic_oracle.local_update_us", "us"),
    ("dynamic_oracle.insert_us", "us"),
    ("dynamic_oracle.planarity_us", "us"),
    ("dynamic_oracle.rebuild_ms", "ms"),
    ("dynamic_oracle.rebuild_decomposition_ms", "ms"),
]

# Printed above the untraced run's result line: end-to-end figures that
# exist on one kind of workload only, so they cannot be end-to-end metrics
# of every workload, and the unscaled times.
SIDE = [
    ("ops_failed_frac", "ratio"),
    ("oracle_bytes", "bytes"),
    ("load_s", "s"),
    ("update_us_p50", "us"),
    ("update_us_p95", "us"),
    ("raw.setup_s", "s"),
    ("raw.query_us_p50", "us"),
    ("raw.query_us_p95", "us"),
    ("pace.reference_us", "us"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + DETAIL + SIDE}


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
