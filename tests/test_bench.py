"""Benchmark harness: configs, query streams, determinism, rendering."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from planar_oracle import ddg, failure_oracle, tradeoff_oracle
from planar_oracle.bench import (
    BenchPointError,
    _sample_queries,
    bench_config,
    build_oracle,
    render,
    run_bench,
)
from planar_oracle.generate import generate_grid
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.tradeoff_oracle import TradeoffOracle

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def small_configs():
    return [
        bench_config("grid", 36, "failure", leaf_size=8, queries=6, max_weight=9),
        bench_config(
            "grid", 36, "tradeoff", r=32, k=1, leaf_size=8, r_base=4,
            queries=6, max_weight=9,
        ),
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        bench_config("torus", 64, "failure")
    with pytest.raises(ValueError):
        bench_config("grid", 64, "exactly")


@pytest.mark.parametrize("kind", ["grid", "tri"])
def test_config_rejects_graphs_below_four_vertices(kind):
    # the grid generator used to run a 2x2 grid for any n below 4
    for n in (-5, 0, 3):
        with pytest.raises(BenchPointError, match=f"n={n}"):
            bench_config(kind, n, "failure")
    assert bench_config(kind, 4, "failure")["n"] == 4


def test_tradeoff_point_without_tuples_is_rejected():
    # a 64-vertex grid under leaf size 32 is one division piece, so k = 1
    # leaves no tuple and every query would take the fallback under a
    # trade-off label; leaf size 8 gives 3 pieces and 3 tuples
    g = generate_grid(8, 8, max_weight=16, seed=0)
    with pytest.raises(BenchPointError, match="r=64 gives 1 pieces, at most k=1"):
        build_oracle(g, "tradeoff", None, 1, 32, 4)
    assert len(build_oracle(g, "tradeoff", None, 1, 8, 4).ext) == 3
    with pytest.raises(BenchPointError, match="at most k=3"):
        build_oracle(g, "tradeoff", None, 3, 8, 4)
    cfg = bench_config("grid", 64, "tradeoff", queries=2)
    with pytest.raises(BenchPointError):
        run_bench([bench_config("grid", 64, "failure", queries=2), cfg])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_failure_and_tradeoff_points_share_one_query_stream(k):
    # failure points used to draw 0-4 failures per query from a stream
    # seeded by mode, whatever k they reported
    points = [
        bench_config("grid", 36, mode, seed=1, k=k, queries=20) for mode in ("failure", "tradeoff")
    ]
    failure, tradeoff = (_sample_queries(cfg, 36) for cfg in points)
    assert failure == tradeoff
    assert all(len(x) == k for _, _, x in failure)


def test_stored_entries_counts_every_tradeoff_table():
    # piece tables, kept from set-up, used to be left out of the count
    cfg = bench_config("grid", 64, "tradeoff", k=1, leaf_size=8, queries=0, max_weight=9)
    (rec,) = run_bench([cfg])
    oracle = build_oracle(generate_grid(8, 8, max_weight=9, seed=0), "tradeoff", None, 1, 8, 4)
    assert oracle.piece_tables
    assert rec["stored_entries"] == (
        oracle.store.stored_entry_count()
        + sum(len(ext.matrix) for ext in oracle.ext.values())
        + sum(map(len, oracle.vor.values()))
        + sum(map(len, oracle.piece_tables.values()))
    )


def test_run_inline_and_verified():
    records = run_bench(small_configs())
    assert len(records) == 2
    for rec in records:
        assert rec["verified"] is True
        assert rec["n"] == 36
        assert rec["stored_entries"] > 0
        assert rec["build_ms"] >= 0
        assert rec["mean_query_us"] > 0
        assert rec["p95_query_us"] >= rec["mean_query_us"] * 0.1
        assert rec["union_vertex_count_mean"] > 0
    modes = [rec["mode"] for rec in records]
    assert modes == ["failure", "tradeoff"]


def test_non_timing_fields_deterministic():
    keep = ("mode", "n", "r", "k", "stored_entries", "union_vertex_count_mean", "verified")
    a = run_bench(small_configs())
    b = run_bench(small_configs())
    for ra, rb in zip(a, b):
        for field in keep:
            assert ra[field] == rb[field]


def test_csv_rendering():
    records = run_bench(small_configs()[:1])
    text = render(records, "csv")
    assert text.splitlines()[0] == (
        "mode,n,r,k,build_ms,stored_entries,mean_query_us,p95_query_us,"
        "union_vertex_count_mean,verified"
    )
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1
    assert rows[0]["mode"] == "failure"
    assert rows[0]["verified"] == "True"


def test_json_rendering():
    records = run_bench(small_configs()[:1])
    doc = json.loads(render(records, "json"))
    assert doc["records"][0]["mode"] == "failure"
    with pytest.raises(ValueError):
        render(records, "yaml")


def test_report_round_trip_types():
    rec = run_bench(small_configs()[:1])[0]
    assert isinstance(rec["build_ms"], float)
    assert isinstance(rec["stored_entries"], int)
    assert isinstance(render([rec], "csv"), str)


def test_tracer_targets_exist(monkeypatch):
    # the benchmark's tracer rebinds package names by string; a rename
    # must fail here rather than silently break traced runs
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    strict = ddg.compute_ddg_internal
    tracer = tracing.Tracer()
    try:
        assert ddg.compute_ddg_internal is not strict
    finally:
        tracer.close()
    assert ddg.compute_ddg_internal is strict


@pytest.mark.parametrize(
    "workload", ["failure-grid", "failure-tri", "tradeoff-grid", "dynamic-grid"]
)
def test_perfbench_smoke(workload):
    # a short traced run of each workload: the benchmark reads oracle
    # attributes by name (``vor``, ``ext``, ``store``, ``regions``), so a
    # rename must fail here rather than as a failed benchmark run
    proc = subprocess.run(
        [
            sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
            "--seed", "1", "--ops", "24", "--trace", "1",
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


def test_leaf_hook_reached(grid8, monkeypatch):
    # the tracer's ddg.leaf_rebuild span wraps failure_oracle.compute_leaf_ddg
    # and its ddg.strict_build span ddg.compute_ddg_internal; set-up builds
    # each leaf's member once and each piece's matrix once, for the failure
    # oracle and the trade-off oracle alike, and queries call neither
    calls = []
    for mod, name in (
        (failure_oracle, "compute_leaf_ddg"),
        (tradeoff_oracle, "compute_leaf_ddg"),
        (ddg, "compute_ddg_internal"),
    ):
        def counting(g, piece, *below, _orig=getattr(mod, name), _at=f"{mod.__name__}.{name}"):
            calls.append((_at, piece.id))
            return _orig(g, piece, *below)

        monkeypatch.setattr(mod, name, counting)
    fo = FailureOracle(grid8, leaf_size=8, r_base=4)
    to = TradeoffOracle(grid8, r=32, k=1, tree=fo.tree)
    pieces = fo.tree.pieces
    leaf_ids = [p.id for p in pieces if p.is_leaf]
    leaf_hook = f"{failure_oracle.__name__}.compute_leaf_ddg"
    assert [c for c in calls if c[0] == leaf_hook] == [(leaf_hook, i) for i in leaf_ids * 2]
    strict_hook = f"{ddg.__name__}.compute_ddg_internal"
    assert sorted(c for c in calls if c[0] == strict_hook) == sorted(
        (strict_hook, p.id) for p in pieces * 2
    )
    assert len(calls) == 2 * (len(leaf_ids) + len(pieces))
    calls.clear()
    u, v, x = 0, 63, (30,)
    assert fo.distance(u, v, x) == to.distance(u, v, x)
    assert to._plan(u, v, x) is not None  # so that query took the main path
    fo.distance(u, v, (2, 9))
    to.distance(u, v, (2,))
    assert calls == []
