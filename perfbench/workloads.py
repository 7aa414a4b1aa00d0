"""Seeded workloads: inputs, set-up, and the closed-loop timed phase.

One client sends the next operation only after the previous one returns.
Every query answer is checked against ``baseline.distance_avoiding`` on
the same inputs, and the baseline call is timed beside the oracle call, in
alternating order, so ``speedup_vs_baseline`` compares the two under the
same machine conditions.

Durations are CPU time of the benchmark's one thread (the oracles are
single-threaded and CPU-bound), scaled to reference speed as described in
``pace.py``.  Run length (``--seconds``) is wall time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import traceback
from time import perf_counter, thread_time_ns

from planar_oracle import (
    UNREACHABLE,
    DynamicOracle,
    FailureOracle,
    TradeoffOracle,
    distance_avoiding,
    generate_grid,
    generate_random_triangulation,
    load_oracle,
    save_oracle,
)

from pace import Pace
from tracing import Tracer, scan_counters

MAX_WEIGHT = 16
LEAF_SIZE = 32
R_BASE = 4
# set-up runs at least SETUP_REPS times and for SETUP_MIN_S CPU seconds
SETUP_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 15
WARMUP_OPS = 20


def _grid(side):
    return lambda seed: generate_grid(side, side, max_weight=MAX_WEIGHT, seed=seed)


def _tri(n):
    return lambda seed: generate_random_triangulation(n, max_weight=MAX_WEIGHT, seed=seed)


def _failure(g):
    return FailureOracle(g, leaf_size=LEAF_SIZE, r_base=R_BASE)


def _tradeoff(g):
    return TradeoffOracle(g, r=128, k=1, leaf_size=LEAF_SIZE, r_base=R_BASE)


def _dynamic(g):
    return DynamicOracle(g, r=64)


# name -> (graph maker, oracle builder, failures per query (min, max))
STATIC = {
    "failure-grid": (_grid(64), _failure, (0, 4)),
    "failure-tri": (_tri(4096), _failure, (0, 16)),
    "tradeoff-grid": (_grid(32), _tradeoff, (1, 1)),
}
DYNAMIC = {"dynamic-grid": (_grid(32), _dynamic)}


class Run:
    """Everything one workload run records."""

    def __init__(self, name: str, seed: int, tracer: Tracer | None):
        self.name = name
        self.seed = seed
        self.tracer = tracer
        self.pace = Pace()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        # (CPU seconds, scale factor) per set-up and per load
        self.setup: list[tuple[float, float]] = []
        self.load: list[tuple[float, float]] = []
        self.save_s = 0.0
        self.oracle_bytes = 0
        self.timed_from = 0  # first reference sample of the timed phase
        # (oracle ns, baseline ns, reference sample index) per query
        self.queries: list[tuple[int, int, int]] = []
        # (kind, ns, reference sample index, rebuilt) per update
        self.updates: list[tuple[str, int, int, bool]] = []
        self.traced_ns = 0
        self.top_ns = 0
        self.trace_ratio: list[float] = []  # traced / untraced, per query
        self.counters = dict(
            settled=0, relaxations=0, union_vertices=0, members=0, useful=0, useful_of=0
        )
        self.facts: dict = {}
        self._inputs = hashlib.sha256()
        self._outputs = hashlib.sha256()

    # -- inputs and fingerprints --------------------------------------------

    def note_input(self, item) -> None:
        self._inputs.update(json.dumps(item).encode())

    def note_output(self, item) -> None:
        self._outputs.update(json.dumps(item).encode())

    def fingerprint(self) -> dict:
        return {
            "inputs": self._inputs.hexdigest(),
            "outputs": self._outputs.hexdigest(),
            "attempted": self.attempted,
        }

    # -- timing --------------------------------------------------------------

    def set_up(self, build, *args):
        """Build repeatedly (once when traced) and keep the last build."""
        tracer = self.tracer
        out = None
        while True:
            out = None  # free the previous build, cycles too, before the next
            gc.collect()
            if tracer:
                tracer.install()
            try:
                out, dt, scale = self.pace.around(build, *args)
            finally:
                if tracer:
                    tracer.uninstall()
            self.setup.append((dt, scale))
            reps = len(self.setup)
            spent = sum(dt for dt, _ in self.setup)
            if tracer or reps >= SETUP_MAX_REPS or reps >= SETUP_REPS and spent >= SETUP_MIN_S:
                return out

    def oracle_call(self, fn, args, order: int, target=None):
        """Time ``fn(*args)``; in a traced run also run it once traced, the
        two in alternating order.  Returns (answer, untraced ns)."""
        tracer = self.tracer
        if tracer is None:
            t0 = thread_time_ns()
            out = fn(*args)
            return out, thread_time_ns() - t0
        tracer.target = target
        if order:
            traced, tns, top = tracer.call(fn, *args)
        t0 = thread_time_ns()
        out = fn(*args)
        ns = thread_time_ns() - t0
        if not order:
            traced, tns, top = tracer.call(fn, *args)
        if traced != out:
            self.wrong += 1
        self.traced_ns += tns
        self.top_ns += top
        if ns:
            self.trace_ratio.append(tns / ns)
        got = scan_counters(tracer.scans)
        tracer.scans.clear()
        for key, val in got.items():
            self.counters[key] += val
        self.note_output([got["settled"], got["relaxations"], got["union_vertices"]])
        return out, ns

    def query(self, fn, args, baseline, order: int, target) -> None:
        """One timed, checked query: the oracle and the baseline in
        alternating order, then a reference sample."""
        if order:
            t0 = thread_time_ns()
            want = baseline()
            bns = thread_time_ns() - t0
        try:
            got, ns = self.oracle_call(fn, args, order, target)
        except Exception:
            self.failure()
            return
        finally:
            self.pace.sample()
        if not order:
            t0 = thread_time_ns()
            want = baseline()
            bns = thread_time_ns() - t0
        self.note_output(_answer(got))
        if got != want:
            self.wrong += 1
            self.failed += 1
            return
        self.queries.append((ns, bns, len(self.pace.samples) - 1))

    def failure(self) -> None:
        if not self.failed:
            traceback.print_exc(file=sys.stderr)
        self.failed += 1

    # -- scaled figures ------------------------------------------------------

    def query_us(self) -> list[float]:
        f = self.pace.factor_at
        return [ns * f(i) / 1e3 for ns, _, i in self.queries]

    def update_us(self) -> list[float]:
        f = self.pace.factor_at
        return [ns * f(i) / 1e3 for _, ns, i, _ in self.updates]

    def timed_factor(self) -> float:
        return self.pace.median_factor(self.timed_from)

    def setup_factor(self) -> float:
        return statistics.median(scale for _, scale in self.setup)


def _answer(d):
    return "inf" if d == UNREACHABLE else d


def _query(rng: random.Random, n: int, fmin: int, fmax: int):
    u = rng.randrange(n)
    v = rng.randrange(n - 1)
    if v >= u:
        v += 1
    k = rng.randint(fmin, fmax)
    x: set[int] = set()
    while len(x) < k:
        c = rng.randrange(n)
        if c != u and c != v:
            x.add(c)
    return u, v, tuple(sorted(x))


def _keep_going(start: float, seconds: float, ops: int | None, done: int) -> bool:
    if ops is not None:
        return done < ops
    return perf_counter() - start < seconds


def _tree_facts(facts: dict, tree) -> None:
    bounds = [len(p.boundary) for p in tree.pieces[1:]]
    facts["pieces"] = len(tree.pieces)
    facts["boundary_mean"] = statistics.fmean(bounds) if bounds else 0.0
    facts["boundary_max"] = max(bounds, default=0)


# ----------------------------------------------------------------------
# static oracles
# ----------------------------------------------------------------------


def run_static(run: Run, seconds: float, ops: int | None, scratch: str) -> None:
    make_graph, build, (fmin, fmax) = STATIC[run.name]
    tracer = run.tracer
    g = make_graph(run.seed)
    run.note_input([g.n, g.arcs, g.rotation])

    oracle = run.set_up(build, g)
    _tree_facts(run.facts, oracle.tree)
    run.facts["stored_entries"] = oracle.store.stored_entry_count()
    if isinstance(oracle, TradeoffOracle):
        run.facts["ext_tables"] = len(oracle.ext)
        run.facts["vor_rows"] = len(oracle.vor)
    if tracer:
        tracer.phase = "warmup"

    # Queries go to the oracle read back from its file, as a user would.
    fd, path = tempfile.mkstemp(suffix=".oracle", dir=scratch)
    os.close(fd)
    try:
        _, dt, scale = run.pace.around(save_oracle, oracle, path)
        run.save_s = dt * scale
        run.oracle_bytes = os.path.getsize(path)
        oracle = None
        for _ in range(1 if tracer else SETUP_REPS):
            oracle = None
            gc.collect()
            oracle, dt, scale = run.pace.around(load_oracle, path)
            run.load.append((dt, scale))
    finally:
        os.unlink(path)
    run.note_output([run.oracle_bytes, run.facts.get("vor_rows", 0)])

    warm = random.Random(f"{run.name}:warmup:{run.seed}")
    for _ in range(WARMUP_OPS):
        u, v, x = _query(warm, g.n, fmin, fmax)
        if oracle.distance(u, v, x) != distance_avoiding(g, u, v, x):
            run.wrong += 1

    if tracer:
        tracer.phase = "query"
    rng = random.Random(f"{run.name}:ops:{run.seed}")
    run.timed_from = len(run.pace.samples)
    start = perf_counter()
    while _keep_going(start, seconds, ops, run.attempted):
        u, v, x = _query(rng, g.n, fmin, fmax)
        run.note_input([u, v, x])
        order = run.attempted % 2
        run.attempted += 1
        run.query(
            oracle.distance, (u, v, x),
            lambda: distance_avoiding(g, u, v, x), order, v,
        )


# ----------------------------------------------------------------------
# dynamic oracle
# ----------------------------------------------------------------------


class Mirror:
    """The benchmark's own copy of the mutated graph, read by the baseline.

    Offers the two methods ``distance_avoiding`` uses, with the same
    per-vertex adjacency tuples an ``EmbeddedPlanarGraph`` keeps.  Arc ids
    are those of the generated graph, which re-insertion keeps here.
    """

    def __init__(self, g):
        self.n = g.n
        self.tails = list(g.tails)
        self.heads = list(g.heads)
        self.weights = list(g.weights)
        self.alive = [True] * g.m
        self._out_ids: list[list[int]] = [[] for _ in range(g.n)]
        for a, t in enumerate(g.tails):
            self._out_ids[t].append(a)
        self._out = [None] * g.n

    def check_vertex(self, v: int) -> int:
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise ValueError(f"vertex id {v!r} out of range [0, {self.n})")
        return v

    def out_arcs(self, v: int):
        got = self._out[v]
        if got is None:
            got = self._out[v] = tuple(
                (self.heads[a], self.weights[a]) for a in self._out_ids[v] if self.alive[a]
            )
        return got

    def set_weight(self, a: int, w: int) -> None:
        self.weights[a] = w
        self._out[self.tails[a]] = None

    def set_alive(self, a: int, alive: bool) -> None:
        self.alive[a] = alive
        self._out[self.tails[a]] = None


def run_dynamic(run: Run, seconds: float, ops: int | None) -> None:
    """60% queries; the rest split evenly between weight changes and arc
    deletions, each deletion followed at once by re-inserting the arc at
    its former rotation positions, which keeps the embedding planar.  The
    oracle rebuilds after every 8 updates, once per block of operations."""
    make_graph, build = DYNAMIC[run.name]
    tracer = run.tracer
    g = make_graph(run.seed)
    run.note_input([g.n, g.arcs, g.rotation])

    oracle = run.set_up(build, g)
    run.facts["stored_entries"] = sum(len(reg.ddg.matrix) for reg in oracle.regions)
    if tracer:
        _tree_facts(run.facts, tracer.last_tree)
        tracer.phase = "warmup"

    mirror = Mirror(g)
    # public id of each generated arc; re-insertion hands out a new one
    current: list[int | None] = list(range(g.m))

    warm = random.Random(f"{run.name}:warmup:{run.seed}")
    for _ in range(WARMUP_OPS):
        u, v, _x = _query(warm, g.n, 0, 0)
        if oracle.distance(u, v) != distance_avoiding(mirror, u, v):
            run.wrong += 1

    rng = random.Random(f"{run.name}:ops:{run.seed}")
    pending: int | None = None  # arc deleted by the previous op
    draws: list[str] = []
    run.timed_from = len(run.pace.samples)
    start = perf_counter()
    while True:
        order = run.attempted % 2
        if pending is not None:
            run.attempted += 1
            a, pending = pending, None
            t, h = mirror.tails[a], mirror.heads[a]
            # back where it was, so the rotation system stays planar
            where = (g.rotation[t].index(a), g.rotation[h].index(a))
            _update(run, oracle, mirror, current, ("insert", a, where))
            continue
        if not draws:
            # Blocks of 20 operations (12 queries, 8 updates) in shuffled
            # order, and the run ends on a block boundary, so every run
            # has the same mix of operations.
            if not _keep_going(start, seconds, ops, run.attempted):
                break
            draws = ["query"] * 12 + ["weight"] * 4 + ["delete"] * 2
            rng.shuffle(draws)
        run.attempted += 1
        draw = draws.pop()
        if draw == "query":
            u, v, _x = _query(rng, g.n, 0, 0)
            run.note_input(["q", u, v])
            if tracer:
                tracer.phase = "query"
            run.query(oracle.distance, (u, v), lambda: distance_avoiding(mirror, u, v), order, v)
            continue
        a = rng.randrange(g.m)
        while current[a] is None:  # lost to a failed re-insertion
            a = (a + 1) % g.m
        if draw == "weight":
            _update(run, oracle, mirror, current, ("weight", a, rng.randint(1, MAX_WEIGHT)))
        elif _update(run, oracle, mirror, current, ("delete", a, None)):
            pending = a
    run.facts["regions"] = len(oracle.regions)
    run.note_output([oracle.rebuild_count])


def _update(run: Run, oracle, mirror: Mirror, current, op) -> bool:
    """Apply one update to the oracle and, if it succeeds, to the mirror."""
    kind, a, arg = op
    run.note_input([kind, a, arg])
    if kind == "weight":
        call = (oracle.set_weight, current[a], arg)
    elif kind == "delete":
        call = (oracle.delete_edge, current[a])
    else:
        call = (oracle.insert_edge, mirror.tails[a], mirror.heads[a], mirror.weights[a], *arg)
    tracer = run.tracer
    before = oracle.rebuild_count
    try:
        if tracer:
            tracer.phase = "update"
            out, ns, _ = tracer.call(*call)
        else:
            t0 = thread_time_ns()
            out = call[0](*call[1:])
            ns = thread_time_ns() - t0
    except Exception:
        run.failure()
        if kind == "insert":
            current[a] = None
        return False
    finally:
        run.pace.sample()
    if kind == "weight":
        mirror.set_weight(a, arg)
    elif kind == "delete":
        mirror.set_alive(a, False)
    else:
        current[a] = out
        mirror.set_alive(a, True)
    rebuilt = oracle.rebuild_count != before
    run.updates.append((kind, ns, len(run.pace.samples) - 1, rebuilt))
    return True


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q)) - 1])


def _div(a, b) -> float:
    return a / b if b else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end(run: Run) -> dict:
    query_us = run.query_us()
    update_us = run.update_us()
    baseline_us = [bns * run.pace.factor_at(i) / 1e3 for _, bns, i in run.queries]
    oracle_us = sum(query_us) + sum(update_us)
    return {
        "setup_s": statistics.median(dt * scale for dt, scale in run.setup),
        "query_us_p50": _pct(query_us, 0.50),
        "query_us_p95": _pct(query_us, 0.95),
        "ops_per_s": _div(len(query_us) + len(update_us), oracle_us / 1e6),
        "speedup_vs_baseline": _div(sum(baseline_us), oracle_us),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def side_metrics(run: Run) -> dict:
    raw_us = [ns / 1e3 for ns, _, _ in run.queries]
    out = {"ops_failed_frac": _div(run.failed, run.attempted)}
    if run.name in STATIC:
        out["oracle_bytes"] = run.oracle_bytes
        out["load_s"] = statistics.median(dt * scale for dt, scale in run.load)
    else:
        update_us = run.update_us()
        out["update_us_p50"] = _pct(update_us, 0.50)
        out["update_us_p95"] = _pct(update_us, 0.95)
    out["raw.setup_s"] = statistics.median(dt for dt, _ in run.setup)
    out["raw.query_us_p50"] = _pct(raw_us, 0.50)
    out["raw.query_us_p95"] = _pct(raw_us, 0.95)
    out["pace.reference_us"] = statistics.median(run.pace.samples[run.timed_from:]) / 1e3
    return out


def per_layer(run: Run) -> tuple[dict, dict]:
    """(per-layer metrics, detail lines) of a traced run."""
    tr = run.tracer
    facts = run.facts
    c = run.counters
    nq = len(run.queries)
    q, su, up = "query", "setup", "update"
    tf = run.timed_factor()
    sf = run.setup_factor()
    setup_ns = run.setup[0][0] * 1e9
    main_n = tr.calls(q, "tradeoff_oracle.main")
    fall_n = tr.calls(q, "tradeoff_oracle.fallback")
    update_ns = sum(u[1] for u in run.updates)
    rebuild_ns = sum(u[1] for u in run.updates if u[3])
    updates_us = run.update_us()
    local_us = [us for us, u in zip(updates_us, run.updates) if not u[3]]
    insert_us = [us for us, u in zip(updates_us, run.updates) if u[0] == "insert" and not u[3]]
    rebuild_us = [us for us, u in zip(updates_us, run.updates) if u[3]]
    # only the trade-off build runs a union Dijkstra during set-up
    vor_ns = tr.total_ns(su, "frdijkstra.union") + tr.total_ns(su, "frdijkstra.scan")
    layer = {
        "frdijkstra.scan_us": _div(tr.total_ns(q, "frdijkstra.scan"), nq) * tf / 1e3,
        "frdijkstra.union_us": _div(tr.total_ns(q, "frdijkstra.union"), nq) * tf / 1e3,
        "frdijkstra.relaxations": _div(c["relaxations"], nq),
        "frdijkstra.settled": _div(c["settled"], nq),
        "frdijkstra.relax_per_settled": _div(c["relaxations"], c["settled"]),
        "frdijkstra.settled_useful_frac": _div(c["useful"], c["useful_of"]),
        "frdijkstra.union_vertices": _div(c["union_vertices"], nq),
        "frdijkstra.members": _div(c["members"], nq),
        # the dynamic oracle builds its strict region matrices in its own loop
        "ddg.strict_build_s": (
            tr.total_ns(su, "ddg.strict_build") + tr.total_ns(su, "dynamic_oracle.recompute")
        ) * sf / 1e9,
        "ddg.stored_entries": facts.get("stored_entries", 0),
        "ddg.leaf_rebuilds_per_query": _div(tr.calls(q, "ddg.leaf_rebuild"), nq),
        "ddg.leaf_rebuild_frac": _div(tr.total_ns(q, "ddg.leaf_rebuild"), run.traced_ns),
        "ddg.lazy_strict_builds": tr.calls(q, "ddg.strict_build"),
        "ddg.piece_table_frac": _div(tr.total_ns(su, "ddg.piece_table"), setup_ns),
        "failure_oracle.assemble_frac": _div(tr.self_ns(q, "failure_oracle.assemble"), run.traced_ns),
        "decomposition.build_s": tr.total_ns(su, "decomposition.build") * sf / 1e9,
        "decomposition.pieces": facts.get("pieces", 0),
        "decomposition.boundary_mean": facts.get("boundary_mean", 0.0),
        "decomposition.boundary_max": facts.get("boundary_max", 0),
        "external.ext_frac": _div(tr.total_ns(su, "external.ext"), setup_ns),
        "external.ext_tables": facts.get("ext_tables", 0),
        "external.query_ext_calls": tr.calls(q, "external.ext"),
        "tradeoff_oracle.vor_build_frac": _div(vor_ns, setup_ns),
        "tradeoff_oracle.vor_rows": facts.get("vor_rows", 0),
        "tradeoff_oracle.main_frac": _div(main_n, main_n + fall_n),
        "tradeoff_oracle.combine_frac": _div(tr.self_ns(q, "tradeoff_oracle.main"), run.traced_ns),
        "oraclefile.bytes": run.oracle_bytes,
        "dynamic_oracle.rebuilds_per_update": _div(len(rebuild_us), len(run.updates)),
        "dynamic_oracle.rebuild_frac": _div(rebuild_ns, update_ns),
        "dynamic_oracle.planarity_frac": _div(tr.total_ns(up, "dynamic_oracle.planarity"), update_ns),
        "dynamic_oracle.regions": facts.get("regions", 0),
        "baseline.query_us_p50": _pct(
            [bns * run.pace.factor_at(i) / 1e3 for _, bns, i in run.queries], 0.50
        ),
        "trace.overhead_frac": (
            statistics.median(run.trace_ratio) - 1.0 if run.trace_ratio else 0.0
        ),
        "trace.coverage": _div(run.top_ns, run.traced_ns),
    }
    detail = {
        "ddg.leaf_rebuild_us": _div(tr.total_ns(q, "ddg.leaf_rebuild"), nq) * tf / 1e3,
        "ddg.piece_table_s": tr.total_ns(su, "ddg.piece_table") * sf / 1e9,
        "failure_oracle.assemble_us": _div(tr.self_ns(q, "failure_oracle.assemble"), nq) * tf / 1e3,
        "external.ext_s": tr.total_ns(su, "external.ext") * sf / 1e9,
        "tradeoff_oracle.vor_build_s": vor_ns * sf / 1e9,
        "tradeoff_oracle.main_us": _div(tr.total_ns(q, "tradeoff_oracle.main"), main_n) * tf / 1e3,
        "tradeoff_oracle.fallback_us": _div(tr.total_ns(q, "tradeoff_oracle.fallback"), fall_n) * tf / 1e3,
        "tradeoff_oracle.combine_us": _div(tr.self_ns(q, "tradeoff_oracle.main"), main_n) * tf / 1e3,
        "oraclefile.save_s": run.save_s,
        "oraclefile.load_s": statistics.median(dt * s for dt, s in run.load) if run.load else 0.0,
        "dynamic_oracle.update_us_p50": _pct(updates_us, 0.50),
        "dynamic_oracle.update_us_p95": _pct(updates_us, 0.95),
        "dynamic_oracle.local_update_us": _mean(local_us),
        "dynamic_oracle.insert_us": _mean(insert_us),
        "dynamic_oracle.planarity_us": _div(
            tr.total_ns(up, "dynamic_oracle.planarity"), tr.calls(up, "dynamic_oracle.planarity")
        ) * tf / 1e3,
        "dynamic_oracle.rebuild_ms": _mean(rebuild_us) / 1e3,
        "dynamic_oracle.rebuild_decomposition_ms": _div(
            tr.total_ns(up, "decomposition.build"), tr.calls(up, "decomposition.build")
        ) * tf / 1e6,
    }
    return layer, detail


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, ops: int | None, scratch: str
) -> Run:
    run = Run(name, seed, Tracer() if trace else None)
    try:
        if name in STATIC:
            run_static(run, seconds, ops, scratch)
        else:
            run_dynamic(run, seconds, ops)
    finally:
        if run.tracer:
            run.tracer.close()
    return run
