"""Layer spans recorded from outside the package.

The tracer rebinds the module-level names and methods that callers look
up (``failure_oracle.compute_leaf_ddg``, ``TradeoffOracle._main`` and so
on) to timing wrappers, and puts the originals back afterwards.  Only
functions and methods are wrapped, never classes: ``multi_dijkstra`` tests
``isinstance(members, DdgUnion)``, so union construction is timed by
building the ``DdgUnion`` in the wrapper and passing it on.

Each span adds its duration to its (phase, name) total and subtracts it
from its parent's self time; spans with no parent are the stages whose sum
gives ``trace.coverage``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import thread_time_ns

from planar_oracle import (
    MATRIX_SENTINEL,
    ddg,
    dynamic_oracle,
    external,
    failure_oracle,
    frdijkstra,
    tradeoff_oracle,
)

# (owner, attribute, span name); owners are modules or classes.
_FUNCTIONS = [
    (failure_oracle, "build_decomposition", "decomposition.build"),
    (tradeoff_oracle, "build_decomposition", "decomposition.build"),
    (dynamic_oracle, "build_decomposition", "decomposition.build"),
    (failure_oracle, "compute_leaf_ddg", "ddg.leaf_rebuild"),
    (tradeoff_oracle, "compute_leaf_ddg", "ddg.leaf_rebuild"),
    (tradeoff_oracle, "compute_piece_distance_table", "ddg.piece_table"),
    (external.ExternalDdgBuilder, "ext", "external.ext"),
    (failure_oracle.FailureOracle, "assemble", "failure_oracle.assemble"),
    (tradeoff_oracle.TradeoffOracle, "_plan", "tradeoff_oracle.plan"),
    (tradeoff_oracle.TradeoffOracle, "_main", "tradeoff_oracle.main"),
    (tradeoff_oracle.TradeoffOracle, "_fallback", "tradeoff_oracle.fallback"),
    (tradeoff_oracle.TradeoffOracle, "_assembly", "tradeoff_oracle.assembly"),
    (dynamic_oracle.DynamicOracle, "_rebuild", "dynamic_oracle.rebuild"),
    (dynamic_oracle.DynamicOracle, "_recompute", "dynamic_oracle.recompute"),
    (dynamic_oracle.DynamicOracle, "_validate_planar", "dynamic_oracle.planarity"),
    (dynamic_oracle.DynamicOracle, "_raw_member", "dynamic_oracle.raw_member"),
]
_SCANS = [failure_oracle, tradeoff_oracle, dynamic_oracle]


class Tracer:
    """Span totals per (phase, name), plus the union Dijkstra results.

    ``ddg.compute_ddg_internal`` stays wrapped from construction to
    ``close()``, so strict builds are counted even in calls made with the
    other wrappers removed (the untraced half of a paired query).
    """

    def __init__(self):
        self.phase = "setup"
        self.target: int | None = None
        self._total: dict = defaultdict(int)
        self._self: dict = defaultdict(int)
        self._calls: dict = defaultdict(int)
        self.top_ns = 0
        self.last_tree = None
        # (result, union, target) per union Dijkstra of the query phase
        self.scans: list = []
        self._stack: list[int] = []
        self._active = False
        self._strict_orig = ddg.compute_ddg_internal
        ddg.compute_ddg_internal = self._wrap(ddg.compute_ddg_internal, "ddg.strict_build")
        self._wrapped = [
            (owner, attr, self._wrap(getattr(owner, attr), name))
            for owner, attr, name in _FUNCTIONS
        ]
        self._wrapped += [
            (mod, "multi_dijkstra", self._wrap_scan(mod.multi_dijkstra)) for mod in _SCANS
        ]
        self._originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._wrapped]

    def close(self) -> None:
        self.uninstall()
        ddg.compute_ddg_internal = self._strict_orig

    # -- rebinding -----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, fn in self._wrapped:
            setattr(owner, attr, fn)
        self._active = True

    def uninstall(self) -> None:
        for owner, attr, fn in self._originals:
            setattr(owner, attr, fn)
        self._active = False

    def call(self, fn, *args):
        """Run ``fn(*args)`` with every wrapper bound.

        Returns (result, ns, ns spent in spans with no parent)."""
        top = self.top_ns
        self.install()
        try:
            t0 = thread_time_ns()
            out = fn(*args)
            return out, thread_time_ns() - t0, self.top_ns - top
        finally:
            self.uninstall()

    # -- spans ---------------------------------------------------------------

    def _close_span(self, name: str, dt: int, child: int) -> None:
        stack = self._stack
        if stack:
            stack[-1] += dt
        elif self._active:
            self.top_ns += dt
        key = (self.phase, name)
        self._total[key] += dt
        self._self[key] += dt - child
        self._calls[key] += 1

    def _wrap(self, fn, name: str):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = thread_time_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close_span(name, thread_time_ns() - t0, stack.pop())
            if name == "decomposition.build":
                self.last_tree = out
            return out

        return traced

    def _wrap_scan(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(members, *args, **kwargs):
            stack.append(0)
            t0 = thread_time_ns()
            try:
                union = members
                if not isinstance(members, frdijkstra.DdgUnion):
                    union = frdijkstra.DdgUnion(members)
            finally:
                self._close_span("frdijkstra.union", thread_time_ns() - t0, stack.pop())
            stack.append(0)
            t0 = thread_time_ns()
            try:
                res = fn(union, *args, **kwargs)
            finally:
                self._close_span("frdijkstra.scan", thread_time_ns() - t0, stack.pop())
            if self.phase == "query":
                self.scans.append((res, union, self.target))
            return res

        return traced

    # -- read-out ------------------------------------------------------------

    def total_ns(self, phase: str, name: str) -> int:
        return self._total[(phase, name)]

    def self_ns(self, phase: str, name: str) -> int:
        """Time in the span less the time in the spans it called."""
        return self._self[(phase, name)]

    def calls(self, phase: str, name: str) -> int:
        return self._calls[(phase, name)]


def scan_counters(scans) -> dict:
    """Work counters summed over recorded union Dijkstra runs."""
    out = dict(settled=0, relaxations=0, union_vertices=0, members=0, useful=0, useful_of=0)
    for res, union, target in scans:
        out["settled"] += res.settled
        out["relaxations"] += res.relaxations
        out["union_vertices"] += res.union_vertices
        out["members"] += len(union.members)
        limit = MATRIX_SENTINEL if target is None else res.raw(target)
        if limit < MATRIX_SENTINEL:
            out["useful"] += sum(1 for d in res.dist if d <= limit)
            out["useful_of"] += res.settled
    return out
