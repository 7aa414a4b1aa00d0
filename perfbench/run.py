"""Layered benchmark of the planar-oracle package.

One workload (run from the repository root):

    python3 perfbench/run.py --workload failure-grid --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` re-runs the
workload with layer spans recorded and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name with its unit, and the run's metadata.

Every workload, each in its own fresh interpreter, one after another:

    python3 perfbench/run.py --seed 1

Determinism self-check (same seed twice, then another seed):

    python3 perfbench/run.py --self-check --seed 1

Rewrite BENCHMARK.json from ``spec.py``:

    python3 perfbench/run.py --write-manifest

The package is imported from ``src/`` beside this directory; without it the
benchmark exits with status 2 before measuring anything.  Exit status 1
means some answer disagreed with the brute-force baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# temporary oracle files live inside the checkout
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
SELF_CHECK_OPS = 24
CHILD_TIMEOUT_S = 900


def _import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "planar_oracle", "__init__.py")):
        print("perfbench: no package source at src/planar_oracle", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _meta(args) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            )
            commit = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "why": dict(spec.WORKLOADS)[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.6g} {spec.UNITS.get(name, '')}")


def run_one(args) -> int:
    _import_package()
    import workloads

    os.makedirs(SCRATCH, exist_ok=True)
    run = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.ops, SCRATCH
    )
    print("meta " + json.dumps(_meta(args)))
    if args.ops is not None:
        print("fingerprint " + json.dumps(run.fingerprint()))
    if args.trace:
        metrics, detail = workloads.per_layer(run)
        _print_metrics("per-layer metrics (traced run)", metrics)
        _print_metrics("layer detail, not in the result line", detail)
    else:
        metrics = workloads.end_to_end(run)
        _print_metrics("end-to-end metrics", metrics)
        _print_metrics("also measured, not in the result line", workloads.side_metrics(run))
    expected = [m[0] for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    if list(metrics) != expected:
        print("perfbench: metrics do not match spec.py", file=sys.stderr)
        return 2
    print(f"# {run.attempted} operations, {run.failed} failed, {run.wrong} wrong")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]} for name, value in metrics.items()
        },
    }))
    return 0 if run.wrong == 0 else 1


def _child(workload: str, seed: int, seconds: float, trace: int, ops: int | None = None):
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def run_all(args) -> int:
    status = 0
    for workload, _ in spec.WORKLOADS:
        for trace in (0, 1):
            code, lines = _child(workload, args.seed, args.seconds, trace)
            print(f"## {workload} --trace {trace}: exit {code}")
            print("\n".join(lines[:-1]))
            status = status or code
    return status


def self_check(args) -> int:
    """Same seed twice must give identical inputs, answers and counters;
    another seed must give other inputs."""
    status = 0
    for workload, _ in spec.WORKLOADS:
        prints = []
        for seed in (args.seed, args.seed, args.seed + 1):
            code, lines = _child(workload, seed, args.seconds, 1, SELF_CHECK_OPS)
            found = [json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("fingerprint ")]
            if code != 0 or not found:
                print(f"{workload}: run with seed {seed} failed (exit {code})")
                status = 1
                break
            prints.append(found[0])
        else:
            same = prints[0] == prints[1]
            differs = prints[0]["inputs"] != prints[2]["inputs"]
            ok = same and differs
            print(
                f"{workload}: same seed identical={same}, "
                f"other seed changes inputs={differs} -> {'ok' if ok else 'FAIL'}"
            )
            status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many timed operations")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.self_check:
        _import_package()
        return self_check(args)
    if args.workload is None:
        _import_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
