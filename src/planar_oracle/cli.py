"""Command-line front end.

Subcommands: gen (write a graph), build (write an oracle file), query
(answer batch queries), verify (cross-check answers against the
brute-force baseline), bench (sweep configurations into a report), dyn
(replay a mutation script).

Exit codes: 0 ok, 1 verification mismatch, 2 usage error, 3 I/O error,
4 invalid input.
"""

from __future__ import annotations

import argparse
import random
import sys
from math import isqrt

from .baseline import distance_avoiding
from .bench import BenchPointError, bench_config, build_oracle, random_query, render, run_bench
from .dynamic_oracle import DynamicOracle
from .generate import generate_grid, generate_random_triangulation
from .graph import (
    UNREACHABLE,
    EmbeddingError,
    GraphFormatError,
    load_graph,
    open_text,
    parse_int,
    save_graph,
    token_lines,
)
from .oraclefile import OracleFileError, load_oracle, save_oracle
from .tradeoff_oracle import TradeoffOracle

__all__ = ["main"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INVALID = 4


def _int_arg(text: str) -> int:
    try:
        return parse_int(text, signed=True)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [parse_int(tok.strip(), signed=True) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _read_query_lines(path: str | None):
    """Yield (line_no, u, v, failed) from 'u v x1 x2 ...' lines."""
    fh = sys.stdin if path is None or path == "-" else open_text(path)
    try:
        for line_no, tokens in token_lines(fh):
            try:
                nums = [parse_int(tok) for tok in tokens]
            except ValueError:
                raise ValueError(f"query line {line_no}: non-integer token")
            if len(nums) < 2:
                raise ValueError(f"query line {line_no}: need at least u and v")
            yield line_no, nums[0], nums[1], tuple(nums[2:])
    finally:
        if fh is not sys.stdin:
            fh.close()


def _fmt_distance(d) -> str:
    return "UNREACHABLE" if d == UNREACHABLE else str(int(d))


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.kind == "grid":
        rows = args.rows
        cols = args.cols
        if rows is None or cols is None:
            if args.n is None:
                raise ValueError("gen grid needs --rows/--cols or --n")
            if args.n < 4:
                raise ValueError(f"gen grid needs --n of at least 4, got n={args.n}")
            side = isqrt(args.n)
            rows = rows if rows is not None else side
            cols = cols if cols is not None else side
        g = generate_grid(rows, cols, max_weight=args.max_weight, seed=args.seed)
    else:
        if args.n is None:
            raise ValueError("gen tri needs --n")
        g = generate_random_triangulation(args.n, max_weight=args.max_weight, seed=args.seed)
    save_graph(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return EXIT_OK


def _cmd_build(args) -> int:
    g = load_graph(args.graph)
    oracle = build_oracle(g, args.mode, args.r, args.k, args.leaf_size, args.r_base)
    save_oracle(oracle, args.out)
    print(f"wrote {args.out}: mode={args.mode} n={g.n}")
    return EXIT_OK


def _cmd_query(args) -> int:
    oracle = load_oracle(args.oracle)
    out = []
    for _, u, v, x in _read_query_lines(args.queries):
        out.append(_fmt_distance(oracle.distance(u, v, x)) + "\n")
    _write_text(args.out, "".join(out))
    return EXIT_OK


def _random_queries(n: int, count: int, seed: int, k_max: int):
    rng = random.Random(f"verify:{seed}:{n}:{k_max}")
    for qi in range(count):
        yield (qi + 1, *random_query(rng, n, qi % (k_max + 1)))


def _cmd_verify(args) -> int:
    oracle = load_oracle(args.oracle)
    g = oracle.graph
    if args.queries is not None:
        batch = _read_query_lines(args.queries)
    else:
        if args.random < 0:
            raise ValueError(f"verify --random needs a count of at least 0, got {args.random}")
        if g.n < 2:
            raise ValueError(f"verify --random needs at least 2 vertices, the graph has {g.n}")
        k_max = oracle.k if isinstance(oracle, TradeoffOracle) else 4
        batch = _random_queries(g.n, args.random, args.seed, k_max)
    checked = 0
    bad = 0
    for tag, u, v, x in batch:
        got = oracle.distance(u, v, x)
        want = distance_avoiding(g, u, v, x)
        checked += 1
        if got != want:
            bad += 1
            print(
                f"MISMATCH #{tag}: u={u} v={v} x={list(x)} "
                f"got={_fmt_distance(got)} want={_fmt_distance(want)}",
                file=sys.stderr,
            )
    print(f"verified {checked} queries, {bad} mismatches")
    return EXIT_MISMATCH if bad else EXIT_OK


def _cmd_bench(args) -> int:
    try:
        # k is each query's failure count; the failure oracle reads neither
        # r nor k, and its rows report r = 0
        configs = [
            bench_config(
                args.kind, n, mode, seed=args.seed, r=r, k=k, leaf_size=args.leaf_size,
                queries=args.queries, max_weight=args.max_weight,
            )
            for mode in map(str.strip, args.mode.split(","))
            for n in args.n
            for r in (args.r if mode == "tradeoff" else [None])
            for k in args.k
        ]
        records = run_bench(configs)
    except BenchPointError as exc:
        # a point that would measure nothing is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_text(args.out, render(records, args.format))
    if not all(rec["verified"] for rec in records):
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_dyn(args) -> int:
    g = load_graph(args.graph)
    oracle = DynamicOracle(g, r=args.r)
    rows = ["op_index,u,v,distance\n"]
    with open_text(args.script) as fh:
        for line_no, (op, *rest) in token_lines(fh):
            try:
                if op == "w" and len(rest) == 2:
                    oracle.set_weight(parse_int(rest[0]), parse_int(rest[1], signed=True))
                elif op == "ie" and len(rest) in (3, 5):
                    t, h, w, *where = rest
                    w = parse_int(w, signed=True)
                    oracle.insert_edge(parse_int(t), parse_int(h), w, *map(parse_int, where))
                elif op == "de" and len(rest) == 1:
                    oracle.delete_edge(parse_int(rest[0]))
                elif op == "iv" and not rest:
                    oracle.insert_vertex()
                elif op == "dv" and len(rest) == 1:
                    oracle.delete_vertex(parse_int(rest[0]))
                elif op == "q" and len(rest) == 2:
                    u, v = parse_int(rest[0]), parse_int(rest[1])
                    rows.append(f"{line_no},{u},{v},{_fmt_distance(oracle.distance(u, v))}\n")
                else:
                    raise ValueError(f"unknown op {' '.join([op, *rest])!r}")
            except (ValueError, EmbeddingError) as exc:
                raise ValueError(f"script line {line_no}: {exc}") from None
    _write_text(args.out, "".join(rows))
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="planar-oracle",
        description="Exact distance oracles for directed planar graphs with vertex failures.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--kind", choices=("grid", "tri"), default="grid")
    p.add_argument("--rows", type=_int_arg)
    p.add_argument("--cols", type=_int_arg)
    p.add_argument("--n", type=_int_arg, help="vertex count (square side for grids)")
    p.add_argument("--max-weight", type=_int_arg, help="random weights in 1..max (default: all 1)")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", help="build an oracle file from a graph")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("failure", "tradeoff"), default="failure")
    p.add_argument(
        "--r", type=_int_arg, help="r-division granularity (tradeoff; default: smallest marked r)"
    )
    p.add_argument("--k", type=_int_arg, default=1, help="failure budget (tradeoff)")
    p.add_argument("--leaf-size", type=_int_arg, default=32)
    p.add_argument("--r-base", type=_int_arg, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="answer 'u v x1 x2 ...' lines")
    p.add_argument("oracle")
    p.add_argument("--queries", help="query file (default: standard input)")
    p.add_argument("--out", help="output file (default: standard output)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("verify", help="cross-check oracle answers against brute force")
    p.add_argument("oracle")
    p.add_argument("--queries", help="query file (default: random batch)")
    p.add_argument("--random", type=_int_arg, default=200, help="random query count")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="sweep configurations and emit a report")
    p.add_argument("--kind", choices=("grid", "tri"), default="grid")
    p.add_argument("--n", type=_int_list, default=[256], help="comma-separated sizes")
    p.add_argument("--r", type=_int_list, default=[None], help="comma-separated r values")
    p.add_argument("--k", type=_int_list, default=[1], help="comma-separated budgets")
    p.add_argument("--mode", default="failure", help="comma-separated oracle modes")
    p.add_argument("--leaf-size", type=_int_arg, default=32)
    p.add_argument("--max-weight", type=_int_arg, default=16, help="random weights in 1..max")
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--queries", type=_int_arg, default=50, help="queries per configuration")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="report file (default: standard output)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("dyn", help="replay a mutation script, answers as CSV")
    p.add_argument("graph")
    p.add_argument("script")
    p.add_argument("--r", type=_int_arg, default=32, help="region size")
    p.add_argument("--out", help="output file (default: standard output)")
    p.set_defaults(func=_cmd_dyn)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, OracleFileError, EmbeddingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
