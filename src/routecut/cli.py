"""Command-line interface: solve, bench, stats, gen, validate."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .bench import (
    SummaryRow,
    parse_experiment_config,
    read_records_csv,
    run_experiment,
    samples_by_cell,
    summarize,
    write_csv,
)
from .generator import generate_instance_file
from .instance import load_instance
from .search import ALGORITHMS, PARAMETERS, build_config, solve
from .solution import min_vehicles, read_solution, validate, write_solution
from .stats import MIN_SAMPLE, Comparison, significance_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routecut",
        description="Capacitated arc routing solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("instance", type=Path)
    # options left out keep the SearchConfig default
    p.add_argument("--algorithm", choices=ALGORITHMS, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    for key, (name, kind) in PARAMETERS.items():
        flags = ["--" + key.replace("_", "-")]
        if key == "max_iterations":
            flags.append("--max-iters")  # the older spelling
        typed = {"action": "store_true"} if kind is bool else {"type": kind}
        p.add_argument(*flags, default=argparse.SUPPRESS, help=f"SearchConfig.{name}", **typed)
    p.add_argument("--trace", type=Path, help="stream the convergence trace to this CSV")
    p.add_argument("--out", type=Path, help="write the best solution here")

    p = sub.add_parser("bench", help="run a multi-run experiment from a config file")
    p.add_argument("config", type=Path)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--budget", help="fixed:<sec> or per-knodes:<sec> (overrides config)")
    p.add_argument("--time-multiplier", type=float, help="machine-speed scaling factor")
    p.add_argument("--workers", type=int, help="parallel cells (overrides config)")

    p = sub.add_parser("stats", help="summary and W-D-L tables from an experiment directory")
    p.add_argument("dir", type=Path)
    p.add_argument("--reference", required=True)
    p.add_argument("--alpha", type=float, default=0.05)

    p = sub.add_parser("gen", help="generate a random benchmark instance")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--capacity", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("validate", help="check a solution file against an instance")
    p.add_argument("instance", type=Path)
    p.add_argument("solution", type=Path)
    return parser


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    given = vars(args)
    config = build_config(
        {key: given[key] for key in PARAMETERS if key in given},
        **{name: given[name] for name in ("algorithm", "seed") if name in given},
    )
    sink = open(args.trace, "w") if args.trace else None
    try:
        best, trace = solve(instance, config, trace_sink=sink)
    finally:
        if sink:
            sink.close()
    print(f"{instance.name}: cost {best.total_cost:g} with {best.route_count} routes "
          f"({trace.iterations} iterations)")
    if args.out:
        with open(args.out, "w") as fh:
            write_solution(best, instance, fh)
    return 0


def _cmd_bench(args) -> int:
    overrides = {"budget": args.budget or None, "time_multiplier": args.time_multiplier,
                 "workers": args.workers}
    # replace() builds a new spec, so __post_init__ checks the overrides too
    spec = replace(parse_experiment_config(args.config),
                   **{k: v for k, v in overrides.items() if v is not None})
    records = run_experiment(spec, args.out_dir)
    failed = [r for r in records if r.failed]
    print(f"{len(records)} runs ({len(failed)} failed) -> {args.out_dir}")
    print(_summary_table(summarize(records)))
    return 1 if failed else 0


def _fmt_aligned(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)


def _summary_table(rows: list[SummaryRow]) -> str:
    return _fmt_aligned([[f.name for f in fields(SummaryRow)]] + [
        [r.instance, r.variant, str(r.runs), f"{r.mean:.1f}", f"{r.std:.1f}", r.flag]
        for r in rows
    ])


@dataclass(frozen=True)
class WdlRow:
    variant: str
    wins: int
    draws: int
    losses: int


def _cmd_stats(args) -> int:
    records = read_records_csv(args.dir / "records.csv")
    rows = summarize(records)
    # every variant of an instance has the same shared seeds, hence one length
    samples = {k: v for k, v in samples_by_cell(records).items() if len(v) >= MIN_SAMPLE}
    table = significance_table(samples, args.reference, args.alpha)
    wdl = [WdlRow(variant, *counts) for variant, counts in sorted(table.wdl.items())]

    print(_summary_table(rows))
    print()
    dropped = len(records) - sum(map(len, samples.values()))
    print(f"dropped {dropped} of {len(records)} runs (failed or unmatched seed)")
    print(f"reference: {table.reference} (alpha={table.alpha})")
    print(_fmt_aligned([["variant", "W", "D", "L"]] + [
        [r.variant, str(r.wins), str(r.draws), str(r.losses)] for r in wdl
    ]))

    write_csv(args.dir / "summary.csv", SummaryRow, rows)
    write_csv(args.dir / "wdl.csv", WdlRow, wdl)
    write_csv(args.dir / "comparisons.csv", Comparison, table.detail)
    return 0


def _cmd_gen(args) -> int:
    instance = generate_instance_file(
        args.out, args.vertices, args.tasks, args.capacity, args.seed
    )
    print(f"wrote {args.out}: |V|={instance.vertex_count} |T|={instance.task_count} "
          f"Q={instance.capacity} min-vehicles={min_vehicles(instance)}")
    return 0


def _cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    with open(args.solution) as fh:
        solution, stated = read_solution(fh, instance)
    problems = validate(solution, instance)
    if problems:
        for v in problems:
            where = f" (route {v.route})" if v.route is not None else ""
            print(f"violation: {v.kind}: {v.detail}{where}")
        return 1
    drift = abs(solution.total_cost - stated)
    note = "" if drift <= 1e-6 else f" (file states {stated:g})"
    print(f"feasible: cost {solution.total_cost:g}, {solution.route_count} routes{note}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "stats": _cmd_stats,
        "gen": _cmd_gen,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
