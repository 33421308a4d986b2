"""Seeded multi-run benchmark experiments.

An experiment is a grid of (instance, variant, run) cells.  Each cell
solves one instance with one algorithm variant under a time budget, using
seed ``base_seed + run``, and persists the solution and its convergence
trace, or the full traceback of a failure in a ``.err`` file.  Cells are
independent and may execute in a bounded process pool; failures are
recorded per cell and never abort the experiment.
"""

from __future__ import annotations

import csv
import math
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, get_type_hints

from .instance import Instance, left_sum, load_instance
from .ranking import RankMatrix, build_rank_matrix
from .search import (
    ALGORITHMS, PARAMETERS, RANGES, SearchConfig, build_config, check_ranges, parse_value,
    setting, settings, share_cpus, solve,
)
from .solution import read_solution, validate, write_solution


@dataclass
class ExperimentSpec:
    instances: list[Path]
    variants: list[tuple[str, SearchConfig]]
    runs: int = setting(25, "at least 1")
    base_seed: int = setting(0)
    budget: str | None = setting(None)  # "fixed:<sec>" or "per-knodes:<sec>"
    time_multiplier: float = setting(1.0, "finite and positive")
    workers: int = setting(1, "at least 1")

    def __post_init__(self):
        check_ranges(ExperimentSpec, vars(self))
        if self.budget is not None:
            _parse_budget(self.budget)
        stems = [Path(path).stem for path in self.instances]  # they name each cell's files
        for i, stem in enumerate(stems):
            if stem in stems[:i]:
                first, path = self.instances[stems.index(stem)], self.instances[i]
                raise ValueError(f"instances {first} and {path} share the stem {stem!r}")
        names = [name for name, _ in self.variants]  # they name each cell's files too
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"variant {name!r} is listed twice")


def _parse_budget(budget: str) -> tuple[str, float]:
    """(mode, seconds) of a ``fixed:<sec>`` or ``per-knodes:<sec>`` budget."""
    mode, _, value = budget.partition(":")
    if mode not in ("fixed", "per-knodes"):
        raise ValueError(f"budget {budget!r}: the mode must be fixed or per-knodes")
    try:
        seconds = float(value)
    except ValueError:
        raise ValueError(f"budget {budget!r} lacks a seconds value") from None
    if not RANGES["finite and positive"](seconds):
        raise ValueError(f"budget {budget!r}: the seconds must be finite and positive")
    return mode, seconds


@dataclass
class RunRecord:
    instance: str
    variant: str
    seed: int
    final_cost: float
    elapsed_sec: float
    route_count: int
    trace_path: str  # "" when the cell wrote no such file, as solution_path
    solution_path: str
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


def resolve_budget(spec: ExperimentSpec, config: SearchConfig, instance: Instance) -> float:
    """Per-run time limit in seconds after budget mode and machine scaling."""
    if spec.budget is None:
        base = config.time_limit
    else:
        mode, seconds = _parse_budget(spec.budget)
        base = seconds if mode == "fixed" else seconds * instance.vertex_count / 1000.0
    return base * spec.time_multiplier


# the last instance loaded, by path, with its rank matrix: cells come
# grouped by instance, so one entry serves a run of cells and a worker keeps
# one instance's distance table and ranks alive, not every one it has seen
_last_instance: dict[str, tuple[Instance, RankMatrix]] = {}


def _cached_instance(path: str) -> tuple[Instance, RankMatrix]:
    if path not in _last_instance:
        _last_instance.clear()
        instance = load_instance(path)
        _last_instance[path] = (instance, build_rank_matrix(instance, instance.distances()))
    return _last_instance[path]


def _run_cell(args: tuple) -> RunRecord:
    spec, instance_path, variant, config, seed, out_dir = args
    out_dir = Path(out_dir)
    stem = Path(instance_path).stem
    sol_path = out_dir / f"{stem}__{variant}__s{seed}.sol"
    trace_path = out_dir / f"{stem}__{variant}__s{seed}.trace.csv"
    err_path = out_dir / f"{stem}__{variant}__s{seed}.err"
    for path in (sol_path, trace_path, err_path):  # an earlier run's files
        path.unlink(missing_ok=True)
    try:
        instance, ranks = _cached_instance(instance_path)
        config = replace(config, seed=seed, time_limit=resolve_budget(spec, config, instance))
        with open(trace_path, "w") as fh:  # streamed, so a failed cell keeps its part
            best, trace = solve(instance, config, ranks=ranks, trace_sink=fh)

        problems = validate(best, instance)
        if problems:
            raise RuntimeError(f"infeasible result: {problems[0].detail}")
        with open(sol_path, "w") as fh:
            write_solution(best, instance, fh)
        with open(sol_path) as fh:
            reread, _ = read_solution(fh, instance, instance.distances())
        if abs(reread.total_cost - best.total_cost) > 1e-6:
            raise RuntimeError(
                f"stored solution re-costs to {reread.total_cost}, expected {best.total_cost}"
            )
        elapsed = trace.samples[-1][0] / 1000.0 if trace.samples else 0.0
        return RunRecord(
            stem, variant, seed, best.total_cost, elapsed,
            best.route_count, str(trace_path), str(sol_path),
        )
    except Exception:
        full = traceback.format_exc()
        err_path.write_text(full)
        written = [str(p) if p.exists() else "" for p in (trace_path, sol_path)]
        return RunRecord(
            stem, variant, seed, math.nan, 0.0, 0, *written,
            error=full.strip().splitlines()[-1],
        )


def run_experiment(spec: ExperimentSpec, out_dir: str | Path) -> list[RunRecord]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # each cell loads its own instance, so a broken file fails each of its
    # cells; the file of an earlier experiment's entry may have been rewritten
    _last_instance.clear()
    cells = [
        (spec, str(instance_path), variant, config, spec.base_seed + run, str(out_dir))
        for instance_path in spec.instances
        for variant, config in spec.variants
        for run in range(spec.runs)
    ]
    if spec.workers > 1:
        # each worker forks clustering-loop jobs onto its share of the CPUs only
        with ProcessPoolExecutor(spec.workers, initializer=share_cpus,
                                 initargs=(spec.workers,)) as ex:
            records = list(ex.map(_run_cell, cells))
    else:
        records = [_run_cell(c) for c in cells]

    write_csv(out_dir / "records.csv", RunRecord, records)
    write_csv(out_dir / "summary.csv", SummaryRow, summarize(records))
    return records


def write_csv(path: str | Path, row_type: type, rows: Iterable) -> None:
    """Write the dataclass ``rows`` of ``row_type`` as CSV: a header of its
    field names, then one line per row with the fields in declaration order.
    Fields are quoted where needed, and a float is written as its ``repr``
    (``nan`` and ``inf`` included), so it reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(row_type))
        writer.writerows(astuple(row) for row in rows)


def read_records_csv(path: str | Path) -> list[RunRecord]:
    """The RunRecords of a ``records.csv``, each column converted by the
    declared type of its RunRecord field (``search.parse_value``).  A column
    with a field default may be absent and then keeps that default; a column
    RunRecord lacks is ignored.  Raise ValueError naming the RunRecord
    columns the file lacks, or as ``<path>:<line>: ...`` for a row with fewer
    or more fields than the header or a value that does not convert."""
    kinds = get_type_hints(RunRecord)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [f.name for f in fields(RunRecord)
                   if f.default is MISSING and f.name not in header]
        if missing:
            raise ValueError(f"{path} lacks the column(s) {', '.join(missing)}")
        records = []
        for row in reader:
            try:
                if None in row.values():  # DictReader's filler for a short row
                    raise ValueError(f"the row has fewer fields than the header's {len(header)}")
                if None in row:  # DictReader's key for the fields past the header's
                    raise ValueError(f"the row has more fields than the header's {len(header)}")
                records.append(RunRecord(**{name: parse_value(name, kind, row[name])
                                            for name, kind in kinds.items() if name in row}))
            except ValueError as error:
                raise ValueError(f"{path}:{reader.line_num}: {error}") from None
        return records


@dataclass(frozen=True)
class SummaryRow:
    instance: str
    variant: str
    runs: int
    mean: float
    std: float
    flag: str = ""


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """Mean and sample standard deviation of final cost per cell."""
    cells: dict[tuple[str, str], list[float]] = {}
    failures: dict[tuple[str, str], int] = {}
    for r in records:
        key = (r.instance, r.variant)
        if r.failed:
            failures[key] = failures.get(key, 0) + 1
            cells.setdefault(key, [])
        else:
            cells.setdefault(key, []).append(r.final_cost)

    rows = []
    for (instance, variant) in sorted(cells):
        costs = cells[(instance, variant)]
        flags = []
        if failures.get((instance, variant)):
            flags.append(f"{failures[(instance, variant)]}-failed")
        if not costs:
            rows.append(SummaryRow(instance, variant, 0, math.nan, math.nan, ";".join(flags)))
            continue
        mean = left_sum(costs) / len(costs)
        if len(costs) == 1:
            flags.append("single-run")
            std = 0.0
        else:
            std = math.sqrt(left_sum((c - mean) ** 2 for c in costs) / (len(costs) - 1))
        rows.append(SummaryRow(instance, variant, len(costs), mean, std, ";".join(flags)))
    return rows


def samples_by_cell(records: list[RunRecord]) -> dict[tuple[str, str], list[float]]:
    """Final costs per (instance, variant) in seed order, over the seeds that
    every variant of the instance completed; an instance with no such seed
    is left out."""
    done: dict[tuple[str, str], dict[int, float]] = {}
    for r in records:
        cell = done.setdefault((r.instance, r.variant), {})
        if not r.failed:
            cell[r.seed] = r.final_cost
    out: dict[tuple[str, str], list[float]] = {}
    for (instance, variant), cell in done.items():
        shared = set.intersection(*(set(c) for (i, _), c in done.items() if i == instance))
        if shared:
            out[(instance, variant)] = [cell[seed] for seed in sorted(shared)]
    return out


# --- experiment config files -------------------------------------------------
#
# Plain `key = value` lines; `#` starts a comment.  A key is `instances`,
# `variants`, an ExperimentSpec `setting` or a search.PARAMETERS key; list
# values are comma-separated.

def parse_experiment_config(path: str | Path) -> ExperimentSpec:
    spec_keys = settings(ExperimentSpec)
    typed = {"instances": str, "variants": str,
             **{key: kind for key, (_, kind) in {**spec_keys, **PARAMETERS}.items()}}
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    base = Path(path).parent
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in typed:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        if key in lines:
            raise ValueError(f"{path}:{line_no}: key {key!r} repeats line {lines[key]}")
        lines[key] = line_no
        try:
            values[key] = parse_value(key, typed[key], value.strip())
        except ValueError as error:
            raise ValueError(f"{path}:{line_no}: {error}") from None

    def _list(key: str) -> list[str]:
        return [item.strip() for item in values.get(key, "").split(",") if item.strip()]

    instances = [Path(p) if Path(p).is_absolute() else base / p for p in _list("instances")]
    if not instances:
        raise ValueError("config declares no instances")
    variant_names = _list("variants")
    if not variant_names:
        raise ValueError("config declares no variants")
    for name in variant_names:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown variant {name!r}; choose from {ALGORITHMS}")

    params = {key: value for key, value in values.items() if key in PARAMETERS}
    variants = [(name, build_config(params, algorithm=name)) for name in variant_names]
    given = {name: values[key] for key, (name, _) in spec_keys.items() if key in values}
    return ExperimentSpec(instances, variants, **given)
