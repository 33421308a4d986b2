"""Fixed-work solve benchmark for routecut.

    python3 perfbench/run.py --workload hier-mid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload generates one instance
from the workload seed, saves it as a DAT file, sets up from that file
several times (load, shortest paths, distance rows, rank matrix) and then
repeats one fixed-work solve (``max_iterations`` or ``max_cycles`` with
the virtual clock) until ``--seconds`` are used.  Every solve is checked:
feasible, the written solution reads back at the same cost, its sha256
equals that of the first solve, and the requested work was done.

With ``--trace 1`` the run also records spans around every call into the
library's layers (see tracer.py) and reports per-layer figures instead
of the end-to-end ones.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with the run context and the spans, goes to ``perfbench/out/``.
``--workload all`` runs every workload of BENCHMARK.json, each in its own
process, and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

if not (ROOT / "src" / "routecut" / "__init__.py").is_file():
    sys.exit(f"perfbench: no routecut sources under {ROOT / 'src'}; "
             "run from the root of a routecut checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from routecut import (  # noqa: E402
    SearchConfig,
    build_rank_matrix,
    generate_instance,
    load_instance,
    read_solution,
    save_instance,
    solve,
    validate,
    write_solution,
)

import tracer as tr  # noqa: E402

CAPACITY = 60
# far above what a fixed-work run ticks: the virtual clock counts 1 ms per
# deadline poll, so the default 30 s limit would cut a large run short
TIME_LIMIT = 1e6


@dataclass(frozen=True)
class Workload:
    algorithm: str
    vertices: int
    tasks: int
    work: int  # max_iterations for sahid-*, max_cycles for cluster-*
    instances: int  # generated instances per run, measured one after another
    setups: int  # set-up repetitions per instance; setup_s is the median of all

    def config(self, seed: int) -> SearchConfig:
        cap = "max_iterations" if self.algorithm.startswith("sahid") else "max_cycles"
        return SearchConfig(algorithm=self.algorithm, seed=seed, virtual_clock=True,
                            time_limit=TIME_LIMIT, **{cap: self.work})


WORKLOADS = {
    # local search on the whole problem plus hdu; set-up is a few percent
    "hier-mid": Workload("sahid-rco", 500, 800, 5, 6, 2),
    # path scanning, fuzzy k-medoid, budget-capped local search in two threads
    "cluster-mid": Workload("cluster-rco", 500, 800, 1, 4, 2),
    # APSP, rank_rows, RankMatrix.nearest and hdu on 2500 tasks; O(V^2+T^2) memory
    "hier-large": Workload("sahid-rco", 1500, 2500, 1, 3, 1),
    # tiny instances for selfcheck.py only
    "tiny-hier": Workload("sahid-rco", 30, 20, 3, 2, 2),
    "tiny-cluster": Workload("cluster-rco", 30, 20, 2, 2, 2),
}

# metric -> unit, in output order; README.md says what each one reflects
END_TO_END = {"setup_s": "s", "solve_s": "s", "final_cost": "cost", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{name}_s": "s" for name in tr.SETUP_LAYERS + tr.SOLVE_LAYERS},
    "localsearch.busy_s": "s",
    "localsearch.calls": "count",
    "localsearch.improved": "count",
    "localsearch.improve_ratio": "ratio",
    "decompose.hdu.calls": "count",
    "decompose.hdu.units": "count",
    "decompose.fuzzy_kmedoid.calls": "count",
    "decompose.fuzzy_kmedoid.subroutes": "count",
    "construct.path_scanning.calls": "count",
    "rco.cuts": "count",
    "search.self_s": "s",
    "search.traced_solve_s": "s",
    "search.trace_overhead_s": "s",
    "search.iterations": "count",
    "search.improvements": "count",
}


def derive_seeds(seed: int, n: int) -> list[tuple[int, int]]:
    """(instance seed, solver seed) of each of the n instances of a workload seed."""
    rng = random.Random(seed)
    return [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(n)]


# The host's CPU speed drifts by up to a quarter over minutes, which would
# swamp changes of a few percent between runs made minutes apart.  Each
# timed set-up and solve is therefore bracketed by a fixed pure-Python loop
# and also reported scaled to the speed at which that loop takes REF_LOOP_S.
REF_LOOP_S = 0.005
_LOOP_ROWS = [[float((i * 31 + j * 17) % 101) for j in range(64)] for i in range(64)]


def loop_times() -> list[float]:
    """Wall times of five runs of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(40000):
            row = _LOOP_ROWS[i & 63]
            a, b = row[(i * 7) & 63], row[(i * 13) & 63]
            if a < b:
                total += b - a
        times.append(time.perf_counter() - t0)
    return times


def timed(call):
    """(scaled seconds, wall seconds, result) of ``call()``."""
    before = loop_times()
    t0 = time.perf_counter()
    result = call()
    wall = time.perf_counter() - t0
    return wall * REF_LOOP_S / statistics.median(before + loop_times()), wall, result


def setup(dat: Path, tracer: tr.Tracer | None = None):
    """Everything that happens before the search starts."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    with span("instance.load"):
        instance = load_instance(dat)
    dist = instance.distances()
    with span("distances.rows"):
        dist.rows
    with span("ranking.build_rank_matrix"):
        ranks = build_rank_matrix(instance, dist)
    return instance, dist, ranks


def check(best, trace, instance, dist, requested: int) -> tuple[list[str], str]:
    """Problems found in one solve's output, and the sha256 of its text."""
    problems = [f"infeasible: {v.kind} {v.detail}" for v in validate(best, instance)]
    buf = io.StringIO()
    write_solution(best, instance, buf)
    text = buf.getvalue()
    back, stated = read_solution(io.StringIO(text), instance, dist)
    if not back.total_cost == stated == best.total_cost:
        problems.append(f"round trip: cost {best.total_cost}, stated {stated}, "
                        f"re-costed {back.total_cost}")
    if trace.iterations != requested:
        problems.append(f"did {trace.iterations} of {requested} iterations")
    return problems, hashlib.sha256(text.encode()).hexdigest()


class Solves:
    """Repeated, checked solves of one workload."""

    def __init__(self, workload: Workload, config: SearchConfig):
        self.workload = workload
        self.config = config
        self.times: list[float] = []  # scaled seconds of the solves that returned
        self.wall_times: list[float] = []
        self.attempted = 0
        self.failed_solves: set[int] = set()
        self.failures: list[str] = []
        self.digest: str | None = None
        self.cost: float | None = None

    @property
    def failed(self) -> int:
        return len(self.failed_solves)

    def fail(self, problems: list[str]) -> None:
        """Count the current solve as failed if there are any problems."""
        if problems:
            self.failed_solves.add(self.attempted)
            self.failures.extend(f"solve {self.attempted}: {p}" for p in problems)

    def once(self, data, tracer: tr.Tracer | None = None):
        """One checked solve; returns its trace, or None if it raised."""
        instance, dist, ranks = data
        root = tracer.span("search.solve", root=True) if tracer else nullcontext()

        def run():
            with root:
                return solve(instance, self.config, dist=dist, ranks=ranks)

        gc.collect()
        self.attempted += 1
        try:
            scaled, wall, (best, trace) = timed(run)
        except Exception:
            self.fail([traceback.format_exc()])
            return None
        self.times.append(scaled)
        self.wall_times.append(wall)
        try:
            problems, digest = check(best, trace, instance, dist, self.workload.work)
        except Exception:  # an unreadable written solution fails the solve, not the run
            self.fail([traceback.format_exc()])
            return None
        if self.digest is None:
            self.digest, self.cost = digest, best.total_cost
        elif digest != self.digest:
            problems.append(f"sha256 {digest} differs from the first solve's {self.digest}")
        self.fail(problems)
        return trace

    def repeat(self, data, until: float, minimum: int, tracer=None, each=None) -> None:
        """Solve at least ``minimum`` times, then while another solve ends before ``until``."""
        start = time.perf_counter()
        n = 0
        while n < minimum or time.perf_counter() + (time.perf_counter() - start) / n <= until:
            if tracer is not None:
                tracer.run += 1
            trace = self.once(data, tracer)
            n += 1
            if trace is not None and each is not None:
                each(trace)


def run_context(name: str, seed: int) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "workload": name, **asdict(WORKLOADS[name]), "capacity": CAPACITY,
        "time_limit": TIME_LIMIT, "workload_seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_revision": rev,
    }


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload: its instances one after another, in this process."""
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    tracer = tr.Tracer() if traced else None
    t0 = time.perf_counter()
    parts = []
    for i, seeds in enumerate(derive_seeds(seed, workload.instances)):
        # an even share of what is left of the run, so time one instance
        # did not use goes to the next
        share = (t0 + seconds - time.perf_counter()) / (workload.instances - i)
        parts.append(measure_instance(workload, OUT / f"{name}-seed{seed}-{i}.dat", seeds,
                                      time.perf_counter() + share, tracer))
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    if tracer is None:
        units = END_TO_END
        metrics = {
            "setup_s": statistics.median(t for p in parts for t in p["setup_times"]),
            "solve_s": statistics.fmean(statistics.median(p["solve_times"]) for p in parts)
            if all(p["solve_times"] for p in parts) else None,
            "final_cost": statistics.fmean(p["cost"] for p in parts)
            if all(p["cost"] is not None for p in parts) else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        units = PER_LAYER
        tracer.write_jsonl(f"{stem}-spans.jsonl", t0)
        metrics = _layers(parts) if all(p["layers"] is not None for p in parts) else {}

    record = {"context": run_context(name, seed), "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "metrics": metrics, "instances": parts}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in parts:
        for f in p["failures"]:
            print(f"instance seed {p['instance_seed']}: {f}", file=sys.stderr)
    missing = [k for k in units if metrics.get(k) is None]
    if missing:
        sys.exit(f"perfbench: no figure for {', '.join(missing)}; see {stem}.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def measure_instance(workload: Workload, dat: Path, seeds: tuple[int, int],
                     until: float, tracer: tr.Tracer | None) -> dict:
    """Set up and solve one generated instance until about ``until``.

    Untraced, the set-up runs ``workload.setups`` times and the solve at
    least twice.  Traced, one untraced solve gives the baseline for the
    tracing overhead before the library is patched; then the set-ups and at
    least two solves run traced, and their counts must repeat exactly.
    """
    instance_seed, solver_seed = seeds
    save_instance(generate_instance(workload.vertices, workload.tasks, CAPACITY,
                                    instance_seed), dat)
    solves = Solves(workload, workload.config(solver_seed))
    setup_times, setup_wall_times = [], []
    data = None
    for _ in range(1 if tracer else workload.setups):
        data = None  # release the previous set-up first, for a steady peak RSS
        gc.collect()
        scaled, wall, data = timed(lambda: setup(dat))
        setup_times.append(scaled)
        setup_wall_times.append(wall)
    part = {"instance_seed": instance_seed, "solver_seed": solver_seed,
            "setup_times": setup_times, "setup_wall_times": setup_wall_times}

    if tracer is None:
        solves.repeat(data, until, minimum=2)
    else:
        solves.repeat(data, (2 * time.perf_counter() + until) / 3, minimum=1)
        untraced = list(solves.wall_times)
        counts = [k for k, unit in PER_LAYER.items() if unit in ("count", "ratio")]
        setup_rows, solve_rows = [], []

        def collect(trace):
            row = tr.solve_metrics(tracer.of_run(tracer.run), "search.solve")
            row["search.iterations"] = trace.iterations
            row["search.improvements"] = len(trace.samples)
            if solve_rows:
                solves.fail([f"{k} moved from {solve_rows[0][k]} to {row[k]}"
                             for k in counts if row[k] != solve_rows[0][k]])
            solve_rows.append(row)

        with tr.patched(tracer):
            for _ in range(workload.setups):
                data = None
                gc.collect()
                tracer.run += 1
                data = setup(dat, tracer)
                setup_rows.append(tr.setup_metrics(tracer.of_run(tracer.run)))
            solves.repeat(data, until, minimum=2, tracer=tracer, each=collect)
        part["layers"] = None
        if solve_rows:
            part["layers"] = {
                **tr.medians(setup_rows), **tr.medians(solve_rows),
                **{k: solve_rows[0][k] for k in counts},
                "search.untraced_solve_s": statistics.median(untraced) if untraced else None,
            }

    part.update(solve_times=solves.times, solve_wall_times=solves.wall_times,
                sha256=solves.digest, cost=solves.cost,
                attempted=solves.attempted, failed=solves.failed, failures=solves.failures)
    return part


def _layers(parts: list[dict]) -> dict:
    """Per-layer figures over instances: times are means, counts are sums."""
    rows = [p["layers"] for p in parts]
    out = {}
    for k, unit in PER_LAYER.items():
        if k in rows[0]:
            values = [r[k] for r in rows]
            out[k] = sum(values) if unit == "count" else statistics.fmean(values)
    calls = out["localsearch.calls"]
    out["localsearch.improve_ratio"] = out["localsearch.improved"] / calls if calls else 0.0
    if all(r["search.untraced_solve_s"] is not None for r in rows):
        out["search.trace_overhead_s"] = out["search.traced_solve_s"] - statistics.fmean(
            r["search.untraced_solve_s"] for r in rows)
    return out


def run_all(args) -> int:
    """Every BENCHMARK.json workload, each in a process of its own."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{w['name']}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for k, m in result["metrics"].items():
            print(f"  {k:40s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
