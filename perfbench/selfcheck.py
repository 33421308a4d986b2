"""Self-check of the benchmark on tiny generated instances (20 tasks).

    python3 perfbench/selfcheck.py

Runs run.py on both tiny workloads, with and without tracing, twice each,
and checks that every metric BENCHMARK.json names comes out with its unit
and a finite value, that every solve passed the output checks, that the
repeat gives the same final_cost and counts, and that each run takes
seconds.  Last, it checks that the benchmark fails without printing a
result in a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 30


def run(script: Path, cwd: Path, workload: str, trace: int):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc, time.perf_counter() - t0


def check_result(label: str, proc, wall: float, units: dict) -> tuple[list[str], dict | None]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr}"], None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if wall > RUN_LIMIT_S:
        problems.append(f"{label}: took {wall:.1f} s")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} solves failed\n"
                        f"{proc.stderr}")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{label}: metrics/units {got} differ from BENCHMARK.json {units}")
    for k, m in result["metrics"].items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{label}: {k} = {v!r} is not a finite number")
    return problems, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    repeatable = {0: ["final_cost"],
                  1: [k for k, u in units[1].items() if u in ("count", "ratio")]}
    problems = []
    for workload in ("tiny-hier", "tiny-cluster"):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            results = []
            for _ in range(2):
                found, result = check_result(label, *run(HERE / "run.py", ROOT, workload, trace),
                                             units[trace])
                problems += found
                if result is not None:
                    results.append(result["metrics"])
            if len(results) == 2:
                problems += [f"{label}: {k} {results[0][k]['value']} then {results[1][k]['value']}"
                             for k in repeatable[trace]
                             if results[0][k]["value"] != results[1][k]["value"]]
            print(f"checked {label}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, _ = run(bare / "perfbench" / "run.py", bare, "tiny-hier", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("checked a directory without sources")

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
