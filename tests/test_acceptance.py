"""Acceptance suite: one test per release criterion, one PASS line each.

Criterion 6 is the long ablation benchmark and carries the `slow` marker
(deselected by default; run with `pytest -m slow`).  Criterion 10 needs
the EGL-G benchmark files and skips itself when they are not available
(point EGLG_DIR at a directory of .dat files to enable it).
"""

import os
import random
import time
from collections import Counter
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from routecut import (
    SearchConfig,
    average_task_rank,
    classify_links,
    load_instance,
    min_vehicles,
    rco_split,
    solve,
    validate,
    wilcoxon_rank_sum,
)
from routecut.bench import ExperimentSpec, run_experiment, samples_by_cell
from routecut.generator import generate_instance, generate_instance_file
from routecut.search import SearchTrace
from routecut.seeding import make_rng
from routecut.solution import write_solution
from conftest import (
    LINK_NUMERATORS,
    RANKS_GOLDEN,
    TASK_A,
    TASK_B,
    TASK_C,
    TASK_D,
    TASK_E,
    TASK_F,
    TASK_G,
    TASK_H,
    all_link_ranks,
    brute_force_optimum,
    make_instance,
    rank_matrix_of,
    route_link_ranks,
    solution_from_tasks,
    split_walk,
)


def _report(num: int, message: str) -> None:
    print(f"criterion {num:2d}: PASS — {message}")


def _assert_monotone(samples) -> None:
    costs = [c for _, c in samples]
    assert costs == sorted(costs, reverse=True), f"trace not non-increasing: {costs}"


_saved_traces: list[SearchTrace] = []


def test_criterion_01_rank_matrix_golden():
    all_link_ranks(rank_matrix_of(LINK_NUMERATORS))  # warm-up outside the timing window
    t0 = time.perf_counter()
    got = all_link_ranks(rank_matrix_of(LINK_NUMERATORS))
    elapsed = time.perf_counter() - t0
    assert np.array_equal(got, RANKS_GOLDEN)
    assert elapsed < 1e-3
    _report(1, f"link-cost matrix ranks entry-for-entry ({elapsed * 1e6:.0f} us)")


def test_criterion_02_split_classification_golden(golden_instance, golden_ranks):
    dist = golden_instance.distances()
    sol = solution_from_tasks(
        golden_instance,
        dist,
        [[TASK_A, TASK_D, TASK_E], [TASK_B, TASK_G, TASK_F], [TASK_C, TASK_H]],
    )
    t0 = time.perf_counter()
    links = route_link_ranks(sol, golden_ranks)
    avg = average_task_rank(links)
    parts = [classify_links(route_links, avg) for route_links in links]
    elapsed = time.perf_counter() - t0

    assert avg == 3.0
    link_tasks = []
    for route, (good, poor) in zip(sol.routes, parts):
        for pos in good:
            link_tasks.append(("good", (route[pos] - 1) // 2, (route[pos + 1] - 1) // 2))
        for pos in poor:
            link_tasks.append(("poor", (route[pos] - 1) // 2, (route[pos + 1] - 1) // 2))
    good_links = {(a, b) for kind, a, b in link_tasks if kind == "good"}
    poor_links = {(a, b) for kind, a, b in link_tasks if kind == "poor"}
    assert good_links == {(TASK_D, TASK_E), (TASK_G, TASK_F), (TASK_C, TASK_H)}
    assert poor_links == {(TASK_A, TASK_D), (TASK_B, TASK_G)}
    assert elapsed < 1e-3
    _report(2, f"average rank 3 and good/poor partition exact ({elapsed * 1e6:.0f} us)")


def test_criterion_03_oracle_optimality():
    t0 = time.monotonic()
    hits = {"sahid-rco": 0, "cluster-rco": 0}
    cases = 20
    for i in range(cases):
        inst = generate_instance(9, 3 + i % 4, capacity=8, seed=1000 + i)
        dist = inst.distances()
        optimum = brute_force_optimum(inst, dist)
        for algo in hits:
            cfg = SearchConfig(
                algorithm=algo, seed=i, time_limit=5.0,
                max_iterations=400, max_cycles=50,
            )
            best, trace = solve(inst, cfg)
            assert validate(best, inst) == []
            assert best.total_cost >= optimum - 1e-9
            if abs(best.total_cost - optimum) < 1e-6:
                hits[algo] += 1
            _saved_traces.append(trace)
    elapsed = time.monotonic() - t0
    assert hits["sahid-rco"] >= 19, hits
    assert hits["cluster-rco"] >= 19, hits
    assert elapsed < 180.0
    _report(3, f"optimum matched {hits['sahid-rco']}/20 and {hits['cluster-rco']}/20 "
               f"({elapsed:.1f} s)")


def test_criterion_04_conservation_and_feasibility():
    t0 = time.monotonic()
    from routecut import build_rank_matrix, path_scanning

    rng = random.Random(42)
    trials = 10_000
    prepared = []
    for seed in range(10):
        inst = generate_instance(14, 10, capacity=12, seed=seed)
        dist = inst.distances()
        ranks = build_rank_matrix(inst, dist)
        sol = path_scanning(inst, dist, make_rng(seed))
        prepared.append((sol, ranks, Counter(sol.task_indices())))

    for trial in range(trials):
        sol, ranks, want = prepared[trial % len(prepared)]
        lam, theta = rng.random(), rng.random()
        pool = rco_split(sol, ranks, lam, theta, make_rng(trial))
        assert Counter((t - 1) // 2 for s in pool for t in s) == want
        # the pieces, in route order, concatenate back to the routes
        for cut in split_walk(pool, sol):
            assert 1 <= len(cut) <= 3

    inst = generate_instance(14, 10, capacity=12, seed=3)
    for algo in ("sahid-rco", "sahid-random", "cluster-rco",
                 "cluster-whole-route", "local-only"):
        cfg = SearchConfig(algorithm=algo, seed=1, time_limit=30.0,
                           max_iterations=40, max_cycles=8)
        best, _ = solve(inst, cfg)
        assert validate(best, inst) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, f"{trials} splits conserved tasks/slices/budget; all search paths "
               f"feasible ({elapsed:.1f} s)")


def test_criterion_05_cut_probability_calibration():
    t0 = time.monotonic()
    edges = [(i, i + 1, 1, 1, 1) for i in range(11)]
    inst = make_instance(12, edges, capacity=20)
    dist = inst.distances()
    n = 11
    costs = np.full((n, n), 5)
    for i in range(10):
        # 5 good links (rank 1) and 5 poor ones (rank 10), average 5.5
        costs[i, i + 1] = 1 if i % 2 == 0 else 9
    ranks = rank_matrix_of(costs)
    sol = solution_from_tasks(inst, dist, [list(range(11))])

    good_positions = {i for i in range(10) if i % 2 == 0}
    lam, theta = 0.3, 0.7
    rng = make_rng(20_240_817)
    trials = 100_000
    good_cut = poor_cut = 0
    for _ in range(trials):
        pool = rco_split(sol, ranks, lam, theta, rng)
        (cut,) = split_walk(pool, sol)
        for at, _ in cut[1:]:
            if at - 1 in good_positions:
                good_cut += 1
            else:
                poor_cut += 1
    elapsed = time.monotonic() - t0
    good_rate = good_cut / trials
    poor_rate = poor_cut / trials
    assert abs(good_rate - lam) < 0.01, good_rate
    assert abs(poor_rate - theta) < 0.01, poor_rate
    assert elapsed < 10.0
    _report(5, f"cut rates {good_rate:.4f}/{poor_rate:.4f} vs 0.3/0.7 "
               f"({elapsed:.1f} s)")


@pytest.mark.slow
def test_criterion_06_ablation_direction(tmp_path):
    """Rank-guided cutting vs uniform random splitting at scale.

    Stands in for the full benchmark tables, which need the original
    datasets and machine-scaled budgets; asserts the direction only.
    """
    sizes = [300, 350, 400, 450, 500]
    instances = []
    for i, tasks in enumerate(sizes):
        path = tmp_path / f"abl{tasks}.dat"
        generate_instance_file(
            path, vertices=int(tasks / 1.45), tasks=tasks, capacity=60, seed=9000 + i
        )
        instances.append(path)

    base = SearchConfig(algorithm="sahid-rco", time_limit=60.0)
    spec = ExperimentSpec(
        instances=instances,
        variants=[("sahid-rco", base), ("sahid-random",
                  SearchConfig(algorithm="sahid-random", time_limit=60.0))],
        runs=11,
        base_seed=7000,
        budget="fixed:60",
        workers=2,
    )
    records = run_experiment(spec, tmp_path / "out")
    assert all(not r.failed for r in records)
    for r in records:
        lines = Path(r.trace_path).read_text().splitlines()[1:]
        costs = [float(ln.split(",")[1]) for ln in lines]
        assert costs == sorted(costs, reverse=True)

    cells = samples_by_cell(records)
    wins = 0
    for path in instances:
        stem = path.stem
        rco_mean = sum(cells[(stem, "sahid-rco")]) / 11
        rnd_mean = sum(cells[(stem, "sahid-random")]) / 11
        print(f"  {stem}: rco {rco_mean:.0f} vs random {rnd_mean:.0f}")
        wins += rco_mean <= rnd_mean
    assert wins >= 4, f"rank-guided splitting won on only {wins}/5 instances"
    _report(6, f"rank-guided splitting at least matched random splitting on "
               f"{wins}/5 large instances")


def test_criterion_07_monotone_traces():
    if not _saved_traces:  # criterion 3 skipped or filtered out
        inst = generate_instance(12, 8, capacity=12, seed=5)
        for algo in ("sahid-rco", "cluster-rco"):
            cfg = SearchConfig(algorithm=algo, seed=2, time_limit=30.0,
                               max_iterations=40, max_cycles=8)
            _, trace = solve(inst, cfg)
            _saved_traces.append(trace)
    for trace in _saved_traces:
        _assert_monotone(trace.samples)
    _report(7, f"{len(_saved_traces)} traces non-increasing")


def test_criterion_08_wilcoxon_correctness():
    t0 = time.monotonic()
    res = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    assert res.pvalue == pytest.approx(0.1)

    from test_stats import _forced_normal_p, exact_p_by_enumeration

    rng = random.Random(20_240_818)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 9)
        m = rng.randint(max(3, 8 - n), min(9, 12 - n))
        values = rng.sample(range(100_000), n + m)
        a, b = values[:n], values[n:]
        exact = exact_p_by_enumeration(a, b)
        assert wilcoxon_rank_sum(a, b).pvalue == pytest.approx(exact)
        assert abs(_forced_normal_p(a, b) - exact) <= 0.05
        assert wilcoxon_rank_sum(a, b).pvalue == pytest.approx(
            wilcoxon_rank_sum(b, a).pvalue
        )
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(8, f"exact p=0.1 on separated triples; {checked} borderline samples "
               f"within 0.05; symmetric ({elapsed:.1f} s)")


def test_criterion_09_byte_identical_determinism(tmp_path):
    t0 = time.monotonic()
    inst = generate_instance(16, 12, capacity=14, seed=21)
    for algo, caps in (
        ("sahid-rco", dict(max_iterations=60)),
        ("cluster-rco", dict(max_cycles=10)),  # several groups solved per cycle
    ):
        blobs = []
        for repeat in range(2):
            cfg = SearchConfig(algorithm=algo, seed=77, time_limit=600.0,
                               virtual_clock=True, **caps)
            sol_io, trace_io = StringIO(), StringIO()
            best, _ = solve(inst, cfg, trace_sink=trace_io)
            write_solution(best, inst, sol_io)
            blobs.append((sol_io.getvalue(), trace_io.getvalue()))
        assert blobs[0] == blobs[1], f"{algo} runs diverged"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(9, f"solution and trace bytes identical across reruns ({elapsed:.1f} s)")


EGLG_MIN_VEHICLES = {
    "G1-A": 20, "G1-B": 25, "G1-C": 30, "G1-D": 35, "G1-E": 40,
    "G2-A": 22, "G2-B": 27, "G2-C": 32, "G2-D": 37, "G2-E": 42,
}


def _find_eglg_files():
    roots = []
    if os.environ.get("EGLG_DIR"):
        roots.append(Path(os.environ["EGLG_DIR"]))
    roots.append(Path(__file__).parent / "data" / "egl-g")
    for root in roots:
        if root.is_dir():
            files = sorted(root.glob("*.dat"))
            if files:
                return files
    return []


def test_criterion_10_eglg_vehicle_bounds():
    files = _find_eglg_files()
    if not files:
        pytest.skip("EGL-G files not present (set EGLG_DIR to enable)")
    checked = 0
    for path in files:
        key = next((k for k in EGLG_MIN_VEHICLES if k.lower() in path.stem.lower()), None)
        if key is None:
            continue
        inst = load_instance(path)
        assert min_vehicles(inst) == EGLG_MIN_VEHICLES[key], path.name
        if key == "G1-A":
            assert inst.vertex_count == 255
            assert len(inst.edges) == 375
            assert inst.task_count == 347
        checked += 1
    assert checked > 0, "no recognizable EGL-G files found"
    _report(10, f"vehicle lower bounds match on {checked} EGL-G instances")
