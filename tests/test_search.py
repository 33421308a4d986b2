"""Search loop contracts: feasibility, monotonicity, determinism, optimality."""

import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import (
    ClusterConfig,
    SearchConfig,
    path_scanning,
    project_solution,
    solve,
    validate,
)
from routecut.generator import generate_instance
from routecut.search import ALGORITHMS, concat_solutions
from routecut.seeding import make_rng

from conftest import brute_force_optimum, make_instance


def _deterministic_config(algorithm, seed=0, **kw):
    return SearchConfig(
        algorithm=algorithm,
        seed=seed,
        time_limit=600.0,
        max_iterations=kw.pop("max_iterations", 60),
        max_cycles=kw.pop("max_cycles", 12),
        virtual_clock=True,
        **kw,
    )


@pytest.mark.parametrize("algorithm", ["sahid-rco", "sahid-random", "cluster-rco",
                                       "cluster-whole-route", "local-only"])
def test_single_task_instance_trivial(single_task_instance, algorithm):
    cfg = _deterministic_config(algorithm)
    best, trace = solve(single_task_instance, cfg)
    assert validate(best, single_task_instance) == []
    assert best.total_cost == 2.0
    costs = [c for _, c in trace.samples]
    assert costs == sorted(costs, reverse=True)


@pytest.mark.parametrize("algorithm", ["sahid-rco", "sahid-random", "cluster-rco",
                                       "cluster-whole-route", "local-only"])
def test_instance_without_tasks_gives_empty_solution(algorithm):
    inst = make_instance(3, [(0, 1, 0, 0, 1), (1, 2, 0, 0, 1)])
    assert inst.task_count == 0
    best, _ = solve(inst, _deterministic_config(algorithm))
    assert validate(best, inst) == []
    assert best.total_cost == 0
    assert best.routes == []


@st.composite
def tiny_instances(draw):
    """0-6 tasks on up to 5 vertices joined by a service-free path: tasks may
    run parallel to each other or to the path, and a demand may equal the
    capacity."""
    vertices = draw(st.integers(2, 5))
    capacity = draw(st.integers(1, 5))
    costs = st.integers(0, 3)
    edges = [(u, u + 1, 0, 0, draw(costs)) for u in range(vertices - 1)]
    pairs = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
    for u, v in draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=6)):
        edges.append((u, v, draw(st.integers(1, capacity)), draw(costs), draw(costs)))
    return make_instance(vertices, edges, capacity=capacity)


@pytest.mark.filterwarnings("ignore:pool of .* sub-routes cannot fill")
@settings(max_examples=60, deadline=None)
@given(tiny_instances(), st.integers(0, 100))
def test_every_algorithm_solves_tiny_instances(inst, seed):
    # neighbor_size 1 and 20 reach nearest() with k below, at and above n - 1
    for algorithm in ALGORITHMS:
        for neighbor_size in (1, 20):
            cfg = _deterministic_config(algorithm, seed=seed, max_iterations=3,
                                        max_cycles=2, neighbor_size=neighbor_size)
            best, _ = solve(inst, cfg)
            assert validate(best, inst) == []


@pytest.mark.parametrize("algorithm", ["sahid-rco", "sahid-random", "cluster-rco",
                                       "cluster-whole-route"])
def test_determinism_and_monotone_trace(algorithm):
    inst = generate_instance(16, 12, 14, seed=3)
    cfg = _deterministic_config(algorithm, seed=11)
    best1, trace1 = solve(inst, cfg)
    best2, trace2 = solve(inst, cfg)
    assert [r.ids for r in best1.routes] == [r.ids for r in best2.routes]
    assert trace1.samples == trace2.samples
    assert validate(best1, inst) == []
    costs = [c for _, c in trace1.samples]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    times = [t for t, _ in trace1.samples]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_beats_or_matches_construction():
    for seed in range(3):
        inst = generate_instance(22, 20, 14, seed=seed)
        dist = inst.distances()
        baseline = path_scanning(inst, dist, make_rng(seed))
        for algorithm in ("sahid-rco", "cluster-rco"):
            cfg = _deterministic_config(algorithm, seed=seed)
            best, _ = solve(inst, cfg)
            assert best.total_cost <= baseline.total_cost + 1e-9


def test_small_instance_reaches_optimum():
    inst = generate_instance(10, 5, 15, seed=8)
    dist = inst.distances()
    optimum = brute_force_optimum(inst, dist)
    for algorithm in ("sahid-rco", "cluster-rco"):
        cfg = _deterministic_config(algorithm, seed=2)
        best, _ = solve(inst, cfg)
        assert best.total_cost == pytest.approx(optimum)


def test_cluster_single_group_degenerates_to_whole_problem():
    inst = generate_instance(14, 10, 12, seed=6)
    cfg = _deterministic_config("cluster-rco", seed=1, cluster=ClusterConfig(1, 5.0))
    best, trace = solve(inst, cfg)
    assert validate(best, inst) == []
    for meta in trace.cycles:
        assert len(meta["group_sizes"]) == 1
    first_cost = trace.samples[0][1]
    assert best.total_cost <= first_cost


def test_projection_preserves_feasibility():
    inst = generate_instance(14, 10, 12, seed=9)
    dist = inst.distances()
    sol = path_scanning(inst, dist, make_rng(3))
    for keep in (set(range(4)), {1, 5, 9}, set(range(10))):
        sub = project_solution(sol, keep, inst, dist)
        assert validate(sub, inst, required_tasks=keep) == []


def test_recombination_serves_every_task_once():
    inst = generate_instance(14, 10, 12, seed=9)
    dist = inst.distances()
    sol = path_scanning(inst, dist, make_rng(3))
    left = project_solution(sol, set(range(5)), inst, dist)
    right = project_solution(sol, set(range(5, 10)), inst, dist)
    merged = concat_solutions([left, right])
    assert validate(merged, inst) == []


def test_trace_stream_matches_samples():
    inst = generate_instance(12, 8, 12, seed=4)
    cfg = _deterministic_config("sahid-rco", seed=5)
    sink = io.StringIO()
    best, trace = solve(inst, cfg, trace_sink=sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "elapsed_ms,best_cost"
    assert len(lines) == len(trace.samples) + 1
    last_ms, last_cost = lines[-1].split(",")
    assert float(last_cost) == pytest.approx(best.total_cost)


def test_tiny_time_limit_warns():
    inst = generate_instance(12, 8, 12, seed=4)
    cfg = SearchConfig(algorithm="sahid-rco", seed=1, time_limit=1e-9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        best, trace = solve(inst, cfg)
    assert trace.iterations == 0
    assert validate(best, inst) == []
    assert any("time limit" in str(w.message) for w in caught)


def test_accept_threshold_validation():
    with pytest.raises(ValueError):
        SearchConfig(accept_threshold=0.9)
    with pytest.raises(ValueError):
        SearchConfig(algorithm="nonsense")
    with pytest.raises(ValueError):
        SearchConfig(time_limit=0)


def test_wall_clock_budget_is_respected():
    import time

    inst = generate_instance(40, 60, 14, seed=1)
    cfg = SearchConfig(algorithm="sahid-rco", seed=1, time_limit=1.0)
    t0 = time.monotonic()
    best, _ = solve(inst, cfg)
    elapsed = time.monotonic() - t0
    assert validate(best, inst) == []
    assert elapsed < 5.0  # generous slack over the 1s budget


# --- virtual-clock contract: one 1 ms tick per clock query, groups in order --


def test_virtual_clock_binding_limit_is_deterministic():
    inst = generate_instance(60, 80, 20, seed=4)
    cfg = SearchConfig(algorithm="cluster-rco", seed=5, time_limit=0.25, max_cycles=50,
                       sub_solver_budget=5000, virtual_clock=True)
    best1, trace1 = solve(inst, cfg)
    best2, trace2 = solve(inst, cfg)
    assert 0 < trace1.iterations < cfg.max_cycles  # the limit, not the cap, stopped it
    assert trace1.samples[-1][0] >= 250
    assert [r.ids for r in best1.routes] == [r.ids for r in best2.routes]
    assert trace1.samples == trace2.samples
    assert trace1.cycles == trace2.cycles


@pytest.mark.parametrize("algorithm, caps, stamps", [
    ("cluster-rco", dict(max_cycles=3), [52, 80]),
    ("sahid-rco", dict(max_iterations=5), [12, 44, 52, 58]),
])
def test_virtual_clock_timestamps_are_pinned(algorithm, caps, stamps):
    # each stamp counts the clock queries made so far; moving a deadline poll
    # or changing the local-search poll interval moves them
    inst = generate_instance(16, 12, 14, seed=3)
    cfg = SearchConfig(algorithm=algorithm, seed=11, time_limit=600.0,
                       virtual_clock=True, **caps)
    _, trace = solve(inst, cfg)
    assert [ms for ms, _ in trace.samples] == stamps
