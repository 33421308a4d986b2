"""Search loop contracts: feasibility, monotonicity, determinism, optimality."""

import hashlib
import io
import math
import os
import random
import warnings
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import (
    RankMatrix,
    SearchConfig,
    Solution,
    build_rank_matrix,
    fuzzy_kmedoid,
    local_search,
    path_scanning,
    project_solution,
    rco_split,
    solve,
    uniform_split,
    validate,
    write_solution,
)
import routecut.search
from routecut.generator import generate_instance
from routecut.search import _NEIGHBOR_SIZE, ALGORITHMS, PARAMETERS, build_config, concat_solutions
from routecut.seeding import make_rng
from routecut.solution import format_number

from conftest import brute_force_optimum, make_instance, tie_heavy_instance


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


@settings(max_examples=60, deadline=None)
@given(tiny_instances(), st.integers(0, 100))
def test_every_algorithm_solves_tiny_instances(inst, seed):
    for algorithm in ALGORITHMS:
        cfg = _deterministic_config(algorithm, seed=seed, max_iterations=3, max_cycles=2)
        best, _ = solve(inst, cfg)
        assert validate(best, inst) == []


def _mixed_instance(seed):
    """A small instance with integer demands that holds decimal and zero
    costs, a task parallel to another and a self-loop task, and one or two
    vertices that no task touches and the depot does not reach; on odd seeds
    the capacity is infinite."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)  # vertices n and n + 1 lie outside the depot's part
    costs = (0, 0.1, 0.25, 1, 2.5, 3)
    edges = [(u, u + 1, 0, 0, rng.choice(costs)) for u in range(n - 1)]
    ends = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 5))]
    v = rng.randrange(n)
    for u, w in [*ends, ends[0], (v, v)]:
        edges.append((u, w, rng.randint(1, 3), rng.choice(costs), rng.choice(costs)))
    edges += [(rng.randrange(n), rng.randrange(n), 0, 0, 0),
              (rng.randrange(n), rng.randrange(n), 0, 0, 0.3)]
    if rng.random() < 0.5:
        edges.append((n, n + 1, 0, 0, 1))
    capacity = math.inf if seed % 2 else rng.randint(3, 6)
    return make_instance(n + 2, edges, depot=rng.randrange(n), capacity=capacity)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_algorithm_returns_valid_routes_and_their_total_on_mixed_instances(algorithm):
    for seed in range(150):
        inst = _mixed_instance(seed)
        dist = inst.distances()
        cfg = _deterministic_config(algorithm, seed=seed, max_iterations=3, max_cycles=2)
        best, _ = solve(inst, cfg, dist=dist)
        assert validate(best, inst) == [], seed
        assert best.total_cost == Solution.build(best.routes, inst, dist).total_cost, seed


# the neighbours asked of nearest() are more than n - 1 on the tiny instances
# above, and exactly n - 1 and fewer here
@pytest.mark.parametrize("tasks", [_NEIGHBOR_SIZE + 1, _NEIGHBOR_SIZE + 2])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_algorithm_solves_around_the_neighbour_count(algorithm, tasks):
    inst = generate_instance(24, tasks, 14, seed=tasks)
    cfg = _deterministic_config(algorithm, seed=1, max_iterations=3, max_cycles=2)
    best, _ = solve(inst, cfg)
    assert validate(best, inst) == []


def test_solves_leave_the_shared_neighbour_lists_unchanged():
    inst = generate_instance(40, 50, 14, seed=6)
    dist = inst.distances()
    ranks = build_rank_matrix(inst, dist)
    for algorithm in ALGORITHMS:
        cfg = _deterministic_config(algorithm, seed=1, max_iterations=3, max_cycles=2)
        solve(inst, cfg, dist=dist, ranks=ranks)
    fresh = RankMatrix(ranks.matrix, ranks.heads, ranks.tails)
    assert ranks.nearest(_NEIGHBOR_SIZE) == fresh.nearest(_NEIGHBOR_SIZE)


@pytest.mark.parametrize("algorithm", ["sahid-rco", "sahid-random", "cluster-rco",
                                       "cluster-whole-route"])
def test_determinism_and_monotone_trace(algorithm):
    inst = generate_instance(16, 12, 14, seed=3)
    cfg = _deterministic_config(algorithm, seed=11)
    best1, trace1 = solve(inst, cfg)
    best2, trace2 = solve(inst, cfg)
    assert best1.routes == best2.routes
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


@pytest.mark.parametrize("algorithm", ["cluster-rco", "cluster-whole-route"])
def test_clustering_loop_asks_no_more_groups_than_pieces(algorithm):
    # under an infinite capacity one route serves every task, so a cycle may
    # split the best solution into fewer pieces than the groups configured
    base = generate_instance(20, 16, 14, seed=3)
    edges = [(e.u, e.v, e.demand, e.service_cost, e.deadheading_cost) for e in base.edges]
    inst = make_instance(base.vertex_count, edges, capacity=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best, trace = solve(inst, _deterministic_config(algorithm, seed=1, max_cycles=3))
    assert trace.iterations == 3
    assert validate(best, inst) == []


def test_cluster_single_group_degenerates_to_whole_problem():
    inst = generate_instance(14, 10, 12, seed=6)
    cfg = _deterministic_config("cluster-rco", seed=1, group_count=1)
    best, trace = solve(inst, cfg)
    assert validate(best, inst) == []
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
    merged = concat_solutions([left, right], inst, dist)
    assert validate(merged, inst) == []


def _snapshot(solution):
    return list(solution.routes), solution.total_cost


# every operation the search loops apply to a solution they keep using
_READERS = {
    "local_search": lambda s, inst, dist, ranks, rng: local_search(
        s, inst, dist, rng, neighbors=ranks.nearest(20)),
    "project_solution": lambda s, inst, dist, ranks, rng: project_solution(
        s, set(range(0, inst.task_count, 2)), inst, dist),
    "concat_solutions": lambda s, inst, dist, ranks, rng: concat_solutions([s, s], inst, dist),
    "rco_split": lambda s, inst, dist, ranks, rng: rco_split(s, ranks, 0.5, 0.9, rng),
    "uniform_split": lambda s, inst, dist, ranks, rng: uniform_split(s, rng),
    "fuzzy_kmedoid": lambda s, inst, dist, ranks, rng: fuzzy_kmedoid(
        rco_split(s, ranks, 0.5, 0.9, rng), 3, 5.0, inst, dist, rng),
}


@pytest.mark.parametrize("name", sorted(_READERS))
def test_operations_leave_their_solution_unchanged(name):
    # the loops share solutions instead of copying them, which is sound only
    # while no operation changes a solution it is given
    inst = generate_instance(30, 40, 20, seed=3)
    dist = inst.distances()
    solution = path_scanning(inst, dist, make_rng(4))
    before = _snapshot(solution)
    _READERS[name](solution, inst, dist, build_rank_matrix(inst, dist), make_rng(5))
    assert _snapshot(solution) == before


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


@pytest.mark.parametrize("algorithm, cap", [
    ("sahid-rco", dict(max_iterations=0)),
    ("cluster-rco", dict(max_cycles=0)),
])
def test_zero_cap_does_not_warn(algorithm, cap):
    # the cap stops the loop before its first round; the time limit never binds
    inst = generate_instance(12, 8, 12, seed=4)
    cfg = SearchConfig(algorithm=algorithm, seed=1, **cap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best, trace = solve(inst, cfg)
    assert trace.iterations == 0
    assert validate(best, inst) == []


@pytest.mark.parametrize("algorithm", ["sahid-rco", "cluster-rco"])
def test_binding_time_limit_warns_with_a_cap(algorithm):
    inst = generate_instance(12, 8, 12, seed=4)
    cfg = SearchConfig(algorithm=algorithm, seed=1, time_limit=1e-9, max_iterations=5,
                       max_cycles=5, virtual_clock=True)
    with pytest.warns(UserWarning, match="time limit exhausted"):
        best, trace = solve(inst, cfg)
    assert trace.iterations == 0
    assert validate(best, inst) == []


def test_accept_threshold_validation():
    with pytest.raises(ValueError):
        SearchConfig(accept_threshold=0.9)
    with pytest.raises(ValueError):
        SearchConfig(algorithm="nonsense")
    with pytest.raises(ValueError):
        SearchConfig(time_limit=0)


@pytest.mark.parametrize(
    "field, rejected, accepted",
    [
        ("lam", -0.1, 0.0),
        ("lam", 1.1, 1.0),
        ("lam", math.nan, 0.5),
        ("theta", -0.1, 0.0),
        ("theta", 1.1, 1.0),
        ("theta", math.nan, 0.5),
        ("group_count", 0, 1),
        ("fuzziness", 0.0, 0.5),
        ("fuzziness", -1.0, 0.5),
        ("fuzziness", math.nan, math.inf),
        ("max_iterations", -1, 0),
        ("max_cycles", -1, 0),
        ("sub_solver_budget", -1, 0),
        ("scale", 0.0, math.nextafter(0.0, 1.0)),  # the smallest accepted value
        ("scale", 1.0, math.nextafter(1.0, 0.0)),  # the largest
        ("scale", 5.0, 0.5),
        ("scale", math.nan, 0.5),
        ("time_limit", math.nan, math.inf),
        ("time_limit", 0.0, math.nextafter(0.0, 1.0)),
        ("accept_threshold", math.nan, 1.0),
        ("accept_threshold", math.nextafter(1.0, 0.0), math.inf),
    ],
)
def test_config_field_validation(field, rejected, accepted):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: rejected})
    SearchConfig(**{field: accepted})


@pytest.mark.parametrize("key, value, message", [
    ("lambda", "1.5", "lambda must be in [0, 1]"),
    ("groups", "0", "groups must be at least 1"),
    ("alpha", "0", "alpha must be positive"),
    ("accept", "0.5", "accept must be at least 1"),
])
def test_range_errors_name_the_key_of_a_parameter(key, value, message):
    # the keys whose field has another name; `idle` has no range to break
    name, kind = PARAMETERS[key]
    assert name != key
    with pytest.raises(ValueError) as error:
        build_config({key: value})
    assert str(error.value) == message
    with pytest.raises(ValueError) as error:  # a plain field keeps its name
        build_config({}, **{name: kind(value)})
    assert str(error.value) == message.replace(key, name, 1)


def test_wall_clock_budget_is_respected():
    import time

    inst = generate_instance(40, 60, 14, seed=1)
    cfg = SearchConfig(algorithm="sahid-rco", seed=1, time_limit=1.0)
    t0 = time.monotonic()
    best, _ = solve(inst, cfg)
    elapsed = time.monotonic() - t0
    assert validate(best, inst) == []
    assert elapsed < 5.0  # generous slack over the 1s budget


# --- virtual-clock contract: one 1 ms tick per clock query ------------------


def test_virtual_clock_binding_limit_is_deterministic():
    inst = generate_instance(60, 80, 20, seed=4)
    cfg = SearchConfig(algorithm="cluster-rco", seed=5, time_limit=0.25, max_cycles=50,
                       sub_solver_budget=5000, virtual_clock=True)
    best1, trace1 = solve(inst, cfg)
    best2, trace2 = solve(inst, cfg)
    assert 0 < trace1.iterations < cfg.max_cycles  # the limit, not the cap, stopped it
    assert trace1.samples[-1][0] >= 250
    assert best1.routes == best2.routes
    assert trace1.samples == trace2.samples


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


# --- fixed-work output, pinned --------------------------------------------

# sha256 of write_solution's text followed by repr(trace.samples), for each
# algorithm at fixed work on generate_instance(200, 300, 60, seed).  A change
# that is meant to leave the output alone (a speed-up, a refactor) must leave
# these as they are; one that changes the search on purpose updates them
# together with its fixed-work comparison.
FIXED_WORK_DIGESTS = {
    (1, "sahid-rco"): "bcc1b67350e0bd7164e7bde2d3dd44d5de262a39235b85656944e2cb178e16ce",
    (1, "sahid-random"): "1aa724066020b46bb825b71f64e7ec460833b9d874df4a481fa4b42d864230fa",
    (1, "cluster-rco"): "1c31b72f7e551b903a37d898f713da899ebd46dfcbe51015f3c4260372806aa3",
    (1, "cluster-whole-route"): "e7a23cbb6f2a069a32749f895211d008160981eb42e0b7e489b84dc230063e3e",
    (1, "local-only"): "b22e16551c956b24173f05a1699d31dd1bd2ea24cd298574553260c6a9eb4002",
    (2, "sahid-rco"): "4b5666e7afb413732d793e986feaecb372072371b7866ff846bee119510b5cef",
    (2, "sahid-random"): "11a72abd3343b8d281bc09cf6dfe27f5d9691b5b134c31333a6c2863c813d778",
    (2, "cluster-rco"): "9f5869244c9069818c9907c931bbb62b1677938e9b656ad08b98876a28437137",
    (2, "cluster-whole-route"): "6bbf83cb4b0c4322e66752ca5a9b5379921ead448e259fb3fa405bc129100e44",
    (2, "local-only"): "da8cac72b3ce31b63eb6e8c6386f1c8ace30bcb27ac442254e522db831501be2",
}


def _fixed_work_digest(inst, seed, algorithm):
    cfg = SearchConfig(algorithm=algorithm, seed=seed, time_limit=1e6, max_iterations=4,
                       max_cycles=1, virtual_clock=True)
    best, trace = solve(inst, cfg)
    text = io.StringIO()
    write_solution(best, inst, text)
    payload = text.getvalue() + repr(trace.samples)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("seed", [1, 2])
def test_fixed_work_output_is_pinned(seed):
    inst = generate_instance(200, 300, 60, seed)
    digests = {(seed, algorithm): _fixed_work_digest(inst, seed, algorithm)
               for algorithm in ALGORITHMS}
    assert digests == {key: d for key, d in FIXED_WORK_DIGESTS.items() if key[0] == seed}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_route_is_non_empty(algorithm):
    # no step makes an empty route, so nothing strips one from the result
    instances = [generate_instance(200, 300, 60, 1)] + [tie_heavy_instance(s) for s in range(8)]
    for inst in instances:
        cfg = SearchConfig(algorithm=algorithm, seed=1, time_limit=1e6, max_iterations=4,
                           max_cycles=1, virtual_clock=True)
        best, _ = solve(inst, cfg)
        assert validate(best, inst) == []
        assert all(best.routes)
        assert all(type(r) is tuple for r in best.routes)
        assert best.route_count == len(best.routes)


# --- side-by-side sections: forked processes, the same output -------------
#
# The clustering loop's pool constructions and each cycle's groups are dealt
# to this process and up to CPUs - 1 forked children.  The CPU count is
# patched, so these tests fork the same way on any host, and never more
# than two children at a time.


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _fork_spy(monkeypatch):
    """The list that each later ``os.fork`` call in this process appends to."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("algorithm", ["cluster-rco", "cluster-whole-route"])
@pytest.mark.parametrize("seed", [1, 2])
def test_fixed_work_output_is_pinned_in_every_process_layout(monkeypatch, seed, algorithm, cpus):
    inst = generate_instance(200, 300, 60, seed)
    _cpus(monkeypatch, cpus)
    forks = _fork_spy(monkeypatch)
    assert _fixed_work_digest(inst, seed, algorithm) == FIXED_WORK_DIGESTS[seed, algorithm]
    assert len(forks) == (0 if cpus == 1 else 2 + 1)  # the pool: 2 children; 2 groups: 1


def test_a_pool_worker_forks_onto_its_cpu_share(monkeypatch):
    # two bench workers on four CPUs: the pool section forks one child, not three
    inst = generate_instance(200, 300, 60, 1)
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(routecut.search, "_cpu_share", routecut.search._cpu_share)  # restored
    routecut.search.share_cpus(2)
    assert routecut.search._cpu_share == 2
    forks = _fork_spy(monkeypatch)
    assert _fixed_work_digest(inst, 1, "cluster-rco") == FIXED_WORK_DIGESTS[1, "cluster-rco"]
    assert len(forks) == 1 + 1  # the pool: 1 child; 2 groups: 1


@pytest.mark.parametrize("cpus", [1, 3])
def test_every_job_of_a_section_starts_at_the_section_tick(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    forks = _fork_spy(monkeypatch)
    clock = routecut.search._Clock(virtual=True)
    clock.ticks = 7

    def job(ticks):
        entry = clock.ticks
        for _ in range(ticks):
            clock.now()
        return entry

    ticks = [1, 4, 0, 2, 3]
    entries = routecut.search._fan_out([partial(job, k) for k in ticks], clock)
    assert len(forks) == cpus - 1
    assert entries == [7] * len(ticks)
    assert clock.ticks == 7 + sum(ticks)


@pytest.mark.filterwarnings("ignore:time limit exhausted before the first cycle")
@pytest.mark.parametrize("section", ["pool", "group"])
def test_a_binding_virtual_limit_gives_the_same_output_in_every_process_layout(
        monkeypatch, section):
    # a poll inside a section sees the limit after the same ticks in every
    # layout, so the section still forks
    inst = generate_instance(60, 80, 20, seed=4)
    fields = dict(algorithm="cluster-rco", seed=5, max_cycles=3, sub_solver_budget=5000,
                  virtual_clock=True)
    _cpus(monkeypatch, 1)
    _, free = solve(inst, SearchConfig(time_limit=1e6, **fields))
    pool_ms = free.samples[0][0]  # stamped right after the pool section
    # "group": the cycle's opening poll is the tick after the stamp, and the
    # limit is reached two ticks later, inside the group searches
    cfg = SearchConfig(time_limit=(3 if section == "pool" else pool_ms + 3) * 1e-3, **fields)
    one_best, one_trace = solve(inst, cfg)
    if section == "pool":
        assert one_trace.samples[0][0] < pool_ms and one_trace.iterations == 0
    else:
        assert one_trace.samples[0] == free.samples[0] and one_trace.iterations == 1

    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        forks = _fork_spy(monkeypatch)
        best, trace = solve(inst, cfg)
        # the pool: cpus - 1 children; the cycle's 2 groups, if it runs: 1
        assert len(forks) == cpus - 1 + one_trace.iterations
        assert best.routes == one_best.routes
        assert trace.samples == one_trace.samples and trace.iterations == one_trace.iterations


def _fail_in(where, real):
    """``local_search`` that raises in the parent or in a forked child only."""
    parent = os.getpid()

    def search(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise ZeroDivisionError(f"local search failed in the {where}")
        return real(*args, **kwargs)

    return search


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_job_reaches_the_caller_and_no_child_is_left(monkeypatch, where):
    monkeypatch.setattr(routecut.search, "local_search",
                        _fail_in(where, routecut.search.local_search))
    _cpus(monkeypatch, 2)
    forks = _fork_spy(monkeypatch)
    inst = generate_instance(16, 12, 14, seed=3)
    with pytest.raises(ZeroDivisionError, match=f"failed in the {where}"):
        solve(inst, _deterministic_config("cluster-rco", seed=11))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_child_that_dies_without_a_report_fails_the_solve(monkeypatch):
    parent = os.getpid()
    real = routecut.search.path_scanning

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(routecut.search, "path_scanning", dying)
    _cpus(monkeypatch, 2)
    inst = generate_instance(16, 12, 14, seed=3)
    with pytest.raises(RuntimeError, match="exited without a result"):
        solve(inst, _deterministic_config("cluster-rco", seed=11))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_trace_file_gets_each_line_once_when_sections_fork(monkeypatch, tmp_path):
    # a child leaves by os._exit, so it never flushes the buffer it inherited
    _cpus(monkeypatch, 2)
    forks = _fork_spy(monkeypatch)
    inst = generate_instance(16, 12, 14, seed=3)
    path = tmp_path / "t.csv"
    with open(path, "w") as fh:
        best, trace = solve(inst, _deterministic_config("cluster-rco", seed=11), trace_sink=fh)
    assert forks
    assert path.read_text().splitlines() == ["elapsed_ms,best_cost"] + [
        f"{ms},{format_number(cost)}" for ms, cost in trace.samples]


def test_many_groups_fork_at_most_cpus_minus_one_children(monkeypatch):
    inst = generate_instance(40, 60, 14, seed=6)
    cfg = _deterministic_config("cluster-rco", seed=1, group_count=40, max_cycles=2)
    _cpus(monkeypatch, 1)
    one_best, one_trace = solve(inst, cfg)

    _cpus(monkeypatch, 3)
    forks = _fork_spy(monkeypatch)
    sections = []  # (jobs, children forked) of each section
    fan_out = routecut.search._fan_out

    def counted(jobs, clock):
        before = len(forks)
        try:
            return fan_out(jobs, clock)
        finally:
            sections.append((len(jobs), len(forks) - before))

    monkeypatch.setattr(routecut.search, "_fan_out", counted)
    best, trace = solve(inst, cfg)
    assert max(jobs for jobs, _ in sections) > 10
    assert all(children == 2 for _, children in sections)
    assert best.routes == one_best.routes and trace.samples == one_trace.samples
