"""Construction heuristic and local-search contracts."""

import math

import pytest

from routecut import local_search, path_scanning, validate
from routecut.generator import generate_instance
from routecut.instance import forward_id, inverse_id
from routecut import localsearch
from routecut.localsearch import _State
from routecut.seeding import make_rng
from routecut.solution import Solution

from conftest import brute_force_optimum, make_instance, neighbors, solution_from_tasks


def test_path_scanning_single_task(single_task_instance):
    sol = path_scanning(single_task_instance, single_task_instance.distances(), make_rng(0))
    assert validate(sol, single_task_instance) == []
    assert sol.route_count == 1
    assert sol.total_cost == 2.0


def test_path_scanning_capacity_arithmetic():
    edges = [(i, i + 1, 1, 1, 1) for i in range(6)]
    inst = make_instance(7, edges, capacity=2)
    for seed in range(5):
        sol = path_scanning(inst, inst.distances(), make_rng(seed))
        assert validate(sol, inst) == []
        assert sol.route_count == 3


def test_path_scanning_always_feasible():
    for seed in range(8):
        inst = generate_instance(15, 10, 9, seed=seed)
        sol = path_scanning(inst, inst.distances(), make_rng(seed))
        assert validate(sol, inst) == []


def test_local_search_fixes_crossed_pair(path_instance):
    dist = path_instance.distances()
    # serve the far task first, then the near one: clearly improvable
    bad = solution_from_tasks(path_instance, dist, [[1, 0]])
    assert bad.total_cost > 4.0
    better = local_search(
        bad, path_instance, dist, make_rng(0),
        neighbors=neighbors(path_instance, dist), debug=True,
    )
    assert validate(better, path_instance) == []
    assert better.total_cost == pytest.approx(brute_force_optimum(path_instance, dist))


def test_local_optimum_returned_unchanged():
    inst = make_instance(3, [(0, 1, 1, 1, 1), (1, 2, 1, 1, 1)], capacity=10)
    dist = inst.distances()
    opt_cost = brute_force_optimum(inst, dist)
    start = solution_from_tasks(inst, dist, [[0, 1]])
    assert start.total_cost == pytest.approx(opt_cost)
    out = local_search(start, inst, dist, make_rng(4), neighbors=neighbors(inst, dist), debug=True)
    assert out.routes == start.routes


def test_worse_result_raises_even_under_optimize(path_instance, monkeypatch):
    # the never-worse check is explicit, so ``python -O`` cannot strip it
    dist = path_instance.distances()
    start = solution_from_tasks(path_instance, dist, [[0, 1]])
    costlier = solution_from_tasks(path_instance, dist, [[0], [1]])
    assert costlier.total_cost > start.total_cost
    monkeypatch.setattr(_State, "to_solution", lambda self: costlier)
    with pytest.raises(RuntimeError, match="worsened"):
        local_search(start, path_instance, dist, make_rng(0),
                     neighbors=neighbors(path_instance, dist))


def test_cost_never_increases_and_stays_feasible():
    for seed in range(10):
        inst = generate_instance(14, 9, 10, seed=seed)
        dist = inst.distances()
        start = path_scanning(inst, dist, make_rng(seed))
        out = local_search(start, inst, dist, make_rng(seed, 1),
                           neighbors=neighbors(inst, dist), debug=True)
        assert out.total_cost <= start.total_cost + 1e-9
        assert validate(out, inst) == []


def test_incremental_costs_match_recomputation():
    # debug=True asserts that the running cost, changed by each applied
    # move's delta, equals the routes' recomputed cost after every move
    for seed in range(12):
        inst = generate_instance(16, 12, 14, seed=seed)
        dist = inst.distances()
        start = path_scanning(inst, dist, make_rng(seed))
        local_search(start, inst, dist, make_rng(seed, 2),
                     neighbors=neighbors(inst, dist), debug=True)


def test_index_checked_when_moves_empty_routes():
    # one task per route: relocations and tail exchanges empty routes below
    # and above the other route they touch, and debug=True then checks the
    # running cost, and the position index and loads of every route, the
    # emptied ones too
    for seed in range(10):
        inst = generate_instance(20, 30, 10, seed=seed)
        dist = inst.distances()
        start = solution_from_tasks(inst, dist, [[ti] for ti in range(inst.task_count)])
        out = local_search(start, inst, dist, make_rng(seed, 4),
                           neighbors=neighbors(inst, dist), debug=True)
        assert out.route_count < start.route_count
        assert all(out.routes)
        assert validate(out, inst) == []



@pytest.mark.parametrize("name", ["_apply_relocate", "_apply_tail_exchange"])
def test_wrong_move_delta_fails_the_debug_check(name, monkeypatch):
    # the running cost adds the delta that the scan chose a move by, so a
    # delta that is off by one fails the first check after such a move
    apply = getattr(localsearch, name)
    monkeypatch.setattr(localsearch, name, lambda *args: apply(*args[:-1], args[-1] + 1))
    inst = generate_instance(20, 30, 10, seed=0)
    dist = inst.distances()
    start = solution_from_tasks(inst, dist, [[ti] for ti in range(inst.task_count)])
    with pytest.raises(AssertionError, match="running cost"):
        local_search(start, inst, dist, make_rng(0, 4),
                     neighbors=neighbors(inst, dist), debug=True)


def test_load_off_by_one_ulp_fails_the_debug_check(monkeypatch):
    # the debug check compares each cached load with the routes' fold
    # exactly, so one ulp added to the load of the route a relocation left
    # fails the check that follows the move
    apply = localsearch._apply_relocate

    def nudged(st, k1, *args):
        apply(st, k1, *args)
        st.loads[k1] = math.nextafter(st.loads[k1], math.inf)

    monkeypatch.setattr(localsearch, "_apply_relocate", nudged)
    inst = generate_instance(20, 30, 10, seed=0)
    dist = inst.distances()
    start = solution_from_tasks(inst, dist, [[ti] for ti in range(inst.task_count)])
    with pytest.raises(AssertionError, match="load"):
        local_search(start, inst, dist, make_rng(0, 4),
                     neighbors=neighbors(inst, dist), debug=True)


def test_zero_budget_returns_the_input_untouched():
    # routes of three consecutive tasks, each served backwards: the flip
    # alone improves many of them, and a budget of 0 must not apply it
    inst = generate_instance(20, 30, 10, seed=0)
    dist = inst.distances()
    ids = [inverse_id(forward_id(ti)) for ti in range(inst.task_count)]
    start = Solution.build([ids[i : i + 3] for i in range(0, len(ids), 3)], inst, dist)
    polls = []
    for seed in range(50):
        rng = make_rng(seed)
        out = local_search(start, inst, dist, rng, max_evals=0,
                           deadline=lambda: polls.append(1) or False,
                           neighbors=neighbors(inst, dist), debug=True)
        assert out.routes == start.routes
        assert out.total_cost == start.total_cost
        assert rng.getstate() == make_rng(seed).getstate()
    assert polls == []


def test_reaches_small_optimum_often():
    hits = 0
    for seed in range(10):
        inst = generate_instance(10, 5, 14, seed=seed)
        dist = inst.distances()
        best = brute_force_optimum(inst, dist)
        start = path_scanning(inst, dist, make_rng(seed))
        out = local_search(start, inst, dist, make_rng(seed, 3),
                           neighbors=neighbors(inst, dist), debug=True)
        assert out.total_cost >= best - 1e-9
        hits += out.total_cost == pytest.approx(best)
    assert hits >= 5  # plain descent should already solve most 5-task instances


def test_eval_budget_respected():
    inst = generate_instance(20, 15, 12, seed=1)
    dist = inst.distances()
    start = path_scanning(inst, dist, make_rng(1))
    out = local_search(start, inst, dist, make_rng(2), max_evals=50,
                       neighbors=neighbors(inst, dist))
    assert out.total_cost <= start.total_cost + 1e-9
    assert validate(out, inst) == []


def test_deadline_stops_search():
    inst = generate_instance(20, 15, 12, seed=2)
    dist = inst.distances()
    start = path_scanning(inst, dist, make_rng(1))
    out = local_search(start, inst, dist, make_rng(2), deadline=lambda: True,
                       neighbors=neighbors(inst, dist))
    assert validate(out, inst) == []


def test_determinism_under_seed():
    inst = generate_instance(16, 11, 12, seed=5)
    dist = inst.distances()
    start = path_scanning(inst, dist, make_rng(9))
    a = local_search(start, inst, dist, make_rng(10), neighbors=neighbors(inst, dist))
    b = local_search(start, inst, dist, make_rng(10), neighbors=neighbors(inst, dist))
    assert a.routes == b.routes


def test_subproblem_tasks_untouched():
    """Local search must only rearrange the tasks present in its input."""
    from collections import Counter

    inst = generate_instance(14, 10, 12, seed=3)
    dist = inst.distances()
    full = path_scanning(inst, dist, make_rng(0))
    from routecut import project_solution

    keep = set(range(5))
    sub = project_solution(full, keep, inst, dist)
    out = local_search(sub, inst, dist, make_rng(1), neighbors=neighbors(inst, dist), debug=True)
    assert Counter(out.task_indices()) == Counter(sub.task_indices())
    assert validate(out, inst, required_tasks=keep) == []
