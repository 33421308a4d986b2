"""Objective evaluation, feasibility checking, and the solution text format."""

import io
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import (
    Solution,
    min_vehicles,
    read_solution,
    route_cost,
    validate,
)
from routecut.generator import generate_instance
from routecut.instance import forward_id, inverse_id
from routecut.solution import write_solution

from conftest import (
    feasibility_oracle_kinds,
    make_instance,
    small_instances,
    solution_from_tasks,
)


def test_empty_route_costs_zero(single_task_instance):
    dist = single_task_instance.distances()
    assert route_cost([0, 0], single_task_instance, dist) == 0.0


def test_single_edge_route(single_task_instance):
    dist = single_task_instance.distances()
    # serve (v0,v1) forward: depot leg 0, service 1, return leg 1
    assert route_cost([0, 1, 0], single_task_instance, dist) == 2.0


def test_two_task_outbound_route(path_instance):
    dist = path_instance.distances()
    sol = solution_from_tasks(path_instance, dist, [[0, 1]])
    assert sol.total_cost == 4.0


def test_feasible_single_route_empty_report(single_task_instance):
    dist = single_task_instance.distances()
    sol = solution_from_tasks(single_task_instance, dist, [[0]])
    assert validate(sol, single_task_instance) == []


def test_missing_task_reported(path_instance):
    dist = path_instance.distances()
    sol = solution_from_tasks(path_instance, dist, [[0]])
    report = validate(sol, path_instance)
    assert [v.kind for v in report] == ["missing-task"]


def test_duplicate_by_inverse_id(path_instance):
    dist = path_instance.distances()
    sol = Solution.build([[1, 2, 3]], path_instance, dist)  # task 0 both ways
    kinds = {v.kind for v in validate(sol, path_instance)}
    assert kinds == {"duplicate-task"}


def test_capacity_violation_names_route():
    inst = make_instance(3, [(0, 1, 3, 1, 1), (1, 2, 3, 1, 1)], capacity=5)
    dist = inst.distances()
    sol = solution_from_tasks(inst, dist, [[0, 1]])
    report = validate(sol, inst)
    assert len(report) == 1
    assert report[0].kind == "capacity"
    assert report[0].route == 0


def test_interior_depot_reported(path_instance):
    dist = path_instance.distances()
    # ID 0 is the depot, which no route lists: it is an unknown task ID
    sol = Solution([(forward_id(0), 0, forward_id(1))], 0.0)
    report = validate(sol, path_instance)
    assert [(v.kind, v.route) for v in report] == [("unknown-id", 0)]


def test_total_cost_folds_route_costs_left_to_right():
    # ten self-loop tasks at the depot, each served alone at cost 0.1: the
    # left fold gives 0.9999999999999999, where ``sum`` from Python 3.12 on
    # gives 1.0
    inst = make_instance(1, [(0, 0, 1, 0.1, 0.1)] * 10)
    dist = inst.distances()
    routes = [[forward_id(i)] for i in range(10)]
    assert [route_cost(r, inst, dist) for r in routes] == [0.1] * 10
    assert Solution.build(routes, inst, dist).total_cost == 0.9999999999999999


def test_min_vehicles():
    inst = make_instance(
        4, [(0, 1, 3, 1, 1), (1, 2, 3, 1, 1), (2, 3, 3, 1, 1)], capacity=5
    )
    assert min_vehicles(inst) == 2
    single = make_instance(2, [(0, 1, 4, 1, 1)], capacity=5)
    assert min_vehicles(single) == 1


@pytest.mark.parametrize("demands, expected", [((3, 2), 1), ((0, 0), 0), ((0.5, 0), 1)])
def test_min_vehicles_with_infinite_capacity(demands, expected):
    # Instance accepts capacity=inf; a positive demand still needs a vehicle
    inst = make_instance(3, [(0, 1, demands[0], 1, 1), (1, 2, demands[1], 1, 1)],
                         capacity=math.inf)
    assert min_vehicles(inst) == expected


def test_total_cost_at_least_service_sum():
    for seed in range(5):
        inst = generate_instance(10, 6, 20, seed=seed)
        dist = inst.distances()
        sol = solution_from_tasks(inst, dist, [[ti] for ti in range(6)])
        assert sol.total_cost >= sum(t.service_cost for t in inst.tasks)


def test_feasible_solution_respects_vehicle_bound():
    from routecut import path_scanning
    from routecut.seeding import make_rng

    for seed in range(5):
        inst = generate_instance(12, 8, 12, seed=seed)
        sol = path_scanning(inst, inst.distances(), make_rng(seed))
        assert validate(sol, inst) == []
        assert sol.route_count >= min_vehicles(inst)


def test_route_reversal_preserves_cost_and_feasibility():
    for seed in range(5):
        inst = generate_instance(10, 6, 30, seed=seed)
        dist = inst.distances()
        sol = solution_from_tasks(inst, dist, [[0, 1, 2], [3, 4, 5]])
        flipped = Solution.build(
            [[inverse_id(t) for t in reversed(r)] for r in sol.routes], inst, dist
        )
        assert validate(flipped, inst) == []
        assert flipped.total_cost == pytest.approx(sol.total_cost)


def _random_messy_solution(instance, dist, rng: random.Random) -> Solution:
    """Random solutions, frequently infeasible in assorted ways."""
    n = instance.task_count
    ids = []
    for ti in range(n):
        if rng.random() < 0.85:  # sometimes drop a task
            tid = forward_id(ti) + (1 if rng.random() < 0.5 else 0)
            ids.append(tid)
            if rng.random() < 0.15:  # sometimes duplicate, maybe inverted
                ids.append(tid if rng.random() < 0.5 else tid + (1 if tid % 2 else -1))
    rng.shuffle(ids)
    n_routes = rng.randint(1, max(1, n // 2))
    routes = [[] for _ in range(n_routes)]
    for tid in ids:
        routes[rng.randrange(n_routes)].append(tid)
    return Solution.build(routes, instance, dist)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_validate_matches_constraint_transcription(seed):
    rng = random.Random(seed)
    inst = generate_instance(10, rng.randint(2, 8), 9, seed=seed % 17)
    dist = inst.distances()
    sol = _random_messy_solution(inst, dist, rng)
    got = {v.kind for v in validate(sol, inst)}
    want = feasibility_oracle_kinds(sol, inst)
    assert got == want


def test_solution_text_roundtrip():
    for seed in range(6):
        inst = generate_instance(12, 7, 15, seed=seed)
        dist = inst.distances()
        from routecut import path_scanning
        from routecut.seeding import make_rng

        sol = path_scanning(inst, dist, make_rng(seed))
        buf = io.StringIO()
        write_solution(sol, inst, buf)
        buf.seek(0)
        again, stated = read_solution(buf, inst, dist)
        assert stated == pytest.approx(sol.total_cost)
        assert again.total_cost == pytest.approx(sol.total_cost)
        assert validate(again, inst) == []


def test_roundtrip_with_parallel_tasks():
    inst = make_instance(2, [(0, 1, 1, 2, 2), (0, 1, 1, 7, 7)], capacity=10)
    dist = inst.distances()
    sol = solution_from_tasks(inst, dist, [[0, 1]])
    buf = io.StringIO()
    write_solution(sol, inst, buf)
    buf.seek(0)
    again, _ = read_solution(buf, inst, dist)
    assert again.total_cost == pytest.approx(sol.total_cost)
    assert validate(again, inst) == []


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.randoms(use_true_random=False))
def test_solution_text_round_trip_on_drawn_instances(inst, rnd):
    dist = inst.distances()
    ids = [forward_id(ti) for ti in range(inst.task_count)]
    ids = [inverse_id(f) if rnd.random() < 0.5 else f for f in ids]
    # a reverse and a forward ID, both v1 -> v0 on the parallel pair
    ids[0], ids[1] = inverse_id(forward_id(0)), forward_id(1)
    rnd.shuffle(ids)
    routes = [[] for _ in range(rnd.randint(1, len(ids)))]
    for t in ids:
        routes[rnd.randrange(len(routes))].append(t)
    sol = Solution.build(routes, inst, dist)
    buf = io.StringIO()
    write_solution(sol, inst, buf)
    buf.seek(0)
    again, stated = read_solution(buf, inst, dist)
    assert again.total_cost == stated == sol.total_cost


@pytest.mark.parametrize("text, bad_line", [
    ("cost\n", "cost"),
    ("costly\n", "costly"),
    ("cost four\n", "cost four"),
    ("cost 4\nroute 1 (1,2)\n", "route 1 (1,2)"),
    # a route line is `route <k>:` and (u,v) pairs, nothing else
    ("cost 4\nroute 1: (1,2) (2,3) junk (9\n", "route 1: (1,2) (2,3) junk (9"),
    ("cost 0\nroute 2: hello\n", "route 2: hello"),
    ("cost 4\nroutes 1: (1,2) (2,3)\n", "routes 1: (1,2) (2,3)"),
    ("cost 4\nroute: (1,2) (2,3)\n", "route: (1,2) (2,3)"),
])
def test_read_solution_names_a_malformed_line(path_instance, text, bad_line):
    with pytest.raises(ValueError, match=re.escape(repr(bad_line))):
        read_solution(io.StringIO(text), path_instance, path_instance.distances())


def test_read_solution_accepts_pairs_and_whitespace_only(path_instance):
    dist = path_instance.distances()
    text = "cost 4\nroute 1:(1,2)( 2 , 3 )  \nroute 2:\n"
    sol, stated = read_solution(io.StringIO(text), path_instance, dist)
    # a route line with no pairs is dropped: routes are never empty
    assert [len(r) for r in sol.routes] == [2]
    assert sol.route_count == 1
    assert sol.total_cost == stated == 4
    out = io.StringIO()
    write_solution(sol, path_instance, out)
    assert out.getvalue() == "cost 4\nroute 1: (1,2) (2,3)\n"


def test_read_solution_rejects_garbage(path_instance):
    dist = path_instance.distances()
    with pytest.raises(ValueError, match="cost"):
        read_solution(io.StringIO("hello\n"), path_instance, dist)
    with pytest.raises(ValueError, match="endpoints"):
        read_solution(io.StringIO("cost 4\nroute 1: (1,3)\n"), path_instance, dist)
    with pytest.raises(ValueError, match="unexpected"):
        read_solution(io.StringIO("cost 4\nwat\n"), path_instance, dist)


def test_read_solution_rejects_reused_task(path_instance):
    dist = path_instance.distances()
    text = "cost 8\nroute 1: (1,2) (2,1)\n"
    with pytest.raises(ValueError, match="endpoints"):
        read_solution(io.StringIO(text), path_instance, dist)
