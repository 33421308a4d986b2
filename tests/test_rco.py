"""Route cutting operator: golden example, properties, calibration."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import (
    average_task_rank,
    classify_links,
    rco_split,
    uniform_split,
)
from routecut.generator import generate_instance
from routecut.instance import task_index_of
from routecut.seeding import make_rng
from routecut import path_scanning

from conftest import (
    TASK_A,
    TASK_B,
    TASK_C,
    TASK_D,
    TASK_E,
    TASK_F,
    TASK_G,
    TASK_H,
    route_link_ranks,
    solution_from_tasks,
    split_walk,
)

# Three-route solution over the golden tasks: links and ranks
#   route 1: A-D (7), D-E (1)   route 2: B-G (5), G-F (1)   route 3: C-H (1)
GOLDEN_ROUTES = [
    [TASK_A, TASK_D, TASK_E],
    [TASK_B, TASK_G, TASK_F],
    [TASK_C, TASK_H],
]


@pytest.fixture
def golden_solution(golden_instance, golden_ranks):
    dist = golden_instance.distances()
    return solution_from_tasks(golden_instance, dist, GOLDEN_ROUTES)


def test_golden_average_rank_is_three(golden_solution, golden_ranks):
    assert average_task_rank(route_link_ranks(golden_solution, golden_ranks)) == pytest.approx(3.0)


def test_golden_good_poor_partition(golden_solution, golden_ranks):
    avg = average_task_rank(route_link_ranks(golden_solution, golden_ranks))
    parts = [classify_links(links, avg) for links in route_link_ranks(golden_solution, golden_ranks)]
    # positions: route link i joins the route's tasks i and i+1
    assert parts[0] == ([1], [0])  # good: <D,E>; poor: <A,D>
    assert parts[1] == ([1], [0])  # good: <G,F>; poor: <B,G>
    assert parts[2] == ([0], [])   # good: <C,H>
    n_good = sum(len(g) for g, _ in parts)
    n_poor = sum(len(p) for _, p in parts)
    assert (n_good, n_poor) == (3, 2)


def test_rank_equal_to_average_is_poor(golden_instance, golden_ranks):
    dist = golden_instance.distances()
    # single route with links C-H (rank 1) and H-D (rank 7): average 4
    sol = solution_from_tasks(golden_instance, dist, [[TASK_C, TASK_H, TASK_D]])
    avg = average_task_rank(route_link_ranks(sol, golden_ranks))
    assert avg == pytest.approx(4.0)
    # make a route whose only link has rank exactly 4: H then F
    sol2 = solution_from_tasks(golden_instance, dist, [[TASK_H, TASK_F]])
    good, poor = classify_links(route_link_ranks(sol2, golden_ranks)[0], 4.0)
    assert good == [] and poor == [0]


def test_single_task_routes_have_no_links(golden_instance, golden_ranks):
    dist = golden_instance.distances()
    sol = solution_from_tasks(golden_instance, dist, [[ti] for ti in range(8)])
    assert average_task_rank(route_link_ranks(sol, golden_ranks)) == 0.0
    good, poor = classify_links(route_link_ranks(sol, golden_ranks)[0], 0.0)
    assert good == poor == []


def test_single_link_average_is_its_rank(golden_instance, golden_ranks):
    dist = golden_instance.distances()
    sol = solution_from_tasks(golden_instance, dist, [[TASK_A, TASK_D]])
    assert average_task_rank(route_link_ranks(sol, golden_ranks)) == pytest.approx(7.0)


def test_zero_probabilities_yield_whole_routes(golden_solution, golden_ranks):
    pool = rco_split(golden_solution, golden_ranks, 0.0, 0.0, make_rng(1))
    assert pool == golden_solution.routes


def test_single_cut_splits_in_two(golden_instance, golden_ranks):
    dist = golden_instance.distances()
    sol = solution_from_tasks(golden_instance, dist, [[TASK_A, TASK_D, TASK_E]])
    # theta=1 forces the poor cut at <A,D> (the only poor link, position 0)
    pool = rco_split(sol, golden_ranks, 0.0, 1.0, make_rng(3))
    route = sol.routes[0]
    assert pool == [route[:1], route[1:]]


def test_both_cuts_give_three_subroutes(golden_solution, golden_ranks):
    pool = rco_split(golden_solution, golden_ranks, 1.0, 1.0, make_rng(7))
    # routes 1 and 2 have one good and one poor link each -> 3 pieces;
    # route 3 has only a good link -> 2 pieces
    assert [len(cut) for cut in split_walk(pool, golden_solution)] == [3, 3, 2]


def _random_solution(seed):
    inst = generate_instance(14, random.Random(seed).randint(4, 10), 12, seed=seed % 23)
    dist = inst.distances()
    from routecut import build_rank_matrix

    sol = path_scanning(inst, dist, make_rng(seed))
    return inst, sol, build_rank_matrix(inst, dist)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0, 1), st.floats(0, 1))
def test_split_conservation_and_slices(seed, lam, theta):
    inst, sol, ranks = _random_solution(seed)
    pool = rco_split(sol, ranks, lam, theta, make_rng(seed, 1))

    # task conservation
    assert Counter(task_index_of(t) for s in pool for t in s) == Counter(sol.task_indices())

    # slice property: the pieces, in route order, concatenate back to the
    # routes (split_walk checks it), at most 3 pieces per non-empty route
    for route, cut in zip(sol.routes, split_walk(pool, sol)):
        assert 1 <= len(cut) <= 3 if route else cut == []


def test_split_determinism(golden_solution, golden_ranks):
    a = rco_split(golden_solution, golden_ranks, 0.5, 0.5, make_rng(99))
    b = rco_split(golden_solution, golden_ranks, 0.5, 0.5, make_rng(99))
    assert a == b
    assert split_walk(a, golden_solution) == split_walk(b, golden_solution)


def test_uniform_split_always_two_pieces(golden_solution):
    pool = uniform_split(golden_solution, make_rng(5))
    assert [len(cut) for cut in split_walk(pool, golden_solution)] == [2, 2, 2]
    want = Counter(golden_solution.task_indices())
    assert Counter(task_index_of(t) for s in pool for t in s) == want


def test_cut_rates_match_probabilities(golden_instance, golden_ranks):
    """Over many trials the per-route cut frequencies approach lam/theta and
    the cut link is uniform within its class."""
    dist = golden_instance.distances()
    sol = solution_from_tasks(
        golden_instance, dist, [[TASK_A, TASK_D, TASK_E, TASK_C, TASK_H]]
    )
    avg = average_task_rank(route_link_ranks(sol, golden_ranks))  # (7+1+2+1)/4 = 2.75
    good, poor = classify_links(route_link_ranks(sol, golden_ranks)[0], avg)
    assert len(good) == 3 and len(poor) == 1

    lam, theta = 0.4, 0.6
    rng = make_rng(1234)
    trials = 10_000
    good_cuts = Counter()
    poor_cuts = 0
    for _ in range(trials):
        pool = rco_split(sol, golden_ranks, lam, theta, rng)
        (cut,) = split_walk(pool, sol)
        cuts = [at - 1 for at, _ in cut[1:]]
        for c in cuts:
            if c in good:
                good_cuts[c] += 1
            else:
                poor_cuts += 1
    good_rate = sum(good_cuts.values()) / trials
    poor_rate = poor_cuts / trials
    assert abs(good_rate - lam) < 0.02
    assert abs(poor_rate - theta) < 0.02
    # uniform conditional choice among the three good links
    expected = sum(good_cuts.values()) / 3
    for c in good:
        assert abs(good_cuts[c] - expected) <= 4 * (expected ** 0.5) + 1
