"""Sub-route clustering, virtual tasks, and hierarchical construction."""

import random
import tracemalloc
import warnings
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import (
    DistanceTable,
    build_rank_matrix,
    build_virtual_tasks,
    elementary_virtual_tasks,
    fuzzy_kmedoid,
    hdu,
    rco_split,
    validate,
)
from routecut import decompose
from routecut.decompose import _pairwise_distances, group_task_indices
from routecut.generator import generate_instance
from routecut.instance import forward_id, inverse_id, task_index_of
from routecut.seeding import make_rng

from conftest import make_instance


def _pool_of_singletons(task_indices):
    return [(forward_id(ti),) for ti in task_indices]


def _linked_tasks(values):
    """One task per row of ``values`` and a distance table under which the
    link cost of tasks i and j is ``values[i][j]``: task i runs from vertex
    2i to 2i + 1, and both its endpoints lie ``values[i][j]`` from both of
    task j's."""
    n = len(values)
    edges = [(2 * i, 2 * i + 1, 1, 1, 1) for i in range(n)]
    edges += [(2 * i + 1, 2 * i + 2, 0, 0, 1) for i in range(n - 1)]  # reachability
    instance = make_instance(2 * n, edges, capacity=n)
    return instance, DistanceTable(np.kron(np.array(values, dtype=float), np.ones((2, 2))))


def test_subroute_distance_identity_is_zero():
    links = _linked_tasks([[0, 3], [3, 0]])
    d = _pairwise_distances(_pool_of_singletons([0, 1]), *links)
    assert d[0, 0] == d[1, 1] == 0.0


def test_subroute_distance_single_pair():
    links = _linked_tasks([[0, 3], [3, 0]])
    d = _pairwise_distances(_pool_of_singletons([0, 1]), *links)
    assert d[0, 1] == pytest.approx(3.0)


def test_subroute_distance_hand_mean():
    links = _linked_tasks([[0, 2, 5], [2, 0, 9], [5, 9, 0]])
    a = (forward_id(0),)
    b = (forward_id(1), forward_id(2))
    # mean of delta(0,1)=2 and delta(0,2)=5
    assert _pairwise_distances([a, b], *links)[0, 1] == pytest.approx(3.5)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_subroute_distance_symmetry(seed):
    rng = random.Random(seed)
    inst = generate_instance(12, 8, 16, seed=seed % 13)
    tis = list(range(8))
    rng.shuffle(tis)
    cut = rng.randint(1, 7)
    a = tuple(forward_id(t) for t in tis[:cut])
    b = tuple(forward_id(t) for t in tis[cut:])
    d = _pairwise_distances([a, b], inst, inst.distances())
    assert d[0, 1] == pytest.approx(d[1, 0])
    assert d[0, 1] >= 0.0


def test_single_group_contains_everything():
    links = _linked_tasks([[0, 2, 5], [2, 0, 9], [5, 9, 0]])
    pool = _pool_of_singletons([0, 1, 2])
    groups = fuzzy_kmedoid(pool, 1, 5.0, *links, make_rng(0))
    assert len(groups) == 1
    assert group_task_indices(groups[0]) == {0, 1, 2}


def test_no_groups_rejected():
    # SearchConfig rejects a group_count below 1; a direct call checks its own
    links = _linked_tasks([[0, 2], [2, 0]])
    with pytest.raises(ValueError, match="group_count"):
        fuzzy_kmedoid(_pool_of_singletons([0, 1]), 0, 5.0, *links, make_rng(0))


def _two_clump_matrix():
    # tasks 0-2 mutually close (distance 1), tasks 3-5 mutually close,
    # inter-clump distance 50
    n = 6
    vals = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            vals[i][j] = 1 if (i < 3) == (j < 3) else 50
    return _linked_tasks(vals)


def _best_two_partition(pool, links):
    d = _pairwise_distances(list(pool), *links)
    n = len(pool)
    best, best_val = None, float("inf")
    for size in range(1, n // 2 + 1):
        for left in combinations(range(n), size):
            right = [i for i in range(n) if i not in left]
            val = 0.0
            for side in (left, right):
                for i in side:
                    for j in side:
                        if i < j:
                            val += d[i, j]
            if val < best_val:
                best_val = val
                best = frozenset(left)
    return best


def test_two_separated_clusters_recovered_every_seed():
    links = _two_clump_matrix()
    pool = _pool_of_singletons(range(6))
    oracle = _best_two_partition(pool, links)
    assert oracle in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    for seed in range(20):
        groups = fuzzy_kmedoid(pool, 2, 50.0, *links, make_rng(seed))
        tasks = sorted(tuple(sorted(group_task_indices(g))) for g in groups)
        assert tasks == [(0, 1, 2), (3, 4, 5)]


def test_high_fuzziness_matches_hard_assignment():
    """With a huge exponent the probabilistic assignment concentrates on the
    nearest medoid, so the result must agree with hard nearest-medoid
    clustering run from the same farthest-point initialization.  Distances
    are distinct and well separated so the oracle is unambiguous."""
    n = 6
    within = iter([1, 2, 3, 4, 5, 6])
    between = iter(range(50, 59))
    vals = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vals[i][j] = vals[j][i] = next(within if (i < 3) == (j < 3) else between)
    links = _linked_tasks(vals)
    pool = _pool_of_singletons(range(n))
    members = list(pool)
    d = np.array(vals, dtype=float)

    for seed in range(8):
        groups = fuzzy_kmedoid(pool, 2, 50.0, *links, make_rng(seed))

        rng = make_rng(seed)  # replicate the farthest-point initialization
        medoids = [rng.randrange(n)]
        nearest = d[:, medoids].min(axis=1)
        nearest[medoids] = -1.0
        medoids.append(int(np.argmax(nearest)))
        for _ in range(20):
            assign = np.argmin(d[:, medoids], axis=1)
            new_medoids = []
            for g in range(2):
                idx = np.flatnonzero(assign == g)
                member_sums = d[np.ix_(idx, idx)].sum(axis=1)
                new_medoids.append(int(idx[np.argmin(member_sums)]))
            if new_medoids == medoids:
                break
            medoids = new_medoids
        want = sorted(
            tuple(sorted(int(i) for i in np.flatnonzero(assign == g))) for g in range(2)
        )
        got = sorted(tuple(sorted(members.index(s) for s in g)) for g in groups)
        assert got == want


def test_partition_property_random_pools():
    for seed in range(8):
        inst = generate_instance(14, 9, 14, seed=seed)
        dist = inst.distances()
        ranks = build_rank_matrix(inst, dist)
        from routecut import path_scanning

        sol = path_scanning(inst, dist, make_rng(seed))
        pool = rco_split(sol, ranks, 0.3, 0.6, make_rng(seed, 1))
        g = min(3, len(pool))
        groups = fuzzy_kmedoid(pool, g, 5.0, inst, dist, make_rng(seed, 2))
        assert len(groups) == g
        assert all(groups)
        union = Counter()
        for grp in groups:
            for s in grp:
                union.update(task_index_of(t) for t in s)
        assert union == Counter(sol.task_indices())
        # atomicity: each sub-route appears whole in exactly one group
        assert sum(len(grp) for grp in groups) == len(pool)


def test_pairwise_distances_hold_no_square_cost_matrix():
    # one n x n array of 8-byte link costs would take the peak past 4 bytes
    # a task pair; the distances of a whole-route pool need far less
    inst = generate_instance(600, 1000, 60, seed=1)
    dist = inst.distances()
    from routecut import path_scanning

    solution = path_scanning(inst, dist, make_rng(1))
    pool = solution.routes
    n = inst.task_count
    tracemalloc.start()
    try:
        d = _pairwise_distances(pool, inst, dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n >= 1000 and sum(map(len, pool)) == n
    assert d.shape == (len(pool), len(pool))
    assert peak < 4 * n * n


def test_hdu_holds_no_unit_by_medoid_array():
    # 2500 elementary units and 250 medoids: an m x k stack of int16
    # distances alone is 1.25 MB, and its comparison and cumsum more
    inst = generate_instance(1500, 2500, 60, seed=11)
    dist = inst.distances()
    dist.rows  # built before tracing: every solve shares them
    units = decompose.elementary_virtual_tasks(inst)
    tracemalloc.start()
    try:
        solution = decompose.hdu(units, inst, dist, 0.1, make_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(solution.task_indices()) == list(range(2500))
    assert peak < 3.5e6


def test_one_group_needs_no_distances(monkeypatch):
    links = _linked_tasks([[0, 2], [2, 0]])
    pool = _pool_of_singletons([0, 1])
    monkeypatch.setattr(decompose, "_pairwise_distances", None)  # not called
    rng = make_rng(1)
    state = rng.getstate()
    assert fuzzy_kmedoid(pool, 1, 5.0, *links, rng) == [pool]
    assert rng.getstate() == state


def test_degenerate_pool_reduces_groups():
    # one group per sub-route, silently: the clustering loop passes its
    # configured count however few pieces a cycle's split makes
    links = _linked_tasks([[0, 2], [2, 0]])
    pool = _pool_of_singletons([0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        groups = fuzzy_kmedoid(pool, 5, 5.0, *links, make_rng(1))
    assert len(groups) == 2


# --- virtual tasks ------------------------------------------------------


def test_build_virtual_tasks_keeps_order_and_orientation():
    pool = [(inverse_id(forward_id(2)), forward_id(0)), (forward_id(1),)]
    assert build_virtual_tasks(pool) == [
        (inverse_id(forward_id(2)), forward_id(0)),
        (forward_id(1),),
    ]


def test_elementary_virtual_tasks_are_forward_ids(path_instance):
    units = elementary_virtual_tasks(path_instance)
    assert units == [(forward_id(ti),) for ti in range(path_instance.task_count)]


def test_empty_pool_is_rejected():
    with pytest.raises(ValueError):
        build_virtual_tasks([])


# --- hierarchical construction -------------------------------------------


def test_hdu_single_task(single_task_instance):
    dist = single_task_instance.distances()
    units = elementary_virtual_tasks(single_task_instance)
    sol = hdu(units, single_task_instance, dist, 0.1, make_rng(0))
    assert validate(sol, single_task_instance) == []
    assert sol.route_count == 1


def test_hdu_everything_fits_one_route():
    inst = make_instance(
        4, [(0, 1, 1, 1, 1), (1, 2, 1, 1, 1), (2, 3, 1, 1, 1)], capacity=50
    )
    dist = inst.distances()
    units = elementary_virtual_tasks(inst)
    for seed in range(5):
        sol = hdu(units, inst, dist, 0.4, make_rng(seed))
        assert validate(sol, inst) == []
        assert sol.route_count == 1


def test_hdu_greedy_split_arithmetic():
    # 6 unit-demand tasks, capacity 2 -> exactly 3 routes of load 2, any seed
    edges = [(i, i + 1, 1, 1, 1) for i in range(6)]
    inst = make_instance(7, edges, capacity=2)
    dist = inst.distances()
    units = elementary_virtual_tasks(inst)
    for seed in range(10):
        sol = hdu(units, inst, dist, 0.1, make_rng(seed))
        assert validate(sol, inst) == []
        assert sol.route_count == 3
        assert all(sum(inst.id_demand[t] for t in r) == 2 for r in sol.routes)


def test_hdu_deterministic_under_seed():
    inst = generate_instance(16, 10, 12, seed=2)
    dist = inst.distances()
    units = elementary_virtual_tasks(inst)
    a = hdu(units, inst, dist, 0.1, make_rng(77))
    b = hdu(units, inst, dist, 0.1, make_rng(77))
    assert a.routes == b.routes


def test_hdu_from_split_pool_validates():
    for seed in range(6):
        inst = generate_instance(14, 9, 10, seed=seed)
        dist = inst.distances()
        ranks = build_rank_matrix(inst, dist)
        from routecut import path_scanning

        sol = path_scanning(inst, dist, make_rng(seed))
        pool = rco_split(sol, ranks, 0.5, 0.8, make_rng(seed, 3))
        units = build_virtual_tasks(pool)
        rebuilt = hdu(units, inst, dist, 0.1, make_rng(seed, 4))
        assert validate(rebuilt, inst) == []


def test_hdu_cost_above_sanity_bound():
    inst = generate_instance(14, 8, 16, seed=11)
    dist = inst.distances()
    sol = hdu(elementary_virtual_tasks(inst), inst, dist, 0.1, make_rng(5))
    service = sum(t.service_cost for t in inst.tasks)
    # at least one route must leave and return to the depot
    out_back = min(
        float(dist.matrix[inst.depot, t.u]) + float(dist.matrix[t.v, inst.depot])
        for t in inst.tasks
    )
    assert sol.total_cost >= service + out_back - 1e-9


def test_hdu_rejects_partial_cover(path_instance):
    dist = path_instance.distances()
    units = [(forward_id(0),)]
    with pytest.raises(ValueError, match="cover"):
        hdu(units, path_instance, dist, 0.1, make_rng(0))


# path_instance has two tasks: IDs 1 and 2 are task 0, 3 and 4 task 1
@pytest.mark.parametrize("units", [
    [(0, 3)],  # the depot's ID in place of task 0
    [(1, 5)],  # an ID above 2T
    [(1, 10**9)],
    [(1, -1)],  # negative IDs
    [(-3,), (3,)],
    [(1, 2)],  # both directions of task 0, task 1 missing
    [(1, 3), (2,)],  # task 0 twice
    [(1,), (4,), (1,)],
    [(3,)],  # task 0 missing
    [(0,), (1,), (3,)],  # every task, and the depot's ID besides
])
def test_hdu_rejects_a_cover_that_is_not_exact(path_instance, units):
    dist = path_instance.distances()
    with pytest.raises(ValueError, match="^units must cover all tasks exactly once$"):
        hdu(units, path_instance, dist, 0.1, make_rng(0))


@pytest.mark.parametrize("units, empty", [
    ([(0,), ()], 1),
    ([(), (1, 3)], 0),
    ([(1, 2, 2), (), ()], 1),
])
def test_hdu_reports_an_empty_unit_before_a_bad_cover(path_instance, units, empty):
    dist = path_instance.distances()
    with pytest.raises(ValueError, match=f"^unit {empty} is empty$"):
        hdu(units, path_instance, dist, 0.1, make_rng(0))


def test_hdu_of_no_units_without_tasks_is_empty():
    inst = make_instance(3, [(0, 1, 0, 0, 1), (1, 2, 0, 0, 1)])
    assert inst.task_count == 0
    rng = make_rng(0)
    state = rng.getstate()
    sol = hdu([], inst, inst.distances(), 0.1, rng)
    assert sol.routes == [] and sol.total_cost == 0
    assert rng.getstate() == state
    with pytest.raises(ValueError, match="cover"):
        hdu([(1,)], inst, inst.distances(), 0.1, make_rng(0))


def test_hdu_rejects_an_empty_unit(path_instance):
    # the units cover every task, so only the empty one is wrong
    dist = path_instance.distances()
    units = [(forward_id(0), forward_id(1)), ()]
    with pytest.raises(ValueError, match="unit 1 is empty"):
        hdu(units, path_instance, dist, 0.1, make_rng(0))
    with pytest.raises(ValueError, match="unit 1 is empty"):
        hdu(build_virtual_tasks(units), path_instance, dist, 0.1, make_rng(0))
