"""The numpy `hdu` level loop, `RankMatrix.nearest`, `neighbor_lists`,
`rank_rows`, `path_scanning` and `_pairwise_distances` against the
versions they replaced, kept here as references.

Each must reproduce its reference exactly: the same routes, the same
neighbour lists, the same rank values and dtype, the same distance matrix
and, where the RNG is drawn, the same number and order of draws (compared
through ``rng.getstate()``).  The instances are built to be tie-heavy:
parallel required edges, zero deadheading costs and therefore off-diagonal
zero link numerators, plus float demands whose sums land on or just past
the capacity.
"""

import math
import random

import numpy as np
import pytest

from routecut import (
    RankMatrix,
    RcoParams,
    build_rank_matrix,
    elementary_virtual_tasks,
    hdu,
    path_scanning,
    rco_split,
    subroute_distance,
)
from routecut.decompose import (
    _chain_cluster,
    _pairwise_distances,
    _pick_min,
    virtual_task_from_ids,
)
from routecut.generator import generate_instance
from routecut.instance import forward_id, inverse_id
from routecut.localsearch import neighbor_lists
from routecut.ranking import _RANK_BLOCK, rank_rows
from routecut.rco import SubRoute
from routecut.seeding import make_rng
from routecut.solution import Solution

from conftest import make_instance

SCALES = (0.1, 0.5, 0.9)


def _neighbor_sizes(n):
    """Every k the top-k selection treats apart: none, one, a few, the
    usual 20, all other tasks and more than there are."""
    return sorted({0, 1, 3, 20, max(n - 1, 0), n + 5})


# --- references: the code the numpy versions replaced ----------------------


def _endpoint_distance(a, b, rows):
    ra = rows[a.head]
    rb = rows[a.tail]
    return min(ra[b.head], ra[b.tail], rb[b.head], rb[b.tail])


def reference_hdu(units, instance, dist, scale, rng):
    rows = dist.rows
    while len(units) > 1:
        m = len(units)
        k = max(1, min(math.ceil(scale * m), m - 1))
        medoids = [rng.randrange(m)]
        nearest = [_endpoint_distance(u, units[medoids[0]], rows) for u in units]
        while len(medoids) < k:
            nearest_masked = [-1.0 if i in medoids else nearest[i] for i in range(m)]
            far = int(np.argmax(nearest_masked))
            medoids.append(far)
            for i in range(m):
                d = _endpoint_distance(units[i], units[far], rows)
                if d < nearest[i]:
                    nearest[i] = d

        clusters = [[] for _ in range(k)]
        for u in units:
            dists = [_endpoint_distance(u, units[mi], rows) for mi in medoids]
            clusters[_pick_min(dists, rng)].append(u)

        units = [
            virtual_task_from_ids(_chain_cluster(cluster, rows, rng), instance, dist)
            for cluster in clusters
            if cluster
        ]

    giant = units[0].ids
    demand = instance.id_demand
    interiors, current, load = [], [], 0.0
    for t in giant:
        if current and load + demand[t] > instance.capacity:
            interiors.append(current)
            current, load = [], 0.0
        current.append(t)
        load += demand[t]
    if current:
        interiors.append(current)
    return Solution.build(interiors, instance, dist)


def reference_nearest(ranks, k):
    n = ranks.task_count
    k = min(k, n - 1)
    order = np.argsort(ranks.numerators, axis=1, kind="stable")
    out = []
    for i in range(n):
        row = [int(j) for j in order[i] if j != i]
        out.append(row[:k])
    return out


def reference_neighbor_lists(instance, dist, size):
    n = instance.task_count
    if n <= 1:
        return [[] for _ in range(n)]
    heads = np.array([t.u for t in instance.tasks])
    tails = np.array([t.v for t in instance.tasks])
    m = dist.matrix
    num = (
        m[np.ix_(heads, heads)]
        + m[np.ix_(heads, tails)]
        + m[np.ix_(tails, heads)]
        + m[np.ix_(tails, tails)]
    )
    np.fill_diagonal(num, np.inf)
    order = np.argsort(num, axis=1, kind="stable")[:, : min(size, n - 1)]
    return [[int(j) for j in row] for row in order]


def reference_rank_rows(costs):
    n = costs.shape[0]
    dtype = np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32
    ranks = np.zeros((n, n), dtype=dtype)
    idx = np.arange(n)
    for i in range(n):
        row = costs[i]
        others = np.sort(row[idx != i])
        r = np.searchsorted(others, row, side="left") + 1
        r[i] = 0
        ranks[i] = r
    return ranks


def reference_path_scanning(instance, dist, rng):
    rows = dist.rows
    head = instance.id_head
    tail = instance.id_tail
    unserved = set(range(instance.task_count))
    interiors = []
    while unserved:
        current = instance.depot
        load = 0.0
        interior = []
        while True:
            row = rows[current]
            best_d = None
            best_ids = []
            for ti in unserved:
                task = instance.tasks[ti]
                if load + task.demand > instance.capacity:
                    continue
                for tid in (task.forward_id, task.reverse_id):
                    d = row[head[tid]]
                    if best_d is None or d < best_d:
                        best_d = d
                        best_ids = [tid]
                    elif d == best_d:
                        best_ids.append(tid)
            if best_d is None:
                break
            tid = best_ids[0] if len(best_ids) == 1 else best_ids[rng.randrange(len(best_ids))]
            interior.append(tid)
            load += instance.id_demand[tid]
            current = tail[tid]
            unserved.remove((tid - 1) >> 1)
        interiors.append(interior)
    return Solution.build(interiors, instance, dist)


def reference_pairwise_distances(pool, ranks):
    n = len(pool)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = subroute_distance(pool[i], pool[j], ranks)
    return d


# --- tie-heavy instances -----------------------------------------------------


def _tie_heavy_instance(seed):
    rng = random.Random(seed)
    vertices = rng.randint(2, 6)
    pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    edges = []
    # a spanning path keeps every vertex reachable from the depot
    for u in range(vertices - 1):
        edges.append((u, u + 1, rng.randint(0, 2), 1, rng.choice((0, 0, 1, 2))))
    for _ in range(rng.randint(1, 10)):
        u, v = rng.choice(pairs)
        edges.append((u, v, rng.randint(1, 3), rng.randint(0, 2), rng.choice((0, 1))))
    if all(e[2] == 0 for e in edges):
        edges[0] = (*edges[0][:2], 1, *edges[0][3:])
    return make_instance(vertices, edges, capacity=rng.randint(3, 6))


def _random_units(instance, dist, rng):
    """Cover every task once with multi-task units of random orientation."""
    ids = [forward_id(ti) for ti in range(instance.task_count)]
    ids = [inverse_id(t) if rng.random() < 0.5 else t for t in ids]
    rng.shuffle(ids)
    units = []
    while ids:
        size = rng.randint(1, 3)
        units.append(virtual_task_from_ids(tuple(ids[:size]), instance, dist))
        ids = ids[size:]
    return units


def _assert_hdu_matches(units, instance, dist, scale, seed):
    ref_rng = make_rng(seed)
    new_rng = make_rng(seed)
    expected = reference_hdu(list(units), instance, dist, scale, ref_rng)
    got = hdu(list(units), instance, dist, scale, new_rng)
    assert [r.ids for r in got.routes] == [r.ids for r in expected.routes]
    assert got.total_cost == expected.total_cost
    assert new_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", range(100))
def test_hdu_matches_reference_on_tie_heavy_instances(seed):
    instance = _tie_heavy_instance(seed)
    dist = instance.distances()
    elementary = elementary_virtual_tasks(instance, dist)
    grouped = _random_units(instance, dist, random.Random(seed))
    for scale in SCALES:
        _assert_hdu_matches(elementary, instance, dist, scale, seed)
        _assert_hdu_matches(grouped, instance, dist, scale, seed + 1)


@pytest.mark.parametrize("seed", range(100))
def test_nearest_matches_reference_on_tie_heavy_instances(seed):
    instance = _tie_heavy_instance(seed)
    if instance.task_count < 2:
        pytest.skip("a rank matrix needs two tasks")
    ranks = build_rank_matrix(instance, instance.distances())
    for k in _neighbor_sizes(instance.task_count):
        assert ranks.nearest(k) == reference_nearest(ranks, k)


def _assert_same_ranks(got, expected):
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("seed", range(100))
def test_rank_rows_and_neighbor_lists_match_reference_on_tie_heavy_instances(seed):
    instance = _tie_heavy_instance(seed)
    dist = instance.distances()
    for k in _neighbor_sizes(instance.task_count):
        assert neighbor_lists(instance, dist, k) == reference_neighbor_lists(instance, dist, k)
    if instance.task_count >= 2:
        num = build_rank_matrix(instance, dist).numerators
        _assert_same_ranks(rank_rows(num), reference_rank_rows(num))


def test_tie_heavy_instances_are_tie_heavy():
    # the generator must actually produce the ties the comparisons rely on
    zero_links = parallel = 0
    for seed in range(100):
        instance = _tie_heavy_instance(seed)
        ends = [tuple(sorted((t.u, t.v))) for t in instance.tasks]
        parallel += len(ends) > len(set(ends))
        if instance.task_count >= 2:
            num = build_rank_matrix(instance, instance.distances()).numerators
            zero_links += bool(np.any(num[~np.eye(len(num), dtype=bool)] == 0))
    assert parallel >= 50
    assert zero_links >= 50


@pytest.mark.parametrize("seed", range(20))
def test_nearest_matches_reference_on_random_numerators(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    num = rng.integers(0, 4, size=(n, n))
    np.fill_diagonal(num, 0)
    ranks = RankMatrix(num, np.zeros((n, n), dtype=np.uint16))
    for k in _neighbor_sizes(n):
        assert ranks.nearest(k) == reference_nearest(ranks, k)


def _random_matrix(n, kind, rng):
    """A square matrix of ints 0..3, of multiples of 0.1 (0.1 + 0.2 next
    to 0.3) or of distinct random floats.  The diagonal is drawn like the
    rest, so it is cheaper than, equal to or dearer than the other entries
    of its row."""
    if kind == "int":
        return rng.integers(0, 4, size=(n, n))
    if kind == "tenths":
        return rng.choice([0.0, 0.1, 0.2, 0.1 + 0.2, 0.3], size=(n, n))
    return rng.random((n, n))


# a single row, one row short of a block, a block, one row over, and a
# partial third block
BLOCK_SIZES = (1, _RANK_BLOCK - 1, _RANK_BLOCK, _RANK_BLOCK + 1, 2 * _RANK_BLOCK + 3)


@pytest.mark.parametrize("kind", ["int", "tenths", "float"])
@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("seed", range(4))
def test_ranking_matches_reference_on_random_matrices(seed, n, kind):
    num = _random_matrix(n, kind, np.random.default_rng([seed, n]))
    _assert_same_ranks(rank_rows(num), reference_rank_rows(num))
    ranks = RankMatrix(num, reference_rank_rows(num))
    for k in _neighbor_sizes(n):
        assert ranks.nearest(k) == reference_nearest(ranks, k)


def test_nearest_edge_cases():
    empty = RankMatrix(np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.uint16))
    assert empty.nearest(3) == reference_nearest(empty, 3) == []
    ranks = RankMatrix(np.zeros((3, 3), dtype=np.int64), np.zeros((3, 3), dtype=np.uint16))
    with pytest.raises(ValueError, match="non-negative"):
        ranks.nearest(-1)


@pytest.fixture(scope="module")
def mid_instance():
    instance = generate_instance(500, 800, 60, seed=1)
    dist = instance.distances()
    return instance, dist, build_rank_matrix(instance, dist)


def test_matches_reference_on_a_generated_mid_size_instance(mid_instance):
    instance, dist, ranks = mid_instance
    _assert_hdu_matches(elementary_virtual_tasks(instance, dist), instance, dist, 0.1, 3)
    assert ranks.nearest(20) == reference_nearest(ranks, 20)


def test_ranking_matches_reference_on_a_generated_mid_size_instance(mid_instance):
    instance, dist, ranks = mid_instance
    _assert_same_ranks(ranks.ranks, reference_rank_rows(ranks.numerators))
    n = instance.task_count
    for k in _neighbor_sizes(n):
        assert ranks.nearest(k) == reference_nearest(ranks, k)
    for k in (1, 20):
        assert neighbor_lists(instance, dist, k) == reference_neighbor_lists(instance, dist, k)


# --- path_scanning and _pairwise_distances -----------------------------------


def _float_demand_instance(seed):
    """The tie-heavy graph with float demands: sums such as 0.2 + 0.5 land
    on a capacity of 0.7, and 0.1 + 0.2 overshoots 0.3 in floating point."""
    rng = random.Random(seed)
    capacity = rng.choice((0.3, 0.6, 0.7, 1.0))
    demands = [d for d in (0.1, 0.2, 0.3, 0.4, 0.5) if d <= capacity]
    base = _tie_heavy_instance(seed)
    edges = [
        (e.u, e.v, rng.choice(demands) if e.required else 0, e.service_cost,
         e.deadheading_cost)
        for e in base.edges
    ]
    return make_instance(base.vertex_count, edges, capacity=capacity)


def _assert_path_scanning_matches(instance, dist, seed):
    ref_rng = make_rng(seed)
    new_rng = make_rng(seed)
    expected = reference_path_scanning(instance, dist, ref_rng)
    got = path_scanning(instance, dist, new_rng)
    assert [r.ids for r in got.routes] == [r.ids for r in expected.routes]
    assert got.total_cost == expected.total_cost
    assert new_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", range(100))
def test_path_scanning_matches_reference_on_tie_heavy_instances(seed):
    for instance in (_tie_heavy_instance(seed), _float_demand_instance(seed)):
        dist = instance.distances()
        for draw in range(3):
            _assert_path_scanning_matches(instance, dist, 3 * seed + draw)


def test_path_scanning_instances_exercise_ties_and_full_routes():
    draws = full = 0
    for seed in range(100):
        for instance in (_tie_heavy_instance(seed), _float_demand_instance(seed)):
            rng = make_rng(seed)
            solution = path_scanning(instance, instance.distances(), rng)
            draws += rng.getstate() != make_rng(seed).getstate()
            full += any(
                sum(instance.id_demand[t] for t in r.interior) == instance.capacity
                for r in solution.routes
            )
    assert draws >= 50
    assert full >= 50


@pytest.mark.parametrize("first, second, capacity", [(2, 3, 5), (0.2, 0.5, 0.7)])
def test_path_scanning_fit_test_is_load_plus_demand(first, second, capacity):
    # the load lands exactly on the capacity, so both tasks share one route;
    # for floats 0.2 + 0.5 <= 0.7 holds while 0.5 <= 0.7 - 0.2 does not
    edges = [(0, 1, first, 1, 1), (1, 2, second, 1, 1)]
    instance = make_instance(3, edges, capacity=capacity)
    dist = instance.distances()
    expected = reference_path_scanning(instance, dist, make_rng(0))
    assert expected.route_count == 1
    _assert_path_scanning_matches(instance, dist, 0)


def test_path_scanning_matches_reference_on_a_generated_mid_size_instance(mid_instance):
    instance, dist, _ = mid_instance
    for seed in range(2):
        _assert_path_scanning_matches(instance, dist, seed)


def _random_subroutes(task_count, rng):
    ids = [forward_id(ti) for ti in range(task_count)]
    ids = [inverse_id(t) if rng.random() < 0.5 else t for t in ids]
    rng.shuffle(ids)
    pool = []
    while ids:
        size = rng.randint(1, 4)
        pool.append(SubRoute(tuple(ids[:size]), len(pool), 0))
        ids = ids[size:]
    return pool


def _assert_pairwise_matches(pool, ranks):
    got = _pairwise_distances(pool, ranks)
    assert np.array_equal(got, reference_pairwise_distances(pool, ranks))
    for i in range(len(pool)):
        for j in range(len(pool)):
            assert got[i, j] == subroute_distance(pool[i], pool[j], ranks)


@pytest.mark.parametrize(
    # a rank matrix needs two tasks
    "seed", [s for s in range(100) if _tie_heavy_instance(s).task_count >= 2]
)
def test_pairwise_distances_match_reference_on_tie_heavy_instances(seed):
    instance = _tie_heavy_instance(seed)
    dist = instance.distances()
    ranks = build_rank_matrix(instance, dist)
    assert np.issubdtype(ranks.numerators.dtype, np.integer)
    rng = make_rng(seed)
    solution = path_scanning(instance, dist, rng)
    for params in (RcoParams(0.0, 0.0), RcoParams(0.5, 0.5), RcoParams(1.0, 1.0)):
        _assert_pairwise_matches(list(rco_split(solution, ranks, params, rng)), ranks)
    _assert_pairwise_matches(_random_subroutes(instance.task_count, rng), ranks)


@pytest.mark.parametrize("seed", range(10))
def test_pairwise_distances_close_to_reference_on_float_numerators(seed):
    # float block sums run in another order than np.mean's: equal up to rounding
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    num = rng.random((n, n)) * 10
    num += num.T  # link numerators are symmetric
    np.fill_diagonal(num, 0)
    ranks = RankMatrix(num, np.zeros((n, n), dtype=np.uint16))
    pool = _random_subroutes(n, random.Random(seed))
    got = _pairwise_distances(pool, ranks)
    np.testing.assert_allclose(got, reference_pairwise_distances(pool, ranks), rtol=1e-12)
    assert np.array_equal(got, got.T)


def test_pairwise_distances_match_reference_on_a_generated_mid_size_instance(mid_instance):
    instance, dist, ranks = mid_instance
    rng = make_rng(5)
    pool = list(rco_split(path_scanning(instance, dist, rng), ranks, RcoParams(), rng))
    assert len(pool) > 100
    _assert_pairwise_matches(pool, ranks)
