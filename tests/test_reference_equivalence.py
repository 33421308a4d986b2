"""The numpy `hdu` level loop and `RankMatrix.nearest` against the
pure-Python versions they replaced, kept here as references.

Both must reproduce the references exactly: the same routes, the same
neighbour lists and, for `hdu`, the same number and order of RNG draws
(compared through ``rng.getstate()``).  The instances are built to be
tie-heavy: parallel required edges, zero deadheading costs and therefore
off-diagonal zero link numerators.
"""

import math
import random

import numpy as np
import pytest

from routecut import RankMatrix, build_rank_matrix, elementary_virtual_tasks, hdu
from routecut.decompose import _chain_cluster, _pick_min, virtual_task_from_ids
from routecut.generator import generate_instance
from routecut.instance import forward_id, inverse_id
from routecut.seeding import make_rng
from routecut.solution import Solution

from conftest import make_instance

SCALES = (0.1, 0.5, 0.9)
NEIGHBOR_SIZES = (1, 3, 20)


# --- references: the pure-Python code the numpy versions replaced ----------


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
    for k in NEIGHBOR_SIZES:
        assert ranks.nearest(k) == reference_nearest(ranks, k)


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
    for k in (0, *NEIGHBOR_SIZES, n - 1, n + 5):
        assert ranks.nearest(k) == reference_nearest(ranks, k)


def test_nearest_edge_cases():
    empty = RankMatrix(np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.uint16))
    assert empty.nearest(3) == reference_nearest(empty, 3) == []
    ranks = RankMatrix(np.zeros((3, 3), dtype=np.int64), np.zeros((3, 3), dtype=np.uint16))
    with pytest.raises(ValueError, match="non-negative"):
        ranks.nearest(-1)


def test_matches_reference_on_a_generated_mid_size_instance():
    instance = generate_instance(500, 800, 60, seed=1)
    dist = instance.distances()
    _assert_hdu_matches(elementary_virtual_tasks(instance, dist), instance, dist, 0.1, 3)
    ranks = build_rank_matrix(instance, dist)
    assert ranks.nearest(20) == reference_nearest(ranks, 20)
