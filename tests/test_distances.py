"""Shortest-path table invariants against a Bellman-Ford oracle."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import Edge, Instance, Solution
from routecut.distances import _EXACT_INT, DistanceTable
from routecut.generator import generate_instance
from routecut.instance import forward_id
from routecut.ranking import link_numerators

from conftest import bellman_ford_all_pairs, make_instance


def test_depot_self_distance_zero():
    inst = make_instance(3, [(0, 1, 1, 1, 1), (1, 2, 1, 1, 1)])
    dist = inst.distances()
    for v in range(3):
        assert float(dist.matrix[v, v]) == 0.0


def test_triangle_shortcut():
    # direct edge (0,2) costs 5; the detour through 1 costs 2
    inst = make_instance(
        3, [(0, 1, 1, 1, 1), (1, 2, 1, 1, 1), (0, 2, 1, 5, 5)], capacity=10
    )
    assert float(inst.distances().matrix[0, 2]) == 2.0


def test_path_graph():
    inst = make_instance(3, [(0, 1, 1, 1, 1), (1, 2, 1, 1, 1)])
    assert float(inst.distances().matrix[0, 2]) == 2.0


def test_zero_cost_edge_is_an_edge():
    inst = make_instance(3, [(0, 1, 1, 1, 0), (1, 2, 1, 1, 4)])
    d = inst.distances()
    assert float(d.matrix[0, 1]) == 0.0
    assert float(d.matrix[0, 2]) == 4.0


def test_parallel_edges_take_cheapest():
    inst = make_instance(2, [(0, 1, 1, 9, 9), (0, 1, 2, 2, 2)], capacity=10)
    assert float(inst.distances().matrix[0, 1]) == 2.0


def test_unreachable_nontask_vertex_is_infinite():
    inst = make_instance(3, [(0, 1, 1, 1, 1)], capacity=10)
    d = inst.distances()
    assert math.isinf(float(d.matrix[0, 2]))


def _entry_types(rows):
    return {type(x) for row in rows for x in row}


def _total_cost_of_one_route(inst):
    ids = [forward_id(ti) for ti in range(inst.task_count)]
    return Solution.build([ids], inst, inst.distances()).total_cost


def test_rows_of_integer_costs_are_ints():
    inst = make_instance(
        4, [(0, 1, 1, 2, 3), (1, 2, 1, 1, 1), (2, 3, 1, 5, 4), (0, 3, 0, 0, 9)], capacity=10
    )
    assert _entry_types(inst.distances().rows) == {int}
    total = _total_cost_of_one_route(inst)
    # services 2, 1 and 5, and back from v3 to the depot through v2 and v1
    assert type(total) is float and total == 2 + 1 + 5 + (4 + 1 + 3)


@pytest.mark.parametrize("edges, vertices", [
    ([(0, 1, 1, 1, 0.5), (1, 2, 1, 1, 1.25)], 3),  # fractional costs
    ([(0, 1, 1, 1, 1)], 3),  # vertex 2 unreachable: inf in the table
    ([(0, 1, 1, 1, 1), (1, 2, 1, 1, 2 * _EXACT_INT)], 3),  # too large to stay exact
])
def test_rows_of_other_costs_are_floats_without_warnings(edges, vertices):
    inst = make_instance(vertices, edges, capacity=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = inst.distances().rows
        total = _total_cost_of_one_route(inst)
    assert _entry_types(rows) == {float}
    assert type(total) is float


def _random_connected_instance(rng: random.Random, n: int) -> Instance:
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append(Edge(u, v, 1, 1, rng.randint(0, 9)))
    for _ in range(rng.randrange(2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append(Edge(u, v, 0, 0, rng.randint(0, 9)))
    return Instance("rand", n, edges, 0, 100)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_matches_bellman_ford_oracle(seed, n):
    inst = _random_connected_instance(random.Random(seed), n)
    got = inst.distances().matrix
    want = bellman_ford_all_pairs(inst)
    assert np.allclose(got, np.array(want))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_table_invariants(seed, n):
    inst = _random_connected_instance(random.Random(seed), n)
    m = inst.distances().matrix
    assert np.all(np.diag(m) == 0.0)
    assert np.array_equal(m, m.T)
    # triangle inequality over all vertex triples
    for k in range(n):
        via = m[:, k][:, None] + m[k, :][None, :]
        assert np.all(m <= via + 1e-9)


# the largest entry of a table and the type it is stored in: the narrowest
# signed int that holds four times the entry, or float64 unless it is
# finite, integral and at most _EXACT_INT (in magnitude: -8193 too)
TABLE_TYPES = [
    (0, np.int16), (8191, np.int16), (8192, np.int32), (-8193, np.int32),
    (2**29 - 1, np.int32), (2**29, np.int64), (_EXACT_INT, np.int64),
    (2 * _EXACT_INT, np.float64), (0.5, np.float64), (math.inf, np.float64),
    (math.nan, np.float64),
]


def _table_at(largest):
    """A 6 x 6 symmetric table of small ints, 0 on the diagonal, whose
    block [0:2, 2:4] holds ``largest``: the link of tasks (0, 1) and (2, 3)
    sums four of them."""
    m = np.random.default_rng(6).integers(0, 9, size=(6, 6)).astype(np.float64)
    m = np.maximum(m, m.T)
    np.fill_diagonal(m, 0.0)
    m[0:2, 2:4] = m[2:4, 0:2] = largest
    return m


@pytest.mark.parametrize("largest, dtype", TABLE_TYPES)
def test_table_type_holds_four_times_the_largest_entry(largest, dtype):
    m = _table_at(largest)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = DistanceTable(m)
        rows = dist.rows
    assert dist.matrix.dtype == dtype
    assert np.array_equal(dist.matrix, m, equal_nan=True)
    assert _entry_types(rows) == ({float} if dtype is np.float64 else {int})
    assert np.array_equal(np.array(rows), m, equal_nan=True)


# inf and nan sit at task endpoints in _table_at, which no valid instance
# has, and 2**62 sums to 2**64, past int64: no cast to int64 may warn on them
@pytest.mark.parametrize("largest", [x for x, _ in TABLE_TYPES] + [2.0**62])
def test_link_numerators_equal_a_float_sum_at_each_type_boundary(largest):
    m = _table_at(largest)
    heads, tails = np.array([0, 2, 4]), np.array([1, 3, 5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = link_numerators(DistanceTable(m).matrix, heads, tails, 0, 3)
    want = m[np.ix_(heads, heads)] + m[np.ix_(heads, tails)]
    want += m[np.ix_(tails, heads)] + m[np.ix_(tails, tails)]
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(want[0, 1], 4 * largest, equal_nan=True)
    # the numerators are int64 for an integer table, float64 for a float one
    integer = DistanceTable(m).matrix.dtype.kind == "i"
    assert got.dtype == (np.int64 if integer else np.float64)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("n", (0, 1))
def test_tables_of_no_and_one_vertex(n):
    dist = DistanceTable(np.zeros((n, n)))
    assert dist.matrix.dtype == np.int16 and dist.matrix.shape == (n, n)
    assert dist.rows == [[0]] * n


def test_generated_large_instance_stores_two_bytes_per_pair():
    dist = generate_instance(1500, 2500, 60, seed=1).distances()
    assert dist.matrix.itemsize == 2
    assert dist.matrix.shape == (1500, 1500)
