"""Shortest-path table invariants against a Bellman-Ford oracle."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import Edge, Instance, Solution
from routecut.distances import _EXACT_INT

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
    ids = [t.forward_id for t in inst.tasks]
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
