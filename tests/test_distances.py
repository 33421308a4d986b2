"""Shortest-path table invariants against a Bellman-Ford oracle."""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import Edge, Instance

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
