"""Shortest-path table invariants against a Bellman-Ford oracle, and the
types the table is filled in and stored in."""

import math
import random
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import Edge, Instance, Solution, distances
from routecut.distances import _EXACT_INT, DistanceTable, shortest_paths
from routecut.generator import generate_instance
from routecut.instance import forward_id
from routecut.ranking import link_numerators

from conftest import bellman_ford_all_pairs, make_instance, whole_graph_dijkstra


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


def _table_inputs():
    """Each TABLE_TYPES row as a float table and, when its entry is finite
    and integral, as a table of each integer type that holds it."""
    for largest, dtype in TABLE_TYPES:
        yield pytest.param(largest, dtype, np.float64, id=f"{largest}-{dtype.__name__}")
        for given in (np.int16, np.int32, np.int64):
            if math.isfinite(largest) and largest == int(largest) \
                    and abs(largest) <= np.iinfo(given).max:
                yield pytest.param(largest, dtype, given,
                                   id=f"{largest}-{dtype.__name__}-from-{given.__name__}")


@pytest.mark.parametrize("largest, dtype, given", _table_inputs())
def test_table_type_holds_four_times_the_largest_entry(largest, dtype, given):
    m = _table_at(largest).astype(given)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = DistanceTable(m)
        rows = dist.rows
    assert dist.matrix.dtype == dtype
    assert np.array_equal(dist.matrix, m, equal_nan=given is np.float64)
    assert _entry_types(rows) == ({float} if dtype is np.float64 else {int})
    assert np.array_equal(np.array(rows), m, equal_nan=given is np.float64)
    # an integer table of the type the rule gives is kept, not copied
    assert (dist.matrix is m) == (given is dtype)


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
    # the numerators come in the table's own type, float64 for a float one
    assert got.dtype == DistanceTable(m).matrix.dtype
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("n", (0, 1))
def test_tables_of_no_and_one_vertex(n):
    dist = DistanceTable(np.zeros((n, n)))
    assert dist.matrix.dtype == np.int16 and dist.matrix.shape == (n, n)
    assert dist.rows == [[0]] * n


def test_generated_large_instance_stores_two_bytes_per_pair():
    instance = generate_instance(1500, 2500, 60, seed=1)
    tracemalloc.start()
    try:
        dist = shortest_paths(instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.matrix.itemsize == 2
    assert dist.matrix.shape == (1500, 1500)
    # the fill-in writes int16 too: no 8-byte-per-pair table is made
    assert peak < 4 * 1500 * 1500


@pytest.fixture
def fill_in(monkeypatch, fill_types):
    """What each ``shortest_paths`` call eliminated (its removal records)
    and the type of the matrix it handed to ``DistanceTable``."""
    seen = {"removed": [], "types": fill_types}
    eliminate = distances._eliminate

    def eliminate_spy(adj):
        seen["removed"].append(eliminate(adj))
        return seen["removed"][-1]

    monkeypatch.setattr(distances, "_eliminate", eliminate_spy)
    return seen


def _assert_table_of_the_float_rule(instance):
    """The table equals whole-graph Dijkstra's, in the type the float rule
    gives the same values."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shortest_paths(instance).matrix
    want = whole_graph_dijkstra(instance)
    assert got.dtype == DistanceTable(want).matrix.dtype
    assert np.array_equal(got, want)
    return got


@pytest.mark.parametrize("bridge, dtype", [(3, np.int16), (9000, np.int32)])
def test_fill_in_holds_an_edge_far_costlier_than_any_path(bridge, dtype, fill_in):
    # vertex 0 is removed while it keeps its 40000 edge to vertex 1, which
    # it reaches for 2 through the core vertex 2: the fill-in clips 40000 to
    # the bound, twice vertex 0's eccentricity plus one, before it adds it
    # to row 1.  The pendant edge (2, 3) costs ``bridge``: 3 makes the bound
    # 9 and leaves the fill-in and the table int16, past which 40000 would
    # wrap; 9000 makes the bound 18003 and both int32
    instance = make_instance(4, [(0, 1, 1, 1, 40_000), (0, 2, 1, 1, 1), (1, 2, 1, 1, 1),
                                 (2, 3, 1, 1, bridge)], capacity=10)
    table = _assert_table_of_the_float_rule(instance)
    assert table.dtype == dtype and table[0, 1] == 2
    (removed,) = fill_in["removed"]
    assert [(v, dict(zip(nbrs.tolist(), w.tolist()))) for v, nbrs, w in removed] == [
        (3, {2: bridge}), (0, {1: 40_000, 2: 1}), (1, {2: 1})]
    assert fill_in["types"] == [dtype]


@pytest.mark.parametrize("near", [191, 192])
def test_fill_type_holds_four_times_a_path_across_the_core(near, fill_in):
    # pendants 0 and 1 of the core vertex 2 lie 8000 + near apart, further
    # than either lies from the core: 8191 fits int16 four times over, 8192
    # does not.  The fill-in holds four times the bound, 2 * (8000 + near)
    # + 1, in int32 either way, and DistanceTable keeps it or narrows it
    instance = make_instance(3, [(0, 2, 1, 1, 8000), (1, 2, 1, 1, near)], depot=2, capacity=10)
    table = _assert_table_of_the_float_rule(instance)
    assert table[0, 1] == 8000 + near
    assert table.dtype == (np.int16 if near == 191 else np.int32)
    assert fill_in["types"] == [np.int32]


# more vertices than the elimination cap: a clique on them keeps them all
_CLIQUE = distances._ELIMINATION_DEGREE + 6


def _clique(cost, missing=(), first=0):
    """The edges of a complete graph on ``_CLIQUE`` vertices numbered from
    ``first``, less the pairs in ``missing``, each (u, v) costing ``cost(u, v)``."""
    pairs = combinations(range(first, first + _CLIQUE), 2)
    return [(u, v, 0, 0, cost(u, v)) for u, v in pairs if (u, v) not in missing]


def _hub_and_path(u, v):
    # vertex 0 lies 15 from every vertex, the rest lie along a path of unit
    # edges, 28 from end to end: past vertex 0's eccentricity, not twice it
    return 15 if u == 0 else 1 if v == u + 1 else 40_000


DENSE_CORES = {
    # the pair (0, 1) lies 2 apart through any vertex; its edge exceeds the
    # bound of 2 * 1 + 1 that every work entry starts at or below
    "edge-of-40000": (_clique(lambda u, v: 40_000 if (u, v) == (0, 1) else 1), np.int16),
    # vertex 0 lies 9000 from every vertex and 1 has no edge to 2 or 3, so
    # the bound is 18001, which int16 holds, and 2 -> 1 -> 3 sums it twice
    "work-type-int32": (_clique(lambda u, v: 9000, missing={(1, 2), (1, 3)}), np.int32),
    # vertices of one parity lie 0 apart: a zero-cost edge is an edge
    "zero-cost-edges": (_clique(lambda u, v: 5 * ((u ^ v) & 1)), np.int16),
    "hub-and-path": (_clique(_hub_and_path), np.int16),
}


@pytest.mark.parametrize("edges, dtype", DENSE_CORES.values(), ids=DENSE_CORES.keys())
def test_floyd_warshall_on_a_core_that_elimination_keeps(edges, dtype, fill_in,
                                                          dijkstra_sources):
    table = _assert_table_of_the_float_rule(make_instance(_CLIQUE, edges))
    assert table.dtype == dtype
    assert fill_in["removed"] == [[]]
    # one Dijkstra from core vertex 0 bounds the table; Floyd-Warshall fills it
    assert dijkstra_sources == [0]


def test_generated_instance_runs_dijkstra_from_one_source_only(dijkstra_sources):
    _assert_table_of_the_float_rule(generate_instance(500, 800, 60, seed=11))
    assert dijkstra_sources == [0]


def test_a_graph_that_vertex_0_does_not_reach_runs_all_pairs_dijkstra(fill_in,
                                                                      dijkstra_sources):
    edges = _clique(lambda u, v: 1) + _clique(lambda u, v: 2, first=_CLIQUE)
    table = _assert_table_of_the_float_rule(make_instance(2 * _CLIQUE, edges))
    assert table.dtype == np.float64 and math.isinf(table[0, _CLIQUE])
    # the source vertex 0 reaches infinity: nothing is eliminated, and
    # Dijkstra over the whole graph makes the table
    assert fill_in == {"removed": [], "types": [np.float64]}
    assert dijkstra_sources == [0, None]


def test_fractional_costs_run_all_pairs_dijkstra_only(dijkstra_sources):
    edges = _clique(lambda u, v: 0.5 + (u + v) % 3)
    assert _assert_table_of_the_float_rule(make_instance(_CLIQUE, edges)).dtype == np.float64
    assert dijkstra_sources == [None]
