"""Link costs and each task's kept, competition-ranked cheapest links."""

import importlib.util
import random
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import RankMatrix, build_rank_matrix, rank_rows, ranking
from routecut.generator import generate_instance
from routecut.instance import forward_id, inverse_id
from routecut.ranking import link_numerators

from conftest import (
    LINK_NUMERATORS,
    RANKS_GOLDEN,
    all_link_ranks,
    make_instance,
    rank_matrix_of,
)


def all_link_numerators(instance, dist):
    """Every row of ``link_numerators`` as one block."""
    heads = np.array([t.u for t in instance.tasks], dtype=np.intp)
    tails = np.array([t.v for t in instance.tasks], dtype=np.intp)
    return link_numerators(dist.matrix, heads, tails, 0, instance.task_count)


def link_cost(t1, t2, instance, dist):
    """Reference for ``link_numerators`` / 4: one pair at a time."""
    if t1 == t2:
        raise ValueError("link cost is undefined for a task and itself")
    a, b = instance.tasks[t1], instance.tasks[t2]
    m = dist.matrix
    return float(m[a.u, b.u] + m[a.u, b.v] + m[a.v, b.u] + m[a.v, b.v]) / 4.0


def test_golden_rank_matrix():
    golden = rank_matrix_of(LINK_NUMERATORS)
    assert np.array_equal(all_link_ranks(golden), RANKS_GOLDEN)
    # all seven links of each task are kept, with their golden ranks
    assert golden.ranks.dtype == np.uint16
    assert np.array_equal(golden.ranks, np.take_along_axis(RANKS_GOLDEN, golden.columns, axis=1))


def test_golden_rows_quoted():
    got = all_link_ranks(rank_matrix_of(LINK_NUMERATORS))
    # row (v0,v10): costs (1, 1, 4.5, 4, 3, 4, 1) -> ranks (1, 1, 7, 5, 4, 5, 1)
    assert list(got[2]) == [1, 1, 0, 7, 5, 4, 5, 1]
    # row (v2,v3): costs (4.5, 5, 4.5, 1, 6, 7, 5.5) -> ranks (2, 4, 2, 1, 6, 7, 5)
    assert list(got[3]) == [2, 4, 2, 0, 1, 6, 7, 5]
    # kept cheapest first, equal costs in column order
    columns, ranks = rank_rows(LINK_NUMERATORS[2:4], first=2)
    assert columns.tolist() == [[0, 1, 7, 5, 4, 6, 3], [4, 0, 2, 1, 7, 5, 6]]
    assert ranks.tolist() == [[1, 1, 1, 4, 5, 5, 7], [1, 2, 2, 4, 5, 6, 7]]


def _random_ids(tasks, rng):
    return [forward_id(t) if rng.random() < 0.5 else inverse_id(forward_id(t)) for t in tasks]


def test_link_ranks_look_up_each_link_in_route_order(golden_ranks):
    rng = random.Random(5)
    for size in [0, 1, 2, 3, 8] * 10:
        tasks = rng.sample(range(8), size)
        ids = _random_ids(tasks, rng)
        links = list(zip(tasks, tasks[1:]))
        assert golden_ranks.link_ranks([ids]) == [[int(RANKS_GOLDEN[a, b]) for a, b in links]]
        # reversed, each link leaves the other task
        assert golden_ranks.link_ranks([ids[::-1]]) == [
            [int(RANKS_GOLDEN[b, a]) for a, b in reversed(links)]
        ]
    assert golden_ranks.link_ranks([[forward_id(3)]]) == [[]]
    assert golden_ranks.link_ranks([]) == []
    # A -> D ranks 7 and D -> A ranks 2, in either orientation of each
    for a in (forward_id(0), inverse_id(forward_id(0))):
        for d in (forward_id(3), inverse_id(forward_id(3))):
            assert golden_ranks.link_ranks([[a, d]]) == [[7]]
            assert golden_ranks.link_ranks([[d, a]]) == [[2]]


def test_link_ranks_of_many_routes_are_each_routes_own():
    # no link joins the last task of one route to the first of the next,
    # whatever routes with no link lie between them
    rng = random.Random(8)
    golden = rank_matrix_of(LINK_NUMERATORS)
    for _ in range(50):
        tasks = rng.sample(range(8), 8)
        cuts = sorted(rng.choices(range(9), k=rng.randint(0, 4)))
        routes = [_random_ids(tasks[a:b], rng) for a, b in zip([0, *cuts], [*cuts, 8])]
        assert golden.link_ranks(routes) == [golden.link_ranks([ids])[0] for ids in routes]


def test_rank_matrix_is_asymmetric():
    got = all_link_ranks(rank_matrix_of(LINK_NUMERATORS))
    assert got[0, 3] == 7  # far task from a well-connected one
    assert got[3, 0] == 2  # but attractive seen from the isolated side


def test_row_blocks_rank_as_rows_of_the_whole_matrix():
    columns, ranks = rank_rows(LINK_NUMERATORS, keep=3)
    for first in range(0, 8, 3):
        block = LINK_NUMERATORS[first : first + 3]
        got = rank_rows(block, first=first, keep=3)
        assert np.array_equal(got[0], columns[first : first + 3])
        assert np.array_equal(got[1], ranks[first : first + 3])
    with pytest.raises(ValueError, match="square"):
        rank_rows(LINK_NUMERATORS[6:], first=7)


def test_all_equal_costs_share_rank_one():
    columns, ranks = rank_rows(np.ones((4, 4)))
    assert columns.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    assert np.all(ranks == 1)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
def test_counted_ranks_equal_sorted_ranks(dtype):
    # integer costs are keyed as cost * n + column, which may be negative
    # or come from near the top of an unsigned type; float costs are sorted
    rng = np.random.default_rng(5)
    low = -7 if np.issubdtype(dtype, np.signedinteger) else 120
    costs = (rng.integers(0, 8, size=(9, 9)) + low).astype(dtype)
    for keep in (1, 3, 8):
        got = rank_rows(costs, keep=keep)
        expected = rank_rows(costs.astype(np.float64), keep=keep)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


@pytest.mark.parametrize("largest, dtype", [(2**31 - 2, np.int32), (2**31 - 1, np.int64),
                                            (2**31, np.int64)])
def test_keys_at_the_int32_limit_rank_as_a_stable_argsort(largest, dtype, monkeypatch):
    # costs near the top whose largest key cost * n + column is ``largest``:
    # int32 keys hold it only below int32's largest value, which the
    # diagonal's key takes
    n = 4
    high, column = divmod(largest, n)
    costs = np.random.default_rng(largest).integers(high - 3, high + 1, size=(n, n))
    costs[:, column + 1:] = np.minimum(costs[:, column + 1:], high - 1)
    costs[1 if column == 0 else 0, column] = high
    costs[2] -= high  # a row of small costs, some negative
    np.fill_diagonal(costs, 0)
    assert max(costs[i, j] * n + j for i in range(n) for j in range(n) if i != j) == largest
    key_types = []
    keys = ranking._keys

    def spy(*args):
        key = keys(*args)
        key_types.append(key.dtype)
        return key

    monkeypatch.setattr(ranking, "_keys", spy)
    for keep in (1, 2, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rank_rows(costs, keep=keep)
        with monkeypatch.context() as sorting:
            sorting.setattr(ranking, "_keys", lambda *a: None)
            expected = rank_rows(costs, keep=keep)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert key_types == [dtype] * 3


def test_link_cost_shared_depot_tasks():
    # tasks (v0,v1) and (v0,v2), unit costs: delta terms 0+1+1+2 -> 1
    inst = make_instance(3, [(0, 1, 1, 1, 1), (0, 2, 1, 1, 1)], capacity=5)
    assert all_link_numerators(inst, inst.distances())[0, 1] == 4


def test_link_cost_parallel_tasks():
    # parallel tasks: two of the four terms collapse to delta(u,u)=0 and the
    # other two to delta(u,v), so the link cost is delta(u,v)/2 ...
    inst = make_instance(2, [(0, 1, 1, 1, 1), (0, 1, 1, 3, 3)], capacity=5)
    assert all_link_numerators(inst, inst.distances())[0, 1] == 2
    # ... and vanishes entirely when the endpoints are zero-distance apart
    free = make_instance(2, [(0, 1, 1, 1, 0), (0, 1, 1, 3, 3)], capacity=5)
    assert all_link_numerators(free, free.distances())[0, 1] == 0


def test_link_cost_orientation_independent():
    for seed in range(4):
        inst = generate_instance(10, 6, 20, seed=seed)
        dist = inst.distances()
        num = all_link_numerators(inst, dist)
        m = dist.matrix
        for t1 in range(3):
            for t2 in range(3, 6):
                a, b = inst.tasks[t1], inst.tasks[t2]
                # swap both tasks' endpoint roles: the four-term sum is unchanged
                swapped = m[a.v, b.v] + m[a.v, b.u] + m[a.u, b.v] + m[a.u, b.u]
                assert num[t1, t2] == swapped


def test_build_matches_link_cost():
    inst = generate_instance(12, 7, 20, seed=3)
    dist = inst.distances()
    num = all_link_numerators(inst, dist)
    for t1 in range(7):
        for t2 in range(7):
            if t1 != t2:
                assert num[t1, t2] / 4 == link_cost(t1, t2, inst, dist)
    assert not num.diagonal().any()  # self-links are undefined
    # integer costs stay exact, in the table's own type
    assert num.dtype == dist.matrix.dtype == np.int16
    ranks = build_rank_matrix(inst, dist)
    columns, kept = rank_rows(num)
    assert np.array_equal(ranks.columns, columns)
    assert np.array_equal(ranks.ranks, kept)


@pytest.mark.parametrize("edges, want", [
    ([(0, 1, 0, 0, 1)], []),  # no required edge, no task
    ([(0, 1, 1, 1, 1)], [[]]),  # one task
], ids=["no-task", "one-task"])
def test_fewer_than_two_tasks_get_a_rank_matrix(edges, want):
    inst = make_instance(2, edges, capacity=5)
    ranks = build_rank_matrix(inst, inst.distances())
    assert ranks.ranks.dtype == ranks.columns.dtype == np.uint16
    assert ranks.ranks.shape == ranks.columns.shape == (len(want), 0)
    for k in (0, 1, 20, 70):
        assert ranks.nearest(k) == want
    assert ranks.link_ranks([[forward_id(t)] for t in range(len(want))]) == want


def test_nearest_is_built_once_per_capped_k():
    inst = generate_instance(30, 25, 20, seed=5)
    ranks = build_rank_matrix(inst, inst.distances())
    n = inst.task_count
    assert ranks.nearest(20) is ranks.nearest(20)
    assert ranks.nearest(n + 5) is ranks.nearest(n - 1)
    fresh = RankMatrix(ranks.matrix, ranks.heads, ranks.tails)
    assert ranks.nearest(n + 5) == fresh.nearest(n - 1)


def test_build_rank_matrix_holds_no_square_cost_matrix():
    # the kept links take O(n * _KEEP) entries; the parent's n x n table of
    # 2-byte ranks alone would take the peak to 2 bytes a pair
    inst = generate_instance(600, 1000, 60, seed=1)
    dist = inst.distances()
    n = inst.task_count
    tracemalloc.start()
    try:
        ranks = build_rank_matrix(inst, dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n >= 1000
    assert ranks.columns.shape == ranks.ranks.shape == (n, ranking._KEEP)
    assert ranks.columns.nbytes + ranks.ranks.nbytes == 4 * n * ranking._KEEP
    assert peak < 2 * n * n


def test_perfbench_hooks_name_library_attributes(monkeypatch):
    # perfbench/tracer.py wraps these names for its per-layer times; a name
    # that is gone would leave its layer reading 0
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclass
    spec.loader.exec_module(tracer)
    for owner, attr, _, _ in tracer.TARGETS:
        assert getattr(owner, "__module__", owner.__name__).startswith("routecut")
        assert callable(getattr(owner, attr)), (owner, attr)
    assert (ranking, "rank_rows") in [(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
    # build_rank_matrix reaches rank_rows through the module, once a block
    calls = []
    rank_rows = ranking.rank_rows
    monkeypatch.setattr(ranking, "rank_rows", lambda *a, **kw: calls.append(a) or rank_rows(*a, **kw))
    n = 2 * ranking._ROW_BLOCK + 3
    inst = generate_instance(80, n, 60, seed=2)
    build_rank_matrix(inst, inst.distances())
    assert len(calls) == 3
    assert [len(block) for block, *_ in calls] == [ranking._ROW_BLOCK] * 2 + [3]


# --- properties on small matrices with heavy ties ----------------------------

# ints 0..3, ints spread so wide that cost * n + column could overflow int64
# (ranked by sorting), and multiples of 0.1 where 0.1 + 0.2 sits next to,
# not on, 0.3
TIE_VALUES = (
    tuple(range(4)),
    (0, 1, 2**61, 2**61 + 1),
    (0.0, 0.1, 0.2, 0.1 + 0.2, 0.3),
)


@st.composite
def tie_heavy_matrices(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    values = draw(st.sampled_from(TIE_VALUES))
    cells = draw(st.lists(st.sampled_from(values), min_size=n * n, max_size=n * n))
    return np.array(cells).reshape(n, n)


def _by_value_then_index(row, i):
    return sorted((j for j in range(len(row)) if j != i), key=lambda j: (row[j], j))


def _assert_counted_ranks(costs, ranks):
    """Every link's rank, kept or not, is 1 + its count of strictly
    cheaper links; the diagonal is drawn like the rest of its row and must
    not count."""
    n = len(costs)
    got = all_link_ranks(ranks)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            smaller = sum(1 for k in range(n) if k != i and costs[i][k] < costs[i][j])
            assert got[i, j] == 1 + smaller, (i, j)
            assert 1 <= got[i, j] <= n - 1


@settings(max_examples=150, deadline=None)
@given(tie_heavy_matrices())
def test_competition_rank_against_counting_oracle(costs):
    ranks = rank_matrix_of(costs)
    assert ranks.ranks.dtype == np.uint16
    _assert_counted_ranks(costs, ranks)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_matrices(), st.integers(1, 3), st.integers(0, 11))
def test_few_kept_links_rank_and_list_exactly(costs, keep, k):
    # with 1 to 3 links kept per task, most links are ranked on demand and
    # tie blocks run past the last kept position
    with patch.object(ranking, "_KEEP", keep):
        ranks = rank_matrix_of(costs)
    n = len(costs)
    assert ranks.columns.shape == (n, min(keep, max(n - 1, 0)))
    _assert_counted_ranks(costs, ranks)
    assert ranks.nearest(k) == [_by_value_then_index(costs[i], i)[:k] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(tie_heavy_matrices(), st.integers(0, 11))
def test_nearest_is_the_head_of_the_row_sorted_by_value_then_index(num, k):
    n = len(num)
    got = rank_matrix_of(num).nearest(k)
    assert got == [_by_value_then_index(num[i], i)[:k] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(tie_heavy_matrices(), st.integers(0, 10))
def test_nearest_k_is_a_prefix_of_nearest_k_plus_one(num, k):
    ranks = rank_matrix_of(num)
    assert ranks.nearest(k) == [r[:k] for r in ranks.nearest(k + 1)]


def test_rescaling_costs_preserves_ranks():
    inst = generate_instance(12, 8, 20, seed=9)
    ranks = build_rank_matrix(inst, inst.distances())
    scaled = make_instance(
        inst.vertex_count,
        [
            (e.u, e.v, e.demand, e.service_cost, 7 * e.deadheading_cost)
            for e in inst.edges
        ],
        depot=inst.depot,
        capacity=inst.capacity,
    )
    ranks7 = build_rank_matrix(scaled, scaled.distances())
    assert np.array_equal(ranks.columns, ranks7.columns)
    assert np.array_equal(ranks.ranks, ranks7.ranks)
