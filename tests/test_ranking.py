"""Link costs and the competition-ranked link matrix."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import RankMatrix, build_rank_matrix, link_cost, rank_rows
from routecut.generator import generate_instance

from conftest import LINK_NUMERATORS, RANKS_GOLDEN, make_instance


def test_golden_rank_matrix():
    got = rank_rows(LINK_NUMERATORS)
    assert np.array_equal(got, RANKS_GOLDEN)


def test_golden_rows_quoted():
    got = rank_rows(LINK_NUMERATORS)
    # row (v0,v10): costs (1, 1, 4.5, 4, 3, 4, 1) -> ranks (1, 1, 7, 5, 4, 5, 1)
    assert list(got[2]) == [1, 1, 0, 7, 5, 4, 5, 1]
    # row (v2,v3): costs (4.5, 5, 4.5, 1, 6, 7, 5.5) -> ranks (2, 4, 2, 1, 6, 7, 5)
    assert list(got[3]) == [2, 4, 2, 0, 1, 6, 7, 5]


def test_rank_matrix_is_asymmetric():
    got = rank_rows(LINK_NUMERATORS)
    assert got[0, 3] == 7  # far task from a well-connected one
    assert got[3, 0] == 2  # but attractive seen from the isolated side


def test_golden_link_costs():
    from routecut import RankMatrix

    ranks = RankMatrix(LINK_NUMERATORS, RANKS_GOLDEN)
    assert ranks.link_cost(0, 1) == pytest.approx(1.0)   # 4/4
    assert ranks.link_cost(0, 3) == pytest.approx(4.5)   # 18/4


def test_all_equal_costs_share_rank_one():
    costs = np.ones((4, 4))
    got = rank_rows(costs)
    off_diag = got[~np.eye(4, dtype=bool)]
    assert np.all(off_diag == 1)


def test_link_cost_shared_depot_tasks():
    # tasks (v0,v1) and (v0,v2), unit costs: delta terms 0+1+1+2 -> 1
    inst = make_instance(3, [(0, 1, 1, 1, 1), (0, 2, 1, 1, 1)], capacity=5)
    dist = inst.distances()
    assert link_cost(0, 1, inst, dist) == pytest.approx(1.0)


def test_link_cost_parallel_tasks():
    # parallel tasks: two of the four terms collapse to delta(u,u)=0 and the
    # other two to delta(u,v), so the link cost is delta(u,v)/2 ...
    inst = make_instance(2, [(0, 1, 1, 1, 1), (0, 1, 1, 3, 3)], capacity=5)
    assert link_cost(0, 1, inst, inst.distances()) == pytest.approx(0.5)
    # ... and vanishes entirely when the endpoints are zero-distance apart
    free = make_instance(2, [(0, 1, 1, 1, 0), (0, 1, 1, 3, 3)], capacity=5)
    assert link_cost(0, 1, free, free.distances()) == pytest.approx(0.0)


def test_link_cost_self_is_error():
    inst = make_instance(2, [(0, 1, 1, 1, 1), (0, 1, 1, 3, 3)], capacity=5)
    with pytest.raises(ValueError):
        link_cost(1, 1, inst, inst.distances())


def test_link_cost_orientation_independent():
    for seed in range(4):
        inst = generate_instance(10, 6, 20, seed=seed)
        dist = inst.distances()
        m = dist.matrix
        for t1 in range(3):
            for t2 in range(3, 6):
                a, b = inst.tasks[t1], inst.tasks[t2]
                # swap both tasks' endpoint roles: the four-term mean is unchanged
                forward = link_cost(t1, t2, inst, dist)
                swapped = (m[a.v, b.v] + m[a.v, b.u] + m[a.u, b.v] + m[a.u, b.u]) / 4.0
                assert forward == pytest.approx(float(swapped))


def test_build_matches_link_cost():
    inst = generate_instance(12, 7, 20, seed=3)
    dist = inst.distances()
    ranks = build_rank_matrix(inst, dist)
    for t1 in range(7):
        for t2 in range(7):
            if t1 != t2:
                assert ranks.link_cost(t1, t2) == pytest.approx(link_cost(t1, t2, inst, dist))
    assert ranks.numerators.dtype == np.int64  # integer costs stay exact


def test_build_requires_two_tasks():
    inst = make_instance(2, [(0, 1, 1, 1, 1)], capacity=5)
    with pytest.raises(ValueError):
        build_rank_matrix(inst, inst.distances())


# --- properties on small matrices with heavy ties ----------------------------

# ints 0..3, and multiples of 0.1 where 0.1 + 0.2 sits next to, not on, 0.3
TIE_VALUES = (tuple(range(4)), (0.0, 0.1, 0.2, 0.1 + 0.2, 0.3))


@st.composite
def tie_heavy_matrices(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    values = draw(st.sampled_from(TIE_VALUES))
    cells = draw(st.lists(st.sampled_from(values), min_size=n * n, max_size=n * n))
    return np.array(cells).reshape(n, n)


def _by_value_then_index(row, i):
    return sorted((j for j in range(len(row)) if j != i), key=lambda j: (row[j], j))


@settings(max_examples=150, deadline=None)
@given(tie_heavy_matrices())
def test_competition_rank_against_counting_oracle(costs):
    # the diagonal is drawn like the rest of its row and must not count
    n = len(costs)
    got = rank_rows(costs)
    assert got.dtype == np.uint16
    for i in range(n):
        for j in range(n):
            if i == j:
                assert got[i, j] == 0
                continue
            smaller = sum(
                1 for k in range(n) if k != i and costs[i][k] < costs[i][j]
            )
            assert got[i, j] == 1 + smaller
            assert 1 <= got[i, j] <= n - 1


@settings(max_examples=150, deadline=None)
@given(tie_heavy_matrices(), st.integers(0, 11))
def test_nearest_is_the_head_of_the_row_sorted_by_value_then_index(num, k):
    n = len(num)
    got = RankMatrix(num, rank_rows(num)).nearest(k)
    assert got == [_by_value_then_index(num[i], i)[:k] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(tie_heavy_matrices(), st.integers(0, 10))
def test_nearest_k_is_a_prefix_of_nearest_k_plus_one(num, k):
    ranks = RankMatrix(num, rank_rows(num))
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
    assert np.array_equal(ranks.ranks, ranks7.ranks)


def test_csv_dump():
    inst = make_instance(3, [(0, 1, 1, 1, 1), (0, 2, 1, 1, 1)], capacity=5)
    ranks = build_rank_matrix(inst, inst.distances())
    buf = io.StringIO()
    ranks.to_csv(buf, inst)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "task,(1,2),(1,3)"
    assert lines[1] == "(1,2),,1"
    assert lines[2] == "(1,3),1,"
