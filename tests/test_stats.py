"""Rank-sum test oracle checks and W-D-L tables."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routecut import significance_table, wilcoxon_rank_sum
from routecut.stats import WdlRow, _midranks_doubled


def exact_p_by_enumeration(a, b):
    """Independent oracle: enumerate every assignment of combined ranks."""
    combined = list(a) + list(b)
    doubled = _midranks_doubled(combined)
    n, total = len(a), len(combined)
    mean2 = n * (total + 1)
    observed = abs(sum(doubled[:n]) - mean2)
    hits = 0
    count = 0
    for pick in combinations(range(total), n):
        count += 1
        if abs(sum(doubled[i] for i in pick) - mean2) >= observed:
            hits += 1
    return hits / count


def test_separated_triples_give_point_one():
    res = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    assert res.statistic == pytest.approx(6.0)
    assert res.pvalue == pytest.approx(0.1)
    assert not res.degenerate


def test_identical_samples_are_degenerate():
    res = wilcoxon_rank_sum([5, 5, 5], [5, 5, 5, 5])
    assert res.pvalue == 1.0
    assert res.degenerate


def test_equal_distribution_p_one():
    res = wilcoxon_rank_sum([1, 2, 3, 4], [1, 2, 3, 4])
    assert res.pvalue == pytest.approx(1.0)


def test_argument_order_symmetry():
    rng = random.Random(3)
    for _ in range(20):
        a = [rng.randint(0, 8) for _ in range(rng.randint(3, 7))]
        b = [rng.randint(0, 8) for _ in range(rng.randint(3, 7))]
        assert wilcoxon_rank_sum(a, b).pvalue == pytest.approx(
            wilcoxon_rank_sum(b, a).pvalue
        )


def test_small_samples_rejected():
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1, 2], [3, 4, 5])
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1, 2, 3], [4])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_exact_branch_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    m = rng.randint(3, min(6, 12 - n))
    a = [rng.randint(0, 6) for _ in range(n)]
    b = [rng.randint(0, 6) for _ in range(m)]
    if min(a + b) == max(a + b):
        return
    res = wilcoxon_rank_sum(a, b)
    assert res.pvalue == pytest.approx(exact_p_by_enumeration(a, b))
    assert 0 < res.pvalue <= 1


def _forced_normal_p(a, b):
    """Route a call through the normal-approximation branch."""
    import routecut.stats as stats_mod

    old = stats_mod.EXACT_LIMIT
    stats_mod.EXACT_LIMIT = 0
    try:
        return wilcoxon_rank_sum(a, b).pvalue
    finally:
        stats_mod.EXACT_LIMIT = old


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 100_000))
def test_exact_and_normal_agree_on_borderline_sizes(seed):
    """On 8 <= n+m <= 12 with distinct values (the regime of real cost
    samples) the exact and approximate branches agree within 0.05.  Heavy
    ties make the exact distribution too lumpy for any continuity-corrected
    normal to track that closely; see the tied-sample test below."""
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    m = rng.randint(max(3, 8 - n), min(9, 12 - n))
    values = rng.sample(range(10_000), n + m)
    a, b = values[:n], values[n:]
    exact = exact_p_by_enumeration(a, b)
    assert abs(_forced_normal_p(a, b) - exact) <= 0.05


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_tied_samples_basic_sanity(seed):
    """Heavy ties make the exact distribution too lumpy for the normal
    branch to track closely (near-degenerate data can be off by ~0.4), so
    only the structural properties are asserted for arbitrary tied data."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    m = rng.randint(max(4, 8 - n), min(8, 12 - n))
    a = [rng.randint(0, 6) for _ in range(n)]
    b = [rng.randint(0, 6) for _ in range(m)]
    p = _forced_normal_p(a, b)
    assert 0 < p <= 1
    assert p == pytest.approx(_forced_normal_p(b, a))
    if min(a + b) == max(a + b):
        assert p == 1.0


def test_normal_branch_used_above_limit():
    rng = random.Random(1)
    a = [rng.random() for _ in range(10)]
    b = [rng.random() + 2 for _ in range(10)]
    res = wilcoxon_rank_sum(a, b)
    assert res.pvalue < 0.001
    assert 0 < res.pvalue <= 1


# --- W-D-L tables ---------------------------------------------------------


def _cells(per_instance):
    out = {}
    for inst, variants in per_instance.items():
        for variant, costs in variants.items():
            out[(inst, variant)] = costs
    return out


def test_identical_samples_all_draws():
    samples = _cells({
        "i1": {"ref": [5, 6, 7], "other": [5, 6, 7]},
        "i2": {"ref": [1, 2, 3], "other": [1, 2, 3]},
    })
    wdl, _ = significance_table(samples, "ref", alpha=0.05)
    assert wdl == [WdlRow("other", 0, 2, 0)]


def test_dominating_reference_wins():
    k = 4
    samples = {}
    for i in range(k):
        samples[(f"i{i}", "ref")] = [10, 11, 12, 13, 11, 12]
        samples[(f"i{i}", "other")] = [20, 21, 22, 23, 21, 22]
    wdl, _ = significance_table(samples, "ref", alpha=0.05)
    assert wdl == [WdlRow("other", k, 0, 0)]
    p = wilcoxon_rank_sum(samples[("i0", "ref")], samples[("i0", "other")]).pvalue
    assert p < 0.05  # rank-sum oracle agrees the separation is significant


def test_worse_reference_loses():
    samples = {
        ("i0", "ref"): [20, 21, 22, 23, 21, 22],
        ("i0", "other"): [10, 11, 12, 13, 11, 12],
    }
    wdl, _ = significance_table(samples, "ref", alpha=0.05)
    assert wdl == [WdlRow("other", 0, 0, 1)]


def test_wdl_rows_come_in_variant_name_order_without_the_reference():
    samples = {}
    for inst in ("i0", "i1"):
        samples[(inst, "m")] = [10, 11, 12, 13, 11, 12]
        samples[(inst, "z")] = [20, 21, 22, 23, 21, 22]
        samples[(inst, "a")] = [1, 2, 3, 4, 2, 3]
        samples[(inst, "b")] = [10, 11, 12, 13, 11, 12]
    wdl, detail = significance_table(samples, "m", alpha=0.05)
    assert wdl == [WdlRow("a", 0, 0, 2), WdlRow("b", 0, 2, 0), WdlRow("z", 2, 0, 0)]
    # each row counts the outcomes of its variant's comparisons
    assert [(c.instance, c.variant, c.outcome) for c in detail] == [
        (inst, var, outcome)
        for var, outcome in (("a", "L"), ("b", "D"), ("z", "W"))
        for inst in ("i0", "i1")
    ]


def test_mismatched_run_counts_rejected():
    samples = {
        ("i0", "ref"): [1.0, 2.0, 3.0],
        ("i0", "other"): [1.0, 2.0, 3.0, 4.0],
    }
    with pytest.raises(ValueError, match="i0"):
        significance_table(samples, "ref")


def test_unknown_reference_rejected():
    with pytest.raises(ValueError, match="reference"):
        significance_table({("i0", "a"): [1, 2, 3]}, "zzz")


@pytest.mark.parametrize("alpha", [0, 1, -0.1, 5, math.nan])
def test_significance_level_outside_zero_one_rejected(alpha):
    samples = {("i", "a"): [1.0, 2.0, 3.0], ("i", "b"): [4.0, 5.0, 6.0]}
    with pytest.raises(ValueError, match="alpha"):
        significance_table(samples, "a", alpha)
