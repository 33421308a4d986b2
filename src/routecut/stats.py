"""Rank-sum testing and win/draw/loss significance tables.

The two-sided rank-sum test uses midranks for ties, exact enumeration of
all rank assignments for combined samples of at most 12 observations, and
the tie-corrected, continuity-corrected normal approximation above that.
Rank sums are manipulated as doubled integers so midrank arithmetic stays
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .instance import left_sum

EXACT_LIMIT = 12
MIN_SAMPLE = 3  # smallest sample the rank-sum test accepts


class WilcoxonResult(NamedTuple):
    statistic: float  # rank sum of the first sample (midranks)
    pvalue: float
    degenerate: bool = False


def _midranks_doubled(values: Sequence[float]) -> tuple[list[int], list[int]]:
    """Each value's midrank, doubled to keep halves integral, and the size
    of each group of equal values."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # the group ending at rank e shares the midrank of ranks e-c+1..e
    doubled = 2 * np.cumsum(counts) - counts + 1
    return doubled[inverse].tolist(), counts.tolist()


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> WilcoxonResult:
    """Two-sided rank-sum test of two independent samples."""
    n, m = len(a), len(b)
    if n < MIN_SAMPLE or m < MIN_SAMPLE:
        raise ValueError(f"each sample needs at least {MIN_SAMPLE} observations")
    combined = list(a) + list(b)
    if min(combined) == max(combined):
        expected = n * (n + m + 1) / 2.0
        return WilcoxonResult(expected, 1.0, degenerate=True)

    doubled, ties = _midranks_doubled(combined)
    w2 = sum(doubled[:n])  # doubled rank sum of sample a
    total = n + m
    mean2 = n * (total + 1)  # doubled expectation
    observed_dev = abs(w2 - mean2)

    if total <= EXACT_LIMIT:
        hits = 0
        count = 0
        for pick in combinations(range(total), n):
            count += 1
            dev = abs(sum(doubled[i] for i in pick) - mean2)
            if dev >= observed_dev:
                hits += 1
        return WilcoxonResult(w2 / 2.0, hits / count)

    # normal approximation with tie correction and continuity correction
    tie_sum = sum(t * t * t - t for t in ties)
    variance = (n * m / 12.0) * ((total + 1) - tie_sum / (total * (total - 1)))
    if variance <= 0:
        return WilcoxonResult(w2 / 2.0, 1.0, degenerate=True)
    z = max(0.0, observed_dev / 2.0 - 0.5) / math.sqrt(variance)
    p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return WilcoxonResult(w2 / 2.0, max(p, math.ulp(0.0)))


@dataclass(frozen=True)
class Comparison:
    instance: str
    variant: str
    pvalue: float
    outcome: str  # W | D | L from the reference variant's viewpoint


@dataclass(frozen=True)
class WdlRow:
    variant: str
    wins: int
    draws: int
    losses: int


def significance_table(
    samples: dict[tuple[str, str], list[float]],
    reference: str,
    alpha: float = 0.05,
) -> tuple[list[WdlRow], list[Comparison]]:
    """Win/draw/loss counts of a reference variant against every other.

    ``samples`` maps (instance, variant) to final costs over the runs.
    A win on an instance means the reference is significantly better
    (two-sided p below alpha and lower mean cost); a draw means the test
    finds no significant difference.  ``alpha`` must lie in (0, 1).
    Returns one ``WdlRow`` per other variant, in name order, and the
    ``Comparison`` of each (instance, variant) pair that both sampled.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"significance level alpha must be in (0, 1), not {alpha!r}")
    instances = sorted({inst for inst, _ in samples})
    variants = sorted({var for _, var in samples})
    if reference not in variants:
        raise ValueError(f"reference variant {reference!r} has no samples")

    for inst in instances:
        lengths = {
            var: len(samples[(inst, var)]) for var in variants if (inst, var) in samples
        }
        if len(set(lengths.values())) > 1:
            offender = max(lengths, key=lambda v: lengths[v])
            raise ValueError(
                f"run counts differ on instance {inst!r} (cell {inst!r}/{offender!r})"
            )

    wdl: list[WdlRow] = []
    detail: list[Comparison] = []
    for var in variants:
        if var == reference:
            continue
        for inst in instances:
            ref = samples.get((inst, reference))
            other = samples.get((inst, var))
            if ref is None or other is None:
                continue
            res = wilcoxon_rank_sum(ref, other)
            outcome = "D"
            if res.pvalue < alpha:
                ref_mean, other_mean = left_sum(ref) / len(ref), left_sum(other) / len(other)
                outcome = "W" if ref_mean < other_mean else "L" if ref_mean > other_mean else "D"
            detail.append(Comparison(inst, var, res.pvalue, outcome))
        outcomes = [c.outcome for c in detail if c.variant == var]
        wdl.append(WdlRow(var, *map(outcomes.count, "WDL")))
    return wdl, detail
