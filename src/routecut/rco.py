"""Route cutting: rank-guided probabilistic splitting of routes.

Links inside a route are classified as good (rank strictly below the
solution's average task rank) or poor (everything else).  Per route, one
good link is cut with probability lam and one poor link with probability
theta, producing up to three contiguous sub-routes per route.  Cutting
poor links more aggressively than good ones tends to hand downstream
clustering task subsets that keep promising connections intact.

The uniform single-cut splitter used by the random-split baseline lives
here too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .instance import task_index_of
from .ranking import RankMatrix
from .solution import Route, Solution


@dataclass(frozen=True)
class RcoParams:
    """Cutting probabilities: lam for good links, theta for poor links."""

    lam: float = 0.05
    theta: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0,1], got {self.lam}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0,1], got {self.theta}")


@dataclass(frozen=True)
class SubRoute:
    """A contiguous, orientation-preserving slice of a route interior."""

    ids: tuple[int, ...]
    route_index: int
    start: int  # offset of ids[0] within the parent route interior

    def __post_init__(self):
        if not self.ids:
            raise ValueError("sub-routes cannot be empty")

    def task_indices(self) -> list[int]:
        return [task_index_of(t) for t in self.ids]

    def __len__(self) -> int:
        return len(self.ids)


def average_task_rank(solution: Solution, ranks: RankMatrix) -> float:
    """Mean rank over all task-to-task links inside routes.

    Depot-adjacent connections are not links; routes serving fewer than
    two tasks contribute nothing.  Returns 0 for a solution with no links.
    """
    table = ranks.ranks
    total = 0
    count = 0
    for route in solution.routes:
        interior = route.interior
        for i in range(len(interior) - 1):
            total += int(table[task_index_of(interior[i]), task_index_of(interior[i + 1])])
            count += 1
    return total / count if count else 0.0


def classify_links(route: Route, ranks: RankMatrix, avg: float) -> tuple[list[int], list[int]]:
    """Split a route's link positions into (good, poor).

    Link position i joins interior tasks i and i+1.  A link is good when
    its rank is strictly below ``avg``, poor otherwise.
    """
    table = ranks.ranks
    interior = route.interior
    good: list[int] = []
    poor: list[int] = []
    for i in range(len(interior) - 1):
        r = int(table[task_index_of(interior[i]), task_index_of(interior[i + 1])])
        (good if r < avg else poor).append(i)
    return good, poor


def _cut_interior(
    interior: list[int], cuts: list[int], route_index: int, pool: list[SubRoute]
) -> None:
    start = 0
    for c in sorted(cuts):
        pool.append(SubRoute(tuple(interior[start : c + 1]), route_index, start))
        start = c + 1
    pool.append(SubRoute(tuple(interior[start:]), route_index, start))


def rco_split(
    solution: Solution,
    ranks: RankMatrix,
    params: RcoParams,
    rng: random.Random,
) -> list[SubRoute]:
    """Cut each route at up to one good and one poor link.

    The task multiset of the result always equals the solution's, and each
    route contributes between one and three sub-routes.
    """
    avg = average_task_rank(solution, ranks)
    pool: list[SubRoute] = []
    for k, route in enumerate(solution.routes):
        interior = route.interior
        if not interior:
            continue
        good, poor = classify_links(route, ranks, avg)
        cuts: list[int] = []
        if rng.random() < params.lam and good:
            cuts.append(good[rng.randrange(len(good))])
        if rng.random() < params.theta and poor:
            cuts.append(poor[rng.randrange(len(poor))])
        _cut_interior(interior, cuts, k, pool)
    return pool


def uniform_split(solution: Solution, rng: random.Random) -> list[SubRoute]:
    """Split every route into two sub-routes at a uniformly random link.

    This is the random-split baseline the rank-guided operator is compared
    against; single-task routes pass through whole.
    """
    pool: list[SubRoute] = []
    for k, route in enumerate(solution.routes):
        interior = route.interior
        if not interior:
            continue
        cuts = [rng.randrange(len(interior) - 1)] if len(interior) >= 2 else []
        _cut_interior(interior, cuts, k, pool)
    return pool
