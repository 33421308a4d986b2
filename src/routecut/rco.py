"""Route cutting: rank-guided probabilistic splitting of routes.

Links inside a route are classified as good (rank strictly below the
solution's average task rank) or poor (everything else).  Per route, one
good link is cut with probability lam and one poor link with probability
theta, producing up to three contiguous sub-routes per route.  A sub-route
is the tuple of directed task IDs it serves, in route order.  Cutting
poor links more aggressively than good ones tends to hand downstream
clustering task subsets that keep promising connections intact.

The uniform single-cut splitter used by the random-split baseline lives
here too.
"""

from __future__ import annotations

import random

from .instance import task_index_of
from .ranking import RankMatrix
from .solution import Route, Solution


def _link_ranks(ids: list[int], ranks: RankMatrix) -> list[int]:
    """The rank of each link of a route's ``ids``; link i joins ids i and i+1."""
    table = ranks.ranks
    return [int(table[task_index_of(a), task_index_of(b)]) for a, b in zip(ids, ids[1:])]


def average_task_rank(solution: Solution, ranks: RankMatrix) -> float:
    """Mean rank over all task-to-task links inside routes.

    Depot-adjacent connections are not links; routes serving fewer than
    two tasks contribute nothing.  Returns 0 for a solution with no links.
    """
    total = 0
    count = 0
    for route in solution.routes:
        links = _link_ranks(route.ids, ranks)
        total += sum(links)
        count += len(links)
    return total / count if count else 0.0


def classify_links(route: Route, ranks: RankMatrix, avg: float) -> tuple[list[int], list[int]]:
    """Split a route's link positions into (good, poor).

    Link position i joins the route's tasks i and i+1.  A link is good when
    its rank is strictly below ``avg``, poor otherwise.
    """
    good: list[int] = []
    poor: list[int] = []
    for i, r in enumerate(_link_ranks(route.ids, ranks)):
        (good if r < avg else poor).append(i)
    return good, poor


def _cut(ids: list[int], cuts: list[int], pool: list[tuple[int, ...]]) -> None:
    """Append the pieces of ``ids`` cut after each link position in ``cuts``."""
    start = 0
    for c in sorted(cuts):
        pool.append(tuple(ids[start : c + 1]))
        start = c + 1
    pool.append(tuple(ids[start:]))


def rco_split(
    solution: Solution,
    ranks: RankMatrix,
    lam: float,
    theta: float,
    rng: random.Random,
) -> list[tuple[int, ...]]:
    """Cut each route at up to one good link, with probability ``lam``, and
    one poor link, with probability ``theta``.

    The pieces come in route order, so concatenated they give back the
    routes' IDs; each route contributes one to three pieces.
    """
    avg = average_task_rank(solution, ranks)
    pool: list[tuple[int, ...]] = []
    for route in solution.routes:
        good, poor = classify_links(route, ranks, avg)
        cuts: list[int] = []
        if rng.random() < lam and good:
            cuts.append(good[rng.randrange(len(good))])
        if rng.random() < theta and poor:
            cuts.append(poor[rng.randrange(len(poor))])
        _cut(route.ids, cuts, pool)
    return pool


def uniform_split(solution: Solution, rng: random.Random) -> list[tuple[int, ...]]:
    """Split every route into two sub-routes at a uniformly random link.

    This is the random-split baseline the rank-guided operator is compared
    against; single-task routes pass through whole.
    """
    pool: list[tuple[int, ...]] = []
    for route in solution.routes:
        n = len(route.ids)
        _cut(route.ids, [rng.randrange(n - 1)] if n >= 2 else [], pool)
    return pool
