"""Route cutting: rank-guided probabilistic splitting of routes.

Links inside a route are classified as good (rank strictly below the
solution's average task rank) or poor (everything else).  Per route, one
good link is cut with probability lam and one poor link with probability
theta, producing up to three contiguous sub-routes per route.  A sub-route
is a slice of its route, so a tuple of directed task IDs in route order.
Cutting poor links more aggressively than good ones tends to hand
downstream clustering task subsets that keep promising connections intact.

The uniform single-cut splitter used by the random-split baseline lives
here too.
"""

from __future__ import annotations

import random

from .ranking import RankMatrix
from .solution import Solution


def average_task_rank(links: list[list[int]]) -> float:
    """Mean rank over all task-to-task links inside routes, given as each
    route's ``RankMatrix.link_ranks``.

    Depot-adjacent connections are not links; routes serving fewer than
    two tasks contribute nothing.  Returns 0 for a solution with no links.
    """
    count = sum(map(len, links))
    return sum(map(sum, links)) / count if count else 0.0


def classify_links(links: list[int], avg: float) -> tuple[list[int], list[int]]:
    """Split a route's link positions into (good, poor), given the ranks of
    its links.

    Link position i joins the route's tasks i and i+1.  A link is good when
    its rank is strictly below ``avg``, poor otherwise.
    """
    good: list[int] = []
    poor: list[int] = []
    for i, r in enumerate(links):
        (good if r < avg else poor).append(i)
    return good, poor


def _cut(route: tuple[int, ...], cuts: list[int], pool: list[tuple[int, ...]]) -> None:
    """Append the pieces of ``route`` cut after each link position in ``cuts``."""
    start = 0
    for c in sorted(cuts):
        pool.append(route[start : c + 1])
        start = c + 1
    pool.append(route[start:])


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
    routes; each route contributes one to three pieces.  The ranks of
    all in-route links are looked up at once.
    """
    links = ranks.link_ranks(solution.routes)
    avg = average_task_rank(links)
    pool: list[tuple[int, ...]] = []
    for route, route_links in zip(solution.routes, links):
        good, poor = classify_links(route_links, avg)
        cuts: list[int] = []
        if rng.random() < lam and good:
            cuts.append(good[rng.randrange(len(good))])
        if rng.random() < theta and poor:
            cuts.append(poor[rng.randrange(len(poor))])
        _cut(route, cuts, pool)
    return pool


def uniform_split(solution: Solution, rng: random.Random) -> list[tuple[int, ...]]:
    """Split every route into two sub-routes at a uniformly random link.

    This is the random-split baseline the rank-guided operator is compared
    against; single-task routes pass through whole.
    """
    pool: list[tuple[int, ...]] = []
    for route in solution.routes:
        n = len(route)
        _cut(route, [rng.randrange(n - 1)] if n >= 2 else [], pool)
    return pool
