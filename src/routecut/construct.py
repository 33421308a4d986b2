"""Greedy nearest-task route construction."""

from __future__ import annotations

import random

import numpy as np

from .distances import DistanceTable
from .instance import Instance
from .solution import Solution


def path_scanning(instance: Instance, dist: DistanceTable, rng: random.Random) -> Solution:
    """Build a feasible solution by repeatedly serving the nearest unserved
    task that fits the remaining capacity, opening a new route when nothing
    fits.  Distance ties are broken uniformly at random among the tied ids in
    ascending order (forward before reverse), drawing only when there are two
    or more.  A step that can serve an id at distance 0 takes the same ties,
    and so the same draw, from per-vertex lists of such ids built once per
    call, instead of scanning every id.
    """
    # position p holds directed id p + 1; a served id's demand is NaN in
    # ``left`` and in its list copy ``free``, so ``load + left <= capacity`` is
    # false for it whatever the capacity; ``at[v]`` holds, ascending, the
    # positions whose head is at distance 0 from v (distances are non-negative)
    heads = np.array(instance.id_head[1:], dtype=np.intp)
    left = np.array(instance.id_demand[1:], dtype=np.float64)
    free = left.tolist()
    capacity = float(instance.capacity)  # as numpy compares it
    rows, cols = np.divmod(np.flatnonzero(dist.matrix == 0), len(dist.matrix))
    zero: list[list[int]] = [[] for _ in range(len(dist.matrix))]
    for v, u in zip(rows.tolist(), cols.tolist()):
        zero[u].append(v)
    at: list[list[int]] = [[] for _ in zero]
    for p, h in enumerate(instance.id_head[1:]):
        for v in zero[h]:
            at[v].append(p)
    routes: list[list[int]] = []

    while not np.isnan(left).all():
        current = instance.depot
        load = 0.0
        route: list[int] = []
        while True:
            ties = [p for p in at[current] if load + free[p] <= capacity]
            if not ties:
                cand = (load + left <= capacity).nonzero()[0]
                if cand.size == 0:
                    break
                d = dist.matrix[current].take(heads.take(cand))
                ties = cand[d == d.min()]
            pick = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
            tid = int(pick) + 1
            route.append(tid)
            load += instance.id_demand[tid]
            current = instance.id_tail[tid]
            left[pick] = left[pick ^ 1] = np.nan  # both directions of the task
            free[pick] = free[pick ^ 1] = np.nan
        routes.append(route)
    return Solution.build(routes, instance, dist)
