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
    or more.
    """
    # position p holds directed id p + 1
    heads = np.array(instance.id_head[1:], dtype=np.intp)
    demands = np.array(instance.id_demand[1:], dtype=np.float64)
    open_ids = np.ones(len(heads), dtype=bool)
    interiors: list[list[int]] = []

    while open_ids.any():
        current = instance.depot
        load = 0.0
        interior: list[int] = []
        while True:
            cand = np.flatnonzero(open_ids & (load + demands <= instance.capacity))
            if cand.size == 0:
                break
            d = dist.matrix[current, heads[cand]]
            ties = cand[d == d.min()]
            pick = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
            tid = int(pick) + 1
            interior.append(tid)
            load += instance.id_demand[tid]
            current = instance.id_tail[tid]
            open_ids[[pick, pick ^ 1]] = False  # both directions of the task
        interiors.append(interior)
    return Solution.build(interiors, instance, dist)
