"""Random benchmark instance generation.

Instances are built on a random geometric graph: vertices are points in
the unit square, edges come from their Delaunay triangulation (connected
and planar), deadheading costs are rounded scaled Euclidean lengths, the
service cost equals the deadheading cost, and a random subset of edges
receives uniform demands.  The depot is the vertex nearest the centroid.
Everything is a pure function of the seed, so regenerated files are
byte-identical.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay

from .instance import Edge, Instance, left_sum, save_instance

_COST_SCALE = 100


def generate_instance(
    vertices: int,
    tasks: int,
    capacity: int,
    seed: int,
    name: str | None = None,
) -> Instance:
    if vertices < 2:
        raise ValueError("need at least 2 vertices")
    if capacity < 1:
        raise ValueError("capacity must be positive")
    if tasks < 0:
        raise ValueError("tasks must be non-negative")
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(vertices)]

    if vertices <= 3:
        pairs = sorted(combinations(range(vertices), 2))
    else:
        tri = Delaunay(np.array(points))
        seen = set()
        for simplex in tri.simplices:
            for i in range(3):
                u, v = int(simplex[i]), int(simplex[(i + 1) % 3])
                seen.add((u, v) if u < v else (v, u))
        pairs = sorted(seen)

    if tasks > len(pairs):
        raise ValueError(
            f"cannot place {tasks} tasks on a graph with {len(pairs)} edges; "
            "increase the vertex count"
        )

    required = set(rng.sample(range(len(pairs)), tasks))
    max_demand = max(1, capacity // 3)
    edges = []
    for idx, (u, v) in enumerate(pairs):
        du = points[u][0] - points[v][0]
        dv = points[u][1] - points[v][1]
        cost = max(1, round(math.hypot(du, dv) * _COST_SCALE))
        if idx in required:
            edges.append(Edge(u, v, rng.randint(1, max_demand), cost, cost))
        else:
            edges.append(Edge(u, v, 0, 0, cost))

    cx = left_sum(p[0] for p in points) / vertices
    cy = left_sum(p[1] for p in points) / vertices
    depot = min(range(vertices), key=lambda i: (points[i][0] - cx) ** 2 + (points[i][1] - cy) ** 2)

    if name is None:
        name = f"rnd-v{vertices}-t{tasks}-s{seed}"
    return Instance(name, vertices, edges, depot, capacity)


def generate_instance_file(
    path: str | Path, vertices: int, tasks: int, capacity: int, seed: int
) -> Instance:
    instance = generate_instance(vertices, tasks, capacity, seed)
    save_instance(instance, path)
    return instance
