"""All-pairs shortest-path distances over deadheading costs."""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .instance import Instance


class DistanceTable:
    """Dense table of shortest-path costs between all vertex pairs.

    Unreachable pairs hold infinity (only possible between non-task
    vertices; task endpoints are guaranteed reachable at load time).
    ``rows`` exposes the table as nested lists for tight scalar loops.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self._rows: list[list[float]] | None = None

    @property
    def rows(self) -> list[list[float]]:
        if self._rows is None:
            self._rows = self.matrix.tolist()
        return self._rows


def shortest_paths(instance: Instance) -> DistanceTable:
    """Run Dijkstra from every vertex and materialize the full table.

    Parallel edges collapse to their cheapest copy; self-loops contribute
    nothing to shortest paths.  Explicit zero-cost edges are kept as edges.
    """
    n = instance.vertex_count
    best: dict[tuple[int, int], float] = {}
    for e in instance.edges:
        if e.u == e.v:
            continue
        key = (e.u, e.v) if e.u < e.v else (e.v, e.u)
        w = float(e.deadheading_cost)
        if key not in best or w < best[key]:
            best[key] = w
    if best:
        us, vs = zip(*best.keys())
        data = np.fromiter(best.values(), dtype=np.float64, count=len(best))
        graph = coo_matrix((data, (np.array(us), np.array(vs))), shape=(n, n)).tocsr()
    else:
        graph = coo_matrix((n, n), dtype=np.float64).tocsr()
    matrix = dijkstra(graph, directed=False)
    return DistanceTable(matrix)
