"""All-pairs shortest-path distances over deadheading costs."""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .instance import Instance


# entries up to this bound keep every sum of a few of them exact both as
# ints and as floats (a float's significand holds 53 bits)
_EXACT_INT = 2**50

# a distance table as nested lists: all ints or all floats (see DistanceTable)
Rows = list[list[int]] | list[list[float]]


class DistanceTable:
    """Dense table of shortest-path costs between all vertex pairs.

    One rule sets the type of ``matrix``: when every entry is finite,
    integral and at most ``_EXACT_INT`` in magnitude (integer edge costs),
    the narrowest of int16, int32 and int64 that holds four times the
    largest, so a link numerator (four distances summed, see
    ``link_numerators``) cannot overflow; float64 otherwise.  Generated
    instances fit int16: 2 bytes per vertex pair, not float64's 8.  The
    type is signed, since ``hdu`` writes -1 into a copy of a medoid column.
    Unreachable pairs hold infinity, so such a table is float64 (only
    between non-task vertices; task endpoints are reachable at load time).

    ``rows`` exposes the table as nested lists for tight scalar loops:
    Python ``int``s under an integer type, ``float``s under float64.
    CPython shares one object per int below 257, so small costs cost the
    lists their pointers only; and integers this small add exactly as ints
    and as floats, so every cost summed from the rows is the same either
    way.  Sums that start from ``0.0`` (``route_cost``) stay ``float``.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix.astype(np.float64, copy=False)
        self._rows: Rows | None = None
        # max and min carry nan and inf, which fail the bound: no int cast
        largest = max(float(matrix.max(initial=0)), -float(matrix.min(initial=0)))
        if largest <= _EXACT_INT:
            dtype = next(t for t in (np.int16, np.int32, np.int64)
                         if 4 * largest <= np.iinfo(t).max)
            narrow = matrix.astype(dtype)
            if np.array_equal(narrow, matrix):
                self.matrix = narrow

    @property
    def rows(self) -> Rows:
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
