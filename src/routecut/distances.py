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

# rows per block of _int_rows; at 1500 vertices a block of 32 keeps the peak
# within 0.4 MB of the 18 MB of lists, against +36 MB for one whole-table cast
_ROWS_BLOCK = 32


def _int_rows(m: np.ndarray) -> list[list[int]] | None:
    """``m`` as nested lists of ints, converted a block of rows at a time,
    or None unless every entry is finite, integral and at most
    ``_EXACT_INT``."""
    rows: list[list[int]] = []
    for start in range(0, len(m), _ROWS_BLOCK):
        block = m[start : start + _ROWS_BLOCK]
        # finiteness first: casting inf to int64 is undefined and warns;
        # shortest-path costs are never negative
        if not np.isfinite(block).all() or (block > _EXACT_INT).any():
            return None
        ints = block.astype(np.int64)
        if not np.array_equal(ints, block):
            return None
        rows += ints.tolist()
    return rows


class DistanceTable:
    """Dense table of shortest-path costs between all vertex pairs.

    Unreachable pairs hold infinity (only possible between non-task
    vertices; task endpoints are guaranteed reachable at load time).
    ``rows`` exposes the table as nested lists for tight scalar loops.
    Its entries are Python ``int``s when every entry is finite, integral
    and at most ``_EXACT_INT`` (integer edge costs), ``float``s otherwise.
    CPython shares one object per int below 257, so small costs cost the
    lists their pointers only; and integers this small add exactly as ints
    and as floats, so every cost summed from the rows is the same either
    way.  Sums that start from ``0.0`` (``route_cost``) stay ``float``.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self._rows: Rows | None = None

    @property
    def rows(self) -> Rows:
        if self._rows is None:
            rows = _int_rows(self.matrix)
            self._rows = self.matrix.tolist() if rows is None else rows
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
