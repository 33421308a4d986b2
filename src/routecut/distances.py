"""All-pairs shortest-path distances over deadheading costs.

``shortest_paths`` shrinks the graph that Dijkstra runs on, in three steps:

1. Eliminate: remove vertices of degree at most ``_ELIMINATION_DEGREE`` in
   min-degree order.  Each removal joins every pair of the vertex's
   neighbours by a shortcut through it, as contraction hierarchies do
   (Geisberger, Sanders, Schultes and Delling, WEA 2008).
2. Solve the core: one ``dijkstra`` over the vertices left.
3. Fill in: in reverse order of removal, a removed vertex's row is the
   cheapest of its neighbours' rows plus the edge to each, as in all-pairs
   shortest paths over an elimination ordering (Planken, de Weerdt and
   van der Krogt, JAIR 2012).

Elimination runs only when every edge cost is integral and their total is
at most ``_EXACT_INT``.  Then every sum is an exact integer, and the table
equals Dijkstra's over the whole graph bit for bit, whatever the order of
the additions.  The fill-in then runs in the narrowest integer type that a
bound on the table's entries and on the fill-in's sums allows
(``_fill_type``), int16 on generated instances, so no V x V float64 is
made; it runs in float64 when the core holds infinity, a removed vertex
has no neighbour or that bound exceeds ``_EXACT_INT``.  Other costs
eliminate nothing: the core is the whole graph, and Dijkstra's rounding
stays as it was.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .instance import Instance


# entries up to this bound keep every sum of a few of them exact both as
# ints and as floats (a float's significand holds 53 bits)
_EXACT_INT = 2**50

# vertices of at most this degree are eliminated before Dijkstra runs.  A
# higher cap leaves a smaller core, but its shortcuts make the core denser
# and give each fill-in row more neighbours to read.  Median all-pairs time
# per generated instance, with the int16 fill-in (seeds 1, 7, 11, caps
# interleaved, 9 runs each; one core of a 2-vCPU x86 host) at caps none / 8
# / 12 / 16 / 24 / 32 / 48: 1500 vertices 613 / 247 / 200 / 185 / 169 / 162
# / 169 ms, with cores of about 1500 / 690 / 500 / 410 / 290 / 200 / 95
# vertices; 500 vertices 59 / 28 / 29 / 24 / 23 / 24 / 25 ms.  32 was faster
# at 1500 vertices only, so the cap stays at 24.
_ELIMINATION_DEGREE = 24

# a distance table as nested lists: all ints or all floats (see DistanceTable)
Rows = list[list[int]] | list[list[float]]


def _int_type(limit: float) -> type:
    """The narrowest of int16, int32 and int64 that holds ``limit``, at most
    4 * ``_EXACT_INT``."""
    return next(t for t in (np.int16, np.int32, np.int64) if limit <= np.iinfo(t).max)


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
    An integer ``matrix`` is read for its extremes only and kept as it is
    when it has that type already, as ``shortest_paths`` fills it in, or
    cast to it; a float one is cast and compared with its cast.

    ``rows`` exposes the table as nested lists for tight scalar loops:
    Python ``int``s under an integer type, ``float``s under float64.
    CPython shares one object per int below 257, so small costs cost the
    lists their pointers only; and integers this small add exactly as ints
    and as floats, so every cost summed from the rows is the same either
    way.  Sums that start from ``0.0`` (``route_cost``) stay ``float``.
    """

    def __init__(self, matrix: np.ndarray):
        self._rows: Rows | None = None
        integral = matrix.dtype.kind in "iu"
        low, high = matrix.min(initial=0), matrix.max(initial=0)
        # nan and inf fail the bound: no int cast
        largest = max(int(high), -int(low)) if integral else max(float(high), -float(low))
        dtype = _int_type(4 * largest) if largest <= _EXACT_INT else np.float64
        if integral or dtype is np.float64:
            self.matrix = matrix.astype(dtype, copy=False)
        else:
            narrow = matrix.astype(dtype)
            exact = np.array_equal(narrow, matrix)
            self.matrix = narrow if exact else matrix.astype(np.float64, copy=False)

    @property
    def rows(self) -> Rows:
        if self._rows is None:
            self._rows = self.matrix.tolist()
        return self._rows


def _eliminate(adj: list[dict[int, float] | None]) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Remove vertices from ``adj`` in min-degree order while the lowest
    degree is at most ``_ELIMINATION_DEGREE``.  One vertex is always kept,
    so the core Dijkstra never gets an empty graph.

    Each removal joins every pair of the vertex's neighbours by a shortcut
    costing the path through it, or lowers their edge to that cost, so the
    vertices left keep their shortest-path costs; a removed vertex's entry
    becomes None.  Returns, in removal order, each removed vertex with its
    neighbours and its edge costs to them at the time of removal.
    """
    heap = [(len(nbrs), v) for v, nbrs in enumerate(adj)]
    heapq.heapify(heap)
    removed = []
    while len(removed) < len(adj) - 1:
        degree, v = heapq.heappop(heap)
        nbrs = adj[v]
        if nbrs is None or degree != len(nbrs):
            continue  # removed already, or pushed before its degree changed
        if degree > _ELIMINATION_DEGREE:
            break
        adj[v] = None
        links = list(nbrs.items())
        for a, _ in links:
            del adj[a][v]
        for i, (a, wa) in enumerate(links):
            near = adj[a]
            for b, wb in links[i + 1:]:
                w = wa + wb
                if w < near.get(b, math.inf):
                    near[b] = adj[b][a] = w
        for a, _ in links:
            heapq.heappush(heap, (len(adj[a]), a))
        removed.append((v, np.fromiter(nbrs, np.intp, degree),
                        np.fromiter(nbrs.values(), np.float64, degree)))
    return removed


def _fill_type(core_matrix: np.ndarray, removed: list[tuple[int, np.ndarray, np.ndarray]]) -> type:
    """The type to fill in the distance table in: the narrowest of
    int16, int32 and int64 that holds four times a bound on every entry, so
    that ``DistanceTable`` keeps the type or narrows it, and a bound on
    every sum that a fill-in step forms; float64 when the core holds
    infinity, a removed vertex has no neighbour or the entry bound exceeds
    ``_EXACT_INT``.

    In fill-in order, ``reach[v]`` bounds the cost from v to the core: 0 in
    the core, else the least ``reach[a] + w`` over v's neighbours a.  An
    entry is a path from x to the core, across it and on to y, so at most
    ``2 * max(reach) + core maximum``; a core row's maximum bounds no
    removed vertex's row, since two pendants of one core vertex lie the sum
    of their edges apart.  A step adds ``w`` to row a, whose entries are
    such costs, at most ``reach[a] + max(reach) + core maximum``, or
    placeholders of columns not filled in yet, at most ``reach[a]``.  An
    edge far costlier than any path survives elimination as a ``w``, so the
    largest ``reach[a] + w`` bounds the sums, not the entries.
    """
    core_largest = float(core_matrix.max(initial=0))
    reach: dict[int, float] = {}  # of removed vertices; a core vertex's is 0
    step = 0.0  # the largest reach[a] + w of a fill-in step
    for v, nbrs, w in reversed(removed):
        sums = [reach.get(a, 0.0) + wa for a, wa in zip(nbrs.tolist(), w.tolist())]
        if not sums:
            return np.float64
        reach[v] = min(sums)
        step = max(step, max(sums))
    farthest = max(reach.values())
    bound = 2 * farthest + core_largest
    if not bound <= _EXACT_INT:  # inf too
        return np.float64
    return _int_type(max(4 * bound, step + farthest + core_largest))


def shortest_paths(instance: Instance) -> DistanceTable:
    """All-pairs shortest-path costs by elimination, a core Dijkstra and
    fill-in (see the module docstring for the method and when it runs).

    Parallel edges collapse to their cheapest copy; self-loops contribute
    nothing to shortest paths.  Explicit zero-cost edges are kept as edges.

    A removed vertex's neighbours were removed after it or are in the core,
    so their rows are filled in before its own; its row is written into its
    column too.  Until then, its column holds zeros, and any row filled in
    before it reads them but is overwritten there by that column write.
    The fill-in runs in the type ``_fill_type`` picks; the degree cap
    trades a smaller core against denser shortcuts and wider fill-ins, and
    ``_ELIMINATION_DEGREE`` records how its value was measured.
    """
    n = instance.vertex_count
    adj: list[dict[int, float] | None] = [{} for _ in range(n)]
    for e in instance.edges:
        w = float(e.deadheading_cost)
        if e.u != e.v and w < adj[e.u].get(e.v, math.inf):
            adj[e.u][e.v] = adj[e.v][e.u] = w
    costs = [w for u, nbrs in enumerate(adj) for v, w in nbrs.items() if u < v]
    exact = all(w.is_integer() for w in costs) and math.fsum(costs) <= _EXACT_INT
    removed = _eliminate(adj) if exact else []

    core = [v for v, nbrs in enumerate(adj) if nbrs is not None]
    index = {v: i for i, v in enumerate(core)}
    edges = [(index[u], index[v], w) for u in core for v, w in adj[u].items() if u < v]
    us, vs, ws = zip(*edges) if edges else ((), (), ())
    graph = coo_matrix((np.array(ws, dtype=np.float64),
                        (np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp))),
                       shape=(len(core), len(core))).tocsr()
    matrix = dijkstra(graph, directed=False)
    if removed:
        core_matrix, matrix = matrix, np.zeros((n, n), _fill_type(matrix, removed))
        matrix[np.ix_(core, core)] = core_matrix
    # the row of a removed vertex with no neighbour: inf (only a float fill-in has one)
    top = np.inf if matrix.dtype == np.float64 else np.iinfo(matrix.dtype).max
    for v, nbrs, w in reversed(removed):
        block = matrix[nbrs]
        block += w.astype(matrix.dtype, copy=False)[:, None]
        row = matrix[v]
        block.min(axis=0, initial=top, out=row)
        row[v] = 0
        matrix[:, v] = row
    return DistanceTable(matrix)
