"""All-pairs shortest-path distances over deadheading costs.

``shortest_paths`` takes one of two paths.  When every edge cost is
integral, their total is at most ``_EXACT_INT`` and one ``dijkstra`` from
vertex 0 reaches every vertex, every sum is an exact integer and no entry
exceeds twice vertex 0's eccentricity (a path through it).  Twice that plus
one, ``bound``, then sets the work type, and the table is built in three
steps:

1. Eliminate: remove vertices of degree at most ``_ELIMINATION_DEGREE`` in
   min-degree order.  Each removal joins every pair of the vertex's
   neighbours by a shortcut through it, as contraction hierarchies do
   (Geisberger, Sanders, Schultes and Delling, WEA 2008).
2. Solve the core: Floyd-Warshall over the vertices left, vectorised one
   intermediate vertex at a time, with pairs that have no edge, and edges
   costlier than ``bound``, starting at ``bound``.
3. Fill in: in reverse order of removal, a removed vertex's row is the
   cheapest of its neighbours' rows plus the edge to each, clipped to
   ``bound``, as in all-pairs shortest paths over an elimination ordering
   (Planken, de Weerdt and van der Krogt, JAIR 2012).  It runs in the
   narrowest integer type that holds four times ``bound`` (int16 on
   generated instances), so no V x V float64 is made.

The table equals Dijkstra's over the whole graph bit for bit, whatever the
order of the additions.  Every other graph (a fractional or too large
cost, or a vertex that vertex 0 does not reach) is solved by an all-pairs
``dijkstra`` over the whole graph, and Dijkstra's rounding stays as it was.
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

# vertices of at most this degree are eliminated before the core is solved.
# A higher cap leaves a smaller core, but its shortcuts make the core denser
# and give each fill-in row more neighbours to read.  Median all-pairs time
# per generated instance, with the Floyd-Warshall core and the int16 fill-in
# (seeds 1, 7, 11, caps interleaved, 9 runs each; one core of a 2-vCPU x86
# host; each range spans the medians of two sweeps) at caps 8 / 12 / 16 /
# 24 / 32 / 48: 1500 vertices 97-110 / 59-66 / 51-57 / 48-54 / 51-56 /
# 62-68 ms, with cores of about 690 / 500 / 410 / 290 / 200 / 95 vertices;
# 500 vertices 9.2-9.9 / 9.3-9.9 / 9.8-10.6 / 11.2-12.3 / 13.2-14.3 /
# 14.6-15.7 ms.  Lower caps gain about 2 ms at 500 vertices and lose 3 ms or
# more at 1500, so the cap stays at 24.  It changes speed only: the table is
# the same at any cap.
_ELIMINATION_DEGREE = 24

# a distance table as nested lists: all ints or all floats (see DistanceTable)
Rows = list[list[int]] | list[list[float]]


def _int_type(limit: float) -> type:
    """The narrowest of int16, int32 and int64 that holds ``limit``, at most
    4 * (2 * ``_EXACT_INT`` + 1)."""
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
    when it has that type already, as ``shortest_paths``'s fill-in has on
    generated instances, or cast to it; a float one is cast and compared
    with its cast.

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
    so the core is never empty.

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


def _floyd_warshall(n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray,
                    absent: int) -> np.ndarray:
    """All-pairs shortest-path costs over ``n`` vertices joined by the
    undirected edges ``(us, vs)`` of integral costs ``ws``, when ``absent``
    exceeds every shortest-path cost between them.

    A pair with no edge starts at ``absent``, and so does an edge that costs
    more; a path through either costs at least ``absent``, so the minimum
    is the path that uses neither.  Every entry stays at most ``absent``,
    so the sums fit the type that holds twice it.  The matrix stays
    symmetric, so row k serves as column k too.

    The work is O(n^3) against all-pairs Dijkstra's O(n * edges log n), and
    it holds two n x n arrays of the work type (4 bytes per pair in int16,
    where Dijkstra's table takes 8 in float64).  On cores that elimination
    cannot shrink (circulant graphs of degree 26, costs 1-100, one core of a
    2-vCPU x86 host) it is faster up to about 1,100 core vertices (900:
    260 against 391 ms) and slower beyond (1,300: 863 against 716 ms;
    1,500: 1.20 against 0.94 s).  A generated instance of 1,500 vertices
    leaves a core of about 290.
    """
    m = np.full((n, n), absent, _int_type(2 * absent))
    w = np.minimum(ws, absent).astype(m.dtype)
    m[us, vs] = w
    m[vs, us] = w
    np.fill_diagonal(m, 0)
    via = np.empty_like(m)
    for k in range(n):
        row = m[k]
        np.add(row[:, None], row, out=via)
        np.minimum(m, via, out=m)
    return m


def _edge_arrays(adj: list[dict[int, float] | None],
                 keep: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of ``adj`` between the vertices ``keep``, each once and
    numbered by its position there: end arrays ``us``, ``vs`` and costs ``ws``."""
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v], w) for u in keep for v, w in adj[u].items() if u < v]
    uvw = np.array(edges, dtype=np.float64).reshape(-1, 3)
    us, vs = uvw[:, :2].astype(np.intp).T
    return us, vs, uvw[:, 2]


def shortest_paths(instance: Instance) -> DistanceTable:
    """All-pairs shortest-path costs by elimination, a solved core and
    fill-in, or by Dijkstra over the whole graph (see the module docstring
    for the method and when each runs).

    Parallel edges collapse to their cheapest copy; self-loops contribute
    nothing to shortest paths.  Explicit zero-cost edges are kept as edges.

    A removed vertex's neighbours were removed after it or are in the core,
    so their rows are filled in before its own; its row is written into its
    column too.  Until then, its column holds zeros, and any row filled in
    before it reads them but is overwritten there by that column write.
    Each step clips its edges to ``bound``: a shortcut can sum edges
    costlier than any path, and a path through a clipped one costs at least
    ``bound``, more than the entry it competes for.  Every sum is below
    twice ``bound`` and every entry below ``bound``, so the work type holds
    the sums and four times every entry: ``DistanceTable`` keeps it or
    narrows it.
    """
    n = instance.vertex_count
    adj: list[dict[int, float] | None] = [{} for _ in range(n)]
    for e in instance.edges:
        w = float(e.deadheading_cost)
        if e.u != e.v and w < adj[e.u].get(e.v, math.inf):
            adj[e.u][e.v] = adj[e.v][e.u] = w
    us, vs, ws = _edge_arrays(adj, list(range(n)))
    graph = coo_matrix((ws, (us, vs)), shape=(n, n)).tocsr()
    costs = ws.tolist()
    exact = all(w.is_integer() for w in costs) and math.fsum(costs) <= _EXACT_INT
    ecc = dijkstra(graph, directed=False, indices=0).max() if exact else math.inf
    if not math.isfinite(ecc):
        return DistanceTable(dijkstra(graph, directed=False))
    # no entry exceeds twice vertex 0's eccentricity (a path through it)
    bound = 2 * int(ecc) + 1
    removed = _eliminate(adj)
    core = [v for v, nbrs in enumerate(adj) if nbrs is not None]
    matrix = np.zeros((n, n), _int_type(4 * bound))
    matrix[np.ix_(core, core)] = _floyd_warshall(len(core), *_edge_arrays(adj, core), bound)
    for v, nbrs, w in reversed(removed):
        block = matrix[nbrs]
        block += np.minimum(w, bound).astype(matrix.dtype)[:, None]
        row = matrix[v]
        block.min(axis=0, out=row)
        row[v] = 0
        matrix[:, v] = row
    return DistanceTable(matrix)
