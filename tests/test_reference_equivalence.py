"""`shortest_paths` (elimination, a core Dijkstra and a fill-in in the
table's own integer type, against both Dijkstra over the whole graph and
the float64 fill-in), `route_cost` over a route's served IDs alone,
`DistanceTable.rows` and `RankMatrix.nearest` (both in row blocks), the
numpy `hdu` level loop and its nearest-neighbour chain, `rank_rows` (both
its keyed and its sorting path) with `RankMatrix.link_ranks` (kept and
on-demand ranks), `link_numerators` (in row blocks),
`path_scanning`, `_pairwise_distances` (in row blocks of whole sub-routes),
`fuzzy_kmedoid`'s one-pass assignment, local search's touched-route
re-indexing and its fused move scan against the versions they replaced,
kept here as references.

Each must reproduce its reference exactly: the same routes, the same
neighbour lists, the same rank values and dtype, the same distance matrix
and, where the RNG is drawn, the same number and order of draws (compared
through ``rng.getstate()``).  Most instances are built to be tie-heavy:
parallel required edges, zero deadheading costs and therefore off-diagonal
zero link numerators, plus float demands whose sums land on or just past
the capacity.
"""

import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from routecut import (
    Edge,
    Instance,
    build_rank_matrix,
    distances,
    elementary_virtual_tasks,
    hdu,
    local_search,
    localsearch,
    path_scanning,
    ranking,
    rco_split,
    validate,
)
from routecut.decompose import (
    _DISTANCE_BLOCK,
    _farthest_points,
    _pairwise_distances,
    _repair_empty_groups,
    fuzzy_kmedoid,
)
from routecut.distances import (
    _EXACT_INT,
    DistanceTable,
    _eliminate,
    _elimination_cap,
    shortest_paths,
)
from routecut.generator import generate_instance
from routecut.instance import DEPOT_ID, forward_id, inverse_id, task_index_of
from routecut.ranking import _ROW_BLOCK, link_numerators, rank_rows
from routecut.search import ALGORITHMS, SearchConfig, concat_solutions, project_solution, solve
from routecut.seeding import make_rng
from routecut.solution import Solution, route_cost

from conftest import (
    all_link_ranks,
    make_instance,
    neighbors,
    rank_matrix_of,
    tie_heavy_instance,
    whole_graph_dijkstra,
)

SCALES = (0.1, 0.5, 0.9)


def _neighbor_sizes(n):
    """Every k the top-k selection treats apart: none, one, a few, the
    usual 20, all other tasks and more than there are."""
    return sorted({0, 1, 3, 20, max(n - 1, 0), n + 5})


# --- references: the code the numpy versions replaced ----------------------


def reference_shortest_paths(instance):
    """Elimination, a core Dijkstra and a fill-in into a V x V float64,
    which ``DistanceTable`` then narrows: the fill-in that the one in the
    table's own integer type replaced."""
    n = instance.vertex_count
    adj = [{} for _ in range(n)]
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
        core_matrix, matrix = matrix, np.zeros((n, n))
        matrix[np.ix_(core, core)] = core_matrix
    for v, nbrs, w in reversed(removed):
        block = matrix[nbrs]
        block += w[:, None]
        row = matrix[v]
        block.min(axis=0, initial=math.inf, out=row)
        row[v] = 0
        matrix[:, v] = row
    return DistanceTable(matrix)


@dataclass(frozen=True)
class ReferenceVirtualTask:
    """The unit ``hdu`` chained before units became plain ID tuples: an
    ordered task sequence entered at ``head`` and left at ``tail``."""

    ids: tuple[int, ...]
    head: int
    tail: int

    def reversed(self):
        return ReferenceVirtualTask(
            tuple(inverse_id(t) for t in reversed(self.ids)), self.tail, self.head
        )


def reference_virtual_task(ids, instance):
    return ReferenceVirtualTask(ids, instance.id_head[ids[0]], instance.id_tail[ids[-1]])


def _endpoint_distance(a, b, rows):
    ra = rows[a.head]
    rb = rows[a.tail]
    return min(ra[b.head], ra[b.tail], rb[b.head], rb[b.tail])


def _pick_min(values, rng):
    best = min(values)
    ties = [i for i, v in enumerate(values) if v == best]
    return ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]


def reference_chain_cluster(units, rows, rng):
    remaining = list(units)
    cur = remaining.pop(rng.randrange(len(remaining)))
    ids = list(cur.ids)
    tail = cur.tail
    while remaining:
        row = rows[tail]
        j = _pick_min([min(row[u.head], row[u.tail]) for u in remaining], rng)
        nxt = remaining.pop(j)
        if row[nxt.tail] < row[nxt.head]:
            nxt = nxt.reversed()
        ids.extend(nxt.ids)
        tail = nxt.tail
    return tuple(ids)


def reference_hdu(units, instance, dist, scale, rng):
    units = [reference_virtual_task(u, instance) for u in units]
    rows = dist.rows
    while len(units) > 1:
        m = len(units)
        k = max(1, min(math.ceil(scale * m), m - 1))
        medoids = [rng.randrange(m)]
        nearest = [_endpoint_distance(u, units[medoids[0]], rows) for u in units]
        while len(medoids) < k:
            nearest_masked = [-1.0 if i in medoids else nearest[i] for i in range(m)]
            far = int(np.argmax(nearest_masked))
            medoids.append(far)
            for i in range(m):
                d = _endpoint_distance(units[i], units[far], rows)
                if d < nearest[i]:
                    nearest[i] = d

        clusters = [[] for _ in range(k)]
        for u in units:
            dists = [_endpoint_distance(u, units[mi], rows) for mi in medoids]
            clusters[_pick_min(dists, rng)].append(u)

        units = [
            reference_virtual_task(reference_chain_cluster(cluster, rows, rng), instance)
            for cluster in clusters
            if cluster
        ]

    giant = units[0].ids
    demand = instance.id_demand
    interiors, current, load = [], [], 0.0
    for t in giant:
        if current and load + demand[t] > instance.capacity:
            interiors.append(current)
            current, load = [], 0.0
        current.append(t)
        load += demand[t]
    if current:
        interiors.append(current)
    return Solution.build(interiors, instance, dist)


def reference_nearest(costs, k):
    n = costs.shape[0]
    k = min(k, n - 1)
    order = np.argsort(costs, axis=1, kind="stable")
    out = []
    for i in range(n):
        row = [int(j) for j in order[i] if j != i]
        out.append(row[:k])
    return out


def reference_rank_rows(costs):
    n = costs.shape[0]
    dtype = np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32
    ranks = np.zeros((n, n), dtype=dtype)
    idx = np.arange(n)
    for i in range(n):
        row = costs[i]
        others = np.sort(row[idx != i])
        r = np.searchsorted(others, row, side="left") + 1
        r[i] = 0
        ranks[i] = r
    return ranks


def _task_ends(instance):
    heads = np.array([t.u for t in instance.tasks], dtype=np.intp)
    tails = np.array([t.v for t in instance.tasks], dtype=np.intp)
    return heads, tails


def reference_link_numerators(instance, dist):
    heads, tails = _task_ends(instance)
    m = dist.matrix
    num = (
        m[np.ix_(heads, heads)]
        + m[np.ix_(heads, tails)]
        + m[np.ix_(tails, heads)]
        + m[np.ix_(tails, tails)]
    )
    np.fill_diagonal(num, 0)
    # in the table's own type: int16 for a generated instance's table
    return num


def reference_path_scanning(instance, dist, rng):
    rows = dist.rows
    head = instance.id_head
    tail = instance.id_tail
    unserved = set(range(instance.task_count))
    interiors = []
    while unserved:
        current = instance.depot
        load = 0.0
        interior = []
        while True:
            row = rows[current]
            best_d = None
            best_ids = []
            for ti in unserved:
                task = instance.tasks[ti]
                if load + task.demand > instance.capacity:
                    continue
                for tid in (forward_id(ti), inverse_id(forward_id(ti))):
                    d = row[head[tid]]
                    if best_d is None or d < best_d:
                        best_d = d
                        best_ids = [tid]
                    elif d == best_d:
                        best_ids.append(tid)
            if best_d is None:
                break
            tid = best_ids[0] if len(best_ids) == 1 else best_ids[rng.randrange(len(best_ids))]
            interior.append(tid)
            load += instance.id_demand[tid]
            current = tail[tid]
            unserved.remove((tid - 1) >> 1)
        interiors.append(interior)
    return Solution.build(interiors, instance, dist)


def subroute_distance(a, b, num):
    """Mean link cost over all task pairs of two sub-routes (0 for identity),
    from the whole matrix ``num`` of `reference_link_numerators`."""
    if a is b:
        return 0.0
    ai = [task_index_of(t) for t in a]
    bi = [task_index_of(t) for t in b]
    block = num[np.ix_(ai, bi)]
    return float(block.mean()) / 4.0


def reference_pairwise_distances(pool, num):
    n = len(pool)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = subroute_distance(pool[i], pool[j], num)
    return d


def whole_matrix_pairwise_distances(pool, num):
    """`_pairwise_distances` over the whole matrix ``num``: gather every
    pair of the pool's tasks, sum each sub-route's rows, then its columns."""
    sizes = np.array([len(s) for s in pool])
    order = [task_index_of(t) for s in pool for t in s]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    block = num[np.ix_(order, order)]
    # integer numerators come in the table's narrow type: sum them as int64
    total = np.float64 if num.dtype.kind == "f" else np.int64
    sums = np.add.reduceat(np.add.reduceat(block, starts, axis=0, dtype=total), starts, axis=1)
    d = np.triu(sums / np.outer(sizes, sizes) / 4.0, 1)
    return d + d.T


def reference_farthest_point_medoids(d, g, rng):
    """Farthest-point medoids from a random first one, recomputing every
    sub-route's nearest medoid from all of ``d``'s medoid columns."""
    n = d.shape[0]
    medoids = [rng.randrange(n)]
    while len(medoids) < g:
        nearest = d[:, medoids].min(axis=1)
        nearest[medoids] = -1.0
        medoids.append(int(np.argmax(nearest)))
    return medoids


def reference_fuzzy_kmedoid(pool, group_count, fuzziness, instance, dist, rng):
    """`fuzzy_kmedoid` assigning one sub-route at a time."""
    members = list(pool)
    n = len(members)
    g = min(group_count, n)
    d = _pairwise_distances(members, instance, dist)
    if g == 1:
        return [members]
    alpha = fuzziness
    medoids = reference_farthest_point_medoids(d, g, rng)
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(20):
        new_assign = np.empty(n, dtype=np.int64)
        for i in range(n):
            dists = d[i, medoids]
            nearest = int(np.argmin(dists))
            if dists[nearest] == 0.0:
                new_assign[i] = nearest
                continue
            weights = (dists / dists[nearest]) ** (-alpha)
            cum = np.cumsum(weights)
            x = rng.random() * cum[-1]
            new_assign[i] = int(np.searchsorted(cum, x, side="right"))
        _repair_empty_groups(new_assign, d, medoids)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for group in range(g):
            idx = np.flatnonzero(assign == group)
            within = d[np.ix_(idx, idx)].sum(axis=1)
            medoids[group] = int(idx[np.argmin(within)])
    groups = [[] for _ in range(g)]
    for i in range(n):
        groups[int(assign[i])].append(members[i])
    return groups


# --- tie-heavy instances -----------------------------------------------------


def _random_units(instance, rng):
    """Cover every task once with multi-task units of random orientation."""
    ids = [forward_id(ti) for ti in range(instance.task_count)]
    ids = [inverse_id(t) if rng.random() < 0.5 else t for t in ids]
    rng.shuffle(ids)
    units = []
    while ids:
        size = rng.randint(1, 3)
        units.append(tuple(ids[:size]))
        ids = ids[size:]
    return units


def _assert_hdu_matches(units, instance, dist, scale, seed):
    ref_rng = make_rng(seed)
    new_rng = make_rng(seed)
    expected = reference_hdu(list(units), instance, dist, scale, ref_rng)
    got = hdu(list(units), instance, dist, scale, new_rng)
    assert got.routes == expected.routes
    assert got.total_cost == expected.total_cost
    assert new_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", range(100))
def test_hdu_matches_reference_on_tie_heavy_instances(seed):
    instance = tie_heavy_instance(seed)
    dist = instance.distances()
    elementary = elementary_virtual_tasks(instance)
    grouped = _random_units(instance, random.Random(seed))
    for scale in SCALES:
        _assert_hdu_matches(elementary, instance, dist, scale, seed)
        _assert_hdu_matches(grouped, instance, dist, scale, seed + 1)


@pytest.mark.parametrize("seed", range(4))
def test_hdu_matches_reference_on_an_asymmetric_table(seed):
    # medoid distances are read from each unit's row at the medoid's
    # columns; reading the medoid's row instead holds only when symmetric
    instance = generate_instance(60, 90, 60, seed=seed)
    matrix = instance.distances().matrix.astype(np.float64)
    upper = np.triu_indices(len(matrix), 1)
    matrix[upper] += np.random.default_rng(seed).random(len(upper[0])) / 3
    assert not np.array_equal(matrix, matrix.T)
    dist = DistanceTable(matrix)
    elementary = elementary_virtual_tasks(instance)
    grouped = _random_units(instance, random.Random(seed))
    for scale in SCALES:
        _assert_hdu_matches(elementary, instance, dist, scale, seed)
        _assert_hdu_matches(grouped, instance, dist, scale, seed + 1)


def _assert_rows_read_as_columns(units, instance, dist, scale, seed, monkeypatch):
    """``hdu`` gives the same routes and draws when it reads ``dist`` by
    columns, as it does on an asymmetric table, as when it reads it by rows."""
    assert dist.symmetric
    by_rows_rng, by_columns_rng = make_rng(seed), make_rng(seed)
    by_rows = hdu(list(units), instance, dist, scale, by_rows_rng)
    with monkeypatch.context() as patch:
        patch.setattr(DistanceTable, "symmetric", property(lambda self: False))
        by_columns = hdu(list(units), instance, dist, scale, by_columns_rng)
    assert by_columns.routes == by_rows.routes
    assert by_columns_rng.getstate() == by_rows_rng.getstate()


@pytest.mark.parametrize("seed", range(50))
def test_hdu_reads_rows_and_columns_alike_on_tie_heavy_instances(seed, monkeypatch):
    instance = tie_heavy_instance(seed)
    dist = instance.distances()
    grouped = _random_units(instance, random.Random(seed))
    for scale in SCALES:
        _assert_rows_read_as_columns(elementary_virtual_tasks(instance), instance, dist,
                                     scale, seed, monkeypatch)
        _assert_rows_read_as_columns(grouped, instance, dist, scale, seed + 1, monkeypatch)


@pytest.mark.parametrize("vertices, tasks", ((60, 90), (200, 300)))
def test_hdu_reads_rows_and_columns_alike_on_generated_instances(vertices, tasks, monkeypatch):
    instance = generate_instance(vertices, tasks, 60, seed=tasks)
    dist = instance.distances()
    ranks = build_rank_matrix(instance, dist)
    pool = _rco_pools(instance, dist, ranks, ((0.5, 0.9),), tasks)[0]
    for scale in SCALES:
        _assert_rows_read_as_columns(elementary_virtual_tasks(instance), instance, dist,
                                     scale, tasks, monkeypatch)
        _assert_rows_read_as_columns(pool, instance, dist, scale, tasks + 1, monkeypatch)


@pytest.mark.parametrize("seed", range(4))
def test_the_asymmetric_hdu_table_reads_asymmetric(seed):
    # the matrix of test_hdu_matches_reference_on_an_asymmetric_table
    instance = generate_instance(60, 90, 60, seed=seed)
    matrix = instance.distances().matrix.astype(np.float64)
    upper = np.triu_indices(len(matrix), 1)
    matrix[upper] += np.random.default_rng(seed).random(len(upper[0])) / 3
    assert not DistanceTable(matrix).symmetric


@pytest.mark.parametrize("seed", range(2))
def test_hdu_matches_reference_on_a_table_at_the_int16_limit(seed):
    # the largest entry int16 stores four of: far pairs all sit at 8191
    instance = generate_instance(60, 90, 60, seed=seed)
    matrix = instance.distances().matrix.astype(np.float64) * 60
    matrix[matrix > np.quantile(matrix, 0.8)] = 8191
    dist = DistanceTable(matrix)
    assert dist.matrix.dtype == np.int16 and dist.matrix.max() == 8191
    elementary = elementary_virtual_tasks(instance)
    grouped = _random_units(instance, random.Random(seed))
    for scale in SCALES:
        _assert_hdu_matches(elementary, instance, dist, scale, seed)
        _assert_hdu_matches(grouped, instance, dist, scale, seed + 1)


@pytest.mark.parametrize("seed", range(100))
def test_nearest_matches_reference_on_tie_heavy_instances(seed):
    instance = tie_heavy_instance(seed)
    dist = instance.distances()
    ranks = build_rank_matrix(instance, dist)
    num = reference_link_numerators(instance, dist)
    for k in _neighbor_sizes(instance.task_count):
        assert ranks.nearest(k) == reference_nearest(num, k)


def _assert_kept_ranks(ranks, expected):
    """The kept links of ``ranks`` carry ``expected``'s ranks, in its dtype."""
    assert ranks.ranks.dtype == expected.dtype
    kept = np.take_along_axis(expected, ranks.columns.astype(np.intp), axis=1)
    assert np.array_equal(ranks.ranks, kept)


def _assert_same_ranks(ranks, expected):
    """``_assert_kept_ranks``, and every link's rank, kept or not, is
    ``expected``'s."""
    _assert_kept_ranks(ranks, expected)
    assert np.array_equal(all_link_ranks(ranks), expected)


@pytest.fixture
def rank_paths(monkeypatch):
    """The paths ("keys", "sorting") that `rank_rows` takes while a test
    runs."""
    taken = set()

    def spy(*args, keys=ranking._keys):
        key = keys(*args)
        taken.add("sorting" if key is None else "keys")
        return key

    monkeypatch.setattr(ranking, "_keys", spy)
    return taken


def _tie_crosses(num, keep):
    """Whether a row of ``num`` has a tie block that runs past its first
    ``keep`` links."""
    for i, row in enumerate(num):
        others = np.sort(np.delete(row, i))
        if len(others) > keep and others[keep - 1] == others[keep]:
            return True
    return False


@pytest.mark.parametrize("seed", range(100))
def test_rank_rows_match_reference_on_tie_heavy_instances(seed, rank_paths, monkeypatch):
    instance = tie_heavy_instance(seed)
    dist = instance.distances()
    num = reference_link_numerators(instance, dist)
    rank_paths.clear()
    _assert_same_ranks(build_rank_matrix(instance, dist), reference_rank_rows(num))
    assert rank_paths == ({"keys"} if len(num) > 1 else set())
    # two links kept per task: ties run past them and most ranks are counted
    monkeypatch.setattr(ranking, "_KEEP", 2)
    _assert_same_ranks(build_rank_matrix(instance, dist), reference_rank_rows(num))


def test_tie_heavy_instances_are_tie_heavy():
    # the generator must actually produce the ties the comparisons rely on
    zero_links = parallel = crossing = 0
    for seed in range(100):
        instance = tie_heavy_instance(seed)
        ends = [tuple(sorted((t.u, t.v))) for t in instance.tasks]
        parallel += len(ends) > len(set(ends))
        num = reference_link_numerators(instance, instance.distances())
        zero_links += bool(np.any(num[~np.eye(len(num), dtype=bool)] == 0))
        crossing += _tie_crosses(num, 2)
    assert parallel >= 50
    assert zero_links >= 50
    assert crossing >= 50


@pytest.mark.parametrize("seed", range(20))
def test_nearest_matches_reference_on_random_numerators(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    num = rng.integers(0, 4, size=(n, n))
    np.fill_diagonal(num, 0)
    ranks = rank_matrix_of(num)
    for k in _neighbor_sizes(n):
        assert ranks.nearest(k) == reference_nearest(num, k)


def _random_matrix(n, kind, rng):
    """A square matrix of ints 0..3, of four ints spread so wide that
    `rank_rows` cannot key them without overflow, of multiples of 0.1
    (0.1 + 0.2 next to 0.3) or of distinct random floats.  The diagonal is
    drawn like the rest, so it is cheaper than, equal to or dearer than the
    other entries of its row."""
    if kind == "int":
        return rng.integers(0, 4, size=(n, n))
    if kind == "wide":
        return rng.integers(0, 4, size=(n, n)) * 2**61
    if kind == "tenths":
        return rng.choice([0.0, 0.1, 0.2, 0.1 + 0.2, 0.3], size=(n, n))
    return rng.random((n, n))


# a single row, one row short of a block, a block, one row over, and a
# partial third block
BLOCK_SIZES = (1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3)


@pytest.mark.parametrize("kind", ["int", "wide", "tenths", "float"])
@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("seed", range(4))
def test_ranking_matches_reference_on_random_matrices(seed, n, kind, rank_paths):
    num = _random_matrix(n, kind, np.random.default_rng([seed, n]))
    ranks = rank_matrix_of(num)
    _assert_same_ranks(ranks, reference_rank_rows(num))
    # a 1 x 1 matrix has no link to rank
    assert rank_paths == ({"keys" if kind == "int" else "sorting"} if n > 1 else set())
    for k in _neighbor_sizes(n):
        assert ranks.nearest(k) == reference_nearest(num, k)


def test_nearest_edge_cases():
    empty = rank_matrix_of(np.zeros((0, 0), dtype=np.int64))
    assert empty.nearest(3) == reference_nearest(np.zeros((0, 0), dtype=np.int64), 3) == []
    assert empty.link_ranks([[], []]) == [[], []]
    ranks = rank_matrix_of(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="non-negative"):
        ranks.nearest(-1)


# one row short of a build_rank_matrix block, a block, one row over, and a
# partial third block, past the _KEEP links kept per task
NEAREST_SIZES = (_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3)


def _rows_tied_across_block_edges(n, rng):
    """Ints 0..3 whose two rows on each side of every block edge are one
    row repeated: ties within each row, and the same ties on both sides of
    the edge, with the diagonal cheaper than, equal to or dearer than them."""
    num = rng.integers(0, 4, size=(n, n))
    for edge in range(_ROW_BLOCK, n, _ROW_BLOCK):
        num[edge - 2 : edge + 2] = num[edge]
    return num


@pytest.mark.parametrize("n", NEAREST_SIZES)
@pytest.mark.parametrize("seed", range(4))
def test_nearest_matches_reference_across_row_blocks(seed, n):
    rng = np.random.default_rng([seed, n])
    matrices = [
        _rows_tied_across_block_edges(n, rng),
        rng.integers(0, 4, size=(n, n)),
        np.zeros((n, n), dtype=np.int64),  # every off-diagonal entry ties
        _random_matrix(n, "tenths", rng),
        _random_matrix(n, "float", rng),
    ]
    for num in matrices:
        ranks = rank_matrix_of(num)
        for k in _neighbor_sizes(n):
            assert ranks.nearest(k) == reference_nearest(num, k)


def reference_rows(m):
    if np.isfinite(m).all() and not (m > _EXACT_INT).any():
        ints = m.astype(np.int64)
        if np.array_equal(ints, m):
            m = ints
    return m.tolist()


@pytest.mark.parametrize("n", (1, 32, 33, 67))
@pytest.mark.parametrize("last", [3.0, 0.5, math.inf, 2.0 * _EXACT_INT])
def test_distance_rows_match_reference(n, last):
    # the last entry decides between ints and floats
    m = np.random.default_rng(n).integers(0, 9, size=(n, n)).astype(np.float64)
    m[-1, -1] = last
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = DistanceTable(m).rows
    expected = reference_rows(m)
    assert got == expected
    assert [type(x) for row in got for x in row] == [type(x) for row in expected for x in row]


@pytest.fixture(scope="module")
def mid_instance():
    instance = generate_instance(500, 800, 60, seed=1)
    dist = instance.distances()
    return instance, dist, build_rank_matrix(instance, dist)


def test_matches_reference_on_a_generated_mid_size_instance(mid_instance):
    instance, dist, ranks = mid_instance
    _assert_hdu_matches(elementary_virtual_tasks(instance), instance, dist, 0.1, 3)
    assert ranks.nearest(20) == reference_nearest(reference_link_numerators(instance, dist), 20)


def test_ranking_matches_reference_on_a_generated_mid_size_instance(mid_instance, rank_paths):
    instance, dist, ranks = mid_instance
    num = reference_link_numerators(instance, dist)
    assert num.dtype == dist.matrix.dtype == np.int16
    expected = reference_rank_rows(num)
    _assert_kept_ranks(ranks, expected)
    columns, kept = rank_rows(num)
    assert np.array_equal(columns, ranks.columns) and np.array_equal(kept, ranks.ranks)
    assert rank_paths == {"keys"}
    n = instance.task_count
    # whole random tours: about one link in twenty is not kept
    rng = random.Random(4)
    for _ in range(3):
        tasks = rng.sample(range(n), n)
        (got,) = ranks.link_ranks([[forward_id(t) for t in tasks]])
        assert got == [int(expected[a, b]) for a, b in zip(tasks, tasks[1:])]
    _assert_same_numerators(link_numerators(dist.matrix, *_task_ends(instance), 0, n), num)
    for k in _neighbor_sizes(n):
        assert ranks.nearest(k) == reference_nearest(num, k)


def _assert_same_numerators(got, expected):
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()  # bit for bit, -0.0 and all


def _link_instance(kind, tasks, seed):
    """An instance of ``tasks`` tasks with integer costs, with costs in
    steps of 0.1 (sums off the integers), or on a tree of 0.5-cost task
    edges: its distances are halves, yet every four-endpoint sum is whole.
    The last two have float64 tables, hence float64 numerators."""
    if kind == "halves":
        rng = random.Random(seed)
        edges = [(rng.randrange(v), v, 1, 1, 0.5) for v in range(1, tasks + 1)]
        return make_instance(tasks + 1, edges, capacity=tasks)
    instance = generate_instance(max(tasks, 8), tasks, 60, seed=seed)
    if kind == "tenths":
        edges = [Edge(e.u, e.v, e.demand, e.service_cost, e.deadheading_cost / 10)
                 for e in instance.edges]
        instance = Instance("tenths", instance.vertex_count, edges,
                            instance.depot, instance.capacity)
    return instance


LINK_DTYPES = {"int": np.int16, "halves": np.float64, "tenths": np.float64}


@pytest.mark.parametrize("kind", sorted(LINK_DTYPES))
# task counts around one, two and three blocks of 16 rows, each cut into
# single rows, into blocks of 16 and into build_rank_matrix's _ROW_BLOCK
@pytest.mark.parametrize("tasks", (2, 15, 16, 17, 35))
@pytest.mark.parametrize("seed", range(3))
def test_link_numerators_match_reference(seed, tasks, kind):
    instance = _link_instance(kind, tasks, seed)
    dist = instance.distances()
    expected = reference_link_numerators(instance, dist)
    assert expected.dtype == LINK_DTYPES[kind]
    if kind == "halves":
        assert np.any(dist.matrix % 1 == 0.5)
    heads, tails = _task_ends(instance)
    _assert_same_numerators(link_numerators(dist.matrix, heads, tails, 0, tasks), expected)
    for rows in (1, 16, _ROW_BLOCK):
        for start in range(0, tasks, rows):
            stop = min(start + rows, tasks)
            _assert_same_numerators(
                link_numerators(dist.matrix, heads, tails, start, stop),
                expected[start:stop],
            )


@pytest.mark.parametrize("kind", sorted(LINK_DTYPES))
@pytest.mark.parametrize("tasks", BLOCK_SIZES[1:])
@pytest.mark.parametrize("seed", range(2))
def test_build_rank_matrix_matches_reference_across_row_blocks(seed, tasks, kind):
    # each block of rows is summed in the table's type and ranked on
    # its own; the ranks must be the whole matrix's
    instance = _link_instance(kind, tasks, seed)
    dist = instance.distances()
    num = reference_link_numerators(instance, dist)
    _assert_same_ranks(build_rank_matrix(instance, dist), reference_rank_rows(num))


# --- path_scanning and _pairwise_distances -----------------------------------


def _float_demand_instance(seed):
    """The tie-heavy graph with float demands: sums such as 0.2 + 0.5 land
    on a capacity of 0.7, and 0.1 + 0.2 overshoots 0.3 in floating point."""
    rng = random.Random(seed)
    capacity = rng.choice((0.3, 0.6, 0.7, 1.0))
    demands = [d for d in (0.1, 0.2, 0.3, 0.4, 0.5) if d <= capacity]
    base = tie_heavy_instance(seed)
    edges = [
        (e.u, e.v, rng.choice(demands) if e.required else 0, e.service_cost,
         e.deadheading_cost)
        for e in base.edges
    ]
    return make_instance(base.vertex_count, edges, capacity=capacity)


def _assert_path_scanning_matches(instance, dist, seed):
    ref_rng = make_rng(seed)
    new_rng = make_rng(seed)
    expected = reference_path_scanning(instance, dist, ref_rng)
    got = path_scanning(instance, dist, new_rng)
    assert got.routes == expected.routes
    assert got.total_cost == expected.total_cost
    assert new_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", range(100))
def test_path_scanning_matches_reference_on_tie_heavy_instances(seed):
    for instance in (tie_heavy_instance(seed), _float_demand_instance(seed)):
        dist = instance.distances()
        for draw in range(3):
            _assert_path_scanning_matches(instance, dist, 3 * seed + draw)


def test_path_scanning_instances_exercise_ties_and_full_routes():
    draws = full = 0
    for seed in range(100):
        for instance in (tie_heavy_instance(seed), _float_demand_instance(seed)):
            rng = make_rng(seed)
            solution = path_scanning(instance, instance.distances(), rng)
            draws += rng.getstate() != make_rng(seed).getstate()
            full += any(
                sum(instance.id_demand[t] for t in r) == instance.capacity
                for r in solution.routes
            )
    assert draws >= 50
    assert full >= 50


@pytest.mark.parametrize("first, second, capacity", [(2, 3, 5), (0.2, 0.5, 0.7)])
def test_path_scanning_fit_test_is_load_plus_demand(first, second, capacity):
    # the load lands exactly on the capacity, so both tasks share one route;
    # for floats 0.2 + 0.5 <= 0.7 holds while 0.5 <= 0.7 - 0.2 does not
    edges = [(0, 1, first, 1, 1), (1, 2, second, 1, 1)]
    instance = make_instance(3, edges, capacity=capacity)
    dist = instance.distances()
    expected = reference_path_scanning(instance, dist, make_rng(0))
    assert expected.route_count == 1
    _assert_path_scanning_matches(instance, dist, 0)


@pytest.mark.parametrize("seed", range(20))
def test_path_scanning_matches_reference_with_an_infinite_capacity(seed):
    # a served id must never fit again, however large the capacity
    base = tie_heavy_instance(seed)
    edges = [(e.u, e.v, e.demand, e.service_cost, e.deadheading_cost) for e in base.edges]
    instance = make_instance(base.vertex_count, edges, capacity=math.inf)
    dist = instance.distances()
    _assert_path_scanning_matches(instance, dist, seed)
    assert path_scanning(instance, dist, make_rng(seed)).route_count == 1


def test_path_scanning_matches_reference_on_a_generated_mid_size_instance(mid_instance):
    instance, dist, _ = mid_instance
    for seed in range(2):
        _assert_path_scanning_matches(instance, dist, seed)


@pytest.mark.parametrize("seed", range(20))
def test_path_scanning_matches_reference_on_multigraphs(seed):
    # zero-cost edges put other vertices' ids at distance 0, self-loops
    # start and end at one vertex, and the task-free component that the
    # depot cannot reach leaves infinities in a float64 table
    instance = _multigraph_instance(seed)
    dist = instance.distances()
    assert dist.matrix.dtype == np.float64 and np.isinf(dist.matrix).any()
    for draw in range(3):
        _assert_path_scanning_matches(instance, dist, 3 * seed + draw)


@pytest.mark.parametrize("own_demand, tied", [(7, {5, 7}), (3, {3, 5, 7})])
def test_path_scanning_draws_among_ids_across_zero_cost_edges(own_demand, tied):
    # zero-cost edges join vertex 1 to 2 and 3, so every id that starts at
    # 1, 2 or 3 is at distance 0 from 1.  The first task ends at 1 with a
    # load of 4; the id that starts there (3) does not fit or does, and
    # those that start at 3 (5) and at 2 (7) fit: the step draws among ids
    # of other vertices only, or of 1 and the others, in ascending order
    edges = [(0, 1, 4, 1, 1), (1, 4, own_demand, 2, 2), (3, 4, 3, 2, 2), (2, 4, 3, 2, 2),
             (1, 2, 0, 0, 0), (1, 3, 0, 0, 0)]
    instance = make_instance(5, edges, capacity=10)
    dist = instance.distances()
    assert dist.matrix[1, 2] == dist.matrix[1, 3] == 0
    second = set()
    for seed in range(20):
        _assert_path_scanning_matches(instance, dist, seed)
        second.add(path_scanning(instance, dist, make_rng(seed)).routes[0][1])
    assert second == tied


def _random_subroutes(task_count, rng):
    ids = [forward_id(ti) for ti in range(task_count)]
    ids = [inverse_id(t) if rng.random() < 0.5 else t for t in ids]
    rng.shuffle(ids)
    pool = []
    while ids:
        size = rng.randint(1, 4)
        pool.append(tuple(ids[:size]))
        ids = ids[size:]
    return pool


def _assert_pairwise_matches(pool, instance, dist):
    num = reference_link_numerators(instance, dist)
    got = _pairwise_distances(pool, instance, dist)
    assert got.tobytes() == whole_matrix_pairwise_distances(pool, num).tobytes()
    assert np.array_equal(got, reference_pairwise_distances(pool, num))
    for i in range(len(pool)):
        for j in range(len(pool)):
            assert got[i, j] == subroute_distance(pool[i], pool[j], num)


@pytest.mark.parametrize("seed", range(100))
def test_pairwise_distances_match_reference_on_tie_heavy_instances(seed):
    instance = tie_heavy_instance(seed)
    dist = instance.distances()
    ranks = build_rank_matrix(instance, dist)
    assert np.issubdtype(reference_link_numerators(instance, dist).dtype, np.integer)
    rng = make_rng(seed)
    solution = path_scanning(instance, dist, rng)
    for lam_theta in ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)):
        pool = list(rco_split(solution, ranks, *lam_theta, rng))
        _assert_pairwise_matches(pool, instance, dist)
    _assert_pairwise_matches(_random_subroutes(instance.task_count, rng), instance, dist)


def _tenths(instance):
    """``instance`` with its costs, demands and capacity in tenths: sums
    such as 0.1 + 0.2 miss 0.3, so an addition made in another order shows
    in the last bits of a running cost or a load."""
    edges = [Edge(e.u, e.v, e.demand / 10, e.service_cost / 10, e.deadheading_cost / 10)
             for e in instance.edges]
    return Instance("tenths", instance.vertex_count, edges, instance.depot,
                    instance.capacity / 10)


def _float_cost_instance(n, seed):
    """A generated instance of ``n`` tasks whose costs are scaled by random
    floats, so that link numerators are float64 sums."""
    rng = random.Random(seed)
    base = generate_instance(max(n, 8), n, 60, seed=seed)
    edges = [Edge(e.u, e.v, e.demand, e.service_cost, e.deadheading_cost * rng.random())
             for e in base.edges]
    return Instance("floats", base.vertex_count, edges, base.depot, base.capacity)


@pytest.mark.parametrize("seed", range(10))
def test_pairwise_distances_close_to_reference_on_float_numerators(seed):
    # float block sums run in another order than np.mean's: equal up to
    # rounding, and bit for bit equal to the sums over the whole matrix
    n = int(np.random.default_rng(seed).integers(2, 40))
    instance = _float_cost_instance(n, seed)
    dist = instance.distances()
    num = reference_link_numerators(instance, dist)
    assert num.dtype == np.float64
    pool = _random_subroutes(n, random.Random(seed))
    got = _pairwise_distances(pool, instance, dist)
    np.testing.assert_allclose(got, reference_pairwise_distances(pool, num), rtol=1e-12)
    assert got.tobytes() == whole_matrix_pairwise_distances(pool, num).tobytes()
    assert np.array_equal(got, got.T)


def _straddling_pools(instance, dist, rng):
    """Pools whose sub-routes cross the block edges of _pairwise_distances:
    random short sub-routes, whole routes, and one sub-route longer than a
    block beside single tasks."""
    n = instance.task_count
    long = [forward_id(ti) for ti in range(n)]
    rng.shuffle(long)
    cut = min(n - 1, _DISTANCE_BLOCK + 3)
    return [
        _random_subroutes(n, rng),
        path_scanning(instance, dist, make_rng(rng.randrange(1000))).routes,
        [tuple(long[:cut])] + [(t,) for t in long[cut:]],
    ]


@pytest.mark.parametrize("kind", sorted(LINK_DTYPES))
@pytest.mark.parametrize("tasks", (2, _DISTANCE_BLOCK + 1, 3 * _DISTANCE_BLOCK + 5))
@pytest.mark.parametrize("seed", range(3))
def test_pairwise_distances_match_whole_matrix_sums_across_row_blocks(seed, tasks, kind):
    # summed a block of rows at a time, on integer, half-integral and
    # float link numerators, the distances are the whole matrix's bit for bit
    instance = _link_instance(kind, tasks, seed)
    dist = instance.distances()
    num = reference_link_numerators(instance, dist)
    for pool in _straddling_pools(instance, dist, random.Random(seed)):
        got = _pairwise_distances(pool, instance, dist)
        assert got.tobytes() == whole_matrix_pairwise_distances(pool, num).tobytes()
        np.testing.assert_allclose(got, reference_pairwise_distances(pool, num), rtol=1e-12)


def test_pairwise_distances_match_reference_on_a_generated_mid_size_instance(mid_instance):
    instance, dist, ranks = mid_instance
    rng = make_rng(5)
    pool = list(rco_split(path_scanning(instance, dist, rng), ranks, 0.05, 0.2, rng))
    assert len(pool) > 100
    _assert_pairwise_matches(pool, instance, dist)


# --- fuzzy_kmedoid: assigning every sub-route in one pass ------------------


class _QuarterDraws:
    """An RNG whose ``random()`` is a multiple of 1/4: with tied medoids the
    running weight sums are whole (1, 2, ...), so draw times total lands
    exactly on one of them: the one case where ``cum <= x`` and ``cum < x``
    differ."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def randrange(self, n):
        return self._rng.randrange(n)

    def random(self):
        return self._rng.randrange(4) / 4

    def getstate(self):
        return self._rng.getstate()


GROUP_COUNTS = (1, 2, 3, 5)
FUZZINESS = (0.5, 5.0, 50.0)


def _medoid_matrix(n, kind, rng):
    """A symmetric sub-route distance matrix with a zero diagonal, as
    `_pairwise_distances` gives: ints 0..2 (ties everywhere), distinct
    random floats, or all zeros."""
    if kind == "ties":
        d = rng.integers(0, 3, size=(n, n)).astype(float)
    elif kind == "float":
        d = rng.random((n, n))
    else:
        d = np.zeros((n, n))
    d = np.triu(d, 1)
    return d + d.T


@pytest.mark.parametrize("kind", ["ties", "float", "zeros"])
@pytest.mark.parametrize("seed", range(10))
def test_farthest_points_match_reference_medoids(seed, kind):
    gen = np.random.default_rng(seed)
    for n in (1, 2, 3, 7, 20):
        d = _medoid_matrix(n, kind, gen)
        before = d.copy()
        for g in range(1, n + 1):
            ref_rng, new_rng = make_rng(seed), make_rng(seed)
            expected = reference_farthest_point_medoids(d, g, ref_rng)
            got, columns, nearest = _farthest_points(new_rng.randrange(n), g, lambda j: d[:, j])
            assert got == expected
            assert new_rng.getstate() == ref_rng.getstate()
            assert all(np.array_equal(c, d[:, m]) for c, m in zip(columns, got))
            assert np.array_equal(nearest, d[:, got].min(axis=1))
        assert np.array_equal(d, before)


def _assert_fuzzy_matches(pool, instance, dist, seed, make=make_rng):
    for g in GROUP_COUNTS:
        for alpha in FUZZINESS:
            ref_rng, new_rng = make(seed), make(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # pools smaller than g
                expected = reference_fuzzy_kmedoid(pool, g, alpha, instance, dist, ref_rng)
                got = fuzzy_kmedoid(pool, g, alpha, instance, dist, new_rng)
            assert got == expected
            assert new_rng.getstate() == ref_rng.getstate()


def _rco_pools(instance, dist, ranks, lam_thetas, seed):
    rng = make_rng(seed)
    solution = path_scanning(instance, dist, rng)
    return [list(rco_split(solution, ranks, lam, theta, rng)) for lam, theta in lam_thetas]


@pytest.mark.parametrize("seed", range(100))
def test_fuzzy_kmedoid_matches_reference_on_tie_heavy_instances(seed):
    instance = tie_heavy_instance(seed)
    dist = instance.distances()
    ranks = build_rank_matrix(instance, dist)
    lam_thetas = ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))
    for pool in _rco_pools(instance, dist, ranks, lam_thetas, seed):
        _assert_fuzzy_matches(pool, instance, dist, seed)
        _assert_fuzzy_matches(pool, instance, dist, seed, make=_QuarterDraws)


GENERATED_SIZES = ((20, 15), (60, 90), (200, 300))
FUZZY_PARAMS = ((0.05, 0.2), (0.5, 0.9), (0.0, 0.0))  # (lam, theta)


@pytest.mark.parametrize("vertices, tasks", GENERATED_SIZES)
def test_fuzzy_kmedoid_matches_reference_on_generated_instances(vertices, tasks):
    instance = generate_instance(vertices, tasks, 60, seed=tasks)
    dist = instance.distances()
    ranks = build_rank_matrix(instance, dist)
    for pool in _rco_pools(instance, dist, ranks, FUZZY_PARAMS, tasks):
        _assert_fuzzy_matches(pool, instance, dist, tasks)
        _assert_fuzzy_matches(pool, instance, dist, tasks, make=_QuarterDraws)


def test_fuzzy_kmedoid_cases_reach_small_pools_zeros_and_exact_draws():
    # pools smaller than a group count, zero distances between sub-routes,
    # and quarter draws landing exactly on a running weight sum
    small = zero_rows = exact = 0
    for seed in range(100):
        instance = tie_heavy_instance(seed)
        dist = instance.distances()
        ranks = build_rank_matrix(instance, dist)
        for pool in _rco_pools(instance, dist, ranks, ((0.5, 0.5),), seed):
            small += len(pool) < max(GROUP_COUNTS)
            d = _pairwise_distances(pool, instance, dist)
            zero_rows += bool(np.any(d[~np.eye(len(pool), dtype=bool)] == 0))
            for g in range(2, min(len(pool), max(GROUP_COUNTS)) + 1):
                to_medoid = d[:, reference_farthest_point_medoids(d, g, _QuarterDraws(seed))]
                nearest = to_medoid.min(axis=1, keepdims=True)
                far = nearest[:, 0] != 0
                for alpha in FUZZINESS:
                    cum = np.cumsum((to_medoid[far] / nearest[far]) ** -alpha, axis=1)
                    landing = cum[:, -1:] * np.array([[0.25, 0.5, 0.75]])
                    exact += int((cum[:, :-1, None] == landing[:, None, :]).sum())
    assert small >= 30
    assert zero_rows >= 50
    assert exact >= 10  # with the first medoids only; later iterations add more


def test_fuzzy_kmedoid_matches_reference_on_a_generated_mid_size_instance(mid_instance):
    instance, dist, ranks = mid_instance
    for pool in _rco_pools(instance, dist, ranks, FUZZY_PARAMS[:2], 9):
        _assert_fuzzy_matches(pool, instance, dist, 9)


# --- local search: empty slots and re-indexing only the routes a move touched


class _FullReindexState(localsearch._State):
    """The index upkeep that empty slots and touched-route re-indexing
    replaced: every re-index drops each empty route with its load,
    which shifts the routes after it down one index, then rebuilds ``where``
    and the load of every route."""

    def _reindex(self, k):
        for j in reversed(range(len(self.routes))):
            if not self.routes[j]:
                del self.routes[j], self.loads[j]
        for j in range(len(self.routes)):
            super()._reindex(j)


# budgets that stop at once, in the middle of a pass, and never
LOCAL_SEARCH_EVALS = (1, 5, 40, 300, None)


def _local_search_starts(instance, dist, rng):
    """path_scanning's solution; its routes cut into pieces of at most two
    tasks, which moves empty; and tasks in random order and orientation
    filled into routes up to the capacity, whose detours fresh routes fix."""
    scanned = path_scanning(instance, dist, rng)
    pieces = [r[i : i + 2] for r in scanned.routes for i in range(0, len(r), 2)]
    ids = [forward_id(ti) for ti in range(instance.task_count)]
    ids = [inverse_id(t) if rng.random() < 0.5 else t for t in ids]
    rng.shuffle(ids)
    filled, load = [], instance.capacity
    for t in ids:
        if load + instance.id_demand[t] > instance.capacity:
            filled.append([])
            load = 0
        filled[-1].append(t)
        load += instance.id_demand[t]
    return [scanned, *(Solution.build(r, instance, dist) for r in (pieces, filled))]


def _assert_local_search_matches(instance, dist, start, seed, max_evals, monkeypatch, **kw):
    runs = []
    for state in (localsearch._State, _FullReindexState):
        rng = make_rng(seed)
        with monkeypatch.context() as m:
            m.setattr(localsearch, "_State", state)
            out = local_search(
                start, instance, dist, rng,
                max_evals=max_evals, neighbors=neighbors(instance, dist), **kw,
            )
        runs.append((out.routes, out.total_cost, rng.getstate()))
    assert runs[0] == runs[1]


def _count_reindex_branches(monkeypatch, seen):
    """Count, into ``seen``, the applied moves that append a fresh route or
    empty a route below or above the other route they touch: the moves after
    which an empty slot and a dropped route index the routes differently."""
    relocate, exchange = localsearch._apply_relocate, localsearch._apply_tail_exchange

    def counting_relocate(st, k1, i1, x, k2, j, delta):
        if k2 == len(st.routes):
            seen["relocate into a fresh route"] += 1
        elif len(st.routes[k1]) == 1:
            seen["relocate empties k1, k2 < k1" if k2 < k1 else "relocate empties k1, k2 > k1"] += 1
        relocate(st, k1, i1, x, k2, j, delta)

    def counting_exchange(st, k1, c1, k2, c2, delta):
        if c2 == -1 and c1 == len(st.routes[k1]) - 1:
            seen["exchange empties k2, k1 < k2" if k1 < k2 else "exchange empties k2, k1 > k2"] += 1
        exchange(st, k1, c1, k2, c2, delta)

    monkeypatch.setattr(localsearch, "_apply_relocate", counting_relocate)
    monkeypatch.setattr(localsearch, "_apply_tail_exchange", counting_exchange)


REINDEX_BRANCHES = {
    "relocate into a fresh route",
    "relocate empties k1, k2 < k1",
    "relocate empties k1, k2 > k1",
    "exchange empties k2, k1 < k2",
    "exchange empties k2, k1 > k2",
}


@pytest.mark.parametrize("seed", range(100))
def test_local_search_matches_full_reindex_on_tie_heavy_instances(seed, monkeypatch):
    instance = tie_heavy_instance(seed)
    dist = instance.distances()
    for start in _local_search_starts(instance, dist, make_rng(seed)):
        for max_evals in LOCAL_SEARCH_EVALS:
            _assert_local_search_matches(
                instance, dist, start, seed, max_evals, monkeypatch, debug=True
            )


def test_local_search_tie_heavy_runs_reach_every_reindex_branch(monkeypatch):
    seen = Counter()
    _count_reindex_branches(monkeypatch, seen)
    for seed in range(100):
        instance = tie_heavy_instance(seed)
        dist = instance.distances()
        for start in _local_search_starts(instance, dist, make_rng(seed)):
            local_search(start, instance, dist, make_rng(seed),
                         neighbors=neighbors(instance, dist), debug=True)
    # no run here relocates into a fresh route, whose detour saving must
    # beat a round trip from the depot; the mid-size instance below does
    assert set(seen) == REINDEX_BRANCHES - {"relocate into a fresh route"}, seen


def test_local_search_matches_full_reindex_on_a_generated_mid_size_instance(
    mid_instance, monkeypatch
):
    instance, dist, _ = mid_instance
    seen = Counter()
    _count_reindex_branches(monkeypatch, seen)
    scanned, *short_routes = _local_search_starts(instance, dist, make_rng(7))
    # to a local optimum from path_scanning's solution only: the reference
    # re-indexes all routes after each move, seconds on the other starts
    runs = [(scanned, (2_000, 25_000, None))] + [(s, (2_000, 12_000)) for s in short_routes]
    for start, budgets in runs:
        for max_evals in budgets:
            _assert_local_search_matches(instance, dist, start, 7, max_evals, monkeypatch)
    assert set(seen) == REINDEX_BRANCHES, seen


# --- local search: the move evaluators the fused scan replaced --------------


def _fold(values):
    """The sum of ``values`` added left to right from 0, as local search sums
    its loads; ``sum`` compensates float sums from Python 3.12 on."""
    total = 0
    for x in values:
        total = total + x
    return total


def reference_local_search(solution, instance, dist, rng, *, max_evals=None, deadline=None,
                           neighbors, debug=False):
    """Local search with one evaluator per move kind and a ``spent(n)`` that
    counts evaluations and polls ``deadline`` whenever the count crosses a
    multiple of ``_CHECK_EVERY``.  It reads only each task's route and
    position from the index, looks up the vertices around a task in its
    route and folds the tail exchange's cut loads from the route slices.
    It evaluates and applies the segment reversal (2-opt, or a flip)
    itself, and applies the other moves with the module's own functions."""
    C, EPS = localsearch._CHECK_EVERY, localsearch._EPS
    st = localsearch._State(solution, instance, dist)
    present = [ti for ti in range(instance.task_count) if st.where[ti] is not None]
    if len(present) <= 1:
        return solution
    D, head, tail, dem = st.D, st.head, st.tail, st.dem
    depot, capacity = st.depot, st.capacity
    evals = 0
    out_of_budget = False

    def prev_v(r, i):
        return tail[r[i - 1]] if i > 0 else depot

    def next_v(r, i):
        return head[r[i + 1]] if i + 1 < len(r) else depot

    def spent(n):
        nonlocal evals, out_of_budget
        evals += n
        if max_evals is not None and evals >= max_evals:
            out_of_budget = True
        elif deadline is not None and evals // C != (evals - n) // C:
            out_of_budget = deadline()
        return out_of_budget

    def try_task(ti):
        k1, i1 = st.where[ti][:2]
        r1 = st.routes[k1]
        a = r1[i1]
        if try_reverse(k1, i1, i1):
            return True
        if spent(1):
            return False
        if len(r1) >= 2:
            p1, n1 = prev_v(r1, i1), next_v(r1, i1)
            gain = D[p1][head[a]] + D[tail[a]][n1] - D[p1][n1]
            delta = D[depot][head[a]] + D[tail[a]][depot] - gain
            if spent(1):
                return False
            if delta < -EPS:
                localsearch._apply_relocate(st, k1, i1, a, len(st.routes), 0, delta)
                return True
        for tj in neighbors[ti]:
            loc = st.where[tj]
            if loc is None:
                continue
            k2, i2 = loc[:2]
            if k2 == k1:
                lo, hi = (i1, i2) if i1 < i2 else (i2, i1)
                if hi > lo and try_reverse(k1, lo, hi):
                    return True
                if spent(1):
                    return False
                if relocate_near(k1, i1, k2, i2):
                    return True
                if out_of_budget:
                    return False
                if swap_intra(k1, lo, hi):
                    return True
                if spent(4):
                    return False
            else:
                if relocate_near(k1, i1, k2, i2):
                    return True
                if out_of_budget:
                    return False
                if swap(k1, i1, k2, i2):
                    return True
                if spent(4):
                    return False
                if tail_exchange(k1, i1, k2, i2):
                    return True
                if spent(2):
                    return False
        return False

    def try_reverse(k, i, j):
        r = st.routes[k]
        p, n = prev_v(r, i), next_v(r, j)
        delta = D[p][tail[r[j]]] + D[head[r[i]]][n] - D[p][head[r[i]]] - D[tail[r[j]]][n]
        if delta >= -EPS:
            return False
        r[i : j + 1] = [inverse_id(t) for t in reversed(r[i : j + 1])]
        st.cost += delta
        st._reindex(k)
        return True

    def relocate_near(k1, i1, k2, i2):
        r1, r2 = st.routes[k1], st.routes[k2]
        a = r1[i1]
        same = k1 == k2
        if not same and st.loads[k2] + dem[a] > capacity:
            return False
        p1, n1 = prev_v(r1, i1), next_v(r1, i1)
        gain = D[p1][head[a]] + D[tail[a]][n1] - D[p1][n1]
        for j in (i2, i2 + 1):
            if same and j in (i1, i1 + 1):
                continue
            p2 = prev_v(r2, j) if j > 0 else depot
            n2 = head[r2[j]] if j < len(r2) else depot
            for x in (a, inverse_id(a)):
                cost = D[p2][head[x]] + D[tail[x]][n2] - D[p2][n2]
                if spent(1):
                    return False
                if cost - gain < -EPS:
                    localsearch._apply_relocate(st, k1, i1, x, k2, j, cost - gain)
                    return True
        return False

    def swap(k1, i1, k2, i2):
        r1, r2 = st.routes[k1], st.routes[k2]
        a, b = r1[i1], r2[i2]
        da, db = dem[a], dem[b]
        if st.loads[k1] - da + db > capacity or st.loads[k2] - db + da > capacity:
            return False
        p1, n1 = prev_v(r1, i1), next_v(r1, i1)
        p2, n2 = prev_v(r2, i2), next_v(r2, i2)
        base1 = D[p1][head[a]] + D[tail[a]][n1]
        base2 = D[p2][head[b]] + D[tail[b]][n2]
        for y in (b, inverse_id(b)):
            d1 = D[p1][head[y]] + D[tail[y]][n1] - base1
            for x in (a, inverse_id(a)):
                d2 = D[p2][head[x]] + D[tail[x]][n2] - base2
                if d1 + d2 < -EPS:
                    localsearch._apply_swap(st, k1, i1, y, k2, i2, x, d1 + d2)
                    return True
        return False

    def swap_intra(k, i1, i2):
        r = st.routes[k]
        a, b = r[i1], r[i2]
        p, n = prev_v(r, i1), next_v(r, i2)
        if i2 == i1 + 1:
            base = D[p][head[a]] + D[tail[a]][head[b]] + D[tail[b]][n]
            for y in (b, inverse_id(b)):
                for x in (a, inverse_id(a)):
                    delta = D[p][head[y]] + D[tail[y]][head[x]] + D[tail[x]][n] - base
                    if delta < -EPS:
                        localsearch._apply_swap(st, k, i1, y, k, i2, x, delta)
                        return True
            return False
        n1 = next_v(r, i1)
        p2 = prev_v(r, i2)
        base = D[p][head[a]] + D[tail[a]][n1] + D[p2][head[b]] + D[tail[b]][n]
        for y in (b, inverse_id(b)):
            for x in (a, inverse_id(a)):
                delta = D[p][head[y]] + D[tail[y]][n1] + D[p2][head[x]] + D[tail[x]][n] - base
                if delta < -EPS:
                    localsearch._apply_swap(st, k, i1, y, k, i2, x, delta)
                    return True
        return False

    def tail_exchange(k1, i1, k2, i2):
        r1, r2 = st.routes[k1], st.routes[k2]
        for c1, c2 in ((i1, i2), (i1, i2 - 1)):
            if c1 == len(r1) - 1 and c2 == len(r2) - 1:
                continue
            e1 = tail[r1[c1]] if c1 >= 0 else depot
            s1 = head[r1[c1 + 1]] if c1 + 1 < len(r1) else depot
            e2 = tail[r2[c2]] if c2 >= 0 else depot
            s2 = head[r2[c2 + 1]] if c2 + 1 < len(r2) else depot
            delta = D[e1][s2] + D[e2][s1] - D[e1][s1] - D[e2][s2]
            if delta < -EPS:
                pre1 = _fold(dem[t] for t in r1[: c1 + 1])
                pre2 = _fold(dem[t] for t in r2[: c2 + 1])
                if (
                    pre1 + st.loads[k2] - pre2 <= capacity
                    and pre2 + st.loads[k1] - pre1 <= capacity
                ):
                    localsearch._apply_tail_exchange(st, k1, c1, k2, c2, delta)
                    return True
        return False

    improved = True
    while improved and not out_of_budget:
        improved = False
        order = [ti for ti in present if st.where[ti] is not None]
        rng.shuffle(order)
        for ti in order:
            if out_of_budget:
                break
            if st.where[ti] is None:
                continue
            if try_task(ti):
                improved = True
                if debug:
                    st.check()
    return st.to_solution()


class _CountingDeadline:
    """A deadline that counts its polls and returns True from poll
    ``true_from`` on (never, when None)."""

    def __init__(self, true_from=None):
        self.true_from = true_from
        self.polls = 0

    def __call__(self):
        self.polls += 1
        return self.true_from is not None and self.polls >= self.true_from


def _scan_runs(instance, dist, start, seed, nbrs, max_evals, deadline=_CountingDeadline, **kw):
    """(route ids, cost, RNG state, deadline polls, final states) of
    ``local_search`` and of ``reference_local_search`` from one start, each
    given a fresh ``deadline()``, or no deadline when ``deadline`` is None.
    The final states are the running cost and the loads of each
    ``_State.to_solution`` call, in hex: bit for bit, and -0.0 apart from
    0.0."""
    runs = []
    real = localsearch._State.to_solution
    for search in (local_search, reference_local_search):
        states = []

        def to_solution(st):
            states.append([float(x).hex() for x in (st.cost, *st.loads)])
            return real(st)

        rng = make_rng(seed)
        poll = deadline and deadline()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(localsearch._State, "to_solution", to_solution)
            out = search(start, instance, dist, rng, max_evals=max_evals, deadline=poll,
                         neighbors=nbrs, **kw)
        polls = poll.polls if poll else None
        runs.append((out.routes, out.total_cost, rng.getstate(), polls, states))
    return runs


def _spy_on_tail_exchanges(monkeypatch):
    """A list that gets the instance of every tail exchange applied from
    now on, by either scan."""
    applied = []
    exchange = localsearch._apply_tail_exchange

    def spy(st, *args):
        applied.append(st.instance)
        exchange(st, *args)

    monkeypatch.setattr(localsearch, "_apply_tail_exchange", spy)
    return applied


# seeds that also run the float-cost instance, whose full descents over 60
# tasks take most of a seed's time
FLOAT_COST_SEEDS = 40


@pytest.mark.parametrize("seed", range(100))
def test_local_search_matches_reference_scan_on_tie_heavy_instances(seed, monkeypatch):
    # float demands and float costs put the moves' deltas and the tail
    # exchange's prefix sums in floating point; the running cost and the
    # loads are compared bit for bit, so on tenths a sum taken in another
    # order fails even where no comparison turns on it
    applied = _spy_on_tail_exchanges(monkeypatch)
    instances = [tie_heavy_instance(seed), _float_demand_instance(seed),
                 _tenths(tie_heavy_instance(seed))]
    if seed < FLOAT_COST_SEEDS:
        instances += [_float_cost_instance(60, seed), _tenths(generate_instance(30, 30, 60, seed))]
    for instance in instances:
        dist = instance.distances()
        nbrs = neighbors(instance, dist)
        for start in _local_search_starts(instance, dist, make_rng(seed)):
            for max_evals in LOCAL_SEARCH_EVALS:
                for deadline in (None, _CountingDeadline):
                    runs = _scan_runs(instance, dist, start, seed, nbrs, max_evals, deadline,
                                      debug=True)
                    assert runs[0] == runs[1]
    if seed < FLOAT_COST_SEEDS:
        assert any(x is instances[3] for x in applied)


def test_local_search_float_demand_runs_apply_tail_exchanges(monkeypatch):
    applied = _spy_on_tail_exchanges(monkeypatch)
    for seed in range(100):
        instance = _float_demand_instance(seed)
        dist = instance.distances()
        for start in _local_search_starts(instance, dist, make_rng(seed)):
            local_search(start, instance, dist, make_rng(seed),
                         neighbors=neighbors(instance, dist), debug=True)
    assert applied


@pytest.mark.xfail(strict=True, reason="capacity checks sum a new load in another order")
def test_local_search_float_demand_result_stays_within_capacity():
    # the capacity checks predict a move's new loads from the cached ones
    # (loads[k2] + da, loads[k1] - da + db, pre1 + loads[k2] - pre2), not in
    # the route-order fold that validate takes; on this start a route folds
    # to 0.7000000000000001 over a capacity of 0.7
    instance = _float_demand_instance(584)
    dist = instance.distances()
    start = _local_search_starts(instance, dist, make_rng(584))[1]
    out = local_search(start, instance, dist, make_rng(584), neighbors=neighbors(instance, dist))
    assert validate(out, instance) == []


def test_local_search_applies_a_tail_exchange_that_fills_both_routes_exactly(monkeypatch):
    # two corridors of unit-cost tasks leave the depot, A along vertices
    # 1-4 and B along 5-8; each route serves half of one corridor, crosses
    # the depot and serves the far half of the other, and holds 1.4, the
    # capacity, so no relocation or swap fits.  Cut after each route's second
    # task, the loads before the cuts fold to 0.1 + 0.3 = 0.4 and 0.2 + 0.2 =
    # 0.4, and both new routes to 0.4 + 1.4 - 0.4 = 1.4 exactly.  A load
    # before taken as the route's load less the loads from its task on puts
    # a new route past the capacity, from either route and either cut
    corridors = [(0, 1, 0.1), (1, 2, 0.3), (2, 3, 0.4), (3, 4, 0.6),
                 (0, 5, 0.2), (5, 6, 0.2), (6, 7, 0.3), (7, 8, 0.7)]
    instance = make_instance(9, [(u, v, d, 1, 1) for u, v, d in corridors], capacity=1.4)
    dist = instance.distances()
    a1, a2, a3, a4, b1, b2, b3, b4 = (forward_id(ti) for ti in range(8))
    start = Solution.build([[a1, a2, b3, b4], [b1, b2, a3, a4]], instance, dist)
    applied = _spy_on_tail_exchanges(monkeypatch)
    nbrs = neighbors(instance, dist)
    for seed in range(4):
        got, expected = _scan_runs(instance, dist, start, seed, nbrs, None, debug=True)
        assert got == expected
        assert got[0] == [(a1, a2, a3, a4), (b1, b2, b3, b4)]
        assert got[4][0][1:] == [(1.4).hex(), (1.4).hex()]
    assert len(applied) == 8  # the one exchange, by each scan in each run


# caps just below, at and just past a poll boundary, and none
DEADLINE_CAPS = (255, 256, 257, 511, 512, 1280, 1281, 3000, None)


@pytest.mark.parametrize("true_from", [1, 2, 5])
def test_local_search_matches_reference_scan_when_the_deadline_binds(true_from):
    instance = generate_instance(60, 90, 20, seed=3)
    dist = instance.distances()
    nbrs = neighbors(instance, dist)
    polls = set()
    for start in _local_search_starts(instance, dist, make_rng(4)):
        for max_evals in DEADLINE_CAPS:
            runs = _scan_runs(instance, dist, start, 4, nbrs, max_evals,
                              lambda: _CountingDeadline(true_from))
            assert runs[0] == runs[1]
            polls.add((max_evals, runs[0][3]))
    # each multiple of 256 below the cap polls once, and the poll that
    # returns True ends the search; the count that reaches the cap does not
    # poll, so a cap of 1280 stops after four polls and one of 1281 after five
    assert (256, 0) in polls and (257, 1) in polls
    assert (1280, min(true_from, 4)) in polls and (1281, true_from) in polls


def test_local_search_matches_reference_scan_on_a_generated_mid_size_instance(mid_instance):
    instance, dist, _ = mid_instance
    nbrs = neighbors(instance, dist)
    scanned, *short_routes = _local_search_starts(instance, dist, make_rng(7))
    runs = [(scanned, (2_000, 25_000, None))] + [(s, (2_000, 12_000)) for s in short_routes]
    for start, budgets in runs:
        for max_evals in budgets:
            got, expected = _scan_runs(instance, dist, start, 7, nbrs, max_evals)
            assert got == expected
            assert expected[3] > 0


# --- route_cost: closing the tour at the depot itself ----------------------


def reference_route_cost(ids, instance, dist):
    """`route_cost` over the route wrapped in depot sentinels, ``[0, *ids, 0]``."""
    wrapped = [DEPOT_ID, *ids, DEPOT_ID]
    head, tail, service, rows = instance.id_head, instance.id_tail, instance.id_service, dist.rows
    total = 0.0
    for i in range(len(wrapped) - 1):
        t = wrapped[i]
        total += service[t] + rows[tail[t]][head[wrapped[i + 1]]]
    return total


def _routes_to_cost(instance, dist, rng):
    """The empty route, every task alone in either orientation, path
    scanning's routes forward and reversed, and every task in one route of
    random order and orientation."""
    ids = [forward_id(ti) for ti in range(instance.task_count)]
    scanned = path_scanning(instance, dist, rng).routes
    mixed = [inverse_id(t) if rng.random() < 0.5 else t for t in ids]
    rng.shuffle(mixed)
    return (
        [[]]
        + [[t] for t in ids]
        + [[inverse_id(t)] for t in ids]
        + scanned
        + [[inverse_id(t) for t in reversed(r)] for r in scanned]
        + [mixed]
    )


def _assert_route_costs_match(instance, seed):
    dist = instance.distances()
    routes = _routes_to_cost(instance, dist, make_rng(seed))
    for ids in routes:
        expected = reference_route_cost(ids, instance, dist)
        assert route_cost(ids, instance, dist) == expected
        assert Solution.build([ids], instance, dist) == Solution([tuple(ids)], expected)
    solution = Solution.build(routes, instance, dist)
    # a left fold from 0, as ``sum`` is not from Python 3.12 on
    expected = reduce(add, (reference_route_cost(r, instance, dist) for r in routes), 0)
    assert solution.total_cost == expected


@pytest.mark.parametrize("seed", range(100))
def test_route_cost_matches_reference_on_tie_heavy_instances(seed):
    _assert_route_costs_match(tie_heavy_instance(seed), seed)


@pytest.mark.parametrize("kind", sorted(LINK_DTYPES))
@pytest.mark.parametrize("seed", range(3))
def test_route_cost_matches_reference_on_float_cost_instances(seed, kind):
    # halves and tenths of deadheading cost, and tenths of service cost, so
    # that the running sums round: the terms must add in the same order
    instance = _link_instance(kind, 17, seed)
    _assert_route_costs_match(instance, seed)
    edges = [Edge(e.u, e.v, e.demand, e.service_cost / 10, e.deadheading_cost)
             for e in instance.edges]
    tenths = Instance("service-tenths", instance.vertex_count, edges,
                      instance.depot, instance.capacity)
    _assert_route_costs_match(tenths, seed)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_solver_totals_sum_their_routes_in_order_on_float_costs(algorithm):
    # a total summed another way, say over the parts' totals, would round
    # differently on these costs
    instance = _float_cost_instance(60, 3)
    dist = instance.distances()
    config = SearchConfig(algorithm=algorithm, seed=1, time_limit=1e6, max_iterations=4,
                          max_cycles=1, virtual_clock=True)
    best, _ = solve(instance, config, dist=dist)
    assert best.total_cost == Solution.build(best.routes, instance, dist).total_cost


def test_concatenated_projections_sum_their_routes_in_order_on_float_costs():
    instance = _float_cost_instance(60, 3)
    dist = instance.distances()
    solution = path_scanning(instance, dist, make_rng(1))
    parts = [project_solution(solution, set(range(i, instance.task_count, 2)), instance, dist)
             for i in (0, 1)]
    merged = concat_solutions(parts, instance, dist)
    assert merged == Solution.build([r for p in parts for r in p.routes], instance, dist)
    # on this instance the sum of the parts' totals rounds otherwise
    assert merged.total_cost != sum(p.total_cost for p in parts)


def test_route_cost_of_empty_and_one_task_routes(path_instance):
    # the depot is vertex 0; task 0 runs 0 -> 1 and task 1 runs 1 -> 2,
    # each at cost 1, so leaving and returning add the path lengths
    dist = path_instance.distances()
    assert route_cost([], path_instance, dist) == 0.0
    assert Solution.build([[]], path_instance, dist).total_cost == 0.0
    for ids in ([forward_id(0)], [inverse_id(forward_id(0))], [forward_id(1)]):
        assert route_cost(ids, path_instance, dist) == reference_route_cost(
            ids, path_instance, dist
        )
    assert route_cost([forward_id(0)], path_instance, dist) == 2.0
    assert route_cost([forward_id(1)], path_instance, dist) == 4.0


# --- shortest_paths: elimination, a core Dijkstra and fill-in ---------------


@pytest.fixture
def eliminated(monkeypatch):
    """How many vertices each elimination in ``shortest_paths`` removed, and
    the degree of every vertex left in its core; no entry when a table
    eliminated nothing because its costs were not exact or vertex 0 did
    not reach every vertex."""
    calls = []
    real = distances._eliminate

    def spy(adj):
        removed = real(adj)
        calls.append((len(removed), [len(nbrs) for nbrs in adj if nbrs is not None]))
        return removed

    monkeypatch.setattr(distances, "_eliminate", spy)
    return calls


def _assert_same_table(instance):
    """The table equals Dijkstra's over the whole graph and the float64
    fill-in's, bit for bit and in the same type."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shortest_paths(instance).matrix
    for expected in (DistanceTable(whole_graph_dijkstra(instance)).matrix,
                     reference_shortest_paths(instance).matrix):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()  # bit for bit


@pytest.mark.parametrize("vertices, tasks, seeds", [(30, 20, range(5)), (500, 800, range(2)),
                                                     (1500, 2500, range(1))])
def test_shortest_paths_match_reference_on_generated_instances(vertices, tasks, seeds, eliminated,
                                                              fill_types):
    for seed in seeds:
        _assert_same_table(generate_instance(vertices, tasks, 60, seed=seed))
    assert [count > 0 for count, _ in eliminated] == [True] * len(seeds)
    # 30 vertices go down to the one always kept; larger graphs keep a core
    assert all((len(core) == 1) == (vertices == 30) for _, core in eliminated)
    assert fill_types == [np.int16] * len(seeds)


@pytest.mark.parametrize("seed", range(100))
def test_shortest_paths_match_reference_on_tie_heavy_instances(seed, eliminated, fill_types):
    instance = tie_heavy_instance(seed)
    _assert_same_table(instance)
    assert eliminated == [(instance.vertex_count - 1, [0])]
    assert fill_types == [np.int16]


# more vertices than the elimination cap of a graph of four times as many (8)
_CLIQUE = 30


def _two_cliques(clique, seed):
    """Two cliques of vertices of degree above the elimination cap, with no
    edge between them, each with a sparse fringe: vertex 0 does not reach
    the second.  The tasks lie in the depot's half."""
    rng = random.Random(seed)
    edges = []
    for first, demand in ((0, 1), (2 * clique, 0)):
        edges += [(u, v, 0, 0, rng.randint(1, 30)) for u in range(first, first + clique)
                  for v in range(u + 1, first + clique)]
        edges += [(rng.randrange(first, v), v, demand, 1, rng.randint(0, 30))
                  for v in range(first + clique, first + 2 * clique)]
    return make_instance(4 * clique, edges, capacity=10)


def _shifted(base, name, extra=()):
    """``base`` with every vertex numbered one higher, a new vertex 0 and
    the edges ``extra`` (given with the new numbers)."""
    edges = [Edge(e.u + 1, e.v + 1, e.demand, e.service_cost, e.deadheading_cost)
             for e in base.edges]
    return Instance(name, base.vertex_count + 1, edges + list(extra), base.depot + 1, base.capacity)


@pytest.mark.parametrize("kind", ["isolated vertex", "two cliques", "isolated vertex 0"])
def test_shortest_paths_fill_in_float64_where_a_pair_is_unreachable(kind, eliminated, fill_types,
                                                                    dijkstra_sources):
    base = generate_instance(500, 800, 60, seed=5)
    if kind == "isolated vertex":
        # a non-task vertex with no edge
        n = base.vertex_count
        instance = Instance("isolated", n + 1, base.edges, base.depot, base.capacity)
    elif kind == "two cliques":
        instance = _two_cliques(_CLIQUE, seed=1)
        n = instance.vertex_count - 1
    else:
        # vertex 0 has no edge and the depot lies elsewhere
        instance, n = _shifted(base, "isolated 0"), 1
    _assert_same_table(instance)
    # vertex 0 does not reach vertex n: nothing is eliminated, and Dijkstra
    # over the whole graph makes the table
    assert eliminated == []
    assert fill_types == [np.float64]
    assert dijkstra_sources == [0, None]
    table = shortest_paths(instance).matrix
    assert table.dtype == np.float64 and np.isinf(table[0, n])


def test_shortest_paths_where_vertex_0_is_a_far_pendant(eliminated, fill_types, dijkstra_sources):
    # vertex 0 hangs 4500 off the depot, so its eccentricity bounds the
    # table far above the distances between the other vertices: the bound,
    # 2 * eccentricity + 1, widens the fill-in to int32 while the table's
    # entries, below 8192, keep it int16
    base = generate_instance(500, 800, 60, seed=5)
    instance = _shifted(base, "far pendant", [Edge(0, base.depot + 1, 0, 0, 4500)])
    _assert_same_table(instance)
    assert eliminated[0][0] > 0
    assert fill_types == [np.int32]
    assert dijkstra_sources == [0]
    table = shortest_paths(instance).matrix
    assert table.dtype == np.int16 and table[0].max() > 4500


def _multigraph_instance(seed, vertices=40):
    """A connected graph with parallel edges, self-loops, zero-cost edges,
    an isolated vertex and a component that the depot cannot reach."""
    rng = random.Random(seed)
    reach = vertices - 4  # vertices reach .. reach + 2: a path of their own
    edges = [(rng.randrange(v), v, 1, 1, rng.randint(0, 5)) for v in range(1, reach)]
    for _ in range(2 * reach):
        u, v = rng.randrange(reach), rng.randrange(reach)
        edges.append((u, v, rng.randint(0, 1), 1, rng.choice((0, 0, 1, 3, 9))))
    edges += [(reach, reach + 1, 0, 0, 2), (reach + 1, reach + 2, 0, 0, 0),
              (reach + 2, reach + 2, 0, 0, 1)]
    return make_instance(vertices, edges, capacity=10)


@pytest.mark.parametrize("seed", range(20))
def test_shortest_paths_match_reference_on_multigraphs(seed, eliminated, dijkstra_sources):
    instance = _multigraph_instance(seed)
    assert any(e.u == e.v for e in instance.edges)
    _assert_same_table(instance)
    # vertex 0 does not reach the isolated vertex or the path of their own:
    # nothing is eliminated, and Dijkstra over the whole graph makes the table
    assert eliminated == []
    assert dijkstra_sources == [0, None]
    table = shortest_paths(instance).matrix
    assert table.dtype == np.float64 and np.isinf(table[0, -1]) and np.isinf(table[0, -4])


def test_shortest_paths_of_one_vertex(eliminated):
    for edges in ([], [(0, 0, 1, 1, 3)]):
        instance = make_instance(1, edges, capacity=5)
        _assert_same_table(instance)
        assert shortest_paths(instance).matrix.tolist() == [[0]]
    assert [count for count, _ in eliminated] == [0] * 4


@pytest.mark.parametrize("seed", range(5))
def test_shortest_paths_match_reference_where_the_degree_cap_stops_elimination(seed, eliminated):
    # a clique whose every vertex has degree above the cap, with a sparse
    # fringe: the fringe goes, and elimination stops at the clique
    rng = random.Random(seed)
    clique = _CLIQUE
    edges = [(u, v, 0, 0, rng.randint(1, 30)) for u in range(clique) for v in range(u + 1, clique)]
    vertices = 4 * clique
    edges += [(rng.randrange(v), v, 1, 1, rng.randint(0, 30)) for v in range(clique, vertices)]
    instance = make_instance(vertices, edges, capacity=10)
    _assert_same_table(instance)
    (count, core), = eliminated
    assert count > 0 and len(core) >= clique and min(core) > _elimination_cap(vertices)


@pytest.mark.parametrize("excess, eliminates", [(0, True), (1, False)])
def test_shortest_paths_at_the_exact_cost_total(excess, eliminates, eliminated):
    # a pendant edge lifts the cost total to _EXACT_INT (elimination runs)
    # or one more (it does not); every path to its end carries its cost
    base = generate_instance(60, 40, 60, seed=3)
    n = base.vertex_count
    total = sum(e.deadheading_cost for e in base.edges)
    edges = base.edges + [Edge(0, n, 0, 0, _EXACT_INT + excess - total)]
    instance = Instance("total", n + 1, edges, base.depot, base.capacity)
    _assert_same_table(instance)
    assert bool(eliminated) is eliminates
    assert shortest_paths(instance).matrix[0, n] == _EXACT_INT + excess - total


@pytest.mark.parametrize("kind", ["halves", "tenths", "one half"])
def test_shortest_paths_of_non_integral_costs_eliminate_nothing(kind, eliminated):
    if kind == "one half":
        base = generate_instance(60, 40, 60, seed=4)
        edges = list(base.edges)
        e = edges[len(edges) // 2]
        edges[len(edges) // 2] = Edge(e.u, e.v, e.demand, e.service_cost, e.deadheading_cost + 0.5)
        instance = Instance("one half", base.vertex_count, edges, base.depot, base.capacity)
    else:
        instance = _link_instance(kind, 17, 0)
    _assert_same_table(instance)
    assert eliminated == []
