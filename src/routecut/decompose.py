"""Turning sub-route pools into sub-problems.

A sub-route is a slice of a route (``rco.rco_split``), so a tuple of
directed task IDs too.  Two decomposition paths are supported.  The
clustering path groups sub-routes around medoid sub-routes with a
fuzziness-controlled probabilistic assignment, yielding task subsets that
induce independent sub-problems.  The hierarchical path treats each sub-route as a virtual
task: an atomic unit, the ID tuple itself, joined to others at its two
endpoints (its first ID's head vertex and its last ID's tail).  It
repeatedly clusters and chains units into ever coarser ones until a
single giant sequence remains, which is then split into capacity-feasible
routes.
"""

from __future__ import annotations

import math
import random
from itertools import chain
from typing import Callable

import numpy as np

from .distances import DistanceTable, Rows
from .instance import Instance, forward_id, task_index_of
from .ranking import link_numerators
from .solution import Solution


# whole sub-routes of at least this many task rows (unless the pool runs out)
# per block of _pairwise_distances; 32 ran fastest of 16, 32 and 64 at 2500
_DISTANCE_BLOCK = 32


def _pairwise_distances(
    pool: list[tuple[int, ...]], instance: Instance, dist: DistanceTable
) -> np.ndarray:
    """Mean link cost over all task pairs of every two sub-routes, 0 on the
    diagonal.  The link numerators of the pool's tasks, in pool order, are
    summed over each sub-route's rows and then its columns, a block of whole
    sub-routes at a time.  Sums are exact int64 with integer costs, whose
    numerators come in the table's narrow type; float sums add in the same
    order whatever the block size, but may differ from a per-pair
    ``np.mean`` in the last bits."""
    tasks = [instance.tasks[task_index_of(t)] for s in pool for t in s]
    heads = np.array([t.u for t in tasks], dtype=np.intp)
    tails = np.array([t.v for t in tasks], dtype=np.intp)
    sizes = np.array([len(s) for s in pool])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    sums = np.empty((len(pool), len(pool)))
    total = np.float64 if dist.matrix.dtype.kind == "f" else np.int64
    first = 0  # the block's first sub-route
    for last in range(len(pool)):
        if last + 1 < len(pool) and ends[last] - starts[first] < _DISTANCE_BLOCK:
            continue
        block = link_numerators(dist.matrix, heads, tails, starts[first], ends[last])
        by_row = np.add.reduceat(block, starts[first : last + 1] - starts[first], axis=0,
                                 dtype=total)
        sums[first : last + 1] = np.add.reduceat(by_row, starts, axis=1)
        first = last + 1
    # mirror the upper triangle: float sums of a block and its transpose may differ
    d = np.triu(sums / np.outer(sizes, sizes) / 4.0, 1)
    return d + d.T


def _farthest_points(
    first: int, k: int, column: Callable[[int], np.ndarray]
) -> tuple[list[int], list[np.ndarray], np.ndarray]:
    """``k`` points chosen farthest-point style from point ``first``, their
    distance columns and every point's distance to its nearest chosen point.
    ``column(j)`` is every point's distance to point ``j``: non-negative,
    zero at ``j`` and of a signed or float type.  Each further point is the
    first, in index order, farthest from its nearest point so far."""
    points = [first]
    columns = [column(first)]
    # distance to the nearest point so far; -1 at the points, below every
    # distance, so argmax never picks one again
    nearest = columns[0].copy()
    nearest[first] = -1
    while len(points) < k:
        far = int(np.argmax(nearest))  # first index on ties
        points.append(far)
        columns.append(column(far))
        nearest[far] = -1
        np.minimum(nearest, columns[-1], out=nearest)
    nearest[points] = 0  # each point's own column is zero there
    return points, columns, nearest


def fuzzy_kmedoid(
    pool: list[tuple[int, ...]],
    group_count: int,
    fuzziness: float,
    instance: Instance,
    dist: DistanceTable,
    rng: random.Random,
) -> list[list[tuple[int, ...]]]:
    """Partition sub-routes into min(``group_count``, sub-routes) non-empty
    groups: a pool of fewer sub-routes than ``group_count`` gets one group
    per sub-route, without a warning.

    Medoids start by farthest-point selection from a random sub-route.
    Each iteration assigns every sub-route to a medoid with probability
    proportional to distance**(-fuzziness): in sub-route order, one
    ``rng.random()`` per sub-route with no medoid at zero distance (else it
    joins the first such medoid), then recenters each medoid on the member
    minimizing total within-group distance, stopping when assignments
    stabilize or after 20 iterations.  Sub-routes are atomic: they are
    never split across groups.
    """
    members = list(pool)
    n = len(members)
    if n == 0:
        raise ValueError("cannot cluster an empty pool")
    if group_count < 1:
        raise ValueError("group_count must be at least 1")
    g = min(group_count, n)

    if g == 1:
        return [members]
    d = _pairwise_distances(members, instance, dist)

    medoids, _, _ = _farthest_points(rng.randrange(n), g, lambda j: d[:, j])
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(20):
        to_medoid = d[:, medoids]
        new_assign = np.argmin(to_medoid, axis=1)
        nearest = to_medoid.min(axis=1)
        far = np.flatnonzero(nearest != 0.0)  # the rows that draw
        weights = (to_medoid[far] / nearest[far, None]) ** (-fuzziness)
        cum = np.cumsum(weights, axis=1)
        x = np.array([rng.random() for _ in range(far.size)]) * cum[:, -1]
        new_assign[far] = (cum <= x[:, None]).sum(axis=1)
        _repair_empty_groups(new_assign, d, medoids)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for group in range(g):
            idx = np.flatnonzero(assign == group)
            within = d[np.ix_(idx, idx)].sum(axis=1)
            medoids[group] = int(idx[np.argmin(within)])

    groups: list[list[tuple[int, ...]]] = [[] for _ in range(g)]
    for i in range(n):
        groups[int(assign[i])].append(members[i])
    return groups


def _repair_empty_groups(assign: np.ndarray, d: np.ndarray, medoids: list[int]) -> None:
    # Move the sub-route farthest from its own medoid into each empty group,
    # drawing only from groups that keep at least one member.
    g = len(medoids)
    for group in range(g):
        if np.any(assign == group):
            continue
        counts = np.bincount(assign, minlength=g)
        candidates = np.flatnonzero(counts[assign] >= 2)
        far = candidates[np.argmax([d[i, medoids[assign[i]]] for i in candidates])]
        assign[far] = group


def group_task_indices(group: list[tuple[int, ...]]) -> set[int]:
    return {task_index_of(t) for s in group for t in s}


# --- virtual tasks and hierarchical construction -----------------------------


# kept as named steps of the hierarchical loop because perfbench's tracer
# times them by patching `search`; they go when that patch table does
def build_virtual_tasks(pool: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """``hdu``'s units from a sub-route pool: the sub-routes themselves,
    order and orientation preserved."""
    if len(pool) == 0:
        raise ValueError("cannot build virtual tasks from an empty pool")
    return pool


def elementary_virtual_tasks(instance: Instance) -> list[tuple[int, ...]]:
    """One single-task unit per task, forward orientation."""
    return [(forward_id(ti),) for ti in range(instance.task_count)]


def _endpoint_distances(
    to: np.ndarray, heads: np.ndarray, tails: np.ndarray, j: int
) -> np.ndarray:
    """Distance from every unit to unit ``j`` given the units' endpoints,
    where row ``v`` of ``to`` holds every vertex's distance to vertex ``v``.

    Units are traversable in either direction, so take the best pairing:
    the nearer of unit ``j``'s two rows of ``to`` for every vertex, then the
    nearer of each unit's two endpoints.  ``hdu`` passes the distance matrix
    itself when it is symmetric, whose rows are contiguous, and its
    transpose otherwise, whose rows are the matrix's columns: each unit is
    read from its own rows at unit ``j``'s endpoints either way.  Of the
    matrix's type, which is signed so ``_farthest_points`` can mark medoids
    with -1.
    """
    either = np.minimum(to[heads[j]], to[tails[j]])
    return np.minimum(either[heads], either[tails])


def _chain_cluster(
    units: list[tuple[tuple[int, ...], int, int]], rows: Rows, rng: random.Random
) -> tuple[int, ...]:
    """Order one cluster of ``(ids, head, tail)`` units by a randomized
    nearest-neighbor chain, orienting each appended unit so its nearer
    endpoint joins the chain tail (a unit whose tail is strictly nearer is
    appended reversed, each ID flipped as ``inverse_id`` does; no unit
    holds the depot's ID 0).  It draws from ``rng`` as ``hdu``'s tie-break
    contract states."""
    remaining = list(units)
    first, _, tail = remaining.pop(rng.randrange(len(remaining)))
    ids = list(first)
    while remaining:
        row = rows[tail]
        gaps = [row[h] if row[h] <= row[t] else row[t] for _, h, t in remaining]
        best = min(gaps)
        j = gaps.index(best)
        if gaps.count(best) > 1:
            ties = [i for i, gap in enumerate(gaps) if gap == best]
            j = ties[rng.randrange(len(ties))]
        nxt, h, t = remaining.pop(j)
        if row[t] < row[h]:
            ids.extend([x + 1 if x & 1 else x - 1 for x in reversed(nxt)])
            tail = h
        else:
            ids.extend(nxt)
            tail = t
    return tuple(ids)


def hdu(
    units: list[tuple[int, ...]],
    instance: Instance,
    dist: DistanceTable,
    scale: float,
    rng: random.Random,
) -> Solution:
    """Hierarchically concatenate units into a single giant sequence, then
    split it greedily into capacity-feasible routes.

    A unit is a non-empty tuple of directed task IDs, served in order and
    never split; its endpoints are its first ID's head vertex and its last
    ID's tail, and it may be traversed reversed.  While more than one unit
    remains, the units are clustered to ceil(scale * m) medoids chosen
    farthest-point style on endpoint distances, each cluster is chained
    nearest-neighbor into one higher-level unit, and the process repeats.
    ``units`` must cover every instance task exactly once, and an empty
    unit is rejected; no units (an instance without tasks) give an empty
    solution.

    Tie-break contract, which fixes the output for a given ``rng`` state:
    the first medoid is ``rng.randrange(m)``; each further medoid is the
    first unit, in list order, farthest from its nearest medoid so far
    (no draw); each unit then joins its nearest medoid, and ``rng`` is
    drawn, in unit order, only for units whose nearest medoids tie:
    ``rng.randrange(ties)`` picks among them in medoid order.  Then, in
    cluster order, each non-empty cluster is chained: ``rng.randrange``
    over its units picks the first one, and ``rng.randrange`` over the
    units nearest the chain tail, in list order, picks the next one only
    when more than one is nearest.
    """
    if not 0.0 < scale < 1.0:
        raise ValueError("scale must be in (0, 1)")
    if not all(units):
        raise ValueError(f"unit {next(i for i, u in enumerate(units) if not u)} is empty")
    # each ID's task index, as task_index_of takes it
    covered = (np.fromiter(chain.from_iterable(units), dtype=np.int64) - 1) >> 1
    if not np.array_equal(np.sort(covered), np.arange(instance.task_count)):
        raise ValueError("units must cover all tasks exactly once")
    if not units:
        return Solution.build([], instance, dist)

    rows = dist.rows
    # row v: every vertex's distance to v (see _endpoint_distances)
    to = dist.matrix if dist.symmetric else dist.matrix.T
    while len(units) > 1:
        m = len(units)
        k = max(1, min(math.ceil(scale * m), m - 1))
        heads = np.fromiter((instance.id_head[u[0]] for u in units), dtype=np.intp, count=m)
        tails = np.fromiter((instance.id_tail[u[-1]] for u in units), dtype=np.intp, count=m)
        _, columns, nearest = _farthest_points(
            rng.randrange(m), k, lambda j: _endpoint_distances(to, heads, tails, j)
        )
        # each unit's first nearest medoid and how many tie with it, one
        # medoid column at a time: no m x k array
        choice = np.zeros(m, dtype=np.intp)
        ties = np.zeros(m, dtype=np.intp)
        for c, column in enumerate(columns):
            same = column == nearest
            ties += same
            np.copyto(choice, c, where=same)  # final unless the row is tied
        tied = np.flatnonzero(ties > 1)
        # each tied row takes its draw-th tied medoid, drawn in unit order
        draws = np.array([rng.randrange(t) for t in ties[tied].tolist()], dtype=np.intp)
        is_min = np.stack([column[tied] for column in columns], axis=1) == nearest[tied, None]
        choice[tied] = np.argmax(np.cumsum(is_min, axis=1) > draws[:, None], axis=1)

        clusters: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in range(k)]
        for unit, c in zip(zip(units, heads.tolist(), tails.tolist()), choice.tolist()):
            clusters[c].append(unit)

        units = [_chain_cluster(cluster, rows, rng) for cluster in clusters if cluster]

    giant = units[0]
    demand = instance.id_demand
    capacity = instance.capacity
    routes: list[list[int]] = []
    current: list[int] = []
    load = 0.0
    for t in giant:
        if current and load + demand[t] > capacity:
            routes.append(current)
            current = []
            load = 0.0
        current.append(t)
        load += demand[t]
    routes.append(current)  # the giant sequence is non-empty
    return Solution.build(routes, instance, dist)
