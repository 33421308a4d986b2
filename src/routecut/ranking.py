"""Link costs between tasks and each task's cheapest ranked links.

The cost of the link from one task to another is the mean shortest-path
cost over the four endpoint pairings, which makes it independent of the
traversal direction of either task.  The links leaving one task are ordered
by competition ranking: a link's rank is one plus the number of strictly
cheaper links leaving the same task, so equal costs share a rank and the
numbering skips after a tie block (1, 1, 3, ...).  Ranks are not symmetric:
a task on the periphery may rank a central task highly while the central
task has many closer alternatives.  Links are ranked by their numerators,
four times their costs, summed in the distance table's own type (int16 on
generated instances, float64 for a table that is not integral).  Only each
task's ``_KEEP`` cheapest links are kept with their ranks; any other link's
rank is counted from its task's row of link costs when it is first asked
for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from .distances import DistanceTable
from .instance import Instance, task_index_of


def link_numerators(
    matrix: np.ndarray, heads: np.ndarray, tails: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Rows ``start:stop`` of four times the link cost between the tasks
    whose endpoints are ``heads`` and ``tails``, in ``matrix``'s type.

    Entry [r, j] is the plain sum of the four ``matrix`` distances between
    the endpoints of tasks ``start + r`` and ``j``; entry [r, start + r] is
    0, since self-links are undefined.  An integer ``matrix`` (see
    ``DistanceTable``; generated instances fill theirs in as int16) holds
    four times its largest entry, so the sums stay in its own type without
    overflow: each block row first sums its task's two distance rows into
    one vertex-pair row P, and entry j is then ``P[heads[j]] + P[tails[j]]``,
    two gathers instead of four.  Callers that sum many numerators widen
    them (``_pairwise_distances``); ``rank_rows`` keys them in int32 when
    the keys fit.  A float64 ``matrix`` gives float64 sums added as
    ``((hh + ht) + th) + tt``.  The block allocates a few
    (stop - start) x max(V, n) arrays.
    """
    from_heads = matrix[heads[start:stop]]
    from_tails = matrix[tails[start:stop]]
    if matrix.dtype.kind == "f":
        block = from_heads[:, heads]
        block += from_heads[:, tails]
        block += from_tails[:, heads]
        block += from_tails[:, tails]
    else:
        pair = from_heads  # P: each row's head and tail rows, summed in place
        pair += from_tails
        block = pair[:, heads]
        block += pair[:, tails]
    rows = np.arange(stop - start)
    block[rows, start + rows] = 0
    return block


# task rows per block of build_rank_matrix; 32 built 2500 tasks fastest of
# 16..128, and 32 rows of int16 numerators are 160 KB at 2500
_ROW_BLOCK = 32
# links kept per task: 2-7% of in-route links rank above 64 and are ranked
# on demand; local search reads the 20 nearest
_KEEP = 64
_INT32_MAX = np.iinfo(np.int32).max


def _rank_dtype(n: int) -> type:
    return np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32


def _keys(costs: np.ndarray, first: int) -> np.ndarray | None:
    """The keys ``cost * n + column`` of rows ``first ..`` of an n-column
    block of integer costs, unique and in (cost, column) order, with the
    diagonal's the largest value of their type, past every other: int32
    when the largest key stays below that, as it does for every generated
    instance, and int64 otherwise; None for float costs or keys that could
    overflow int64."""
    b, n = costs.shape
    if costs.dtype.kind not in "iu":
        return None
    low, high = int(costs.min()), int(costs.max())
    largest = high * n + n - 1
    if high * n < _INT32_MAX <= largest:  # then high's last column decides
        largest = high * n + int(np.flatnonzero((costs == high).any(axis=0))[-1])
    dtype = next((t for t in (np.int32, np.int64)
                  if np.iinfo(t).min <= low * n and largest < np.iinfo(t).max), None)
    if dtype is None:
        return None
    key = costs.astype(dtype)
    key *= n
    key += np.arange(n, dtype=dtype)
    key[np.arange(b), np.arange(first, first + b)] = np.iinfo(dtype).max
    return key


def rank_rows(costs: np.ndarray, first: int = 0, keep: int = _KEEP) -> tuple[np.ndarray, np.ndarray]:
    """The ``keep`` cheapest links of rows ``first .. first + b - 1`` of a
    square n x n cost matrix, given as their b x n block ``costs``, ignoring
    the diagonal: their columns in (cost, column) order and their
    competition ranks, both b x min(keep, n - 1), uint16 (uint32 when n
    exceeds 65535).

    rank[r, p] = 1 + |{j != i : costs[r, j] < costs[r, columns[r, p]]}| for
    row i = first + r: every link cheaper than a kept one is kept, so this
    counts kept links only, and is exact even when a tie block runs past
    the last kept one.  Integer keys (``_keys``) are partitioned at keep - 1
    and the first keep sorted; float costs, and integers whose keys could
    overflow int64, take a stable argsort.  The temporaries are a few b x n
    arrays of 4- or 8-byte items, so callers rank a block of rows at a time.
    """
    b, n = costs.shape
    if not 0 <= first <= n - b:
        raise ValueError("rows must lie within a square cost matrix")
    k = max(min(keep, n - 1), 0)
    dtype = _rank_dtype(n)
    if not (b and k):
        return np.zeros((b, k), dtype), np.zeros((b, k), dtype)
    key = _keys(costs, first)
    if key is not None:
        key.partition(k - 1, axis=1)
        top = np.sort(key[:, :k], axis=1)
        columns = top % n
        ordered = top // n
    else:
        order = np.argsort(costs, axis=1, kind="stable")
        columns = order[order != np.arange(first, first + b)[:, None]].reshape(b, n - 1)[:, :k]
        ordered = np.take_along_axis(costs, columns, axis=1)
    # cheaper[r, p]: how many kept links of row r are strictly cheaper than
    # the one at position p, i.e. the first position of its tie block
    cheaper = np.zeros((b, k), dtype=np.intp)
    np.multiply(ordered[:, 1:] != ordered[:, :-1], np.arange(1, k), out=cheaper[:, 1:])
    np.maximum.accumulate(cheaper, axis=1, out=cheaper)
    cheaper += 1
    return columns.astype(dtype), cheaper.astype(dtype)


@dataclass(eq=False)
class RankMatrix:
    """Each task's ``_KEEP`` cheapest links and their competition ranks,
    ``columns[i]`` and ``ranks[i]`` from ``rank_rows`` of the links leaving
    task i, whose endpoints are ``heads[i]`` and ``tails[i]`` in the
    distance ``matrix``.  The three are kept by reference (the instance
    caches its distance table) to rank a link that is not kept, or to list
    more than ``_KEEP`` nearest tasks, when asked; both are cached here.
    """

    matrix: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    columns: np.ndarray = field(init=False)
    ranks: np.ndarray = field(init=False)
    # nearest's lists by capped k, and the ranks of links that are not kept
    _nearest: dict[int, list[list[int]]] = field(default_factory=dict, init=False, repr=False)
    _unkept: dict[tuple[int, int], int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.columns, self.ranks = self._cheapest(_KEEP)

    def _cheapest(self, keep: int) -> tuple[np.ndarray, np.ndarray]:
        """``rank_rows`` of every task's links, summed and ranked
        ``_ROW_BLOCK`` rows at a time: no n x n cost matrix is held."""
        n = len(self.heads)
        k = max(min(keep, n - 1), 0)
        columns = np.empty((n, k), dtype=_rank_dtype(n))
        ranks = np.empty_like(columns)
        for start in range(0, n, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, n)
            block = link_numerators(self.matrix, self.heads, self.tails, start, stop)
            columns[start:stop], ranks[start:stop] = rank_rows(block, first=start, keep=k)
        return columns, ranks

    def link_ranks(self, routes: Sequence[Sequence[int]]) -> list[list[int]]:
        """Per sequence of directed task IDs in ``routes``, the rank of each
        of its links: link i leaves the task of ``ids[i]`` for that of
        ``ids[i + 1]``, whatever their orientations; one ID or none has no
        link.  All links are looked up among the kept ones at once; one that
        is not kept is ranked once per matrix, by summing its task's row of
        link costs and counting the strictly cheaper entries.
        """
        lengths = np.fromiter(map(len, routes), np.intp, len(routes))
        tasks = task_index_of(np.fromiter(chain.from_iterable(routes), np.intp, lengths.sum()))
        # a route's last ID starts no link
        linked = np.ones(len(tasks), dtype=bool)
        linked[np.cumsum(lengths)[lengths > 0] - 1] = False
        leave, enter = tasks[:-1][linked[:-1]], tasks[1:][linked[:-1]]
        found = self.columns[leave] == enter[:, None]
        got = self.ranks[leave, found.argmax(axis=1)] if len(leave) else leave
        flat = got.tolist()
        for p in np.flatnonzero(~found.any(axis=1)).tolist():
            i, j = int(leave[p]), int(enter[p])
            if (i, j) not in self._unkept:
                row = link_numerators(self.matrix, self.heads, self.tails, i, i + 1)[0]
                # the diagonal holds 0 and must not count
                self._unkept[i, j] = 1 + int(np.count_nonzero(row < row[j]) - (row[i] < row[j]))
            flat[p] = self._unkept[i, j]
        ends = list(accumulate(max(len(ids) - 1, 0) for ids in routes))
        return [flat[start:end] for start, end in zip([0, *ends], ends)]

    def nearest(self, k: int) -> list[list[int]]:
        """Per task, the k other tasks with the cheapest links, nearest
        first and equal links in task-index order; k is capped at n - 1.

        The lists are the first k kept columns, or those of a wider table
        for k above ``_KEEP``, built on the first call for each capped k and
        returned by every later call, so every solve on this matrix shares
        them: callers must not change them.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        n = len(self.heads)
        k = min(k, n - 1)
        if k in self._nearest:
            return self._nearest[k]
        columns = self.columns if k <= self.columns.shape[1] else self._cheapest(k)[0]
        # the lists hold one shared int object per task, not n * k ints of
        # their own (32 bytes each): they outlive the solve that builds them
        task_ints = np.arange(n, dtype=object)
        out = self._nearest[k] = task_ints[columns[:, : max(k, 0)]].tolist()
        return out


def build_rank_matrix(instance: Instance, dist: DistanceTable) -> RankMatrix:
    """Rank the cheapest links of every task (none with fewer than two)."""
    heads = np.array([t.u for t in instance.tasks], dtype=np.intp)
    tails = np.array([t.v for t in instance.tasks], dtype=np.intp)
    return RankMatrix(dist.matrix, heads, tails)
