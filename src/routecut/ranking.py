"""Link costs between tasks and the per-task rank matrix.

The cost of the link from one task to another is the mean shortest-path
cost over the four endpoint pairings, which makes it independent of the
traversal direction of either task.  Each row of the rank matrix orders
all links leaving one task by competition ranking: a link's rank is one
plus the number of strictly cheaper links in the row, so equal costs share
a rank and the numbering skips after a tie block (1, 1, 3, ...).  The
matrix is not symmetric: a task on the periphery may rank a central task
highly while the central task has many closer alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distances import DistanceTable
from .instance import Instance, task_index_of


def link_numerators(
    matrix: np.ndarray, heads: np.ndarray, tails: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Rows ``start:stop`` of four times the link cost between the tasks
    whose endpoints are ``heads`` and ``tails``.

    Entry [r, j] is the plain sum of the four ``matrix`` distances between
    the endpoints of tasks ``start + r`` and ``j``, added as
    ``((hh + ht) + th) + tt``; entry [r, start + r] is 0, since self-links
    are undefined.  An integer ``matrix`` (see ``DistanceTable``) holds four
    times its largest entry, so the sums are taken in its own type without
    overflow and returned as int64; a float64 ``matrix`` gives float64 sums.
    The distance rows from the block's heads and from its tails are
    gathered once, and the block allocates a few (stop - start) x max(V, n)
    arrays.
    """
    from_heads = matrix[heads[start:stop]]
    from_tails = matrix[tails[start:stop]]
    block = from_heads[:, heads]
    block += from_heads[:, tails]
    block += from_tails[:, heads]
    block += from_tails[:, tails]
    rows = np.arange(stop - start)
    block[rows, start + rows] = 0
    return block.astype(np.int64) if matrix.dtype.kind == "i" else block


# task rows per block of build_rank_matrix and RankMatrix.nearest; 32 ranked
# 2500 x 2500 fastest of 16..256, nearest ran within 10% from 16 to 256, and
# 32 rows of int64 keys are 0.6 MB at 2500
_ROW_BLOCK = 32
# integer costs whose span (max - min + 1) is below this many times n are
# ranked by counting, wider or float ones by sorting
_COUNT_SPAN_PER_ROW = 4


def _below_by_sorting(block: np.ndarray, out: np.ndarray) -> None:
    """out[r, j] = |{k : block[r, k] < block[r, j]}|, by sorting each row
    and carrying the first position of each tie block to the right."""
    b, n = block.shape
    order = np.argsort(block, axis=1)
    ordered = np.take_along_axis(block, order, axis=1)
    # first[r, p]: how many entries of row r are strictly cheaper than the
    # one at sorted position p
    first = np.zeros((b, n), dtype=np.intp)
    np.multiply(ordered[:, 1:] != ordered[:, :-1], np.arange(1, n), out=first[:, 1:])
    del ordered
    np.maximum.accumulate(first, axis=1, out=first)
    np.put_along_axis(out, order, first, axis=1)


def _below_by_counting(block: np.ndarray, low: np.generic, span: int, out: np.ndarray) -> None:
    """out[r, j] = |{k : block[r, k] < block[r, j]}| for integer values in
    ``low .. low + span - 1``: count each value of each row, and read an
    entry's count of strictly cheaper values off the exclusive running sum
    of its row's counts."""
    b = block.shape[0]
    # offset[r, j]: the slot of block[r, j] among row r's span of values
    offset = (block - low).astype(np.intp)
    offset += np.arange(0, b * span, span)[:, None]
    counts = np.bincount(offset.ravel(), minlength=b * span).reshape(b, span)
    below = np.cumsum(counts, axis=1)
    below -= counts
    out[...] = below.ravel()[offset]


def _rank_dtype(n: int) -> type:
    return np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32


def rank_rows(costs: np.ndarray, first: int = 0) -> np.ndarray:
    """Competition-rank rows ``first .. first + b - 1`` of a square n x n
    cost matrix, given as their b x n block ``costs``, ignoring the diagonal.

    rank[r, j] = 1 + |{k != i : costs[r, k] < costs[r, j]}| for row
    i = first + r; diagonal entries [r, i] are left as 0 (unset).  The
    result is uint16, or uint32 when n exceeds 65535.

    Count the strictly cheaper entries of each row, add one and drop the
    count for a strictly cheaper diagonal.  Integer costs whose span of
    values is below ``_COUNT_SPAN_PER_ROW`` x n are counted per value
    (``np.bincount``), in linear time; float costs and wide integer spans
    are sorted.  Ranks compare values only, so either path, and an int or a
    float copy of the same values, gives the same ranks.  The temporaries
    are a few b x n arrays of 8-byte items (plus b x span counts), so
    callers rank a large matrix a block of rows at a time.
    """
    b, n = costs.shape
    if not 0 <= first <= n - b:
        raise ValueError("rows must lie within a square cost matrix")
    ranks = np.empty((b, n), dtype=_rank_dtype(n))
    counting = False
    if b and np.issubdtype(costs.dtype, np.integer):
        low = costs.min()
        span = int(costs.max()) - int(low) + 1
        counting = span < _COUNT_SPAN_PER_ROW * n
    if counting:
        _below_by_counting(costs, low, span, ranks)
    else:
        _below_by_sorting(costs, ranks)
    rows = np.arange(b)
    diagonal = costs[rows, first + rows]
    ranks += 1
    ranks -= costs > diagonal[:, None]
    ranks[rows, first + rows] = 0
    return ranks


@dataclass
class RankMatrix:
    """Competition ranks of the links over all ordered task pairs.

    ``ranks[i]`` is ``rank_rows`` of the link costs leaving task i, with
    the diagonal unset (0).  Only ranks are kept, 2 bytes per task pair:
    ``link_ranks`` (for ``rco``) and ``nearest`` read nothing else, and the
    clustering path sums its link costs afresh (``link_numerators``).
    """

    ranks: np.ndarray
    # nearest's lists by capped k; they depend on ``ranks`` alone
    _nearest: dict[int, list[list[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def link_ranks(self, ids: list[int]) -> list[int]:
        """The rank of each link of the directed task IDs ``ids``: link i
        leaves the task of ``ids[i]`` for that of ``ids[i + 1]``, whatever
        their orientations.  One ID or none has no link."""
        table = self.ranks
        return [int(table[task_index_of(a), task_index_of(b)]) for a, b in zip(ids, ids[1:])]

    def nearest(self, k: int) -> list[list[int]]:
        """Per task, the k other tasks with the cheapest links, nearest
        first and equal links in task-index order; k is capped at n - 1.

        The lists are built on the first call for each capped k and the
        same lists are returned by every later call, so every solve on
        this matrix shares them: callers must not change them, and
        ``ranks`` must not change once they are built.

        Within a row, rank order is link-cost order and equal costs share a
        rank, so the key ``rank * n + column`` is unique and sorts as
        (cost, column) does.  The diagonal's key is moved past every other
        one (n * n), the keys are partitioned at k - 1, the first k sorted,
        and ``% n`` gives back the columns.  Rows are taken in blocks of
        ``_ROW_BLOCK``, so the keys are ``_ROW_BLOCK`` x n int64, not n x n.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        n = self.ranks.shape[0]
        k = min(k, n - 1)
        if k in self._nearest:
            return self._nearest[k]
        if k <= 0:
            out = self._nearest[k] = [[] for _ in range(n)]
            return out
        columns = np.arange(n, dtype=np.int64)
        # the lists hold one shared int object per task, not n * k ints of
        # their own (32 bytes each): they outlive the solve that builds them
        task_ints = np.arange(n, dtype=object)
        out: list[list[int]] = []
        for start in range(0, n, _ROW_BLOCK):
            key = self.ranks[start : start + _ROW_BLOCK].astype(np.int64)
            key *= n
            key += columns
            local = np.arange(key.shape[0])
            key[local, start + local] = n * n
            key.partition(k - 1, axis=1)
            top = np.sort(key[:, :k], axis=1)
            top %= n
            out += task_ints[top].tolist()
        self._nearest[k] = out
        return out


def build_rank_matrix(instance: Instance, dist: DistanceTable) -> RankMatrix:
    """Rank the links of every ordered task pair.

    Link numerators are summed and ranked ``_ROW_BLOCK`` rows at a time,
    and each block is dropped once ranked: no n x n cost matrix is held.
    With no task or one task the matrix is 0 x 0 or 1 x 1.
    """
    n = instance.task_count
    heads = np.array([t.u for t in instance.tasks], dtype=np.intp)
    tails = np.array([t.v for t in instance.tasks], dtype=np.intp)
    ranks = np.empty((n, n), dtype=_rank_dtype(n))
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        block = link_numerators(dist.matrix, heads, tails, start, stop)
        ranks[start:stop] = rank_rows(block, first=start)
    return RankMatrix(ranks)
