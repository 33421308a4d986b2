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

from dataclasses import dataclass

import numpy as np

from .distances import DistanceTable
from .instance import Instance


# task rows of link_numerators per block; 16 to 32 ran fastest of 4..512 at
# 2500 tasks
_LINK_BLOCK = 16


def link_numerators(instance: Instance, dist: DistanceTable) -> np.ndarray:
    """Four times the link cost of every ordered task pair, diagonal 0.

    Entry [i, j] is the plain sum of the four endpoint distances between
    tasks i and j, added as ``((hh + ht) + th) + tt``.  The matrix is
    int64 when every entry is an exact integer (integer edge costs),
    float64 otherwise: the rule reads the sums, not the distances, so
    half-integral distances whose sums are whole give int64 too.

    The output is filled in blocks of ``_LINK_BLOCK`` task rows: the
    distance rows from the block's heads and from its tails are gathered
    once, and their head and tail columns summed into the block.  A block
    allocates a few ``_LINK_BLOCK`` x max(V, n) arrays and no n x n one;
    the int64 result reuses the float64 output's memory, converted block
    by block.
    """
    heads = np.array([t.u for t in instance.tasks], dtype=np.intp)
    tails = np.array([t.v for t in instance.tasks], dtype=np.intp)
    m = dist.matrix
    n = len(heads)
    num = np.empty((n, n), dtype=np.float64)
    integral = True
    for start in range(0, n, _LINK_BLOCK):
        stop = min(start + _LINK_BLOCK, n)
        from_heads = m[heads[start:stop]]
        from_tails = m[tails[start:stop]]
        out = num[start:stop]
        np.add(from_heads[:, heads], from_heads[:, tails], out=out)
        out += from_tails[:, heads]
        out += from_tails[:, tails]
        rows = np.arange(stop - start)
        out[rows, start + rows] = 0  # self-links are undefined
        integral = integral and np.array_equal(out.astype(np.int64), out)
    if not integral:
        return num
    as_int = num.view(np.int64)  # the same memory, converted block by block
    for start in range(0, n, _LINK_BLOCK):
        block = slice(start, start + _LINK_BLOCK)
        as_int[block] = num[block].astype(np.int64)
    return as_int


# rows per block of RankMatrix.nearest; 16 to 256 ran within 10% of each
# other at 2500 tasks, and 32 rows of int64 keys are 0.6 MB at 2500
_NEAREST_BLOCK = 32


# rows ranked per pass of rank_rows; 32 ranked 2500 x 2500 fastest of 16..256
_RANK_BLOCK = 32
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


def rank_rows(costs: np.ndarray) -> np.ndarray:
    """Competition-rank each row of a square cost matrix, ignoring the diagonal.

    rank[i, j] = 1 + |{k != i : costs[i, k] < costs[i, j]}|; diagonal
    entries are left as 0 (unset).  The result is uint16, or uint32 when n
    exceeds 65535.

    Rows are ranked in blocks of ``_RANK_BLOCK``: count the strictly
    cheaper entries of each row, add one and drop the count for a strictly
    cheaper diagonal.  Integer costs whose span of values is below
    ``_COUNT_SPAN_PER_ROW`` x n are counted per value (``np.bincount``), in
    linear time; float costs and wide integer spans are sorted.  The
    temporaries of a block are a few ``_RANK_BLOCK`` x n arrays of 8-byte
    items (plus ``_RANK_BLOCK`` x span counts), about 2 MB at n = 2500
    against 50 MB for one n x n int64 array.
    """
    n = costs.shape[0]
    if costs.shape != (n, n):
        raise ValueError("cost matrix must be square")
    dtype = np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32
    ranks = np.empty((n, n), dtype=dtype)
    counting = False
    if n and np.issubdtype(costs.dtype, np.integer):
        low = costs.min()
        span = int(costs.max()) - int(low) + 1
        counting = span < _COUNT_SPAN_PER_ROW * n
    for start in range(0, n, _RANK_BLOCK):
        block = costs[start : start + _RANK_BLOCK]
        out = ranks[start : start + _RANK_BLOCK]
        if counting:
            _below_by_counting(block, low, span, out)
        else:
            _below_by_sorting(block, out)
        rows = np.arange(block.shape[0])
        diagonal = block[rows, start + rows]
        out += 1
        out -= block > diagonal[:, None]
        out[rows, start + rows] = 0
    return ranks


@dataclass
class RankMatrix:
    """Link-cost and rank tables over all ordered task pairs.

    ``numerators`` holds four times the link cost (the plain sum of the
    four endpoint distances); with integer edge costs this is an exact
    integer, so rank comparisons never suffer floating-point tie
    misclassification.  ``ranks`` must be ``rank_rows(numerators)``:
    ``nearest`` reads only the ranks, and only the sub-route distances of
    the clustering path read the numerators.  Diagonals are unset (0 in
    ``ranks``).
    """

    numerators: np.ndarray
    ranks: np.ndarray

    def nearest(self, k: int) -> list[list[int]]:
        """Per task, the k other tasks with the cheapest links, nearest
        first and equal links in task-index order; k is capped at n - 1.

        Within a row, rank order is link-cost order and equal costs share a
        rank, so the key ``rank * n + column`` is unique and sorts as
        (cost, column) does.  The diagonal's key is moved past every other
        one (n * n), the keys are partitioned at k - 1, the first k sorted,
        and ``% n`` gives back the columns.  Rows are taken in blocks of
        ``_NEAREST_BLOCK``, so the keys are ``_NEAREST_BLOCK`` x n int64,
        not n x n.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        n = self.ranks.shape[0]
        k = min(k, n - 1)
        if k <= 0:
            return [[] for _ in range(n)]
        columns = np.arange(n, dtype=np.int64)
        out: list[list[int]] = []
        for start in range(0, n, _NEAREST_BLOCK):
            key = self.ranks[start : start + _NEAREST_BLOCK].astype(np.int64)
            key *= n
            key += columns
            local = np.arange(key.shape[0])
            key[local, start + local] = n * n
            key.partition(k - 1, axis=1)
            top = np.sort(key[:, :k], axis=1)
            top %= n
            out += top.tolist()
        return out


def build_rank_matrix(instance: Instance, dist: DistanceTable) -> RankMatrix:
    """Compute link costs and ranks for every ordered task pair."""
    n = instance.task_count
    if n < 2:
        raise ValueError("rank matrix needs at least two tasks")
    num = link_numerators(instance, dist)
    return RankMatrix(num, rank_rows(num))
