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
from typing import IO

import numpy as np

from .distances import DistanceTable
from .instance import Instance


def link_cost(t1: int, t2: int, instance: Instance, dist: DistanceTable) -> float:
    """Direction-independent cost of the link between two distinct tasks."""
    if t1 == t2:
        raise ValueError("link cost is undefined for a task and itself")
    a, b = instance.tasks[t1], instance.tasks[t2]
    m = dist.matrix
    return float(m[a.u, b.u] + m[a.u, b.v] + m[a.v, b.u] + m[a.v, b.v]) / 4.0


def link_numerators(instance: Instance, dist: DistanceTable) -> np.ndarray:
    """Four times the link cost of every ordered task pair, diagonal 0.

    Entry [i, j] is the plain sum of the four endpoint distances between
    tasks i and j.  The matrix is int64 when every entry is an exact
    integer (integer edge costs), float64 otherwise.
    """
    heads = np.array([t.u for t in instance.tasks], dtype=np.intp)
    tails = np.array([t.v for t in instance.tasks], dtype=np.intp)
    m = dist.matrix
    num = (
        m[np.ix_(heads, heads)]
        + m[np.ix_(heads, tails)]
        + m[np.ix_(tails, heads)]
        + m[np.ix_(tails, tails)]
    )
    np.fill_diagonal(num, 0)  # self-links are undefined
    as_int = num.astype(np.int64)
    if np.array_equal(as_int.astype(np.float64), num):
        num = as_int
    return num


def nearest_columns(values: np.ndarray, k: int) -> list[list[int]]:
    """Per row of a square matrix, the k off-diagonal columns with the
    smallest values, smallest first; equal values come in column order.

    Each row's threshold is its (k+1)-th smallest value, diagonal
    included, so at least k off-diagonal entries lie at or below it and
    every one of the k answers does.  Only those candidates are sorted, by
    (value, column), so the answer does not depend on how the partition
    orders ties.  k is capped at n - 1.  Memory: one n x n copy of
    ``values`` for the partition, freed before the n x n boolean candidate
    mask is built.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = values.shape[0]
    k = min(k, n - 1)
    if k <= 0:
        return [[] for _ in range(n)]
    # a copy, so the partitioned n x n array is freed at once
    threshold = np.partition(values, k, axis=1)[:, k].copy()
    candidate = values <= threshold[:, None]
    np.fill_diagonal(candidate, False)
    rows, cols = np.divmod(np.flatnonzero(candidate), n)
    del candidate
    order = np.lexsort((cols, values[rows, cols], rows))
    # rows is the primary key, so row i's candidates start after those of
    # the rows before it
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    picked = order[starts[:, None] + np.arange(k)]
    return cols[picked].tolist()


# rows ranked per pass of rank_rows; 32 ranked 2500 x 2500 fastest of 16..256
_RANK_BLOCK = 32


def rank_rows(costs: np.ndarray) -> np.ndarray:
    """Competition-rank each row of a square cost matrix, ignoring the diagonal.

    rank[i, j] = 1 + |{k != i : costs[i, k] < costs[i, j]}|; diagonal
    entries are left as 0 (unset).  The result is uint16, or uint32 when n
    exceeds 65535.

    Rows are ranked in blocks of ``_RANK_BLOCK``: sort each row, carry the
    first position of each tie block to the right, scatter it back and
    drop the count for a strictly cheaper diagonal.  The temporaries of a
    block are three ``_RANK_BLOCK`` x n arrays of 8-byte items plus two
    boolean ones, about 2 MB at n = 2500 against 50 MB for one n x n
    int64 array.
    """
    n = costs.shape[0]
    if costs.shape != (n, n):
        raise ValueError("cost matrix must be square")
    dtype = np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32
    ranks = np.empty((n, n), dtype=dtype)
    positions = np.arange(1, n)
    for start in range(0, n, _RANK_BLOCK):
        block = costs[start : start + _RANK_BLOCK]
        b = block.shape[0]
        order = np.argsort(block, axis=1)
        ordered = np.take_along_axis(block, order, axis=1)
        # first[r, p]: how many entries of row r are strictly cheaper than
        # the one at sorted position p (its rank, diagonal counted, minus 1)
        first = np.zeros((b, n), dtype=np.intp)
        np.multiply(ordered[:, 1:] != ordered[:, :-1], positions, out=first[:, 1:])
        del ordered
        np.maximum.accumulate(first, axis=1, out=first)
        out = ranks[start : start + b]
        np.put_along_axis(out, order, first, axis=1)
        rows = np.arange(b)
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
    misclassification.  Diagonals are unset (0 in ``ranks``).
    """

    numerators: np.ndarray
    ranks: np.ndarray

    @property
    def task_count(self) -> int:
        return self.ranks.shape[0]

    def link_cost(self, t1: int, t2: int) -> float:
        return float(self.numerators[t1, t2]) / 4.0

    def rank(self, t1: int, t2: int) -> int:
        return int(self.ranks[t1, t2])

    def nearest(self, k: int) -> list[list[int]]:
        """Per task, the k other tasks with the cheapest links, nearest
        first and equal links in task-index order (see ``nearest_columns``)."""
        return nearest_columns(self.numerators, k)

    def to_csv(self, stream: IO[str], instance: Instance) -> None:
        labels = [f"({t.u + 1},{t.v + 1})" for t in instance.tasks]
        stream.write("task," + ",".join(labels) + "\n")
        for i, label in enumerate(labels):
            cells = [
                "" if i == j else str(int(self.ranks[i, j])) for j in range(len(labels))
            ]
            stream.write(label + "," + ",".join(cells) + "\n")


def build_rank_matrix(instance: Instance, dist: DistanceTable) -> RankMatrix:
    """Compute link costs and ranks for every ordered task pair."""
    n = instance.task_count
    if n < 2:
        raise ValueError("rank matrix needs at least two tasks")
    num = link_numerators(instance, dist)
    return RankMatrix(num, rank_rows(num))
