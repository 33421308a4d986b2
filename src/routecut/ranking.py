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


def rank_rows(costs: np.ndarray) -> np.ndarray:
    """Competition-rank each row of a square cost matrix, ignoring the diagonal.

    rank[i, j] = 1 + |{k != i : costs[i, k] < costs[i, j]}|; diagonal
    entries are left as 0 (unset).
    """
    n = costs.shape[0]
    if costs.shape != (n, n):
        raise ValueError("cost matrix must be square")
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
        """Per task, the k other tasks with the cheapest links, nearest first."""
        if k < 0:
            raise ValueError("k must be non-negative")
        n = self.task_count
        if n == 0:
            return []
        k = min(k, n - 1)
        order = np.argsort(self.numerators, axis=1, kind="stable")
        # the k + 1 cheapest columns hold the k answers and, unless a tie
        # block pushed it further right, the row's own diagonal entry
        head = order[:, : k + 1]
        keep = head != np.arange(n)[:, None]
        keep[keep.all(axis=1), k] = False
        return head[keep].reshape(n, k).tolist()

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
    heads = np.array([t.u for t in instance.tasks])
    tails = np.array([t.v for t in instance.tasks])
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
    return RankMatrix(num, rank_rows(num))
