"""First-improvement local search over a classic arc-routing move set.

Moves: single-task relocation (both orientations, intra- and inter-route,
including into a fresh route), pairwise task swap (both orientations),
intra-route segment reversal (2-opt; a length-1 segment is an orientation
flip), and inter-route tail exchange (2-opt*).  Candidates are generated
around each task's nearest other tasks, which keeps passes near-linear on
large sub-problems while degenerating to the full neighborhood on small
ones.

Route costs are cached and maintained incrementally by the move
operators; ``debug=True`` recomputes every touched route from scratch and
asserts agreement (slow, used by the test suite).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .distances import DistanceTable
from .instance import Instance, inverse_id, task_index_of
from .ranking import link_numerators, nearest_columns
from .solution import Solution

_EPS = 1e-9
_CHECK_EVERY = 256


def neighbor_lists(instance: Instance, dist: DistanceTable, size: int) -> list[list[int]]:
    """Per task, the ``size`` tasks with the cheapest links, nearest first
    and equal links in task-index order: ``RankMatrix.nearest`` without the
    rank matrix (see ``ranking.nearest_columns``)."""
    return nearest_columns(link_numerators(instance, dist), size)


class _State:
    """Mutable search state: interiors, cached loads/costs, position index."""

    def __init__(self, solution: Solution, instance: Instance, dist: DistanceTable):
        self.inst = instance
        self.D = dist.rows
        self.head = instance.id_head
        self.tail = instance.id_tail
        self.dem = instance.id_demand
        self.sc = instance.id_service
        self.depot = instance.depot
        self.capacity = instance.capacity
        self.routes: list[list[int]] = [list(r.interior) for r in solution.routes if r.size]
        self.loads: list[float] = []
        self.costs: list[float] = []
        self.prefix: list[list[float]] = []
        self.where: list[tuple[int, int] | None] = [None] * instance.task_count
        for k, r in enumerate(self.routes):
            self.loads.append(sum(self.dem[t] for t in r))
            self.costs.append(self.seq_cost(r))
            self._reindex(k)

    def seq_cost(self, interior: Sequence[int]) -> float:
        D, head, tail, sc = self.D, self.head, self.tail, self.sc
        prev = self.depot
        total = 0.0
        for t in interior:
            total += D[prev][head[t]] + sc[t]
            prev = tail[t]
        return total + D[prev][self.depot]

    def _reindex(self, k: int) -> None:
        r = self.routes[k]
        pre = [0.0] * (len(r) + 1)
        for i, t in enumerate(r):
            self.where[task_index_of(t)] = (k, i)
            pre[i + 1] = pre[i] + self.dem[t]
        if k < len(self.prefix):
            self.prefix[k] = pre
        else:
            self.prefix.append(pre)

    def _reindex_all(self) -> None:
        self.prefix = []
        for k in range(len(self.routes)):
            self._reindex(k)

    def drop_route(self, k: int) -> None:
        del self.routes[k], self.loads[k], self.costs[k], self.prefix[k]
        self._reindex_all()

    def total_cost(self) -> float:
        return sum(self.costs)

    def check(self, *ks: int) -> None:
        for k in ks:
            if k >= len(self.routes):
                continue
            r = self.routes[k]
            exact = self.seq_cost(r)
            assert abs(self.costs[k] - exact) < 1e-6, (
                f"route {k}: cached {self.costs[k]} vs exact {exact}"
            )
            assert abs(self.loads[k] - sum(self.dem[t] for t in r)) < 1e-9

    # boundary vertices around a position
    def prev_v(self, r: list[int], i: int) -> int:
        return self.tail[r[i - 1]] if i > 0 else self.depot

    def next_v(self, r: list[int], i: int) -> int:
        return self.head[r[i + 1]] if i + 1 < len(r) else self.depot

    def to_solution(self, instance: Instance, dist: DistanceTable) -> Solution:
        return Solution.build([r for r in self.routes if r], instance, dist)


def local_search(
    solution: Solution,
    instance: Instance,
    dist: DistanceTable,
    rng: random.Random,
    *,
    max_evals: int | None = None,
    deadline: Callable[[], bool] | None = None,
    neighbors: list[list[int]] | None = None,
    neighbor_size: int = 20,
    debug: bool = False,
) -> Solution:
    """Improve a feasible solution until locally optimal or out of budget.

    ``max_evals`` caps the number of move evaluations; ``deadline`` is an
    optional callable polled cooperatively that returns True once the time
    budget is exhausted.  The result is always feasible and never costs
    more than the input.
    """
    st = _State(solution, instance, dist)
    present = [ti for ti in range(instance.task_count) if st.where[ti] is not None]
    if len(present) <= 1:
        return solution.clone()
    if neighbors is None:
        neighbors = neighbor_lists(instance, dist, neighbor_size)

    D = st.D
    head, tail, dem, sc = st.head, st.tail, st.dem, st.sc
    depot, capacity = st.depot, st.capacity
    evals = 0
    out_of_budget = False

    def spent(n: int) -> bool:
        nonlocal evals, out_of_budget
        evals += n
        if max_evals is not None and evals >= max_evals:
            out_of_budget = True
        elif deadline is not None and evals // _CHECK_EVERY != (evals - n) // _CHECK_EVERY:
            out_of_budget = deadline()
        return out_of_budget

    def try_task(ti: int) -> bool:
        """Scan moves around task ti; apply the first improving one."""
        k1, i1 = st.where[ti]  # type: ignore[misc]
        r1 = st.routes[k1]
        a = r1[i1]

        # orientation flip in place (segment reversal of length 1)
        if _try_reverse(st, k1, i1, i1, debug):
            return True
        if spent(1):
            return False

        # relocation into a route of its own
        if len(r1) >= 2:
            p1, n1 = st.prev_v(r1, i1), st.next_v(r1, i1)
            gain = D[p1][head[a]] + D[tail[a]][n1] - D[p1][n1]
            delta = D[depot][head[a]] + D[tail[a]][depot] - gain
            if spent(1):
                return False
            if delta < -_EPS:
                _apply_relocate(st, k1, i1, a, len(st.routes), 0, debug)
                return True

        for tj in neighbors[ti]:
            loc = st.where[tj]
            if loc is None:
                continue
            k2, i2 = loc
            r2 = st.routes[k2]
            b = r2[i2]

            if k2 == k1:
                lo, hi = (i1, i2) if i1 < i2 else (i2, i1)
                if hi > lo and _try_reverse(st, k1, lo, hi, debug):
                    return True
                if spent(1):
                    return False
                if _try_relocate_near(st, ti, k1, i1, k2, i2, debug):
                    return True
                if out_of_budget:
                    return False
                if _try_swap_intra(st, k1, lo, hi, debug):
                    return True
                if spent(4):
                    return False
            else:
                if _try_relocate_near(st, ti, k1, i1, k2, i2, debug):
                    return True
                if out_of_budget:
                    return False
                if _try_swap(st, k1, i1, k2, i2, debug):
                    return True
                if spent(4):
                    return False
                if _try_tail_exchange(st, k1, i1, k2, i2, debug):
                    return True
                if spent(2):
                    return False
        return False

    def _try_relocate_near(st, ti, k1, i1, k2, i2, debug) -> bool:
        r1 = st.routes[k1]
        a = r1[i1]
        r2 = st.routes[k2]
        same = k1 == k2
        if not same and st.loads[k2] + dem[a] > capacity:
            return False
        p1, n1 = st.prev_v(r1, i1), st.next_v(r1, i1)
        gain = D[p1][head[a]] + D[tail[a]][n1] - D[p1][n1]
        for j in (i2, i2 + 1):
            if same and j in (i1, i1 + 1):
                continue
            p2 = st.prev_v(r2, j) if j > 0 else depot
            n2 = head[r2[j]] if j < len(r2) else depot
            for x in (a, inverse_id(a)):
                cost = D[p2][head[x]] + D[tail[x]][n2] - D[p2][n2]
                if spent(1):
                    return False
                if cost - gain < -_EPS:
                    _apply_relocate(st, k1, i1, x, k2, j, debug)
                    return True
        return False

    def _try_swap(st, k1, i1, k2, i2, debug) -> bool:
        r1, r2 = st.routes[k1], st.routes[k2]
        a, b = r1[i1], r2[i2]
        da, db = dem[a], dem[b]
        if st.loads[k1] - da + db > capacity or st.loads[k2] - db + da > capacity:
            return False
        p1, n1 = st.prev_v(r1, i1), st.next_v(r1, i1)
        p2, n2 = st.prev_v(r2, i2), st.next_v(r2, i2)
        base1 = D[p1][head[a]] + D[tail[a]][n1]
        base2 = D[p2][head[b]] + D[tail[b]][n2]
        for y in (b, inverse_id(b)):
            d1 = D[p1][head[y]] + D[tail[y]][n1] - base1
            for x in (a, inverse_id(a)):
                d2 = D[p2][head[x]] + D[tail[x]][n2] - base2
                if d1 + d2 < -_EPS:
                    _apply_swap(st, k1, i1, y, k2, i2, x, d1, d2, debug)
                    return True
        return False

    def _try_swap_intra(st, k, i1, i2, debug) -> bool:
        """Swap two tasks of one route (i1 < i2); adjacency needs its own delta."""
        r = st.routes[k]
        a, b = r[i1], r[i2]
        p, n = st.prev_v(r, i1), st.next_v(r, i2)
        if i2 == i1 + 1:
            base = D[p][head[a]] + D[tail[a]][head[b]] + D[tail[b]][n]
            for y in (b, inverse_id(b)):
                for x in (a, inverse_id(a)):
                    delta = D[p][head[y]] + D[tail[y]][head[x]] + D[tail[x]][n] - base
                    if delta < -_EPS:
                        _apply_swap_intra(st, k, i1, y, i2, x, delta, debug)
                        return True
            return False
        n1 = st.next_v(r, i1)
        p2 = st.prev_v(r, i2)
        base = D[p][head[a]] + D[tail[a]][n1] + D[p2][head[b]] + D[tail[b]][n]
        for y in (b, inverse_id(b)):
            for x in (a, inverse_id(a)):
                delta = D[p][head[y]] + D[tail[y]][n1] + D[p2][head[x]] + D[tail[x]][n] - base
                if delta < -_EPS:
                    _apply_swap_intra(st, k, i1, y, i2, x, delta, debug)
                    return True
        return False

    def _try_tail_exchange(st, k1, i1, k2, i2, debug) -> bool:
        r1, r2 = st.routes[k1], st.routes[k2]
        for c1, c2 in ((i1, i2), (i1, i2 - 1)):
            if c1 == len(r1) - 1 and c2 == len(r2) - 1:
                continue
            e1 = tail[r1[c1]] if c1 >= 0 else depot
            s1 = head[r1[c1 + 1]] if c1 + 1 < len(r1) else depot
            e2 = tail[r2[c2]] if c2 >= 0 else depot
            s2 = head[r2[c2 + 1]] if c2 + 1 < len(r2) else depot
            delta = D[e1][s2] + D[e2][s1] - D[e1][s1] - D[e2][s2]
            if delta < -_EPS:
                pre1 = st.prefix[k1][c1 + 1]
                pre2 = st.prefix[k2][c2 + 1]
                if (
                    pre1 + st.loads[k2] - pre2 <= capacity
                    and pre2 + st.loads[k1] - pre1 <= capacity
                ):
                    _apply_tail_exchange(st, k1, c1, k2, c2, pre1, pre2, debug)
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
    result = st.to_solution(instance, dist)
    if result.total_cost > solution.total_cost + 1e-6:
        raise RuntimeError(
            f"local search worsened the solution: {solution.total_cost} -> {result.total_cost}"
        )
    return result


# --- move application ---------------------------------------------------


def _apply_relocate(st: _State, k1: int, i1: int, x: int, k2: int, j: int, debug: bool) -> None:
    r1 = st.routes[k1]
    a = r1[i1]
    p1, n1 = st.prev_v(r1, i1), st.next_v(r1, i1)
    gain = st.D[p1][st.head[a]] + st.D[st.tail[a]][n1] - st.D[p1][n1]
    del r1[i1]
    st.loads[k1] -= st.dem[a]
    st.costs[k1] -= gain + st.sc[a]
    if k2 == len(st.routes):  # fresh route
        st.routes.append([x])
        st.loads.append(st.dem[x])
        st.costs.append(
            st.D[st.depot][st.head[x]] + st.sc[x] + st.D[st.tail[x]][st.depot]
        )
        st.prefix.append([])
    else:
        r2 = st.routes[k2]
        if k2 == k1 and j > i1:
            j -= 1
        p2 = st.prev_v(r2, j) if j > 0 else st.depot
        n2 = st.head[r2[j]] if j < len(r2) else st.depot
        r2.insert(j, x)
        st.loads[k2] += st.dem[x]
        st.costs[k2] += st.D[p2][st.head[x]] + st.D[st.tail[x]][n2] - st.D[p2][n2] + st.sc[x]
    if not r1:
        st.drop_route(k1)
    else:
        st._reindex_all()
    if debug:
        st.check(*range(len(st.routes)))


def _apply_swap_intra(
    st: _State, k: int, i1: int, y: int, i2: int, x: int, delta: float, debug: bool
) -> None:
    st.routes[k][i1] = y
    st.routes[k][i2] = x
    st.costs[k] += delta
    st._reindex(k)
    if debug:
        st.check(k)


def _apply_swap(
    st: _State, k1: int, i1: int, y: int, k2: int, i2: int, x: int,
    d1: float, d2: float, debug: bool,
) -> None:
    a = st.routes[k1][i1]
    b = st.routes[k2][i2]
    st.routes[k1][i1] = y
    st.routes[k2][i2] = x
    st.costs[k1] += d1 + st.sc[y] - st.sc[a]
    st.costs[k2] += d2 + st.sc[x] - st.sc[b]
    st.loads[k1] += st.dem[y] - st.dem[a]
    st.loads[k2] += st.dem[x] - st.dem[b]
    st.where[task_index_of(a)] = (k2, i2)
    st.where[task_index_of(b)] = (k1, i1)
    st._reindex(k1)
    st._reindex(k2)
    if debug:
        st.check(k1, k2)


def _try_reverse(st: _State, k: int, i: int, j: int, debug: bool) -> bool:
    r = st.routes[k]
    p, n = st.prev_v(r, i), st.next_v(r, j)
    D, head, tail = st.D, st.head, st.tail
    delta = D[p][tail[r[j]]] + D[head[r[i]]][n] - D[p][head[r[i]]] - D[tail[r[j]]][n]
    if delta >= -_EPS:
        return False
    r[i : j + 1] = [inverse_id(t) for t in reversed(r[i : j + 1])]
    st.costs[k] += delta
    st._reindex(k)
    if debug:
        st.check(k)
    return True


def _apply_tail_exchange(
    st: _State, k1: int, c1: int, k2: int, c2: int, pre1: float, pre2: float, debug: bool
) -> None:
    r1, r2 = st.routes[k1], st.routes[k2]
    load1, load2 = st.loads[k1], st.loads[k2]
    new1 = r1[: c1 + 1] + r2[c2 + 1 :]
    new2 = r2[: c2 + 1] + r1[c1 + 1 :]
    st.routes[k1] = new1
    st.routes[k2] = new2
    st.loads[k1] = pre1 + load2 - pre2
    st.loads[k2] = pre2 + load1 - pre1
    st.costs[k1] = st.seq_cost(new1)
    st.costs[k2] = st.seq_cost(new2)
    for k in sorted((k1, k2), reverse=True):
        if not st.routes[k]:
            del st.routes[k], st.loads[k], st.costs[k], st.prefix[k]
    st._reindex_all()
    if debug:
        st.check(*range(len(st.routes)))
