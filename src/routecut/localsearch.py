"""First-improvement local search over a classic arc-routing move set.

Moves: single-task relocation (both orientations, intra- and inter-route,
including into a fresh route), pairwise task swap (both orientations),
intra-route segment reversal (2-opt; a length-1 segment is an orientation
flip), and inter-route tail exchange (2-opt*).  Candidates are generated
around each task's nearest other tasks, which keeps passes near-linear on
large sub-problems while degenerating to the full neighborhood on small
ones.

Evaluation count.  ``max_evals`` (``sub_solver_budget`` in the search
loops) caps move evaluations.  A scan of one task counts, in this order:
the orientation flip 1; relocation into a fresh route 1 (from a route of
two or more tasks); then, per neighbour in the same route, the 2-opt 1,
each relocation candidate 1 and the swap 4; per neighbour in another
route, each relocation candidate 1 (none when that route lacks room), the
swap 4 (even when the loads rule it out) and the tail exchange 2.
Relocations are counted before their check, so the one that reaches the
cap is never checked.  The other moves are counted after their check, and
not at all when they improve, since the scan then ends with the move
applied.  The search stops once the count reaches ``max_evals``; below it,
``deadline`` is polled once each time the count crosses a multiple of
``_CHECK_EVERY``, and the search stops when it returns True.  Changing any
of this moves the point where a capped search stops, so it changes every
fixed-work result and every virtual-clock run.  A ``max_evals`` of 0
returns the input as it is: nothing is evaluated, ``deadline`` is not
polled and ``rng`` is not drawn from.

Route loads are cached, and so is the position index ``where``: per
task, its route, its position, its directed ID, the vertex before it and
the vertex after it (the depot at either end of the route), whether it
is the route's last task and the route's load before it, so the scan
reads a task's context from one entry.  Only ``_reindex`` writes a load:
the fold of the route's demands from 0 in route order, like each load
before; no move adjusts it.  The cost is a running total, changed by the
delta that chose each applied move (only ``check()`` reads it).  A move
edits route lists, adds its delta and re-indexes the routes it changed:
one for a flip, 2-opt or intra-route swap; both for a swap, a relocation
(a fresh route is appended empty first) or a tail exchange.  A route that
a move empties stays in place as an empty list, so no other route's index
changes, and the result leaves it out.  ``debug=True`` rebuilds the cost
and every load and index entry from the routes alone after each applied
move and asserts agreement, exact but for the cost (slow, used by the
test suite).
"""

from __future__ import annotations

import math
import random
from itertools import accumulate
from typing import Callable

from .distances import DistanceTable
from .instance import Instance, inverse_id, task_index_of
from .solution import Solution, route_cost

_EPS = 1e-9
_CHECK_EVERY = 256

# a task's index entry: route, position, directed ID, the vertices before and
# after it (the depot at either end of the route), is last, load before it
_Entry = tuple[int, int, int, int, int, bool, float]


class _State:
    """Mutable search state: routes, cached loads, running cost, position index."""

    def __init__(self, solution: Solution, instance: Instance, dist: DistanceTable):
        self.instance = instance
        self.dist = dist
        self.D = dist.rows
        self.head = instance.id_head
        self.tail = instance.id_tail
        self.dem = instance.id_demand
        self.depot = instance.depot
        self.capacity = instance.capacity
        self.routes: list[list[int]] = [list(r) for r in solution.routes]
        self.cost = solution.total_cost
        self.where: list[_Entry | None] = [None] * instance.task_count
        self.loads: list[float] = [0] * len(self.routes)
        for k in range(len(self.routes)):
            self._reindex(k)

    def _reindex(self, k: int) -> None:
        """Rebuild the index entries of every task in route k and its load,
        folded from 0 like each entry's load before."""
        r, head, tail, dem, where = self.routes[k], self.head, self.tail, self.dem, self.where
        last = len(r) - 1
        before, pre = self.depot, 0
        for i, t in enumerate(r):
            after = head[r[i + 1]] if i < last else self.depot
            where[task_index_of(t)] = (k, i, t, before, after, i == last, pre)
            before = tail[t]
            pre += dem[t]
        self.loads[k] = pre

    def check(self) -> None:
        """Assert the running cost, each cached load, empty routes' too, and
        the position index against a rebuild from the routes."""
        exact = sum(route_cost(r, self.instance, self.dist) for r in self.routes)
        assert abs(self.cost - exact) < 1e-6, f"running cost {self.cost} vs exact {exact}"
        where: list[_Entry | None] = [None] * len(self.where)
        for k, r in enumerate(self.routes):
            # a left fold from 0, as ``sum`` is not from Python 3.12 on
            pre = list(accumulate((self.dem[t] for t in r), initial=0))
            assert self.loads[k] == pre[-1], f"load {self.loads[k]} of route {k} vs {pre[-1]}"
            # the vertices a route passes between its tasks, depot to depot
            tails = [self.depot, *(self.tail[t] for t in r)]
            heads = [*(self.head[t] for t in r), self.depot]
            for i, t in enumerate(r):
                where[task_index_of(t)] = (k, i, t, tails[i], heads[i + 1], i + 1 == len(r), pre[i])
        assert self.where == where, "stale position index"

    def to_solution(self) -> Solution:
        return Solution.build([r for r in self.routes if r], self.instance, self.dist)


def local_search(
    solution: Solution,
    instance: Instance,
    dist: DistanceTable,
    rng: random.Random,
    *,
    max_evals: int | None = None,
    deadline: Callable[[], bool] | None = None,
    neighbors: list[list[int]],
    debug: bool = False,
) -> Solution:
    """Improve a feasible solution until locally optimal or out of budget.

    ``neighbors[ti]`` lists the tasks whose moves are tried around task
    ``ti`` (``RankMatrix.nearest``); it is not read when fewer than two
    tasks are present.  ``max_evals`` caps the number of move evaluations;
    ``deadline`` is an optional callable polled cooperatively that returns
    True once the time budget is exhausted (see the module docstring for
    both).  The result is always feasible and never costs more than the
    input.
    """
    st = _State(solution, instance, dist)
    present = [ti for ti in range(instance.task_count) if st.where[ti] is not None]
    if len(present) <= 1 or max_evals == 0:
        return solution

    D = st.D
    head, tail, dem = st.head, st.tail, st.dem
    depot, capacity = st.depot, st.capacity
    routes, loads, where = st.routes, st.loads, st.where
    evals = 0
    out_of_budget = False
    # each count is followed by ``evals >= stop and over()``: stop is the cap
    # or, with a deadline, the next multiple of _CHECK_EVERY if that is lower
    cap = math.inf if max_evals is None else max_evals
    stop = min(cap, _CHECK_EVERY) if deadline is not None else cap

    def over() -> bool:
        """The eval cap first, then one deadline poll for the multiple of
        ``_CHECK_EVERY`` that ``evals`` crossed."""
        nonlocal out_of_budget, stop
        if evals >= cap:
            out_of_budget = True
        else:  # stop < cap, so stop was a poll boundary
            out_of_budget = deadline()  # type: ignore[misc]
            stop = min(cap, (evals // _CHECK_EVERY + 1) * _CHECK_EVERY)
        return out_of_budget

    def try_task(ti: int) -> bool:
        """Scan moves around task ti; apply the first improving one."""
        nonlocal evals
        # a in either orientation is (ha, ta) or (ta, ha); p1 and n1 are the
        # vertices before and after it, and gain is what removing it saves
        k1, i1, a, p1, n1, end1, pre_a = e1 = where[ti]  # type: ignore[misc]
        ha, ta, da = head[a], tail[a], dem[a]
        pre1 = pre_a + da  # its route's load up to and including it
        Dp1, Dha, Dta = D[p1], D[ha], D[ta]

        # orientation flip in place (segment reversal of length 1)
        delta = Dp1[ta] + Dha[n1] - Dp1[ha] - Dta[n1]
        if delta < -_EPS:
            _apply_reverse(st, k1, i1, i1, delta)
            return True
        evals += 1
        if evals >= stop and over():
            return False

        base1 = Dp1[ha] + Dta[n1]
        gain = base1 - Dp1[n1]

        # relocation into a route of its own
        if not (end1 and i1 == 0):
            delta = D[depot][ha] + Dta[depot] - gain
            evals += 1
            if evals >= stop and over():
                return False
            if delta < -_EPS:
                _apply_relocate(st, k1, i1, a, len(routes), 0, delta)
                return True

        ia = inverse_id(a)
        for tj in neighbors[ti]:
            loc = where[tj]
            if loc is None:
                continue
            k2, i2, b, pb, nb, end2, pre_b = loc
            hb, tb = head[b], tail[b]
            Dpb, Dtb = D[pb], D[tb]
            same = k2 == k1
            if same:
                # 2-opt: reverse the segment from a to b, or from b to a
                if i1 < i2:
                    lo, hi = i1, i2
                    delta = Dp1[tb] + Dha[nb] - Dp1[ha] - Dtb[nb]
                else:
                    lo, hi = i2, i1
                    delta = Dpb[ta] + D[hb][n1] - Dpb[hb] - Dta[n1]
                if hi > lo and delta < -_EPS:
                    _apply_reverse(st, k1, lo, hi, delta)
                    return True
                evals += 1
                if evals >= stop and over():
                    return False

            # relocation of a before b, then after b
            if same or not loads[k2] + da > capacity:
                if not (same and (i2 == i1 or i2 == i1 + 1)):
                    evals += 1
                    if evals >= stop and over():
                        return False
                    if (delta := Dpb[ha] + Dta[hb] - Dpb[hb] - gain) < -_EPS:
                        _apply_relocate(st, k1, i1, a, k2, i2, delta)
                        return True
                    evals += 1
                    if evals >= stop and over():
                        return False
                    if (delta := Dpb[ta] + Dha[hb] - Dpb[hb] - gain) < -_EPS:
                        _apply_relocate(st, k1, i1, ia, k2, i2, delta)
                        return True
                if not (same and (i2 + 1 == i1 or i2 == i1)):
                    evals += 1
                    if evals >= stop and over():
                        return False
                    if (delta := Dtb[ha] + Dta[nb] - Dtb[nb] - gain) < -_EPS:
                        _apply_relocate(st, k1, i1, a, k2, i2 + 1, delta)
                        return True
                    evals += 1
                    if evals >= stop and over():
                        return False
                    if (delta := Dtb[ta] + Dha[nb] - Dtb[nb] - gain) < -_EPS:
                        _apply_relocate(st, k1, i1, ia, k2, i2 + 1, delta)
                        return True

            if same:
                if _try_swap_intra(st, *((e1, loc) if i1 < i2 else (loc, e1))):
                    return True
                evals += 4
                if evals >= stop and over():
                    return False
                continue

            # swap a and b, each in either orientation
            db = dem[b]
            if not (loads[k1] - da + db > capacity or loads[k2] - db + da > capacity):
                base2 = Dpb[hb] + Dtb[nb]
                d1, d1i = Dp1[hb] + Dtb[n1] - base1, Dp1[tb] + D[hb][n1] - base1
                d2, d2i = Dpb[ha] + Dta[nb] - base2, Dpb[ta] + Dha[nb] - base2
                # the terms are finite and rounded addition is monotone, so
                # the smallest of the four sums is that of the two smallest terms
                if (d1 if d1 < d1i else d1i) + (d2 if d2 < d2i else d2i) < -_EPS:
                    for y, dy in ((b, d1), (inverse_id(b), d1i)):
                        for x, dx in ((a, d2), (ia, d2i)):
                            if dy + dx < -_EPS:
                                _apply_swap(st, k1, i1, y, k2, i2, x, dy + dx)
                                return True
            evals += 4
            if evals >= stop and over():
                return False

            # tail exchange: cut after a, and after b or before it, if both routes fit
            if not (end1 and end2):
                delta = Dta[nb] + Dtb[n1] - Dta[n1] - Dtb[nb]
                if delta < -_EPS:
                    pre2 = pre_b + db
                    if (pre1 + loads[k2] - pre2 <= capacity
                            and pre2 + loads[k1] - pre1 <= capacity):
                        _apply_tail_exchange(st, k1, i1, k2, i2, delta)
                        return True
            delta = Dta[hb] + Dpb[n1] - Dta[n1] - Dpb[hb]
            if delta < -_EPS and (pre1 + loads[k2] - pre_b <= capacity
                                  and pre_b + loads[k1] - pre1 <= capacity):
                _apply_tail_exchange(st, k1, i1, k2, i2 - 1, delta)
                return True
            evals += 2
            if evals >= stop and over():
                return False
        return False

    improved = True
    while improved and not out_of_budget:
        improved = False
        order = present.copy()
        rng.shuffle(order)
        for ti in order:
            if out_of_budget:
                break
            if try_task(ti):
                improved = True
                if debug:
                    st.check()
    result = st.to_solution()
    if result.total_cost > solution.total_cost + 1e-6:
        raise RuntimeError(
            f"local search worsened the solution: {solution.total_cost} -> {result.total_cost}"
        )
    return result


# --- move application ---------------------------------------------------


def _apply_relocate(st: _State, k1: int, i1: int, x: int, k2: int, j: int, delta: float) -> None:
    """Move the task at (k1, i1) to (k2, j) as ``x``, which changes the cost by
    ``delta``; k2 == len(st.routes) is a fresh route."""
    if k2 == len(st.routes):
        st.routes.append([])
        st.loads.append(0)
    elif k2 == k1 and j > i1:
        j -= 1
    del st.routes[k1][i1]
    st.routes[k2].insert(j, x)
    st.cost += delta
    st._reindex(k1)
    if k2 != k1:
        st._reindex(k2)


def _try_swap_intra(st: _State, e1: _Entry, e2: _Entry) -> bool:
    """Swap two tasks of one route, given their index entries in position
    order; adjacency needs its own delta."""
    D, head, tail = st.D, st.head, st.tail
    k, i1, a, p, n1, _, _ = e1
    _, i2, b, p2, n, _, _ = e2
    ia, ib = inverse_id(a), inverse_id(b)
    if i2 == i1 + 1:
        base = D[p][head[a]] + D[tail[a]][head[b]] + D[tail[b]][n]
        for y in (b, ib):
            for x in (a, ia):
                delta = D[p][head[y]] + D[tail[y]][head[x]] + D[tail[x]][n] - base
                if delta < -_EPS:
                    _apply_swap(st, k, i1, y, k, i2, x, delta)
                    return True
        return False
    base = D[p][head[a]] + D[tail[a]][n1] + D[p2][head[b]] + D[tail[b]][n]
    for y in (b, ib):
        for x in (a, ia):
            delta = D[p][head[y]] + D[tail[y]][n1] + D[p2][head[x]] + D[tail[x]][n] - base
            if delta < -_EPS:
                _apply_swap(st, k, i1, y, k, i2, x, delta)
                return True
    return False


def _apply_swap(
    st: _State, k1: int, i1: int, y: int, k2: int, i2: int, x: int, delta: float
) -> None:
    """Put ``y`` at (k1, i1) and ``x`` at (k2, i2), one route or two; swapped
    tasks keep their service costs, so ``delta`` is the change in deadheading."""
    st.routes[k1][i1] = y
    st.routes[k2][i2] = x
    st.cost += delta
    st._reindex(k1)
    if k2 != k1:
        st._reindex(k2)


def _apply_reverse(st: _State, k: int, i: int, j: int, delta: float) -> None:
    """Reverse positions i..j of route k, each task flipped, which changes
    the cost by ``delta``; i == j flips one task's orientation."""
    r = st.routes[k]
    r[i : j + 1] = [inverse_id(t) for t in reversed(r[i : j + 1])]
    st.cost += delta
    st._reindex(k)


def _apply_tail_exchange(st: _State, k1: int, c1: int, k2: int, c2: int, delta: float) -> None:
    """Swap the tails of routes k1 and k2 after positions c1 and c2 (-1 for
    a whole route), which changes the cost by ``delta``."""
    r1, r2 = st.routes[k1], st.routes[k2]
    st.routes[k1] = r1[: c1 + 1] + r2[c2 + 1 :]
    st.routes[k2] = r2[: c2 + 1] + r1[c1 + 1 :]
    st.cost += delta
    st._reindex(k1)
    st._reindex(k2)
