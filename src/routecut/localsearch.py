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
fixed-work result and every virtual-clock run.  A search capped at
``max_evals`` therefore polls fewer than ``max_polls(max_evals)`` times,
and never when the cap is 0.  The clustering loop relies on this bound:
it runs a section of searches in processes made by POSIX ``fork`` only
when that many polls cannot reach a virtual time limit.

Route loads are cached, and so is the position index ``where``, each
task's route and position.  The cost is a running total, changed by the
delta that chose each applied move (only ``check()`` reads it).  A
move re-indexes only the routes it changed: one for a flip, 2-opt or
intra-route swap; both for a swap, a relocation (a fresh route is
appended) or a tail exchange.  A route that a move empties stays in place
as an empty list, so no other route's index changes, and the result leaves
it out.  The tail exchange sums the loads up to its two cuts only when it
improves.  ``debug=True`` rebuilds the cost and every load and index entry
after each applied move and asserts agreement (slow, used by the test suite).
"""

from __future__ import annotations

import math
import random
from typing import Callable

from .distances import DistanceTable
from .instance import Instance, inverse_id, task_index_of
from .solution import Solution, route_cost

_EPS = 1e-9
_CHECK_EVERY = 256


def max_polls(max_evals: int) -> int:
    """ceil(``max_evals`` / ``_CHECK_EVERY``): a search capped at
    ``max_evals`` polls its deadline fewer times than this, or never."""
    return -(-max_evals // _CHECK_EVERY)


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
        self.routes: list[list[int]] = [list(r.ids) for r in solution.routes]
        self.loads: list[float] = [sum(self.dem[t] for t in r) for r in self.routes]
        self.cost = solution.total_cost
        self.where: list[tuple[int, int] | None] = [None] * instance.task_count
        for k in range(len(self.routes)):
            self._reindex(k)

    def _reindex(self, k: int) -> None:
        for i, t in enumerate(self.routes[k]):
            self.where[task_index_of(t)] = (k, i)

    def check(self) -> None:
        """Assert the running cost, each cached load, empty routes' too, and
        the position index against a rebuild."""
        exact = sum(route_cost(r, self.instance, self.dist) for r in self.routes)
        assert abs(self.cost - exact) < 1e-6, f"running cost {self.cost} vs exact {exact}"
        where: list[tuple[int, int] | None] = [None] * len(self.where)
        for k, r in enumerate(self.routes):
            assert abs(self.loads[k] - sum(self.dem[t] for t in r)) < 1e-9
            for i, t in enumerate(r):
                where[task_index_of(t)] = (k, i)
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
    if len(present) <= 1:
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

    def exchange(k1: int, c1: int, k2: int, c2: int, delta: float) -> bool:
        """Apply the improving tail exchange after (k1, c1) and (k2, c2),
        which changes the cost by ``delta``, if both new routes fit."""
        pre1 = sum(dem[t] for t in routes[k1][: c1 + 1])
        pre2 = sum(dem[t] for t in routes[k2][: c2 + 1])
        if pre1 + loads[k2] - pre2 <= capacity and pre2 + loads[k1] - pre1 <= capacity:
            _apply_tail_exchange(st, k1, c1, k2, c2, pre1, pre2, delta)
            return True
        return False

    def try_task(ti: int) -> bool:
        """Scan moves around task ti; apply the first improving one."""
        nonlocal evals
        k1, i1 = where[ti]  # type: ignore[misc]
        r1 = routes[k1]
        a = r1[i1]

        # orientation flip in place (segment reversal of length 1)
        if _try_reverse(st, k1, i1, i1):
            return True
        evals += 1
        if evals >= stop and over():
            return False

        # a in either orientation is (ha, ta) or (ta, ha); p1 and n1 are the
        # vertices before and after it, and gain is what removing it saves
        ha, ta, ia, da = head[a], tail[a], inverse_id(a), dem[a]
        last1 = len(r1) - 1
        p1 = tail[r1[i1 - 1]] if i1 > 0 else depot
        n1 = head[r1[i1 + 1]] if i1 < last1 else depot
        Dp1, Dha, Dta = D[p1], D[ha], D[ta]
        base1 = Dp1[ha] + Dta[n1]
        gain = base1 - Dp1[n1]

        # relocation into a route of its own
        if last1:
            delta = D[depot][ha] + Dta[depot] - gain
            evals += 1
            if evals >= stop and over():
                return False
            if delta < -_EPS:
                _apply_relocate(st, k1, i1, a, len(routes), 0, delta)
                return True

        for tj in neighbors[ti]:
            loc = where[tj]
            if loc is None:
                continue
            k2, i2 = loc
            r2 = routes[k2]
            b = r2[i2]
            hb, tb = head[b], tail[b]
            pb = tail[r2[i2 - 1]] if i2 > 0 else depot
            nb = head[r2[i2 + 1]] if i2 + 1 < len(r2) else depot
            same = k2 == k1
            if same:
                lo, hi = (i1, i2) if i1 < i2 else (i2, i1)
                if hi > lo and _try_reverse(st, k1, lo, hi):
                    return True
                evals += 1
                if evals >= stop and over():
                    return False

            # relocation of a before b, then after b
            if same or not loads[k2] + da > capacity:
                for j, p2, n2 in ((i2, pb, hb), (i2 + 1, tb, nb)):
                    if same and (j == i1 or j == i1 + 1):
                        continue
                    Dp2 = D[p2]
                    evals += 1
                    if evals >= stop and over():
                        return False
                    if (delta := Dp2[ha] + Dta[n2] - Dp2[n2] - gain) < -_EPS:
                        _apply_relocate(st, k1, i1, a, k2, j, delta)
                        return True
                    evals += 1
                    if evals >= stop and over():
                        return False
                    if (delta := Dp2[ta] + Dha[n2] - Dp2[n2] - gain) < -_EPS:
                        _apply_relocate(st, k1, i1, ia, k2, j, delta)
                        return True

            if same:
                if _try_swap_intra(st, k1, lo, hi):
                    return True
                evals += 4
                if evals >= stop and over():
                    return False
                continue

            # swap a and b, each in either orientation
            Dpb, Dtb = D[pb], D[tb]
            db = dem[b]
            if not (loads[k1] - da + db > capacity or loads[k2] - db + da > capacity):
                base2 = Dpb[hb] + Dtb[nb]
                d1, d1i = Dp1[hb] + Dtb[n1] - base1, Dp1[tb] + D[hb][n1] - base1
                d2, d2i = Dpb[ha] + Dta[nb] - base2, Dpb[ta] + Dha[nb] - base2
                # the terms are finite and rounded addition is monotone, so
                # the smallest of the four sums is that of the two smallest terms
                if (d1 if d1 < d1i else d1i) + (d2 if d2 < d2i else d2i) < -_EPS:
                    for y, e1 in ((b, d1), (inverse_id(b), d1i)):
                        for x, e2 in ((a, d2), (ia, d2i)):
                            if e1 + e2 < -_EPS:
                                _apply_swap(st, k1, i1, y, k2, i2, x, e1 + e2)
                                return True
            evals += 4
            if evals >= stop and over():
                return False

            # tail exchange: cut after a, and after b or before it
            if i1 < last1 or i2 + 1 < len(r2):
                delta = Dta[nb] + Dtb[n1] - Dta[n1] - Dtb[nb]
                if delta < -_EPS and exchange(k1, i1, k2, i2, delta):
                    return True
            delta = Dta[hb] + Dpb[n1] - Dta[n1] - Dpb[hb]
            if delta < -_EPS and exchange(k1, i1, k2, i2 - 1, delta):
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
    """Move the task at (k1, i1) to (k2, j) as ``x``, which changes the cost by ``delta``."""
    r1 = st.routes[k1]
    a = r1[i1]
    del r1[i1]
    st.loads[k1] -= st.dem[a]
    if k2 == len(st.routes):  # fresh route
        st.routes.append([x])
        st.loads.append(st.dem[x])
    else:
        if k2 == k1 and j > i1:
            j -= 1
        st.routes[k2].insert(j, x)
        st.loads[k2] += st.dem[x]
    st.cost += delta
    st._reindex(k1)
    if k2 != k1:
        st._reindex(k2)


def _try_swap_intra(st: _State, k: int, i1: int, i2: int) -> bool:
    """Swap two tasks of one route (i1 < i2); adjacency needs its own delta."""
    D, head, tail, depot = st.D, st.head, st.tail, st.depot
    r = st.routes[k]
    a, b = r[i1], r[i2]
    ia, ib = inverse_id(a), inverse_id(b)
    p = tail[r[i1 - 1]] if i1 > 0 else depot
    n = head[r[i2 + 1]] if i2 + 1 < len(r) else depot
    if i2 == i1 + 1:
        base = D[p][head[a]] + D[tail[a]][head[b]] + D[tail[b]][n]
        for y in (b, ib):
            for x in (a, ia):
                delta = D[p][head[y]] + D[tail[y]][head[x]] + D[tail[x]][n] - base
                if delta < -_EPS:
                    _apply_swap_intra(st, k, i1, y, i2, x, delta)
                    return True
        return False
    n1 = head[r[i1 + 1]] if i1 + 1 < len(r) else depot
    p2 = tail[r[i2 - 1]] if i2 > 0 else depot
    base = D[p][head[a]] + D[tail[a]][n1] + D[p2][head[b]] + D[tail[b]][n]
    for y in (b, ib):
        for x in (a, ia):
            delta = D[p][head[y]] + D[tail[y]][n1] + D[p2][head[x]] + D[tail[x]][n] - base
            if delta < -_EPS:
                _apply_swap_intra(st, k, i1, y, i2, x, delta)
                return True
    return False


def _apply_swap_intra(st: _State, k: int, i1: int, y: int, i2: int, x: int, delta: float) -> None:
    st.routes[k][i1] = y
    st.routes[k][i2] = x
    st.cost += delta
    st._reindex(k)


def _apply_swap(
    st: _State, k1: int, i1: int, y: int, k2: int, i2: int, x: int, delta: float
) -> None:
    """Put ``y`` at (k1, i1) and ``x`` at (k2, i2); the swapped tasks keep
    their service costs, so ``delta`` is the change in deadheading."""
    st.loads[k1] += st.dem[y] - st.dem[st.routes[k1][i1]]
    st.loads[k2] += st.dem[x] - st.dem[st.routes[k2][i2]]
    st.routes[k1][i1] = y
    st.routes[k2][i2] = x
    st.cost += delta
    st._reindex(k1)
    st._reindex(k2)


def _try_reverse(st: _State, k: int, i: int, j: int) -> bool:
    D, head, tail, depot = st.D, st.head, st.tail, st.depot
    r = st.routes[k]
    p = tail[r[i - 1]] if i > 0 else depot
    n = head[r[j + 1]] if j + 1 < len(r) else depot
    delta = D[p][tail[r[j]]] + D[head[r[i]]][n] - D[p][head[r[i]]] - D[tail[r[j]]][n]
    if delta >= -_EPS:
        return False
    r[i : j + 1] = [inverse_id(t) for t in reversed(r[i : j + 1])]
    st.cost += delta
    st._reindex(k)
    return True


def _apply_tail_exchange(
    st: _State, k1: int, c1: int, k2: int, c2: int, pre1: float, pre2: float, delta: float
) -> None:
    r1, r2 = st.routes[k1], st.routes[k2]
    load1, load2 = st.loads[k1], st.loads[k2]
    st.routes[k1] = r1[: c1 + 1] + r2[c2 + 1 :]
    st.routes[k2] = r2[: c2 + 1] + r1[c1 + 1 :]
    st.loads[k1] = pre1 + load2 - pre2
    st.loads[k2] = pre2 + load1 - pre1
    st.cost += delta
    st._reindex(k1)
    st._reindex(k2)
