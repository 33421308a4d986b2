"""Routes, solutions, objective evaluation, and feasibility checking.

A route is the non-empty tuple of directed task IDs it serves, in order,
the type of a sub-route too; the tour leaves the depot before the first
and returns after the last.  A solution is its routes and their total.
The objective of a route is the sum over consecutive stops, depot first,
of the service cost of the current stop plus the shortest-path cost from
its tail vertex to the next stop's head vertex.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .distances import DistanceTable
from .instance import DEPOT_ID, Instance, Number, forward_id, inverse_id, left_sum, task_index_of


def route_cost(ids: Sequence[int], instance: Instance, dist: DistanceTable) -> float:
    """Cost of the tour that leaves the depot, serves ``ids`` in order and
    returns.  Empty ``ids`` cost 0: the return leg is then depot to depot."""
    head = instance.id_head
    tail = instance.id_tail
    service = instance.id_service
    rows = dist.rows
    total = 0.0
    prev = DEPOT_ID
    for t in ids:
        total += service[prev] + rows[tail[prev]][head[t]]
        prev = t
    return total + (service[prev] + rows[tail[prev]][head[DEPOT_ID]])


@dataclass
class Solution:
    """Routes and their total cost.

    Each route is a tuple, so no code can change it once built (local search
    works on list copies), and solutions share routes instead of copying them.
    """

    routes: list[tuple[int, ...]]
    total_cost: float

    @classmethod
    def build(
        cls, routes: Iterable[Iterable[int]], instance: Instance, dist: DistanceTable
    ) -> "Solution":
        """The solution of ``routes``, each stored as a tuple, with its cost
        summed over the routes in order."""
        routes = [tuple(r) for r in routes]
        return cls(routes, left_sum(route_cost(r, instance, dist) for r in routes))

    def task_indices(self) -> list[int]:
        return [task_index_of(t) for r in self.routes for t in r]

    @property
    def route_count(self) -> int:
        return len(self.routes)


@dataclass(frozen=True)
class Violation:
    kind: str  # missing-task | duplicate-task | capacity | unknown-id
    detail: str
    route: int | None = None


def validate(
    solution: Solution,
    instance: Instance,
    required_tasks: set[int] | None = None,
) -> list[Violation]:
    """Check a solution against all feasibility constraints.

    Returns the list of violations; an empty list means feasible.
    ``required_tasks`` restricts the served-exactly-once check to a task
    subset (used when validating sub-problem solutions); by default every
    instance task must be served.
    """
    violations: list[Violation] = []
    n_ids = 2 * instance.task_count
    seen: dict[int, int] = {}
    if required_tasks is None:
        required_tasks = set(range(instance.task_count))

    for k, route in enumerate(solution.routes):
        load: Number = 0
        for t in route:
            if not 1 <= t <= n_ids:
                violations.append(Violation("unknown-id", f"route {k} uses unknown ID {t}", k))
                continue
            ti = task_index_of(t)
            if ti in seen:
                violations.append(
                    Violation("duplicate-task", f"task {ti} served more than once", k)
                )
            else:
                seen[ti] = k
            load += instance.id_demand[t]
        if load > instance.capacity:
            violations.append(
                Violation("capacity", f"route {k} load {load} exceeds {instance.capacity}", k)
            )

    for ti in sorted(required_tasks - seen.keys()):
        violations.append(Violation("missing-task", f"task {ti} is not served"))
    for ti in sorted(seen.keys() - required_tasks):
        violations.append(Violation("unknown-id", f"task {ti} is outside the required set"))
    return violations


def min_vehicles(instance: Instance) -> int:
    """Capacity lower bound on the fleet size: ceil(total demand / capacity)."""
    total = instance.total_demand
    if isinstance(total, int) and isinstance(instance.capacity, int):
        return -(-total // instance.capacity)
    # a positive demand needs one vehicle even when the capacity is infinite
    return max(1, math.ceil(total / instance.capacity)) if total > 0 else 0


# --- solution text format -----------------------------------------------
#
#   cost 275
#   route 1: (1,2) (2,5) (5,6)
#   route 2: (1,4) (4,3)
#
# One pair per served task, written head vertex first, 1-based.

def format_number(x: float) -> str:
    """Whole numbers without a decimal point, others exactly (``repr``)."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def write_solution(solution: Solution, instance: Instance, stream: IO[str]) -> None:
    stream.write(f"cost {format_number(solution.total_cost)}\n")
    for k, route in enumerate(solution.routes, start=1):
        pairs = " ".join(
            f"({instance.id_head[t] + 1},{instance.id_tail[t] + 1})" for t in route
        )
        stream.write(f"route {k}: {pairs}\n")


_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")
# `route <k>:` and then nothing but (u,v) pairs and whitespace
_ROUTE_RE = re.compile(rf"route\s+\d+\s*:((?:\s*{_PAIR_RE.pattern})*)\s*")


def read_solution(
    stream: IO[str], instance: Instance, dist: DistanceTable | None = None
) -> tuple[Solution, float]:
    """Reconstruct a solution from its text form.

    Returns the rebuilt solution (costs recomputed, not trusted from the
    file) together with the cost stated on the first line.  A route line
    with no pairs is dropped, so every route is non-empty.
    """
    if dist is None:
        dist = instance.distances()
    lines = [ln.strip() for ln in stream.read().splitlines() if ln.strip()]
    first = lines[0] if lines else ""
    words = first.split()
    if len(words) != 2 or words[0] != "cost":
        raise ValueError(f"solution file must start with `cost <number>`, not {first!r}")
    try:
        stated = float(words[1])
    except ValueError:
        raise ValueError(f"no number in the cost line {first!r}") from None

    by_endpoints: dict[tuple[int, int], list[int]] = {}
    for ti, t in enumerate(instance.tasks):
        by_endpoints.setdefault((min(t.u, t.v), max(t.u, t.v)), []).append(ti)

    routes: list[list[int]] = []
    for ln in lines[1:]:
        route = _ROUTE_RE.fullmatch(ln)
        if route is None:
            raise ValueError(f"unexpected line in solution file: {ln!r}")
        ids: list[int] = []
        for m in _PAIR_RE.finditer(route.group(1)):
            u, v = int(m.group(1)) - 1, int(m.group(2)) - 1
            pool = by_endpoints.get((min(u, v), max(u, v)))
            if not pool:
                raise ValueError(f"no unserved task with endpoints ({u + 1},{v + 1})")
            f = forward_id(pool.pop(0))
            ids.append(f if instance.id_head[f] == u else inverse_id(f))
        if ids:
            routes.append(ids)
    return Solution.build(routes, instance, dist), stated
