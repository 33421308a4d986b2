"""Routes, solutions, objective evaluation, and feasibility checking.

A route is a sequence of directed task IDs wrapped in depot sentinels
(ID 0).  The objective of a route is the sum over consecutive elements of
the service cost of the current ID plus the shortest-path cost from its
tail vertex to the next ID's head vertex.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from .distances import DistanceTable
from .instance import DEPOT_ID, Instance, Number, task_index_of


def route_cost(ids: Sequence[int], instance: Instance, dist: DistanceTable) -> float:
    """Evaluate one sentinel-wrapped ID sequence."""
    head = instance.id_head
    tail = instance.id_tail
    service = instance.id_service
    rows = dist.rows
    total = 0.0
    for i in range(len(ids) - 1):
        t = ids[i]
        total += service[t] + rows[tail[t]][head[ids[i + 1]]]
    return total


@dataclass
class Route:
    """One vehicle tour with cached load and cost."""

    ids: list[int]
    load: Number
    cost: float

    @classmethod
    def build(cls, interior: Iterable[int], instance: Instance, dist: DistanceTable) -> "Route":
        ids = [DEPOT_ID, *interior, DEPOT_ID]
        load = sum(instance.id_demand[t] for t in ids)
        return cls(ids, load, route_cost(ids, instance, dist))

    @property
    def interior(self) -> list[int]:
        return self.ids[1:-1]

    @property
    def size(self) -> int:
        return len(self.ids) - 2


@dataclass
class Solution:
    """A set of routes with cached total cost.

    No code changes a solution or its routes once built (local search works
    on copies of the interiors), so solutions and routes are shared, not
    copied.
    """

    routes: list[Route]
    total_cost: float = field(default=0.0)

    def __post_init__(self):
        if not self.total_cost:
            self.total_cost = sum(r.cost for r in self.routes)

    @classmethod
    def build(
        cls, interiors: Iterable[Iterable[int]], instance: Instance, dist: DistanceTable
    ) -> "Solution":
        return cls([Route.build(seq, instance, dist) for seq in interiors])

    def stripped(self) -> "Solution":
        """Drop empty routes (they cost nothing but clutter reports)."""
        return Solution([r for r in self.routes if r.size > 0], self.total_cost)

    def task_indices(self) -> list[int]:
        out = []
        for r in self.routes:
            out.extend(task_index_of(t) for t in r.interior)
        return out

    @property
    def route_count(self) -> int:
        return sum(1 for r in self.routes if r.size > 0)


@dataclass(frozen=True)
class Violation:
    kind: str  # missing-task | duplicate-task | capacity | sentinel | unknown-id
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
        ids = route.ids
        if len(ids) < 2 or ids[0] != DEPOT_ID or ids[-1] != DEPOT_ID:
            violations.append(Violation("sentinel", f"route {k} lacks depot sentinels", k))
        load: Number = 0
        for t in ids[1:-1]:
            if t == DEPOT_ID:
                violations.append(Violation("sentinel", f"route {k} has an interior depot", k))
                continue
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
    return math.ceil(total / instance.capacity)


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
    reported = solution.stripped()
    stream.write(f"cost {format_number(reported.total_cost)}\n")
    for k, route in enumerate(reported.routes, start=1):
        pairs = " ".join(
            f"({instance.id_head[t] + 1},{instance.id_tail[t] + 1})" for t in route.interior
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
    file) together with the cost stated on the first line.
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
    for t in instance.tasks:
        by_endpoints.setdefault((min(t.u, t.v), max(t.u, t.v)), []).append(t.index)

    interiors: list[list[int]] = []
    for ln in lines[1:]:
        route = _ROUTE_RE.fullmatch(ln)
        if route is None:
            raise ValueError(f"unexpected line in solution file: {ln!r}")
        interior: list[int] = []
        for m in _PAIR_RE.finditer(route.group(1)):
            u, v = int(m.group(1)) - 1, int(m.group(2)) - 1
            pool = by_endpoints.get((min(u, v), max(u, v)))
            if not pool:
                raise ValueError(f"no unserved task with endpoints ({u + 1},{v + 1})")
            ti = pool.pop(0)
            task = instance.tasks[ti]
            interior.append(task.forward_id if task.u == u else task.reverse_id)
        interiors.append(interior)
    return Solution.build(interiors, instance, dist), stated
