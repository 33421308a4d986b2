"""CARP instance model and the classic benchmark DAT file format.

An instance is an undirected graph with a depot, a vehicle capacity, and a
set of required edges (tasks).  Each task is addressed through two directed
IDs, one per traversal direction; ID 0 is the depot dummy, where every
route starts and ends.
"""

from __future__ import annotations

import math
import re
from collections import deque
from decimal import Decimal
from functools import reduce
from operator import add
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Union

DEPOT_ID = 0

Number = Union[int, float]


def left_sum(values: Iterable[Number]) -> Number:
    """``values`` folded left to right from 0, as ``sum`` folds them before
    Python 3.12; from 3.12 on it compensates float sums, which would change
    totals, and the depot of generated instances, with the Python version."""
    return reduce(add, values, 0)


def task_index_of(task_id: int) -> int:
    """0-based task index addressed by a directed task ID (ID 0 is the depot)."""
    return (task_id - 1) >> 1


def forward_id(task_index: int) -> int:
    return 2 * task_index + 1


def inverse_id(task_id: int) -> int:
    """The opposite-direction ID; the depot dummy is its own inverse."""
    if task_id == DEPOT_ID:
        return DEPOT_ID
    return task_id + 1 if task_id & 1 else task_id - 1


class InstanceFormatError(ValueError):
    """Malformed instance file; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidInstanceError(ValueError):
    """Instance parses but violates a semantic invariant."""


class Edge(NamedTuple):
    u: int
    v: int
    demand: Number = 0
    service_cost: Number = 0
    deadheading_cost: Number = 0

    @property
    def required(self) -> bool:
        return self.demand > 0


class Instance:
    """Validated CARP instance.

    Immutable after construction; safe to share across workers.  Task ``i``
    is ``tasks[i]``, the i-th required edge in ``edges`` order, served u -> v
    by ``forward_id(i)`` and v -> u by its ``inverse_id``.  Per-ID lookup
    lists (head vertex, tail vertex, demand, service cost) are exposed for
    hot loops, indexed by directed task ID.
    """

    def __init__(
        self,
        name: str,
        vertex_count: int,
        edges: list[Edge],
        depot: int,
        capacity: Number,
    ):
        if vertex_count <= 0:
            raise InvalidInstanceError("vertex count must be positive")
        if not 0 <= depot < vertex_count:
            raise InvalidInstanceError(f"depot {depot} out of range")
        if not capacity > 0:  # NaN fails too; +inf is allowed
            raise InvalidInstanceError("capacity must be positive")
        for e in edges:  # named by the 1-based vertices of the file format
            if not (0 <= e.u < vertex_count and 0 <= e.v < vertex_count):
                raise InvalidInstanceError(f"edge ({e.u + 1},{e.v + 1}) has a dangling vertex")
            if not (0 <= e.demand < math.inf and 0 <= e.service_cost < math.inf
                    and 0 <= e.deadheading_cost < math.inf):  # NaN fails too
                raise InvalidInstanceError(
                    f"edge ({e.u + 1},{e.v + 1}) needs finite non-negative numbers"
                )
            if e.demand > capacity:
                raise InvalidInstanceError(
                    f"edge ({e.u + 1},{e.v + 1}) demand {e.demand} exceeds capacity {capacity}"
                )

        self.name = name
        self.vertex_count = vertex_count
        self.edges = list(edges)
        self.depot = depot
        self.capacity = capacity
        self.tasks = [e for e in self.edges if e.required]

        n_ids = 2 * len(self.tasks) + 1
        self.id_head = [depot] * n_ids
        self.id_tail = [depot] * n_ids
        self.id_demand: list[Number] = [0] * n_ids
        self.id_service: list[Number] = [0] * n_ids
        for i, t in enumerate(self.tasks):
            f = forward_id(i)
            r = inverse_id(f)
            self.id_head[f], self.id_tail[f] = t.u, t.v
            self.id_head[r], self.id_tail[r] = t.v, t.u
            self.id_demand[f] = self.id_demand[r] = t.demand
            self.id_service[f] = self.id_service[r] = t.service_cost

        self._check_reachability()
        self._dist = None

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    @property
    def total_demand(self) -> Number:
        return left_sum(t.demand for t in self.tasks)

    def distances(self):
        """All-pairs shortest-path table, computed once and cached."""
        if self._dist is None:
            from .distances import shortest_paths

            self._dist = shortest_paths(self)
        return self._dist

    def _check_reachability(self) -> None:
        reached = [False] * self.vertex_count
        reached[self.depot] = True
        queue = deque([self.depot])
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not reached[v]:
                    reached[v] = True
                    queue.append(v)
        for t in self.tasks:
            if not (reached[t.u] and reached[t.v]):
                raise InvalidInstanceError(
                    f"task ({t.u + 1},{t.v + 1}) is unreachable from the depot"
                )

    def __repr__(self) -> str:
        return (
            f"Instance({self.name!r}, |V|={self.vertex_count}, |E|={len(self.edges)}, "
            f"|T|={self.task_count}, Q={self.capacity})"
        )


# --- file format ------------------------------------------------------------
#
# Header lines of the form `KEY : VALUE` (keys case-insensitive, English
# synonyms accepted), then the two edge blocks, then the depot:
#
#   NOMBRE : gdb1
#   VERTICES : 12
#   ARISTAS_REQ : 22
#   ARISTAS_NOREQ : 0
#   VEHICULOS : -1
#   CAPACIDAD : 5
#   LISTA_ARISTAS_REQ :
#   ( 1 , 2 ) coste 13 demanda 1
#   ...
#   LISTA_ARISTAS_NOREQ :
#   ( 1 , 5 ) coste 4
#   ...
#   DEPOSITO : 1
#
# `coste` is used for both the service and the deadheading cost, following
# the benchmark convention.  Vertices are 1-based in files, 0-based in
# memory.

_KEY_ALIASES = {
    "NOMBRE": "name",
    "NAME": "name",
    "VERTICES": "vertices",
    "ARISTAS_REQ": "required",
    "ARISTAS_NOREQ": "non_required",
    "VEHICULOS": "vehicles",
    "CAPACIDAD": "capacity",
    "CAPACITY": "capacity",
    "DEPOSITO": "depot",
    "DEPOT": "depot",
    "LISTA_ARISTAS_REQ": "req_block",
    "LISTA_ARISTAS_NOREQ": "noreq_block",
}

_EDGE_RE = re.compile(
    r"^\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*(?:coste|cost)\s+(\d+(?:\.\d+)?)"
    r"(?:\s+(?:demanda|demand)\s+(\d+))?\s*$",
    re.IGNORECASE,
)


def parse_instance(text: str, name_hint: str = "<stream>") -> Instance:
    """Parse the DAT instance format from a string."""
    header: dict[str, str] = {}
    req_edges: list[Edge] = []
    noreq_edges: list[Edge] = []
    block: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("("):
            if block is None:
                raise InstanceFormatError(line_no, "edge line outside an edge block")
            m = _EDGE_RE.match(line)
            if not m:
                raise InstanceFormatError(line_no, f"malformed edge line: {line!r}")
            u, v, coste, demanda = m.groups()
            cost = float(coste) if "." in coste else int(coste)
            if block == "req_block":
                if demanda is None:
                    raise InstanceFormatError(line_no, "required edge without a demand")
                demand = int(demanda)
                if demand <= 0:
                    raise InstanceFormatError(line_no, "required edge with non-positive demand")
                req_edges.append(Edge(int(u) - 1, int(v) - 1, demand, cost, cost))
            else:
                if demanda is not None:
                    raise InstanceFormatError(line_no, "non-required edge with a demand")
                noreq_edges.append(Edge(int(u) - 1, int(v) - 1, 0, 0, cost))
            continue
        if ":" not in line:
            raise InstanceFormatError(line_no, f"expected `KEY : VALUE`, got {line!r}")
        key_raw, value = line.split(":", 1)
        key = _KEY_ALIASES.get(key_raw.strip().upper().replace(" ", "_"))
        if key is None:
            continue  # tolerate unknown headers (COMENTARIO etc.)
        if key in ("req_block", "noreq_block"):
            block = key
        else:
            block = None
            header[key] = value.strip()

    def _int_header(key: str, label: str) -> int:
        if key not in header:
            raise InvalidInstanceError(f"missing {label} header")
        try:
            return int(header[key])
        except ValueError:
            raise InvalidInstanceError(f"{label} is not an integer: {header[key]!r}") from None

    vertices = _int_header("vertices", "VERTICES")
    capacity = _int_header("capacity", "CAPACIDAD")
    depot = _int_header("depot", "DEPOSITO")
    declared_req = _int_header("required", "ARISTAS_REQ")
    declared_noreq = _int_header("non_required", "ARISTAS_NOREQ")
    if declared_req != len(req_edges):
        raise InvalidInstanceError(
            f"ARISTAS_REQ declares {declared_req} edges, block has {len(req_edges)}"
        )
    if declared_noreq != len(noreq_edges):
        raise InvalidInstanceError(
            f"ARISTAS_NOREQ declares {declared_noreq} edges, block has {len(noreq_edges)}"
        )
    if not 1 <= depot <= vertices:
        raise InvalidInstanceError(f"depot {depot} out of range 1..{vertices}")

    name = header.get("name", name_hint)
    return Instance(name, vertices, req_edges + noreq_edges, depot - 1, capacity)


def load_instance(source: Union[str, Path, IO[str]]) -> Instance:
    """Load an instance from a path or an open text stream."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        return parse_instance(path.read_text(), name_hint=path.stem)
    return parse_instance(source.read())


def _dat_cost(x: Number) -> str:
    """``x`` in positional notation (``1e-05`` as ``0.00001``), as ``_EDGE_RE`` reads it."""
    text = f"{x}"
    return format(Decimal(text), "f") if "e" in text else text


def _check_whole(x: Number, what: str) -> None:
    if not (isinstance(x, int) or float(x).is_integer()):  # inf and nan fail too
        raise ValueError(f"{what} {x} is not a whole number, which DAT cannot hold")


def write_instance(instance: Instance, stream: IO[str]) -> None:
    """Write the DAT text that ``parse_instance`` reads back as an equal
    instance, required edges first.  Before writing, raise ValueError naming
    the edge or field DAT cannot hold: one ``coste`` is a required edge's
    service and deadheading cost and another edge's deadheading cost only,
    and demands and the capacity are whole numbers."""
    for e in instance.edges:
        held = e.deadheading_cost if e.required else 0
        if e.service_cost != held:
            raise ValueError(f"edge ({e.u + 1},{e.v + 1}) has service cost {e.service_cost}, "
                             f"which DAT would read back as {held}")
        _check_whole(e.demand, f"edge ({e.u + 1},{e.v + 1}) demand")
    _check_whole(instance.capacity, "capacity")
    required = [e for e in instance.edges if e.required]
    optional = [e for e in instance.edges if not e.required]
    w = stream.write
    w(f"NOMBRE : {instance.name}\n")
    w(f"VERTICES : {instance.vertex_count}\n")
    w(f"ARISTAS_REQ : {len(required)}\n")
    w(f"ARISTAS_NOREQ : {len(optional)}\n")
    w("VEHICULOS : -1\n")
    w(f"CAPACIDAD : {int(instance.capacity)}\n")
    w("LISTA_ARISTAS_REQ :\n")
    for e in required:
        w(f"( {e.u + 1} , {e.v + 1} ) coste {_dat_cost(e.deadheading_cost)} "
          f"demanda {int(e.demand)}\n")
    w("LISTA_ARISTAS_NOREQ :\n")
    for e in optional:
        w(f"( {e.u + 1} , {e.v + 1} ) coste {_dat_cost(e.deadheading_cost)}\n")
    w(f"DEPOSITO : {instance.depot + 1}\n")


def save_instance(instance: Instance, path: Union[str, Path]) -> None:
    with open(path, "w") as fh:
        write_instance(instance, fh)
