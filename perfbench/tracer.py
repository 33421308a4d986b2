"""Spans recorded from outside routecut, around the calls into each layer.

``patched(tracer)`` replaces the names that ``routecut.search`` calls (and
``shortest_paths``, ``rank_rows`` and ``RankMatrix.nearest``) with wrappers
for the duration of a ``with`` block and puts the originals back on exit,
so the library's sources stay untouched and untraced runs never see a
wrapper.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import routecut.distances
import routecut.ranking
import routecut.search
from routecut import RankMatrix


@dataclass
class Span:
    run: int  # the set-up or solve this span belongs to
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    counts: dict = field(default_factory=dict)  # work observed at this call

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    @contextmanager
    def span(self, name: str, root: bool = False):
        """Time the block as one span.

        A root span is the parent of every span opened while it is open,
        in any thread: the cluster loop's worker threads start with an
        empty stack of their own.
        """
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(self.run, next(self._ids), name, 0.0,
                    parent=stack[-1] if stack else self._root,
                    thread=threading.get_ident())
        if root:
            self._root = span.id
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if observe is not None:
                    span.counts = observe(args, result)
            return result

        return traced

    def of_run(self, run: int) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "run": s.run, "id": s.id, "name": s.name,
                    "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "thread": s.thread, "counts": s.counts,
                }) + "\n")


def _cuts(args, pool):
    return {"cuts": len(pool) - args[0].route_count}


# (owner, attribute, span name, observer of (args, result) -> counts)
TARGETS = [
    (routecut.search, "local_search", "localsearch.local_search",
     lambda args, out: {"improved": int(out.total_cost < args[0].total_cost)}),
    (routecut.search, "hdu", "decompose.hdu", lambda args, out: {"units": len(args[0])}),
    (routecut.search, "rco_split", "rco.rco_split", _cuts),
    (routecut.search, "uniform_split", "rco.uniform_split", _cuts),
    (routecut.search, "build_virtual_tasks", "decompose.build_virtual_tasks", None),
    (routecut.search, "elementary_virtual_tasks", "decompose.elementary_virtual_tasks", None),
    (routecut.search, "fuzzy_kmedoid", "decompose.fuzzy_kmedoid",
     lambda args, out: {"subroutes": len(args[0])}),
    (routecut.search, "path_scanning", "construct.path_scanning", None),
    (routecut.search, "project_solution", "search.project_solution", None),
    (routecut.search, "concat_solutions", "search.concat_solutions", None),
    (routecut.distances, "shortest_paths", "distances.shortest_paths", None),
    (routecut.ranking, "rank_rows", "ranking.rank_rows", None),
    (RankMatrix, "nearest", "ranking.nearest", None),
]


@contextmanager
def patched(tracer: Tracer):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, name, observe), (_, _, fn) in zip(TARGETS, saved):
            setattr(owner, attr, tracer.wrap(name, fn, observe))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# layers timed as the union of their call intervals, reported as "<name>_s"
SOLVE_LAYERS = [
    "localsearch.local_search",
    "decompose.hdu",
    "decompose.elementary_virtual_tasks",
    "decompose.build_virtual_tasks",
    "decompose.fuzzy_kmedoid",
    "construct.path_scanning",
    "rco.rco_split",
    "ranking.nearest",
    "search.project_solution",
    "search.concat_solutions",
]
SETUP_LAYERS = [
    "instance.load",
    "distances.shortest_paths",
    "distances.rows",
    "ranking.build_rank_matrix",
    "ranking.rank_rows",
]
# per-call counts summed over a solve, reported as "<layer>.<count>"
COUNTED = [
    ("decompose.hdu", "units"),
    ("decompose.fuzzy_kmedoid", "subroutes"),
]


def solve_metrics(spans: list[Span], root_name: str) -> dict:
    """Per-layer figures of one traced solve, from its spans."""
    (root,) = [s for s in spans if s.name == root_name]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {f"{name}_s": union_length((s.start, s.end) for s in by_name[name])
           for name in SOLVE_LAYERS}
    ls = by_name["localsearch.local_search"]
    improved = sum(s.counts["improved"] for s in ls)
    out["localsearch.busy_s"] = sum(s.duration for s in ls)
    out["localsearch.calls"] = len(ls)
    out["localsearch.improved"] = improved
    out["localsearch.improve_ratio"] = improved / len(ls) if ls else 0.0
    for name in ("decompose.hdu", "decompose.fuzzy_kmedoid", "construct.path_scanning"):
        out[f"{name}.calls"] = len(by_name[name])
    for name, key in COUNTED:
        out[f"{name}.{key}"] = sum(s.counts[key] for s in by_name[name])
    out["rco.cuts"] = sum(s.counts["cuts"] for s in by_name["rco.rco_split"])
    children = [(s.start, s.end) for s in spans if s.parent == root.id]
    out["search.self_s"] = root.duration - union_length(children)
    out["search.traced_solve_s"] = root.duration
    return out


def setup_metrics(spans: list[Span]) -> dict:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append((s.start, s.end))
    return {f"{name}_s": union_length(by_name[name]) for name in SETUP_LAYERS}


def medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
