"""Top-level search loops.

Two divide-and-conquer shapes share the splitting/clustering machinery:

* the hierarchical loop (``sahid-rco`` / ``sahid-random``): split the
  current solution into sub-routes, take them as virtual tasks, rebuild a
  solution hierarchically, improve it with local search, and accept it if
  better (or slightly worse once the search has idled long enough);
* the clustering loop (``cluster-rco`` / ``cluster-whole-route``): each
  cycle splits the best-so-far solution, groups the pieces into task
  subsets by fuzzy k-medoids, solves the induced sub-problems
  independently, side by side, and recombines the per-group winners.

``local-only`` (construction plus one local-search descent) serves as the
no-decomposition baseline.

The clustering loop's two independent sections, its pool constructions
and each cycle's groups, run side by side in processes made by POSIX
``fork`` when two or more CPUs are usable (``_fan_out``).  The jobs and
their seeds are the same in every process layout, and each job starts at
its section's virtual-clock tick, so the output does not depend on the
CPU count.

Wall-clock budgets cannot reproduce byte-identically; for reproducible
runs, bound the work with ``max_iterations`` / ``max_cycles`` /
``sub_solver_budget`` and enable ``virtual_clock``, which stamps traces
with a deterministic counter instead of real time.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field, fields
from functools import partial
from typing import IO, Callable, Mapping, get_args, get_type_hints

from .construct import path_scanning
from .decompose import (
    build_virtual_tasks,
    elementary_virtual_tasks,
    fuzzy_kmedoid,
    group_task_indices,
    hdu,
)
from .distances import DistanceTable
from .instance import Instance, task_index_of
from .localsearch import local_search
from .ranking import RankMatrix, build_rank_matrix
from .rco import rco_split, uniform_split
from .seeding import make_rng
from .solution import Solution, format_number

ALGORITHMS = (
    "sahid-rco",
    "sahid-random",
    "cluster-rco",
    "cluster-whole-route",
    "local-only",
)

_POOL_SIZE = 5  # incumbent solutions kept by the clustering loop
_NEIGHBOR_SIZE = 20  # nearest tasks per task that local search tries moves around


# The named ranges of settings, each written so that NaN fails it; a name is
# also its error's text, as in ``lambda must be in [0, 1]``.
RANGES: dict[str, Callable[[float], bool]] = {
    "in [0, 1]": lambda x: 0 <= x <= 1,
    "in (0, 1)": lambda x: 0 < x < 1,
    "at least 1": lambda x: x >= 1,
    "positive": lambda x: x > 0,
    "non-negative": lambda x: x >= 0,
    "finite and positive": lambda x: 0 < x < math.inf,
}


def setting(default, valid: str | None = None, key: str | None = None):
    """A field that config files set: ``valid`` names its range in RANGES,
    and ``key`` its config key where that is not the field name."""
    return field(default=default, metadata={"key": key, "range": valid})


def settings(cls: type) -> dict[str, tuple[str, type]]:
    """``{key: (field, type)}`` over the ``setting`` fields of dataclass
    ``cls``, in declaration order; the type is the field's annotation, with
    ``X | None`` read as ``X``."""
    kinds = {name: (get_args(hint) or (hint,))[0] for name, hint in get_type_hints(cls).items()}
    return {f.metadata["key"] or f.name: (f.name, kinds[f.name]) for f in fields(cls) if f.metadata}


def check_ranges(cls: type, values: Mapping[str, object], keys: Mapping[str, str] = {}) -> None:
    """Raise ``ValueError("<name> must be <range>")`` for the first field of
    dataclass ``cls`` whose value in ``values`` is set and out of its range;
    ``<name>`` is the field's entry in ``keys``, or else the field name."""
    for f in fields(cls):
        valid, value = f.metadata.get("range"), values.get(f.name)
        if valid and value is not None and not RANGES[valid](value):
            raise ValueError(f"{keys.get(f.name, f.name)} must be {valid}")


@dataclass
class SearchConfig:
    algorithm: str = "sahid-rco"
    lam: float = setting(0.05, "in [0, 1]", key="lambda")  # good-link cut probability
    theta: float = setting(0.2, "in [0, 1]")  # poor-link cut probability
    group_count: int = setting(2, "at least 1", key="groups")  # fuzzy k-medoid groups
    fuzziness: float = setting(5.0, "positive", key="alpha")  # fuzzy k-medoid exponent
    scale: float = setting(0.1, "in (0, 1)")
    accept_threshold: float = setting(1.10, "at least 1", key="accept")
    idle_limit: int = setting(10000, key="idle")
    max_cycles: int = setting(50, "non-negative")
    time_limit: float = setting(30.0, "positive")
    seed: int = 0
    sub_solver_budget: int = setting(50_000, "non-negative")  # move evaluations per sub-problem
    max_iterations: int | None = setting(None, "non-negative")  # cap for the hierarchical loop
    virtual_clock: bool = setting(False)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        check_ranges(SearchConfig, vars(self))


# The parameters of `routecut solve` and experiment config files: config key
# -> (SearchConfig field, type).  The CLI flag is the key with dashes.
PARAMETERS: dict[str, tuple[str, type]] = settings(SearchConfig)


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_KIND_NAMES = {int: "an integer", float: "a number"}


def parse_value(key: str, kind: type, value: object):
    """``value``, a string or already typed, as ``kind``.  A boolean is one
    of 1/0, true/false or yes/no, in any case.  A value that does not
    convert raises ``ValueError`` naming ``key``, as in ``groups must be an
    integer, got '2.5'``."""
    if kind is bool:
        word = str(value).lower()
        if word not in _BOOLEANS:
            raise ValueError(f"{key} must be 1/0, true/false or yes/no, got {value!r}")
        return _BOOLEANS[word]
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}") from None


def build_config(values: Mapping[str, object], **fields) -> SearchConfig:
    """A SearchConfig from ``{PARAMETERS key: value}`` plus plain fields.

    Values may be strings (config files) or typed (CLI), converted by
    ``parse_value``.  ``max_iterations`` 0 means no cap.  A value out of
    range raises ``ValueError`` naming its key, as in ``lambda must be in
    [0, 1]``; a plain field's error names the field.
    """
    for key, value in values.items():
        if key not in PARAMETERS:
            raise ValueError(f"unknown parameter {key!r}")
        name, kind = PARAMETERS[key]
        fields[name] = parse_value(key, kind, value)
    if fields.get("max_iterations") == 0:
        fields["max_iterations"] = None
    check_ranges(SearchConfig, fields, {PARAMETERS[key][0]: key for key in values})
    return SearchConfig(**fields)


@dataclass
class SearchTrace:
    """Best-so-far (elapsed_ms, best_cost) samples and the loop's iteration
    or cycle count."""

    samples: list[tuple[int, float]] = field(default_factory=list)
    iterations: int = 0


class _Clock:
    """Monotonic seconds, or with ``virtual`` a counter: each ``now()`` call
    is one 1 ms tick.  Deadline polls (once per loop iteration or cycle, and
    in ``local_search``) and trace samples call it.  Each job of a
    clustering-loop section starts at the tick its section started at, and
    the section ends at that tick plus all its jobs' ticks (``_run``), in
    any process layout.  Moving a poll changes virtual-clock results."""

    def __init__(self, virtual: bool):
        self.virtual = virtual
        self.ticks = 0
        self._t0 = time.monotonic()

    def now(self) -> float:
        if not self.virtual:
            return time.monotonic() - self._t0
        self.ticks += 1
        return self.ticks * 1e-3

    def elapsed_ms(self) -> int:
        return int(self.now() * 1000)


def project_solution(
    solution: Solution, keep: set[int], instance: Instance, dist: DistanceTable
) -> Solution:
    """Restrict a solution to a task subset (pop2subpop).

    Out-of-subset tasks are deleted from each route and emptied routes are
    dropped; loads only decrease, so feasibility is preserved.
    """
    routes = []
    for route in solution.routes:
        kept = [t for t in route if task_index_of(t) in keep]
        if kept:
            routes.append(kept)
    return Solution.build(routes, instance, dist)


def concat_solutions(
    parts: list[Solution], instance: Instance, dist: DistanceTable
) -> Solution:
    """Concatenate route sets of per-group solutions (subpop2pop).  The
    routes are shared; the total is summed over them in order, not over the
    parts' totals, which could round otherwise with decimal costs."""
    return Solution.build([r for part in parts for r in part.routes], instance, dist)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# the CPUs that _fan_out may fill in this process; 0 for every usable one
_cpu_share = 0


def share_cpus(workers: int) -> None:
    """Let ``_fan_out`` in this process fill at most its share, max(1,
    usable CPUs // ``workers``), of the CPUs: the initializer of each of
    ``workers`` pool processes that solve side by side."""
    global _cpu_share
    _cpu_share = max(1, _usable_cpus() // workers)


def _run(jobs: list[Callable[[], object]], clock: _Clock) -> list:
    """The results of ``jobs`` run in order, each from the tick ``clock``
    has on entry; ``clock`` is left at that tick plus every job's ticks."""
    start = end = clock.ticks
    results = []
    for job in jobs:
        clock.ticks = start
        results.append(job())
        end += clock.ticks - start
    clock.ticks = end
    return results


def _fan_out(jobs: list[Callable[[], object]], clock: _Clock) -> list:
    """The results of independent zero-argument ``jobs``, in job order.

    With n = min(len(jobs), usable CPUs, this process's CPU share; see
    ``share_cpus``) of two or more, in a process with
    no other thread, job i runs in process i % n: this one (0) and n - 1
    children made by POSIX ``fork``.  Each process runs its jobs by
    ``_run``, so every job starts at the tick ``clock`` has here.  Each
    child pickles back through a pipe their results and its virtual-clock
    ticks, or the exception that stopped it, and leaves by ``os._exit``, so
    it flushes no inherited buffer and runs no exit handler.  The ticks are
    added to ``clock``; a job's exception is raised here, this process's
    own first, then the children's in order.  Every child is killed if
    still running and reaped before this returns or raises.  Otherwise the
    jobs run here by ``_run``.
    """
    n = min(len(jobs), _usable_cpus(), _cpu_share or len(jobs))
    # fork copies only the calling thread: a lock another thread holds would
    # stay locked in the child
    if n < 2 or threading.active_count() > 1:
        return _run(jobs, clock)
    children = []  # (pid, read end of its pipe)
    try:
        for w in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: run its share, report and leave
                status = 1
                try:
                    os.close(read)
                    start = clock.ticks
                    try:
                        report = (_run(jobs[w::n], clock), None)
                    except Exception as error:
                        report = (None, error)
                    data = pickle.dumps((*report, clock.ticks - start))
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        results = [None] * len(jobs)
        results[::n] = _run(jobs[::n], clock)
        for w, (pid, pipe) in enumerate(children, 1):
            try:
                share, error, ticks = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"forked job process {pid} exited without a result") from None
            clock.ticks += ticks
            if error is not None:
                raise error
            results[w::n] = share
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # a no-op on one that has exited
            os.waitpid(pid, 0)


def solve(
    instance: Instance,
    config: SearchConfig,
    dist: DistanceTable | None = None,
    ranks: RankMatrix | None = None,
    trace_sink: IO[str] | None = None,
) -> tuple[Solution, SearchTrace]:
    """Run the configured search and return (best solution, trace)."""
    dist = dist or instance.distances()
    ranks = ranks or build_rank_matrix(instance, dist)
    clock = _Clock(config.virtual_clock)
    trace = SearchTrace()
    if trace_sink is not None:
        trace_sink.write("elapsed_ms,best_cost\n")
        trace_sink.flush()
    neighbors = ranks.nearest(_NEIGHBOR_SIZE)

    def deadline() -> bool:
        return clock.now() >= config.time_limit

    def record(best: Solution) -> None:
        ms = clock.elapsed_ms()
        trace.samples.append((ms, best.total_cost))
        if trace_sink is not None:
            trace_sink.write(f"{ms},{format_number(best.total_cost)}\n")
            trace_sink.flush()

    def improve(solution: Solution, rng, max_evals=config.sub_solver_budget) -> Solution:
        # the module global is read at each call, so a patched one takes effect
        return local_search(
            solution, instance, dist, rng,
            max_evals=max_evals, deadline=deadline, neighbors=neighbors,
        )

    if config.algorithm == "local-only":  # one uncapped descent from path scanning
        rng = make_rng(config.seed)
        best = path_scanning(instance, dist, rng)
        record(best)
        best = improve(best, rng, max_evals=None)
        record(best)
        trace.iterations = 1
    elif config.algorithm.startswith("sahid"):
        best, trace.iterations = _hierarchical_loop(
            instance, dist, ranks, config, improve, record, deadline)
    else:
        best, trace.iterations = _cluster_loop(
            instance, dist, ranks, config, improve, record, deadline, clock)

    record(best)
    return best, trace


# each loop returns (best solution, rounds done)
def _hierarchical_loop(instance, dist, ranks, config, improve, record, deadline):
    rng = make_rng(config.seed)
    current = hdu(elementary_virtual_tasks(instance), instance, dist, config.scale, rng)
    best = current = improve(current, rng)
    record(best)
    if instance.task_count < 2:
        return best, 0  # nothing to decompose

    iterations = idle = 0
    while not deadline():
        if config.max_iterations is not None and iterations >= config.max_iterations:
            break
        if config.algorithm == "sahid-rco":
            pool = rco_split(current, ranks, config.lam, config.theta, rng)
        else:
            pool = uniform_split(current, rng)
        units = build_virtual_tasks(pool)
        candidate = improve(hdu(units, instance, dist, config.scale, rng), rng)
        iterations += 1

        improved_best = candidate.total_cost < best.total_cost
        accepted_worse = False
        if improved_best:
            best = candidate
            record(best)
        if candidate.total_cost < current.total_cost:
            current = candidate
        elif (
            candidate.total_cost <= config.accept_threshold * current.total_cost
            and idle > config.idle_limit
        ):
            current = candidate
            accepted_worse = True
        idle = 0 if (improved_best or accepted_worse) else idle + 1
    else:  # deadline() ended the loop, not the iteration cap
        if iterations == 0:
            warnings.warn("time limit exhausted before the first improvement iteration")
    return best, iterations


def _cluster_loop(instance, dist, ranks, config, improve, record, deadline, clock):
    whole_routes = config.algorithm == "cluster-whole-route"
    lam, theta = (0.0, 0.0) if whole_routes else (config.lam, config.theta)

    def construct(i: int) -> Solution:
        rng_i = make_rng(config.seed, 0, i)
        return improve(path_scanning(instance, dist, rng_i), rng_i)

    def solve_group(cycle: int, gi: int, group, pool: list[Solution]) -> list[Solution]:
        keep = group_task_indices(group)
        grng = make_rng(config.seed, 2, cycle, gi)  # one stream, in pool order
        return [improve(project_solution(member, keep, instance, dist), grng) for member in pool]

    pool = _fan_out([partial(construct, i) for i in range(_POOL_SIZE)], clock)
    best = min(pool, key=lambda s: s.total_cost)
    record(best)
    if instance.task_count < 2:
        return best, 0  # nothing to decompose

    rng = make_rng(config.seed, 1)
    iterations = 0
    for cycle in range(config.max_cycles):
        if deadline():
            if cycle == 0:
                warnings.warn("time limit exhausted before the first cycle")
            break
        subroutes = rco_split(best, ranks, lam, theta, rng)
        groups = fuzzy_kmedoid(subroutes, config.group_count, config.fuzziness, instance, dist, rng)
        jobs = [partial(solve_group, cycle, gi, group, pool) for gi, group in enumerate(groups)]
        per_group = _fan_out(jobs, clock)

        new_pool = [
            concat_solutions([per_group[g][m] for g in range(len(groups))], instance, dist)
            for m in range(len(pool))
        ]
        champions = concat_solutions(
            [min(per_group[g], key=lambda s: s.total_cost) for g in range(len(groups))],
            instance, dist,
        )
        # the recombined winner mixes routes that never saw each other, so a
        # whole-problem polish often repairs the group boundaries
        champions = improve(champions, make_rng(config.seed, 3, cycle))
        worst = max(range(len(new_pool)), key=lambda m: new_pool[m].total_cost)
        if champions.total_cost < new_pool[worst].total_cost:
            new_pool[worst] = champions
        pool = new_pool

        cycle_best = min(pool, key=lambda s: s.total_cost)
        iterations += 1
        if cycle_best.total_cost < best.total_cost:
            best = cycle_best
            record(best)
    return best, iterations
