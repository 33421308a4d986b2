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
their seeds are the same in every process layout, and each child's
virtual-clock ticks are added to the parent's clock, so the output does
not depend on the CPU count.

Wall-clock budgets cannot reproduce byte-identically; for reproducible
runs, bound the work with ``max_iterations`` / ``max_cycles`` /
``sub_solver_budget`` and enable ``virtual_clock``, which stamps traces
with a deterministic counter instead of real time.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import IO, Callable, Mapping

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
from .localsearch import _CHECK_EVERY, local_search
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


@dataclass
class SearchConfig:
    algorithm: str = "sahid-rco"
    lam: float = 0.05  # good-link cut probability
    theta: float = 0.2  # poor-link cut probability
    group_count: int = 2  # fuzzy k-medoid groups
    fuzziness: float = 5.0  # fuzzy k-medoid exponent
    scale: float = 0.1
    accept_threshold: float = 1.10
    idle_limit: int = 10000
    max_cycles: int = 50
    time_limit: float = 30.0
    seed: int = 0
    sub_solver_budget: int = 50_000  # local-search move evaluations per sub-problem
    max_iterations: int | None = None  # deterministic cap for the hierarchical loop
    virtual_clock: bool = False

    def __post_init__(self):
        # each range message starts with its field's name: build_config
        # swaps that for the PARAMETERS key
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        # `not 0 <= x <= 1`, `not x >= 1` and `not x > 0`, so that NaN fails
        for name in ("lam", "theta"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.group_count < 1:
            raise ValueError("group_count must be at least 1")
        if not self.fuzziness > 0:
            raise ValueError("fuzziness must be positive")
        if not self.accept_threshold >= 1:
            raise ValueError("accept_threshold must be at least 1")
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if self.max_cycles < 0:
            raise ValueError("max_cycles must be non-negative")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if not 0 < self.scale < 1:
            raise ValueError("scale must be in (0, 1)")
        if self.sub_solver_budget < 0:
            raise ValueError("sub_solver_budget must be non-negative")


# The parameters settable from `routecut solve` and experiment config files:
# config key -> (SearchConfig field, type).  The CLI flag is the key with
# dashes; defaults live only in SearchConfig.
PARAMETERS: dict[str, tuple[str, type]] = {
    "lambda": ("lam", float),
    "theta": ("theta", float),
    "groups": ("group_count", int),
    "alpha": ("fuzziness", float),
    "scale": ("scale", float),
    "accept": ("accept_threshold", float),
    "idle": ("idle_limit", int),
    "max_cycles": ("max_cycles", int),
    "max_iterations": ("max_iterations", int),
    "time_limit": ("time_limit", float),
    "virtual_clock": ("virtual_clock", bool),
    "sub_solver_budget": ("sub_solver_budget", int),
}


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def build_config(values: Mapping[str, object], **fields) -> SearchConfig:
    """A SearchConfig from ``{PARAMETERS key: value}`` plus plain fields.

    Values may be strings (config files) or typed (CLI); a boolean is one
    of 1/0, true/false or yes/no, in any case.  ``max_iterations`` 0 means
    no cap.  A value out of range raises ``ValueError`` naming its key, as
    in ``lambda must be in [0, 1]``; a plain field's error names the field.
    """
    for key, value in values.items():
        if key not in PARAMETERS:
            raise ValueError(f"unknown parameter {key!r}")
        name, kind = PARAMETERS[key]
        if kind is bool:
            word = str(value).lower()
            if word not in _BOOLEANS:
                raise ValueError(f"{key} must be 1/0, true/false or yes/no, got {value!r}")
            value = _BOOLEANS[word]
        fields[name] = kind(value)
    if fields.get("max_iterations") == 0:
        fields["max_iterations"] = None
    keys = {PARAMETERS[key][0]: key for key in values}
    try:
        return SearchConfig(**fields)
    except ValueError as error:
        name, _, rest = str(error).partition(" ")
        if name not in keys:
            raise
        raise ValueError(f"{keys[name]} {rest}") from None


@dataclass
class SearchTrace:
    """Best-so-far (elapsed_ms, best_cost) samples and the loop's iteration
    or cycle count."""

    samples: list[tuple[int, float]] = field(default_factory=list)
    iterations: int = 0


class _Clock:
    """Monotonic seconds, or with ``virtual`` a counter: each ``now()`` call
    is one 1 ms tick.  Deadline polls (once per loop iteration or cycle, and
    in ``local_search`` every ``_CHECK_EVERY`` = 256 evaluations) and trace
    samples call it.  A clustering-loop section runs in forked processes
    only when no poll inside it can reach the time limit, and otherwise in
    this process in job order, so virtual runs repeat exactly even when the
    limit binds; a child's ticks are added to this clock when it reports.
    Moving a poll or changing ``_CHECK_EVERY`` changes virtual-clock
    results."""

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
        kept = [t for t in route.ids if task_index_of(t) in keep]
        if kept:
            routes.append(kept)
    return Solution.build(routes, instance, dist)


def concat_solutions(parts: list[Solution]) -> Solution:
    """Concatenate route sets of per-group solutions (subpop2pop); the
    routes are shared, since no solution is changed once built."""
    return Solution([r for part in parts for r in part.routes])


def _fan_out(jobs: list[Callable[[], object]], clock: _Clock) -> list:
    """The results of independent zero-argument ``jobs``, in job order.

    With n = min(len(jobs), usable CPUs) of two or more, in a process with
    no other thread, job i runs in process i % n: this one (0) and n - 1
    children made by POSIX ``fork``.  Each child runs its jobs in order,
    pickles back through a pipe their results and its virtual-clock ticks,
    or the exception that stopped it, and leaves by ``os._exit``, so it
    flushes no inherited buffer and runs no exit handler.  The ticks are
    added to ``clock``; a job's exception is raised here, this process's
    own first, then the children's in order.  Every child is killed if
    still running and reaped before this returns or raises.  Otherwise the
    jobs run here in order.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(len(jobs), cpus)
    # fork copies only the calling thread: a lock another thread holds would
    # stay locked in the child
    if n < 2 or threading.active_count() > 1:
        return [job() for job in jobs]
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
                        report = ([job() for job in jobs[w::n]], None)
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
        results[::n] = [job() for job in jobs[::n]]
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

    def side_by_side(jobs: list[Callable[[], object]], searches: int) -> list:
        """The results of independent ``jobs`` that make ``searches`` capped
        local searches between them.  They run in job order here when a
        deadline poll inside them could see a virtual time limit: each
        search polls at most ceil(budget / _CHECK_EVERY) times."""
        polls = searches * -(-config.sub_solver_budget // _CHECK_EVERY)
        if clock.virtual and (clock.ticks + polls) * 1e-3 >= config.time_limit:
            return [job() for job in jobs]
        return _fan_out(jobs, clock)

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
            instance, dist, ranks, config, improve, record, deadline, side_by_side)

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


def _cluster_loop(instance, dist, ranks, config, improve, record, deadline, side_by_side):
    whole_routes = config.algorithm == "cluster-whole-route"
    lam, theta = (0.0, 0.0) if whole_routes else (config.lam, config.theta)

    def construct(i: int) -> Solution:
        rng_i = make_rng(config.seed, 0, i)
        return improve(path_scanning(instance, dist, rng_i), rng_i)

    def solve_group(cycle: int, gi: int, group, pool: list[Solution]) -> list[Solution]:
        keep = group_task_indices(group)
        grng = make_rng(config.seed, 2, cycle, gi)  # one stream, in pool order
        return [improve(project_solution(member, keep, instance, dist), grng) for member in pool]

    pool = side_by_side([partial(construct, i) for i in range(_POOL_SIZE)], _POOL_SIZE)
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
        per_group = side_by_side(
            [partial(solve_group, cycle, gi, group, pool) for gi, group in enumerate(groups)],
            len(groups) * len(pool),
        )

        new_pool = [
            concat_solutions([per_group[g][m] for g in range(len(groups))])
            for m in range(len(pool))
        ]
        champions = concat_solutions(
            [min(per_group[g], key=lambda s: s.total_cost) for g in range(len(groups))]
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
