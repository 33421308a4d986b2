"""Time ``shortest_paths`` under the elimination rule and under fixed caps.

For each vertex count V and seed, the instance is
``generate_instance(V, 5 * V // 3, 60, seed)``.  Each stop (the rule, whose
cap is printed beside it, then each fixed cap) prints one line: the median
wall ms of ``--repeats`` calls, the core that elimination left (the
vertices it kept) and the sha256 of the table's bytes.  The calls of one
instance run the stops in turn, repeat after repeat, so a drift in the
host's speed spreads over every stop alike.  The table is the same at any
cap, so every hash of one instance must be equal: the script exits 1 when
one differs.  Run it from the repository root:

    PYTHONPATH=src python3 scripts/sweep_shortest_paths.py
    PYTHONPATH=src python3 scripts/sweep_shortest_paths.py --sizes 60 --repeats 1

A fixed cap is forced by replacing ``distances._elimination_cap`` for the
call; at 6,000 vertices a cap of 16 or less leaves a core of several
thousand vertices and takes minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time

from routecut import distances
from routecut.generator import generate_instance


def run(instance, cap):
    """One ``shortest_paths`` call, under the rule when ``cap`` is None:
    its wall seconds, its core size (None when nothing was eliminated
    because the graph took all-pairs Dijkstra) and its table's sha256."""
    cores = []
    eliminate, rule = distances._eliminate, distances._elimination_cap

    def spy(adj):
        removed = eliminate(adj)
        cores.append(len(adj) - len(removed))
        return removed

    distances._eliminate = spy
    if cap is not None:
        distances._elimination_cap = lambda n: cap
    try:
        start = time.perf_counter()
        table = distances.shortest_paths(instance)
        seconds = time.perf_counter() - start
    finally:
        distances._eliminate, distances._elimination_cap = eliminate, rule
    digest = hashlib.sha256(table.matrix.tobytes()).hexdigest()
    return seconds, (cores[0] if cores else None), digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[500, 1500, 3000, 6000],
                        help="vertex counts (default: 500 1500 3000 6000)")
    parser.add_argument("--caps", type=int, nargs="*", default=[8, 16, 24, 32, 48, 64],
                        help="fixed caps to run beside the rule (default: 8 16 24 32 48 64)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11],
                        help="instance seeds (default: 11)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="calls per stop and instance; the median is printed (default: 3)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    same = True
    print(f"{'vertices':>8} {'seed':>5} {'stop':>9} {'ms':>9} {'core':>6}  sha256")
    for vertices in args.sizes:
        for seed in args.seeds:
            instance = generate_instance(vertices, 5 * vertices // 3, 60, seed)
            stops = [None, *args.caps]
            times = {stop: [] for stop in stops}
            seen = {}
            for _ in range(args.repeats):
                for stop in stops:
                    seconds, core, digest = run(instance, stop)
                    times[stop].append(seconds)
                    seen[stop] = core, digest
            hashes = {digest for _, digest in seen.values()}
            same = same and len(hashes) == 1
            for stop in stops:
                core, digest = seen[stop]
                label = f"rule {distances._elimination_cap(vertices)}" if stop is None else stop
                ms = 1000 * statistics.median(times[stop])
                core = "-" if core is None else core
                print(f"{vertices:>8} {seed:>5} {label:>9} {ms:>9.1f} {core:>6}  {digest}")
    if not same:
        print("error: the table differs between stops", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
