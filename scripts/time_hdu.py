"""Time ``hdu`` reading medoid distances by rows and by columns.

For each vertex count V and seed, the instance is
``generate_instance(V, 5 * V // 3, 60, seed)``, and ``hdu`` (scale 0.1)
rebuilds it from two kinds of units: the elementary ones (one task each)
and an ``rco_split`` pool of a path-scanning solution.  Each kind runs
twice: reading the table by rows, as ``hdu`` does on a symmetric table,
and by columns, as it does on any other (forced by replacing
``DistanceTable.symmetric`` for the call).  Each prints one line: the
median wall ms of ``--repeats`` calls and the sha256 of the routes.  The
calls of one kind run both reads in turn, repeat after repeat, so a drift
in the host's speed spreads over both alike.  The table is symmetric, so
both reads must give the same routes: the script exits 1 when a hash
differs.  A line per instance gives the one-time ms of working out
``DistanceTable.symmetric``, which the timed calls do not pay.  Run it
from the repository root:

    PYTHONPATH=src python3 scripts/time_hdu.py
    PYTHONPATH=src python3 scripts/time_hdu.py --sizes 60 --repeats 1
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time

from routecut import build_rank_matrix, elementary_virtual_tasks, hdu, path_scanning, rco_split
from routecut.distances import DistanceTable
from routecut.generator import generate_instance
from routecut.seeding import make_rng

READS = ("rows", "columns")


def run(units, instance, dist, read, seed):
    """One ``hdu`` call reading ``dist`` by ``read``: its wall seconds and
    the sha256 of its routes."""
    symmetric = DistanceTable.symmetric
    if read == "columns":
        DistanceTable.symmetric = property(lambda self: False)
    try:
        start = time.perf_counter()
        solution = hdu(units, instance, dist, 0.1, make_rng(seed))
        seconds = time.perf_counter() - start
    finally:
        DistanceTable.symmetric = symmetric
    return seconds, hashlib.sha256(repr(solution.routes).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[500, 1500, 3000],
                        help="vertex counts (default: 500 1500 3000)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11],
                        help="instance seeds (default: 11)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="calls per read and kind of units; the median is printed "
                             "(default: 7)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    same = True
    print(f"{'vertices':>8} {'seed':>5} {'units':>10} {'count':>6} {'read':>8} {'ms':>8}  sha256")
    for vertices in args.sizes:
        for seed in args.seeds:
            instance = generate_instance(vertices, 5 * vertices // 3, 60, seed)
            dist = instance.distances()
            start = time.perf_counter()
            symmetric = dist.symmetric
            check_ms = 1000 * (time.perf_counter() - start)
            print(f"{vertices:>8} {seed:>5} symmetric {symmetric} in {check_ms:.1f} ms")
            ranks = build_rank_matrix(instance, dist)
            walk = path_scanning(instance, dist, make_rng(seed))
            kinds = {
                "elementary": elementary_virtual_tasks(instance),
                "rco_split": rco_split(walk, ranks, 0.5, 0.9, make_rng(seed, 1)),
            }
            for kind, units in kinds.items():
                times = {read: [] for read in READS}
                seen = {}
                for _ in range(args.repeats):
                    for read in READS:
                        seconds, seen[read] = run(units, instance, dist, read, seed)
                        times[read].append(seconds)
                same = same and len(set(seen.values())) == 1
                for read in READS:
                    ms = 1000 * statistics.median(times[read])
                    print(f"{vertices:>8} {seed:>5} {kind:>10} {len(units):>6} {read:>8} "
                          f"{ms:>8.2f}  {seen[read]}")
    if not same:
        print("error: the routes differ between reading by rows and by columns",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
