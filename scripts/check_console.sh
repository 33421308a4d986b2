#!/bin/sh
# End-to-end check of the `routecut` console script: generate instances and
# write some by hand, solve them with every search loop and validate each
# solution, run `bench` and `stats` in one process and in a pool of two
# workers, and require every invalid input to exit with its status and name
# what is wrong.
#
# Usage: scripts/check_console.sh [WORK_DIR]
# WORK_DIR (created if missing) defaults to a new temporary directory.
#
# Without an install, put first on PATH an executable `routecut` that runs
# the checkout's sources, such as:
#   #!/bin/sh
#   PYTHONPATH=CHECKOUT/src exec python3 -c \
#     'import sys; from routecut.cli import main; sys.exit(main())' "$@"
set -eux
dir=${1:-$(mktemp -d)}
mkdir -p "$dir"
cd "$dir"

# solved FILE OUT [OPTION...]: solve FILE with the options into OUT, then validate OUT
solved() {
  file=$1 out=$2
  shift 2
  routecut solve "$file" "$@" --out "$out"
  routecut validate "$file" "$out"
}

# fails STATUS TEXT COMMAND...: COMMAND exits with STATUS and writes TEXT to stderr
fails() {
  want=$1 text=$2
  shift 2
  status=0
  "$@" 2> fails.err || status=$?
  test "$status" -eq "$want"
  grep -qF -- "$text" fails.err
}

routecut gen --vertices 12 --tasks 8 --capacity 12 --seed 2 --out i.dat
solved i.dat i.sol --max-iters 2 --virtual-clock --trace t.csv
# a route line with no pairs is dropped
{ cat i.sol; echo 'route 9:'; } > e.sol
routecut validate i.dat e.sol > e.out
grep -qF ', 2 routes' e.out
test "$(head -n 1 t.csv)" = elapsed_ms,best_cost
fails 2 time_limit routecut solve i.dat --time-limit nan
# the key as it is written, not the field `lam`
fails 2 'lambda must be in [0, 1]' routecut solve i.dat --lambda 1.5
fails 2 'tasks must be non-negative' routecut gen --vertices 12 --tasks -1 --capacity 12 --out n.dat
solved i.dat c.sol --algorithm cluster-rco --max-cycles 1 --virtual-clock
# with no sub-solver budget each local search returns its input as it is
solved i.dat z.sol --algorithm sahid-rco --max-iters 2 --virtual-clock --sub-solver-budget 0
solved i.dat zc.sol --algorithm cluster-rco --max-cycles 1 --virtual-clock --sub-solver-budget 0
# the clustering loop forks its pool and groups on two or more usable CPUs,
# and its trace must still hold the header once
solved i.dat ct.sol --algorithm cluster-rco --max-cycles 2 --virtual-clock --trace ct.csv
test "$(grep -c '^elapsed_ms,best_cost$' ct.csv)" -eq 1
test "$(head -n 1 ct.csv)" = elapsed_ms,best_cost

# decimal costs: shortest paths by all-pairs Dijkstra, no vertex eliminated
printf '%s\n' 'NOMBRE : decimal' 'VERTICES : 5' 'ARISTAS_REQ : 3' 'ARISTAS_NOREQ : 2' \
  'VEHICULOS : -1' 'CAPACIDAD : 5' 'LISTA_ARISTAS_REQ :' '( 1 , 2 ) coste 2.5 demanda 3' \
  '( 2 , 3 ) coste 1.25 demanda 2' '( 3 , 4 ) coste 0.1 demanda 4' 'LISTA_ARISTAS_NOREQ :' \
  '( 4 , 5 ) coste 0.2' '( 1 , 5 ) coste 3.7' 'DEPOSITO : 1' > f.dat
solved f.dat f.sol --max-iters 2 --virtual-clock
solved f.dat fc.sol --algorithm cluster-rco --max-cycles 1 --virtual-clock

# a 20,000-cost edge to a pendant vertex: the distances fill in as int32
# (four times twice the first vertex's largest distance), not int16
printf '%s\n' 'NOMBRE : wide' 'VERTICES : 5' 'ARISTAS_REQ : 4' 'ARISTAS_NOREQ : 1' \
  'VEHICULOS : -1' 'CAPACIDAD : 6' 'LISTA_ARISTAS_REQ :' '( 1 , 2 ) coste 3 demanda 2' \
  '( 2 , 3 ) coste 4 demanda 3' '( 3 , 4 ) coste 2 demanda 2' '( 4 , 5 ) coste 20000 demanda 1' \
  'LISTA_ARISTAS_NOREQ :' '( 1 , 3 ) coste 6' 'DEPOSITO : 1' > w.dat
solved w.dat w.sol --algorithm sahid-rco --max-iterations 2 --virtual-clock

# a complete graph on 30 vertices: no vertex is eliminated, so Floyd-Warshall
# fills the whole table, and the edge (1,2) of 50000 lies past any path
python3 - > k.dat <<'EOF'
from itertools import combinations

pairs = list(combinations(range(1, 31), 2))
req, noreq = pairs[:40], pairs[40:]
print('NOMBRE : dense', 'VERTICES : 30', f'ARISTAS_REQ : {len(req)}',
      f'ARISTAS_NOREQ : {len(noreq)}', 'VEHICULOS : -1', 'CAPACIDAD : 10',
      'LISTA_ARISTAS_REQ :', sep='\n')
for u, v in req:
    print(f'( {u} , {v} ) coste {50000 if (u, v) == (1, 2) else 3 + u * v % 7} demanda 2')
print('LISTA_ARISTAS_NOREQ :')
for u, v in noreq:
    print(f'( {u} , {v} ) coste {3 + u * v % 7}')
print('DEPOSITO : 1')
EOF
solved k.dat k.sol --algorithm sahid-rco --max-iterations 2 --virtual-clock

# an edge whose demand exceeds the capacity is named as the file writes it
printf '%s\n' 'NOMBRE : heavy' 'VERTICES : 3' 'ARISTAS_REQ : 2' 'ARISTAS_NOREQ : 0' \
  'VEHICULOS : -1' 'CAPACIDAD : 5' 'LISTA_ARISTAS_REQ :' '( 1 , 2 ) coste 1 demanda 1' \
  '( 2 , 3 ) coste 1 demanda 9' 'LISTA_ARISTAS_NOREQ :' 'DEPOSITO : 1' > heavy.dat
fails 2 'edge (2,3) demand 9 exceeds capacity 5' routecut solve heavy.dat --max-iters 2 --virtual-clock

# 200 tasks, more than the 64 cheapest links kept per task, so route cutting
# ranks a few in-route links on demand
routecut gen --vertices 100 --tasks 200 --capacity 400 --seed 4 --out g.dat
solved g.dat g.sol --max-iters 2 --virtual-clock
solved g.dat gc.sol --algorithm cluster-rco --max-cycles 1 --virtual-clock
solved g.dat gw.sol --algorithm cluster-whole-route --max-cycles 1 --virtual-clock
solved g.dat gl.sol --algorithm local-only
# decimal costs, so every move's delta is a float sum
python3 - g.dat > gf.dat <<'EOF'
import re
import sys

with open(sys.argv[1]) as fh:
    print(re.sub(r'coste (\d+)', r'coste \1.25', fh.read()), end='')
EOF
solved gf.dat gfl.sol --algorithm local-only
solved gf.dat gf.sol --algorithm sahid-rco --max-iters 2 --virtual-clock
# zero-cost edges put tasks that start at other vertices in a vertex's
# distance-0 list in path scanning
python3 - g.dat > gz.dat <<'EOF'
import re
import sys

with open(sys.argv[1]) as fh:
    print(re.sub(r'coste 1\b', 'coste 0', fh.read()), end='')
EOF
grep -q 'coste 0' gz.dat
solved gz.dat gzl.sol --algorithm local-only
solved gz.dat gzc.sol --algorithm cluster-rco --max-cycles 1 --virtual-clock

# a virtual time limit that binds inside the first cycle's group searches
# gives the same solution and trace on one CPU as on every usable CPU
if command -v taskset > /dev/null && [ "$(nproc)" -ge 2 ]; then
  routecut gen --vertices 60 --tasks 80 --capacity 20 --seed 4 --out b.dat
  set -- b.dat --algorithm cluster-rco --max-cycles 3 --virtual-clock
  routecut solve "$@" --trace free.csv
  # the first stamp follows the pool section, the cycle's opening poll is the
  # next tick, and the limit falls two ticks later, inside the group searches
  limit=$(awk -F, 'NR == 2 { print ($1 + 3) / 1000 }' free.csv)
  cpu=$(python3 -c 'import os; print(min(os.sched_getaffinity(0)))')
  taskset -c "$cpu" routecut solve "$@" --time-limit "$limit" --trace one.csv --out one.sol
  routecut solve "$@" --time-limit "$limit" --trace all.csv --out all.sol
  cmp one.sol all.sol
  cmp one.csv all.csv
  routecut validate b.dat all.sol
  test "$(tail -n 1 all.csv | cut -d, -f1)" -lt "$(tail -n 1 free.csv | cut -d, -f1)"
else
  echo 'skipped the CPU-layout check: it needs taskset and two usable CPUs'
fi

printf '%s\n' 'instances = i.dat' 'variants = sahid-rco, sahid-random' 'runs = 3' \
  'max_iterations = 2' 'virtual_clock = 1' > exp.cfg
routecut bench exp.cfg --out-dir runs > bench.out
routecut stats runs --reference sahid-rco > stats.out
# bench prints the table stats prints, and no line of either ends in a space
head -n 1 stats.out | grep -q '^instance  *variant  *runs  *mean  *std  *flag'
grep -qxF "$(head -n 1 stats.out)" bench.out
test "$(cat bench.out stats.out | grep -c ' $')" -eq 0
test -f runs/wdl.csv
fails 2 alpha routecut stats runs --reference sahid-rco --alpha nan

# a pool of two worker processes, each keeping its last instance and rank matrix
routecut gen --vertices 14 --tasks 10 --capacity 12 --seed 3 --out j.dat
printf '%s\n' 'instances = i.dat, j.dat' 'variants = sahid-rco, cluster-rco' 'runs = 3' \
  'max_iterations = 2' 'max_cycles = 1' 'virtual_clock = 1' 'workers = 2' > pool.cfg
routecut bench pool.cfg --out-dir pool
python3 - pool/records.csv > pool.sols <<'EOF'
import csv
import sys

with open(sys.argv[1], newline="") as fh:
    rows = list(csv.DictReader(fh))
assert len(rows) == 12 and not any(row["error"] for row in rows), rows
for row in rows:
    print(f"{row['instance']}.dat {row['solution_path']}")
EOF
while read -r dat sol; do
  routecut validate "$dat" "$sol"
done < pool.sols
routecut stats pool --reference sahid-rco
test -f pool/wdl.csv
# a refused setting or config runs no cell and leaves no output directory
fails 2 workers routecut bench pool.cfg --out-dir zero --workers 0
fails 2 budget routecut bench exp.cfg --out-dir nan --budget fixed:nan
test ! -e nan
fails 2 time_multiplier routecut bench exp.cfg --out-dir inf --time-multiplier inf
test ! -e inf
for setting in 'groups = 0:groups must be at least 1' 'virtual_clock = ture:virtual_clock' \
    'groups = 2.5:bad.cfg:3: groups must be an integer' 'runs = 0:runs must be at least 1' \
    'time_multiplier = 0:time_multiplier must be finite and positive'; do
  printf '%s\n' 'instances = i.dat' 'variants = cluster-rco' "${setting%%:*}" > bad.cfg
  fails 2 "${setting#*:}" routecut bench bad.cfg --out-dir bad
  test ! -e bad
done
mkdir -p twin
cp i.dat twin/i.dat
printf '%s\n' 'instances = i.dat, twin/i.dat' 'variants = sahid-rco' > twin.cfg
fails 2 "share the stem 'i'" routecut bench twin.cfg --out-dir twin-runs
test ! -e twin-runs
printf '%s\n' 'instances = i.dat' 'variants = sahid-rco, sahid-rco' 'runs = 3' > repeat.cfg
fails 2 "variant 'sahid-rco' is listed twice" routecut bench repeat.cfg --out-dir repeat-runs
test ! -e repeat-runs
mkdir -p noseed
printf '%s\n' 'instance,variant,final_cost,elapsed_sec,route_count,trace_path,solution_path' \
  'i,sahid-rco,1.0,0.5,1,,' > noseed/records.csv
fails 2 'lacks the column(s) seed' routecut stats noseed --reference sahid-rco
mkdir -p short
printf '%s\n' 'instance,variant,seed,final_cost,elapsed_sec,route_count,trace_path,solution_path' \
  'i,sahid-rco,1,2.0' > short/records.csv
fails 2 'short/records.csv:2: the row has fewer fields' routecut stats short --reference sahid-rco
mkdir -p long
printf '%s\n' 'instance,variant,seed,final_cost,elapsed_sec,route_count,trace_path,solution_path' \
  'i,sahid-rco,1,2.0,0.5,1,,,oops,more' > long/records.csv
fails 2 'long/records.csv:2: the row has more fields' routecut stats long --reference sahid-rco

# a broken instance file fails each of its cells, with one traceback per cell
printf 'VERTICES : x\n' > broken.dat
printf '%s\n' 'instances = broken.dat, i.dat' 'variants = sahid-rco, sahid-random' 'runs = 2' \
  'max_iterations = 2' 'virtual_clock = 1' > broken.cfg
status=0
routecut bench broken.cfg --out-dir broken || status=$?
test "$status" -eq 1
test "$(ls broken/*.err | wc -l)" -eq 4
test "$(ls broken/broken__*.err | wc -l)" -eq 4
# the rank-sum test needs three seeds
fails 2 'no instance has 3 seeds' routecut stats broken --reference sahid-rco
test ! -e broken/wdl.csv

# every trace, streamed by `bench` workers too, holds its header once, first
for trace in runs/*.trace.csv pool/*.trace.csv; do
  test "$(head -n 1 "$trace")" = elapsed_ms,best_cost
  test "$(grep -c '^elapsed_ms,best_cost$' "$trace")" -eq 1
done

# every trace or solution file that a records.csv names exists
python3 - runs/records.csv pool/records.csv broken/records.csv <<'EOF'
import csv
import os
import sys

for name in sys.argv[1:]:
    with open(name, newline="") as fh:
        for row in csv.DictReader(fh):
            for key in ("trace_path", "solution_path"):
                assert not row[key] or os.path.exists(row[key]), (name, key, row[key])

# a row with more fields than its header gets a None key
for name in ("runs/wdl.csv", "runs/comparisons.csv", "pool/wdl.csv", "pool/comparisons.csv"):
    with open(name, newline="") as fh:
        for row in csv.DictReader(fh):
            assert None not in row, (name, row)
EOF
