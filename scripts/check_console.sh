#!/bin/sh
# End-to-end check of the installed `routecut` console script: generate an
# instance, solve it with both search loops and validate the results (a
# route line with no pairs added to a solution file is dropped); both
# loops solve and validate it with `--sub-solver-budget 0` too, where each
# local search returns its input as it is.  Then run `bench` and `stats`
# in one process and in a pool of two worker processes, each worker
# keeping its last instance and rank matrix.  An
# instance with decimal costs is solved and validated too: its shortest
# paths take all-pairs Dijkstra over the whole graph, with no vertex
# eliminated.  So is one with a 20,000-cost edge to a pendant vertex, whose
# distances fill in as int32 (four times twice the first vertex's largest
# distance), not the int16 of generated instances.  So is a complete graph
# on 30 vertices, which keeps every vertex in the core, with one edge costlier
# than any path, which the core's Floyd-Warshall clips.  So is a generated
# instance of 200 tasks, more than the 64 cheapest links kept per task, on
# which route cutting ranks a few in-route links on demand; the clustering
# loop with whole routes (`cluster-whole-route`) and one local-search
# descent (`local-only`) solve and validate it too.  So do `local-only`,
# a multi-pass descent over a float64 table, and `sahid-rco` on a copy of
# it whose costs are decimals (each `coste N` made `coste N.25`), where
# every move's delta is a float sum.  So do `local-only` and `cluster-rco`
# on a copy whose cost-1 edges cost 0 (each `coste 1` made `coste 0`), where
# zero-cost edges put tasks that start at other vertices in a vertex's
# distance-0 list in path scanning.  A file whose edge
# ( 2 , 3 ) exceeds the capacity makes `solve` exit with status 2 and name
# the edge as the file does, `(2,3)`.  Every
# trace CSV, from `solve --trace` or streamed by `bench`, must start with its
# header, and invalid settings (a value out of range, a boolean that is not
# 1/0, true/false or yes/no, a significance level outside (0, 1)) must
# exit with status 2 and name the key that was written (`lambda`, not the
# field `lam`), and so must `gen` with a negative task count.
# A broken instance file fails each of its cells, with one `.err` traceback
# per cell, and `bench` exits with status 1.  Every trace or solution file
# that a `records.csv` names must exist.  The clustering loop forks
# processes for its pool and its groups when two or more CPUs are usable,
# inside `bench` workers too: its traces must hold their header exactly
# once, and every solution of the pool of two workers must validate.
# `bench` prints the summary table that `stats` prints, and no line of
# either's stdout ends in a space.  A config that lists two instance files
# with one stem, one variant twice, or a value that does not parse (`groups =
# 2.5`), exits with status 2, names the stem, the variant or the key, and
# runs no cell, and so does `bench --time-multiplier inf`, naming
# `time_multiplier`.  `stats` exits with status 2 on a `records.csv` without
# a `seed` column, naming the column; on a row with fewer or more fields
# than the header, naming its line; and on an experiment of two runs, naming the
# three seeds the rank-sum test needs.  A `cluster-rco` solve under a virtual
# `--time-limit` that binds inside the first cycle's group searches writes
# the same solution and trace pinned to one CPU by `taskset` as on every
# usable CPU; without `taskset` or a second CPU that check is skipped.
#
# Usage: scripts/check_console.sh [WORK_DIR]
# WORK_DIR (created if missing) defaults to a new temporary directory.
set -eux
dir=${1:-$(mktemp -d)}
mkdir -p "$dir"
cd "$dir"

routecut gen --vertices 12 --tasks 8 --capacity 12 --seed 2 --out i.dat
routecut solve i.dat --max-iters 2 --virtual-clock --trace t.csv --out i.sol
routecut validate i.dat i.sol
{ cat i.sol; echo 'route 9:'; } > e.sol
routecut validate i.dat e.sol > e.out
grep -qF ', 2 routes' e.out
test "$(head -n 1 t.csv)" = elapsed_ms,best_cost
status=0
routecut solve i.dat --time-limit nan 2> nan.err || status=$?
test "$status" -eq 2
grep -q time_limit nan.err
status=0
routecut solve i.dat --lambda 1.5 2> lambda.err || status=$?
test "$status" -eq 2
grep -qF 'lambda must be in [0, 1]' lambda.err
status=0
routecut gen --vertices 12 --tasks -1 --capacity 12 --out n.dat 2> tasks.err || status=$?
test "$status" -eq 2
grep -qF 'tasks must be non-negative' tasks.err
routecut solve i.dat --algorithm cluster-rco --max-cycles 1 --virtual-clock --out c.sol
routecut validate i.dat c.sol
routecut solve i.dat --algorithm sahid-rco --max-iters 2 --virtual-clock --sub-solver-budget 0 \
  --out z.sol
routecut validate i.dat z.sol
routecut solve i.dat --algorithm cluster-rco --max-cycles 1 --virtual-clock --sub-solver-budget 0 \
  --out zc.sol
routecut validate i.dat zc.sol
routecut solve i.dat --algorithm cluster-rco --max-cycles 2 --virtual-clock --trace ct.csv --out ct.sol
routecut validate i.dat ct.sol
test "$(grep -c '^elapsed_ms,best_cost$' ct.csv)" -eq 1
test "$(head -n 1 ct.csv)" = elapsed_ms,best_cost

printf '%s\n' 'NOMBRE : decimal' 'VERTICES : 5' 'ARISTAS_REQ : 3' 'ARISTAS_NOREQ : 2' \
  'VEHICULOS : -1' 'CAPACIDAD : 5' 'LISTA_ARISTAS_REQ :' '( 1 , 2 ) coste 2.5 demanda 3' \
  '( 2 , 3 ) coste 1.25 demanda 2' '( 3 , 4 ) coste 0.1 demanda 4' 'LISTA_ARISTAS_NOREQ :' \
  '( 4 , 5 ) coste 0.2' '( 1 , 5 ) coste 3.7' 'DEPOSITO : 1' > f.dat
routecut solve f.dat --max-iters 2 --virtual-clock --out f.sol
routecut validate f.dat f.sol
routecut solve f.dat --algorithm cluster-rco --max-cycles 1 --virtual-clock --out fc.sol
routecut validate f.dat fc.sol

printf '%s\n' 'NOMBRE : wide' 'VERTICES : 5' 'ARISTAS_REQ : 4' 'ARISTAS_NOREQ : 1' \
  'VEHICULOS : -1' 'CAPACIDAD : 6' 'LISTA_ARISTAS_REQ :' '( 1 , 2 ) coste 3 demanda 2' \
  '( 2 , 3 ) coste 4 demanda 3' '( 3 , 4 ) coste 2 demanda 2' '( 4 , 5 ) coste 20000 demanda 1' \
  'LISTA_ARISTAS_NOREQ :' '( 1 , 3 ) coste 6' 'DEPOSITO : 1' > w.dat
routecut solve w.dat --algorithm sahid-rco --max-iterations 2 --virtual-clock --out w.sol
routecut validate w.dat w.sol

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
routecut solve k.dat --algorithm sahid-rco --max-iterations 2 --virtual-clock --out k.sol
routecut validate k.dat k.sol

printf '%s\n' 'NOMBRE : heavy' 'VERTICES : 3' 'ARISTAS_REQ : 2' 'ARISTAS_NOREQ : 0' \
  'VEHICULOS : -1' 'CAPACIDAD : 5' 'LISTA_ARISTAS_REQ :' '( 1 , 2 ) coste 1 demanda 1' \
  '( 2 , 3 ) coste 1 demanda 9' 'LISTA_ARISTAS_NOREQ :' 'DEPOSITO : 1' > heavy.dat
status=0
routecut solve heavy.dat --max-iters 2 --virtual-clock 2> heavy.err || status=$?
test "$status" -eq 2
grep -qF 'edge (2,3) demand 9 exceeds capacity 5' heavy.err

routecut gen --vertices 100 --tasks 200 --capacity 400 --seed 4 --out g.dat
routecut solve g.dat --max-iters 2 --virtual-clock --out g.sol
routecut validate g.dat g.sol
routecut solve g.dat --algorithm cluster-rco --max-cycles 1 --virtual-clock --out gc.sol
routecut validate g.dat gc.sol
routecut solve g.dat --algorithm cluster-whole-route --max-cycles 1 --virtual-clock --out gw.sol
routecut validate g.dat gw.sol
routecut solve g.dat --algorithm local-only --out gl.sol
routecut validate g.dat gl.sol
python3 - g.dat > gf.dat <<'EOF'
import re
import sys

with open(sys.argv[1]) as fh:
    print(re.sub(r'coste (\d+)', r'coste \1.25', fh.read()), end='')
EOF
routecut solve gf.dat --algorithm local-only --out gfl.sol
routecut validate gf.dat gfl.sol
routecut solve gf.dat --algorithm sahid-rco --max-iters 2 --virtual-clock --out gf.sol
routecut validate gf.dat gf.sol
python3 - g.dat > gz.dat <<'EOF'
import re
import sys

with open(sys.argv[1]) as fh:
    print(re.sub(r'coste 1\b', 'coste 0', fh.read()), end='')
EOF
grep -q 'coste 0' gz.dat
routecut solve gz.dat --algorithm local-only --out gzl.sol
routecut validate gz.dat gzl.sol
routecut solve gz.dat --algorithm cluster-rco --max-cycles 1 --virtual-clock --out gzc.sol
routecut validate gz.dat gzc.sol

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
head -n 1 stats.out | grep -q '^instance  *variant  *runs  *mean  *std  *flag'
grep -qxF "$(head -n 1 stats.out)" bench.out
test "$(cat bench.out stats.out | grep -c ' $')" -eq 0
test -f runs/wdl.csv
status=0
routecut stats runs --reference sahid-rco --alpha nan 2> alpha.err || status=$?
test "$status" -eq 2
grep -q alpha alpha.err

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
status=0
routecut bench pool.cfg --out-dir zero --workers 0 2> zero.err || status=$?
test "$status" -eq 2
grep -q workers zero.err
status=0
routecut bench exp.cfg --out-dir nan --budget fixed:nan 2> budget.err || status=$?
test "$status" -eq 2
grep -q budget budget.err
test ! -e nan
status=0
routecut bench exp.cfg --out-dir inf --time-multiplier inf 2> inf.err || status=$?
test "$status" -eq 2
grep -q time_multiplier inf.err
test ! -e inf
for setting in 'groups = 0:groups must be at least 1' 'virtual_clock = ture:virtual_clock' \
    'groups = 2.5:bad.cfg:3: groups must be an integer'; do
  printf '%s\n' 'instances = i.dat' 'variants = cluster-rco' "${setting%%:*}" > bad.cfg
  status=0
  routecut bench bad.cfg --out-dir bad 2> bad.err || status=$?
  test "$status" -eq 2
  grep -qF "${setting#*:}" bad.err
  test ! -e bad
done
mkdir -p twin
cp i.dat twin/i.dat
printf '%s\n' 'instances = i.dat, twin/i.dat' 'variants = sahid-rco' > twin.cfg
status=0
routecut bench twin.cfg --out-dir twin-runs 2> twin.err || status=$?
test "$status" -eq 2
grep -qF "share the stem 'i'" twin.err
test ! -e twin-runs
printf '%s\n' 'instances = i.dat' 'variants = sahid-rco, sahid-rco' 'runs = 3' > repeat.cfg
status=0
routecut bench repeat.cfg --out-dir repeat-runs 2> repeat.err || status=$?
test "$status" -eq 2
grep -qF "variant 'sahid-rco' is listed twice" repeat.err
test ! -e repeat-runs
mkdir -p noseed
printf '%s\n' 'instance,variant,final_cost,elapsed_sec,route_count,trace_path,solution_path' \
  'i,sahid-rco,1.0,0.5,1,,' > noseed/records.csv
status=0
routecut stats noseed --reference sahid-rco 2> noseed.err || status=$?
test "$status" -eq 2
grep -qF 'lacks the column(s) seed' noseed.err
mkdir -p short
printf '%s\n' 'instance,variant,seed,final_cost,elapsed_sec,route_count,trace_path,solution_path' \
  'i,sahid-rco,1,2.0' > short/records.csv
status=0
routecut stats short --reference sahid-rco 2> short.err || status=$?
test "$status" -eq 2
grep -qF 'short/records.csv:2: the row has fewer fields' short.err
mkdir -p long
printf '%s\n' 'instance,variant,seed,final_cost,elapsed_sec,route_count,trace_path,solution_path' \
  'i,sahid-rco,1,2.0,0.5,1,,,oops,more' > long/records.csv
status=0
routecut stats long --reference sahid-rco 2> long.err || status=$?
test "$status" -eq 2
grep -qF 'long/records.csv:2: the row has more fields' long.err

printf 'VERTICES : x\n' > broken.dat
printf '%s\n' 'instances = broken.dat, i.dat' 'variants = sahid-rco, sahid-random' 'runs = 2' \
  'max_iterations = 2' 'virtual_clock = 1' > broken.cfg
status=0
routecut bench broken.cfg --out-dir broken || status=$?
test "$status" -eq 1
test "$(ls broken/*.err | wc -l)" -eq 4
test "$(ls broken/broken__*.err | wc -l)" -eq 4
status=0
routecut stats broken --reference sahid-rco 2> few.err || status=$?
test "$status" -eq 2
grep -qF 'no instance has 3 seeds' few.err
test ! -e broken/wdl.csv

for trace in runs/*.trace.csv pool/*.trace.csv; do
  test "$(head -n 1 "$trace")" = elapsed_ms,best_cost
  test "$(grep -c '^elapsed_ms,best_cost$' "$trace")" -eq 1
done

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
