#!/bin/sh
# End-to-end check of the installed `routecut` console script: generate an
# instance, solve it with both search loops and validate the results (a
# route line with no pairs added to a solution file is dropped), then
# run `bench` and `stats` in one process and in a pool of two worker
# processes, each worker keeping its last instance and rank matrix.  An
# instance with decimal costs is solved and validated too: its shortest
# paths take Dijkstra over the whole graph, with no vertex eliminated.  So
# is a generated instance of 200 tasks, more than the 64 cheapest links kept
# per task, on which route cutting ranks a few in-route links on demand; the
# clustering loop with whole routes (`cluster-whole-route`) and one local-search
# descent (`local-only`) solve and validate it too.  Every
# trace CSV, from `solve --trace` or streamed by `bench`, must start with its
# header, and invalid settings (a value out of range, a boolean that is not
# 1/0, true/false or yes/no, a significance level outside (0, 1)) must
# exit with status 2 and name the key that was written (`lambda`, not the
# field `lam`).
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
# three seeds the rank-sum test needs.
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
routecut solve i.dat --algorithm cluster-rco --max-cycles 1 --virtual-clock --out c.sol
routecut validate i.dat c.sol
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

routecut gen --vertices 100 --tasks 200 --capacity 400 --seed 4 --out g.dat
routecut solve g.dat --max-iters 2 --virtual-clock --out g.sol
routecut validate g.dat g.sol
routecut solve g.dat --algorithm cluster-rco --max-cycles 1 --virtual-clock --out gc.sol
routecut validate g.dat gc.sol
routecut solve g.dat --algorithm cluster-whole-route --max-cycles 1 --virtual-clock --out gw.sol
routecut validate g.dat gw.sol
routecut solve g.dat --algorithm local-only --out gl.sol
routecut validate g.dat gl.sol

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
