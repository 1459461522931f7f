#!/usr/bin/env bash
# A/A check: two sets of runs of the same tree must agree within the
# bounds BENCHMARK.json fixes.
#
#   benchmark/aa.sh [--runs <n>] [--seconds <s>] [--seed <first>]
#
# Runs two sets of <n> (default 5) untraced runs per workload, each run
# with its own seed, and prints per set the median, (max-min)/median and
# the quartile distance over the median of every end-to-end metric, the
# relative difference of the two set medians, and the same spreads for
# three estimators of job time (whole-run mean, per-job p50, per-job
# p10). Exits non-zero when a set-to-set difference exceeds the metric's
# bound or a within-set (max-min)/median exceeds half of it: a bound has
# to be at least twice the spread of runs that differ in nothing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=5
seconds=30
seed=1000
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="$2" ;;
    --seconds) seconds="$2" ;;
    --seed) seed="$2" ;;
    *) echo "aa.sh: unknown argument $1" 1>&2; exit 2 ;;
  esac
  shift 2
done

mkdir -p "$here/out"
log="$here/out/aa.log"
: >"$log"
workloads="exec_bound input_bound wire_bound serve_closed"
for set in A B; do
  for workload in $workloads; do
    for k in $(seq 1 "$runs"); do
      seed=$((seed + 1))
      echo "set $set $workload seed $seed" 1>&2
      bash "$here/run.sh" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | sed "s/^/$set /" >>"$log"
    done
  done
done

python3 - "$log" "$here/../BENCHMARK.json" <<'EOF'
import json, statistics, sys

log, spec = sys.argv[1], json.load(open(sys.argv[2]))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
# The whole-run mean and the per-job median, as job time in ms, next to
# the gated per-job lower decile.
estimators = {
    "whole-run mean": "run.sustained_stimulus_cycles_per_s",
    "per-job p50": "run.job_wall_p50_ms",
    "per-job p10": "stimulus_cycles_per_s",
}
values = {}  # (set, workload, metric) -> [value per run]
for line in open(log):
    part = line.split()
    if len(part) >= 5 and not part[1].startswith("{"):
        values.setdefault((part[0], part[1], part[2]), []).append(float(part[3]))

def spread(v):
    return (max(v) - min(v)) / statistics.median(v)

def iqr(v):
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

failed = False
for workload in [w["name"] for w in spec["workloads"]]:
    print(f"{workload}")
    for metric, bound in bounds.items():
        a, b = values[("A", workload, metric)], values[("B", workload, metric)]
        ma, mb = statistics.median(a), statistics.median(b)
        diff = abs(ma - mb) / ma
        if diff > bound:
            verdict = "SETS DIFFER BY MORE THAN THE BOUND"
        elif max(spread(a), spread(b)) > bound / 2:
            verdict = "RANGE EXCEEDS HALF THE BOUND"
        else:
            verdict = "ok"
        failed |= verdict != "ok"
        print(f"  {metric:<22} A median {ma:<11.6g} range {spread(a):.4f} iqr {iqr(a):.4f}   "
              f"B median {mb:<11.6g} range {spread(b):.4f} iqr {iqr(b):.4f}   "
              f"|A-B|/A {diff:.4f}   bound {bound}   {verdict}")
    for label, metric in estimators.items():
        a, b = values[("A", workload, metric)], values[("B", workload, metric)]
        print(f"  estimator {label:<15} range A {spread(a):.4f} B {spread(b):.4f}   "
              f"iqr A {iqr(a):.4f} B {iqr(b):.4f}")
sys.exit(1 if failed else 0)
EOF
