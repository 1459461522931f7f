#!/usr/bin/env bash
# Build the benchmark package (offline, release) and run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result JSON.
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       all four workloads, untraced then traced: every metric as
#       `workload name value unit`, then the result JSON lines.
#
# The build goes to $CARGO_TARGET_DIR (default benchmark/target); the
# program writes its traces and temporary files to benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
bin=("${CARGO_TARGET_DIR:-$here/target}/release/rtlflow-benchmark")
# Address-space randomisation moves page boundaries under the heap and
# peak RSS with them (2.3 % from run to run, 0.3 % without it).
if setarch -R true 2>/dev/null; then
  bin=(setarch -R "${bin[@]}")
fi

seed=1
seconds=30
single=0
args=("$@")
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) single=1 ;;
    --seed) seed="${2:-}" ;;
    --seconds) seconds="${2:-}" ;;
  esac
  shift
done

if [ "$single" = 1 ]; then
  exec "${bin[@]}" "${args[@]}"
fi

# An exact count is a property of (workload, seed): the traced run must
# reproduce what the untraced run of the same seed reported.
exact='pipeline.modeled_makespan_ns run.digest_checksum cluster.requeues serve.rejections'
status=0
results=()
for workload in exec_bound input_bound wire_bound serve_closed; do
  out=()
  for trace in 0 1; do
    out[trace]="$("${bin[@]}" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace")" || status=$?
    grep -v '^{' <<<"${out[trace]}" || true
    results+=("$(tail -n 1 <<<"${out[trace]}")")
  done
  for name in $exact; do
    a="$(grep " $name " <<<"${out[0]}" || true)"
    b="$(grep " $name " <<<"${out[1]}" || true)"
    if [ -z "$a" ] || [ "$a" != "$b" ]; then
      echo "exact count differs between --trace 0 and --trace 1: '$a' vs '$b'" 1>&2
      status=5
    fi
  done
done
printf '%s\n' "${results[@]}"
exit "$status"
