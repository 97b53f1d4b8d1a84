#!/usr/bin/env bash
# The paper-figure gate: runs the BenchWorld figure benches of a build
# tree and fails on any byte of difference from the outputs committed
# under bench/expected/. Every figure is a virtual-clock count (round
# trips, bytes, crypto ops, P4 prices), so a change that moves a number
# moves it on purpose, and re-captures the file in the same commit.
# The same holds for the JSON reports of the read and write round-trip
# pins (bench_network_sweep) and of bench_dir_scaling.
#
#   tools/check_figures.sh [BUILD_DIR]     (default: build)
#
# To re-capture after an intended change, run each bench from a scratch
# directory and copy its stdout over the expected file (bench_op_costs:
# the Figure-13 table only, as extracted below), or its BENCH_*.json
# report over the one of that name. About two minutes on a 4-CPU x86-64
# host, most of it bench_postmark and bench_create_list.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:-build}" && pwd)
expected="$repo/bench/expected"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail=0
check() {
  local name=$1
  if diff -u "$expected/$name" "$work/$name"; then
    echo "$name: identical"
  else
    echo "$name: differs from bench/expected/$name"
    fail=1
  fi
}

# The benches write their JSON reports into the working directory.
cd "$work"
for bench in bench_create_list bench_postmark bench_andrew bench_schemes \
             bench_revocation; do
  "$build/bench/$bench" > "$work/$bench.txt"
  check "$bench.txt"
done
# bench_op_costs also times the observability layer on the wall clock;
# only its Figure-13 table is a virtual-clock figure.
"$build/bench/bench_op_costs" |
  sed -n '/=== Figure 13/,/^Paper shape/p' > "$work/bench_op_costs.txt"
check bench_op_costs.txt
"$build/bench/bench_network_sweep" --read-rtt-only > /dev/null
check BENCH_read_rtt.json
"$build/bench/bench_network_sweep" --write-rtt-only > /dev/null
check BENCH_write_rtt.json
"$build/bench/bench_dir_scaling" > /dev/null
check BENCH_dir_scaling.json
exit "$fail"
