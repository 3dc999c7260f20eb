#!/usr/bin/env bash
# Gate both outputs of one run of the experiment suite: run it once into a
# directory, then
#   - `regress --results DIR` diffs each <exp>.json against the committed
#     baselines/BENCH_<exp>.json (every keyed table cell, full precision);
#   - `cmp` checks each <exp>.txt against the results/<exp>.txt committed at
#     HEAD — the tables EXPERIMENTS.md is pasted from. The committed side is
#     read from HEAD, so running into results/ itself is fine.
#
# Usage: scripts/check_experiments.sh [output-dir]   (default: a temp dir)
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out="$tmp"
if [[ $# -gt 0 ]]; then
    mkdir -p "$1"
    out=$(cd "$1" && pwd)
fi
cd "$(dirname "$0")/.."

# Skipped by name: these four print a wall-clock column, which differs from
# run to run; their deterministic columns are gated through the reports.
wall_clock="exp_t4_discovery exp_t7_churn exp_t9_pde exp_t18_scale"

scripts/run_experiments.sh "$out" >"$tmp/run.log" 2>&1 || {
    cat "$tmp/run.log"
    exit 1
}

status=0
./target/release/regress --results "$out" || status=1

for fresh in "$out"/exp_*.txt; do
    exp=$(basename "$fresh" .txt)
    if [[ " $wall_clock " == *" $exp "* ]]; then
        echo "skip  $exp (wall-clock column)"
    elif ! git cat-file -e "HEAD:results/$exp.txt" 2>/dev/null; then
        echo "NEW   $exp: no committed results/$exp.txt (run scripts/run_experiments.sh and commit it)"
        status=1
    elif git show "HEAD:results/$exp.txt" | cmp -s - "$fresh"; then
        echo "ok    $exp"
    else
        echo "DIFF  $exp: stdout differs from the committed results/$exp.txt"
        diff <(git show "HEAD:results/$exp.txt") "$fresh" | head -20 || true
        status=1
    fi
done
exit $status
