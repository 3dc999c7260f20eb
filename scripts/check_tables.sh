#!/usr/bin/env bash
# Gate the stdout tables EXPERIMENTS.md is pasted from: run the full-mode
# suite into a temp dir, then `cmp` each <exp>.txt with the committed
# results/<exp>.txt. The committed side is read from HEAD, so working
# copies a smoke run has just overwritten (as in CI) do not matter.
#
# Usage: scripts/check_tables.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Skipped by name: these four print a wall-clock column, which differs from
# run to run; their deterministic columns are gated through the reports.
wall_clock="exp_t4_discovery exp_t7_churn exp_t9_pde exp_t18_scale"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
scripts/run_experiments.sh "$tmp" >"$tmp/run.log" 2>&1 || {
    cat "$tmp/run.log"
    exit 1
}

status=0
for fresh in "$tmp"/exp_*.txt; do
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
