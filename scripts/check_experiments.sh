#!/usr/bin/env bash
# Gate both outputs of one run of the experiment suite: run it once into a
# directory, then
#   - `cmp` each committed baselines/BENCH_<exp>.json with the fresh
#     <exp>.json, byte for byte: the simulation is deterministic and the
#     report writer canonical, so any difference is a behaviour change. On
#     a mismatch the leaves that moved are printed, one path and value per
#     line. A baseline without a fresh report fails, and so does a fresh
#     exp_*.json without a baseline;
#   - `cmp` each <exp>.txt with its block in the working-tree EXPERIMENTS.md,
#     the fenced block opened by the line ```text <exp>. A missing block
#     fails, and so does a block naming no crates/bench/src/bin/exp_*.rs.
#
# Usage: scripts/check_experiments.sh [output-dir]   (default: a temp dir;
# needs jq)
set -euo pipefail

command -v jq >/dev/null || {
    echo "check_experiments.sh: jq not found; it prints the report leaves that moved" >&2
    exit 1
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out="$tmp"
if [[ $# -gt 0 ]]; then
    mkdir -p "$1"
    out=$(cd "$1" && pwd)
fi
cd "$(dirname "$0")/.."

scripts/run_experiments.sh "$out" >"$tmp/run.log" 2>&1 || {
    cat "$tmp/run.log"
    exit 1
}

# Every scalar leaf of a report as `<dotted path> <value>`, one per line.
leaves() {
    jq -r 'paths(scalars) as $p | "\($p | map(tostring) | join(".")) \(getpath($p))"' "$1"
}

status=0
for base in baselines/BENCH_exp_*.json; do
    exp=$(basename "$base" .json)
    exp=${exp#BENCH_}
    fresh="$out/$exp.json"
    if [[ ! -f "$fresh" ]]; then
        echo "FAIL  $exp: no fresh report $fresh"
        status=1
    elif cmp -s "$base" "$fresh"; then
        echo "same  $exp"
    else
        echo "FAIL  $exp: report differs from $base (< baseline, > fresh)"
        moved=$(diff <(leaves "$base") <(leaves "$fresh") | grep '^[<>]' || true)
        echo "${moved:-  no leaf moved; only the bytes between them differ}"
        status=1
    fi
done
for fresh in "$out"/exp_*.json; do
    [[ -e "$fresh" ]] || continue
    exp=$(basename "$fresh" .json)
    if [[ ! -f "baselines/BENCH_$exp.json" ]]; then
        echo "FAIL  $exp: no baseline baselines/BENCH_$exp.json (scripts/run_experiments.sh --rebaseline writes one)"
        status=1
    fi
done

# The stdout block of one experiment in EXPERIMENTS.md.
block() { awk -v h='```text '"$1" 'on && $0 == "```" {exit} on; $0 == h {on = 1}' EXPERIMENTS.md; }
for fresh in "$out"/exp_*.txt; do
    exp=$(basename "$fresh" .txt)
    if ! grep -qxF '```text '"$exp" EXPERIMENTS.md; then
        echo "FAIL  $exp: no \`\`\`text $exp block in EXPERIMENTS.md"
        status=1
    elif block "$exp" | cmp -s - "$fresh"; then
        echo "ok    $exp"
    else
        echo "DIFF  $exp: stdout differs from its EXPERIMENTS.md block (< block, > fresh)"
        diff <(block "$exp") "$fresh" | head -20 || true
        status=1
    fi
done
for exp in $(sed -n 's/^```text //p' EXPERIMENTS.md); do
    [[ -f "crates/bench/src/bin/$exp.rs" ]] && continue
    echo "FAIL  $exp: EXPERIMENTS.md has a block for an experiment that does not exist"
    status=1
done
exit $status
