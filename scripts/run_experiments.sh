#!/usr/bin/env bash
# Run every experiment into results/ (or output-dir): each binary's stdout
# is captured to <out>/<exp>.txt and its machine-readable report written to
# <out>/<exp>.json. The ```text <exp> blocks of EXPERIMENTS.md and
# baselines/BENCH_*.json are both outputs of this one default run.
#
# Every binary runs even when one fails; the script then names each failed
# binary on stderr and exits 1.
#
# Usage: scripts/run_experiments.sh [--chaos] [--rebaseline] [output-dir]
#   --chaos       run the extended chaos grids (longer horizons, higher
#                 fault rates, extra seeds; reports are never diffed)
#   --rebaseline  after a clean run, copy each fresh <out>/<exp>.json over
#                 baselines/BENCH_<exp>.json and each <out>/<exp>.txt into
#                 its EXPERIMENTS.md block (write a new one's fence by hand);
#                 refused when any binary failed
set -euo pipefail

mode=()
rebaseline=0
out="results"
for arg in "$@"; do
    case "$arg" in
    --chaos) mode=(--chaos) ;;
    --rebaseline) rebaseline=1 ;;
    -h | --help)
        sed -n '2,16p' "$0"
        exit 0
        ;;
    -*)
        echo "unknown flag: $arg" >&2
        exit 2
        ;;
    *) out="$arg" ;;
    esac
done

mkdir -p "$out"
# Discover the experiment binaries from the source tree: a new exp_*.rs is
# picked up automatically and cannot be silently skipped here. Anything
# else in src/bin is an error — a typo like ex_t19_foo.rs would otherwise
# never run anywhere.
exps=""
unknown=""
for src in crates/bench/src/bin/*.rs; do
    name=$(basename "$src" .rs)
    case "$name" in
    exp_*) exps="$exps $name" ;;
    *) unknown="$unknown $name" ;;
    esac
done
exps=$(echo "$exps" | tr ' ' '\n' | sed '/^$/d' | sort)
if [[ -n "$unknown" ]]; then
    echo "binaries in crates/bench/src/bin not named exp_*:$unknown" >&2
    echo "rename each to exp_<name>.rs" >&2
    exit 1
fi
if [[ -z "$exps" ]]; then
    echo "no exp_*.rs binaries found under crates/bench/src/bin" >&2
    exit 1
fi
echo "discovered experiments:" $exps
# Name experiments that have no committed baseline yet, before the run:
# scripts/check_experiments.sh fails each of them afterwards.
missing=""
for exp in $exps; do
    [[ -f "baselines/BENCH_$exp.json" ]] || missing="$missing $exp"
done
if [[ -n "$missing" ]]; then
    echo "missing baselines (run --rebaseline to create):$missing"
fi

cargo build --release -p pg-bench
# A binary that fails (exit 1 after writing its report: a claim failed)
# does not stop the suite: every binary runs, and each failed one is named.
failed=""
for exp in $exps; do
    echo "== $exp =="
    ./target/release/"$exp" "${mode[@]}" --out "$out" | tee "$out/$exp.txt" || failed="$failed $exp"
done
echo "all experiment outputs written to $out/"
if [[ -n "$failed" ]]; then
    echo "failed experiments:$failed" >&2
    [[ $rebaseline -eq 0 ]] || echo "not rebaselining after a failed experiment" >&2
    exit 1
fi

if [[ $rebaseline -eq 1 ]]; then
    # Only what this run produced: $out may hold a stale report from a
    # renamed or deleted experiment (results/*.json is git-ignored).
    for exp in $exps; do
        cp "$out/$exp.json" "baselines/BENCH_$exp.json"
        echo "rebaselined baselines/BENCH_$exp.json"
    done
    # Each block's body becomes its fresh stdout; one without any is kept.
    awk -v dir="$out" '
        skip && $0 == "```" { skip = 0 }
        !skip { print }
        /^```text exp_/ { f = dir "/" $2 ".txt"; while ((getline l < f) > 0) { print l; skip = 1 } close(f) }
    ' EXPERIMENTS.md >"$out/EXPERIMENTS.md" && mv "$out/EXPERIMENTS.md" EXPERIMENTS.md
    echo "rebaselined the stdout blocks of EXPERIMENTS.md"
fi
