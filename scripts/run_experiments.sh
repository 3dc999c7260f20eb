#!/usr/bin/env bash
# Regenerate every EXPERIMENTS.md table/figure into results/: each binary
# writes a stdout table (captured to <out>/<exp>.txt) and a machine-readable
# report <out>/<exp>.json. The committed results/*.txt and
# baselines/BENCH_*.json are both outputs of this one default run.
#
# Usage: scripts/run_experiments.sh [--chaos] [--rebaseline] [output-dir]
#   --chaos       run the extended nightly soak grids (longer horizons,
#                 higher fault rates, extra seeds; reports are never diffed)
#   --rebaseline  after a clean run, copy each fresh <out>/<exp>.json over
#                 baselines/BENCH_<exp>.json
set -euo pipefail

mode=()
rebaseline=0
out="results"
for arg in "$@"; do
    case "$arg" in
    --chaos) mode=(--chaos) ;;
    --rebaseline) rebaseline=1 ;;
    -h | --help)
        sed -n '2,11p' "$0"
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
# picked up automatically and cannot be silently skipped here. Anything in
# src/bin that is neither an exp_* binary nor a known tool is an error —
# a typo like ex_t19_foo.rs would otherwise never run anywhere.
tools="regress"
exps=""
unknown=""
for src in crates/bench/src/bin/*.rs; do
    name=$(basename "$src" .rs)
    case "$name" in
    exp_*) exps="$exps $name" ;;
    *)
        if [[ " $tools " != *" $name "* ]]; then
            unknown="$unknown $name"
        fi
        ;;
    esac
done
exps=$(echo "$exps" | tr ' ' '\n' | sed '/^$/d' | sort)
if [[ -n "$unknown" ]]; then
    echo "unknown binaries in crates/bench/src/bin (not exp_* and not a known tool):$unknown" >&2
    echo "rename to exp_<name>.rs or add to the tool allowlist in $0" >&2
    exit 1
fi
if [[ -z "$exps" ]]; then
    echo "no exp_*.rs binaries found under crates/bench/src/bin" >&2
    exit 1
fi
echo "discovered experiments:" $exps
# Surface experiments that have no committed baseline yet: regress only
# compares keys present on both sides, so a brand-new exp_* would
# otherwise sail through CI ungated until someone notices.
missing=""
for exp in $exps; do
    [[ -f "baselines/BENCH_$exp.json" ]] || missing="$missing $exp"
done
if [[ -n "$missing" ]]; then
    echo "missing baselines (run --rebaseline to create):$missing"
fi

cargo build --release -p pg-bench
for exp in $exps; do
    echo "== $exp =="
    # set -o pipefail makes a non-zero binary exit abort the whole run here.
    ./target/release/"$exp" "${mode[@]}" --out "$out" | tee "$out/$exp.txt"
done
echo "all experiment outputs written to $out/"

if [[ $rebaseline -eq 1 ]]; then
    # Only what this run produced: $out may hold a stale report from a
    # renamed or deleted experiment (results/*.json is git-ignored).
    for exp in $exps; do
        cp "$out/$exp.json" "baselines/BENCH_$exp.json"
        echo "rebaselined baselines/BENCH_$exp.json"
    done
fi
