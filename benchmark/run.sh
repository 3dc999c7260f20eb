#!/usr/bin/env bash
# pgbench, in one command.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--smoke]           all five workloads, end-to-end table
#   benchmark/run.sh --trace [...]                                ... then the traced set, per-layer table
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1   one workload (what BENCHMARK.json runs)
#   benchmark/run.sh compare A.json B.json                        did B get worse than A?
#
# Builds offline from the sources in this checkout, then runs. Results and
# traces go to benchmark/out/ (ignored by git). Exit status is non-zero
# when a build fails, an output check fails, or `compare` finds a `worse`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The build goes where CARGO_TARGET_DIR says; on its own, beside the
# root workspace's build so the two share compiled dependencies.
target="${CARGO_TARGET_DIR:-$here/../target}"

cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

bin="$target/release/pgbench"
case "${1:-}" in
  compare) exec "$bin" "$@" ;;
esac
# An --out among the arguments comes later and wins.
exec "$bin" --out "$here/out" "$@"
