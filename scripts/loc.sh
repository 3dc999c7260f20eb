#!/usr/bin/env bash
# Rust lines per crate, so the size trend is visible from one PR to the next:
# a Markdown table (CI appends it to the job summary) of physical `.rs` lines
# under each crates/*, each vendor/*, src, tests and examples, with a total.
# Build outputs are not counted.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name target -prune -o -type f -name '*.rs' -print0 | xargs -0 -r cat | wc -l
}

echo "| path | Rust lines |"
echo "|---|---:|"
total=0
for dir in crates/* vendor/* src tests examples; do
    [[ -d "$dir" ]] || continue
    n=$(count "$dir")
    total=$((total + n))
    echo "| $dir | $n |"
done
echo "| **total** | **$total** |"
