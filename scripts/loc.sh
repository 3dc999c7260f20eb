#!/usr/bin/env bash
# Rust lines per crate, so the size trend is visible from one PR to the next:
# a Markdown table (CI appends it to the job summary) of physical `.rs` lines
# under each crates/*, each vendor/*, src, tests and examples, in two
# columns with a total each. "evidence" is what only checks or times the
# code — a crate's tests/ and benches/ directories and the root tests/ —
# and "source" is everything else, so a PR that shrinks the code while
# adding goldens shows as exactly that. (`#[cfg(test)]` modules inside a
# source file count as source: telling them apart needs a parser.)
# Build outputs are not counted.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of every .rs file under the given directories; missing ones are skipped.
count() {
    local dirs=()
    for d in "$@"; do
        [[ -d "$d" ]] && dirs+=("$d")
    done
    ((${#dirs[@]})) || { echo 0; return; }
    find "${dirs[@]}" -name target -prune -o -type f -name '*.rs' -print0 | xargs -0 -r cat | wc -l
}

echo "| path | source | evidence |"
echo "|---|---:|---:|"
source_total=0
evidence_total=0
for dir in crates/* vendor/* src tests examples; do
    [[ -d "$dir" ]] || continue
    if [[ "$dir" == tests ]]; then
        evidence=$(count "$dir")
        source=0
    else
        evidence=$(count "$dir/tests" "$dir/benches")
        source=$(($(count "$dir") - evidence))
    fi
    source_total=$((source_total + source))
    evidence_total=$((evidence_total + evidence))
    echo "| $dir | $source | $evidence |"
done
echo "| **total** | **$source_total** | **$evidence_total** |"
