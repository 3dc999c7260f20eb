#!/usr/bin/env bash
# Rust lines per crate, so the size trend is visible from one PR to the next:
# a Markdown table (CI appends it to the job summary) of physical `.rs` lines
# under each crates/*, each vendor/*, src, tests and examples, in two
# columns with a total each. "evidence" is what only checks or times the
# code — a crate's tests/ and benches/ directories, the root tests/, and
# inside a crate's src/ every `oracle.rs` plus the tail of any file from
# its first column-0 `#[cfg(test)]` that opens an inline `mod … {` (a
# `#[cfg(test)] mod oracle;` has no brace and does not count; no file in
# the tree has shipped code after that line) — and "source" is everything
# else, so a PR that shrinks the code while adding tests, in their own
# files or in the file they test, shows as exactly that.
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

# Lines of in-file evidence under the given directory, by the rule above.
inline_evidence() {
    [[ -d "$1" ]] || { echo 0; return; }
    find "$1" -type f -name '*.rs' -print0 | xargs -0 -r awk '
        function close_file() {
            if (whole) total += len
            else if (start) total += len - start + 1
            start = 0; pending = 0
        }
        FNR == 1 { close_file(); whole = FILENAME ~ /(^|\/)oracle\.rs$/ }
        { len = FNR }
        start || whole { next }
        /^#\[cfg\(test\)\]/ { pending = FNR; next }
        pending && /^#\[/ { next }
        pending && /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/ { start = pending }
        { pending = 0 }
        END { close_file(); print total + 0 }
    ' | awk '{ sum += $1 } END { print sum + 0 }'
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
        src="$dir/src"
        [[ "$dir" == src ]] && src=src
        evidence=$(($(count "$dir/tests" "$dir/benches") + $(inline_evidence "$src")))
        source=$(($(count "$dir") - evidence))
    fi
    source_total=$((source_total + source))
    evidence_total=$((evidence_total + evidence))
    echo "| $dir | $source | $evidence |"
done
echo "| **total** | **$source_total** | **$evidence_total** |"
