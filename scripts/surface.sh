#!/usr/bin/env bash
# What the library crates ship that no system links. A library item earns
# its place when a system binary — one of the 24 `exp_*` bins of
# `pg-bench` or `pgbench` — links it; this script asks the
# linker instead of `git grep`. It debug-builds those binaries (no
# inlining; rustc passes `--gc-sections`, so an executable keeps only what
# it reaches), lists every `pg_*` function that is a text symbol of a
# library rlib, or that a test or example executable defines under a
# library crate's path, and of no system executable, and checks each
# against `scripts/surface.allow`, one line per path prefix:
#
#     <prefix> paper [<example or test path>]
#     <prefix> reference <test path>
#     <prefix> frozen <benchmark path>
#
# paper: a system the paper describes, kept whole with its demo.
# reference: the named test uses it to drive or check an item that is linked.
# frozen: the named file under benchmark/ names it.
# A path must exist and mention the prefix's last segment.
#
# Prints a Markdown table (item, why it stays, the test / example / bench
# executables that still link it; CI appends it to the job summary) and
# exits non-zero on an item no line explains or a line that matches nothing.
# An `is_empty` needs no line while its `len` stays (linked, or explained):
# clippy's `len_without_is_empty` ties the two.
#
# A generic or `#[inline]` function is compiled into the crate that uses
# it, never into its own rlib; a debug executable still names each copy by
# its generic path (`pg_runtime::scheduler::MultiQueryRuntime<E>::report`),
# which is how the test and example executables add them. One that no
# executable instantiates stays invisible: a lower bound. Symbols are
# compared with the hash suffix stripped; closures, derives and operator
# impls (`core::{clone, cmp, default, fmt, hash, ops}`), the test-only
# `tests` / `prop_tests` / `oracle` modules and a unit-test harness's
# `main` are not counted as items.
#
# Types, traits and constants leave no symbol, and a generic function none
# in its rlib, so two textual passes follow, each a lower bound too:
#
# - a name re-exported by a `pub use` in a `crates/*/src/lib.rs` must be
#   named (`grep -w`) by some tracked `.rs` file outside that crate's
#   `src/` — its own `src/bin` counts as outside — or be explained by an
#   allow line whose prefix is `<crate>::<name>`;
# - a name declared by a `pub struct|enum|trait|type|const|static` or a
#   `pub fn` (free or inherent) in a `crates/*/src` file must be named by
#   some other line of a tracked `.rs` file outside `vendor/`, or be
#   explained by an allow line whose prefix is its path,
#   `<crate>::<module>::[<Type>::]<name>`. A name no other line names is
#   used nowhere, so this pass has no false positives.
#
# Usage: scripts/surface.sh [allow-file]     (needs jq and nm)
set -euo pipefail
cd "$(dirname "$0")/.."
allow="${1:-scripts/surface.allow}"
target="${CARGO_TARGET_DIR:-target}"
work="$(mktemp -d)"
# The offline build rewrites pgbench's stale lock file, which is not ours
# to change: put it back, whatever happens.
cp benchmark/Cargo.lock "$work/Cargo.lock"
trap 'cp "$work/Cargo.lock" benchmark/Cargo.lock; rm -r "$work"' EXIT

# Runs cargo with the given arguments; prints kind, name, first file and
# root source of every artifact it reports, its own chatter only on failure.
artifacts() {
    cargo "$@" --offline --message-format=json 2>"$work/err" |
        jq -r 'select(.reason == "compiler-artifact")
            | [.target.kind[0], .target.name, (.executable // .filenames[0]), .target.src_path] | @tsv' ||
        { cat "$work/err" >&2; exit 1; }
}
# The function symbols of the given files, hash suffix stripped.
symbols() {
    nm -C --defined-only "$@" 2>/dev/null |
        awk '$2 ~ /^[TtWw]$/ { sub(/^[0-9a-f]+ . /, ""); sub(/::h[0-9a-f]{16}$/, ""); print }' | sort -u
}

# Re-exports no file outside their crate names: `<crate>::<name>`.
for lib in crates/*/src/lib.rs; do
    dir="${lib%/src/lib.rs}"
    crate="$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -1 | tr - _)"
    printf '%s\t%s\n' "$dir" "$crate" >>"$work/crates"
    mapfile -t outside < <(git ls-files -- '*.rs' ':!vendor' ":!$dir/src"; git ls-files -- "$dir/src/bin/*.rs")
    # The leaf names of each `pub use` statement (a rename counts as its
    # new name), `self` skipped.
    awk '/^pub use / { s = 1 } s { buf = buf $0 " " }
        s && /;/ {
            gsub(/[A-Za-z_][A-Za-z0-9_]* as /, "", buf)
            while (match(buf, /[A-Za-z_][A-Za-z0-9_]*[ \t]*[,};]/)) {
                name = substr(buf, RSTART, RLENGTH); sub(/[ \t]*[,};]$/, "", name)
                if (name != "self") print name
                buf = substr(buf, RSTART + RLENGTH)
            }
            buf = ""; s = 0
        }' "$lib" |
        while read -r name; do
            grep -qw -- "$name" "${outside[@]}" || echo "$crate::$name"
        done
done >"$work/reexports"

# Declarations no other line names: their paths. Every tracked line counts
# each identifier it names once; a declaration's own line is one of them.
mapfile -t tracked < <(git ls-files -- '*.rs' ':!vendor')
awk -v crates="$work/crates" '
    BEGIN { while ((getline l < crates) > 0) { split(l, c, "\t"); crate[c[1]] = c[2] } }
    FNR == 1 {
        mod = ""; in_impl = 0
        if (match(FILENAME, /^crates\/[^\/]+\/src\//)) {
            mod = crate[substr(FILENAME, 1, RLENGTH - 5)] "::" substr(FILENAME, RLENGTH + 1)
            sub(/\.rs$/, "", mod); gsub(/\//, "::", mod); sub(/::(lib|main|mod)$/, "", mod)
        }
    }
    {
        delete named; rest = $0
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
            w = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
            if (!(w in named)) { named[w]; lines[w]++ }
        }
    }
    mod == "" { next }
    # rustfmt closes an impl block at the indent it opened at.
    in_impl && /^ *}/ { match($0, /^ */); if (RLENGTH <= impl_indent) in_impl = 0 }
    /^ *(unsafe )?impl[ <]/ && !/}[ \t]*$/ {
        t = $0; sub(/^ *(unsafe )?impl/, "", t)
        while (gsub(/<[^<>]*>/, "", t)) {}
        sub(/ where.*/, "", t); sub(/.* for /, "", t); sub(/^ */, "", t); sub(/[ {].*/, "", t); sub(/.*::/, "", t)
        match($0, /^ */); impl_indent = RLENGTH; impl_type = t; in_impl = 1
        next
    }
    match($0, /^ *pub (struct|enum|trait|type|static( mut)?|const|((const|async|unsafe) )*(extern "[^"]*" )?fn) [A-Za-z_][A-Za-z0-9_]*/) {
        d = substr($0, 1, RLENGTH); name = d; sub(/.* /, "", name)
        match(d, /^ */)
        method = d ~ / fn / && in_impl && RLENGTH > impl_indent
        path[++n] = mod "::" (method ? impl_type "::" : "") name; leaf[n] = name
    }
    END { for (i = 1; i <= n; i++) if (lines[leaf[i]] <= 1) print path[i] }
' "${tracked[@]}" >"$work/decls"

artifacts build --workspace --bins >"$work/workspace"
artifacts build --manifest-path benchmark/Cargo.toml --target-dir "$target" >"$work/pgbench"
# Everything else that links the libraries. The examples are built as
# programs: under `cargo test` their `main` is dead code.
artifacts test --workspace --lib --bins --tests --no-run >"$work/evidence"
artifacts build --workspace --examples >>"$work/evidence"

awk -F'\t' '$1 == "lib" && $2 ~ /^pg_/ && $2 != "pg_bench" { print $3 }' "$work/workspace" >"$work/rlibs"
awk -F'\t' '$1 == "bin" { print $3 }' "$work/workspace" "$work/pgbench" | sort -u >"$work/systems"
# The test and example executables, each with its root source.
awk -F'\t' 'NR == FNR { system_exe[$0]; next }
    $3 !~ /\.(rlib|rmeta|so)$/ && !($3 in system_exe) && !seen[$3]++ { print $3 "\t" $4 }' "$work/systems" "$work/evidence" >"$work/others"
{ symbols $(<"$work/rlibs"); symbols $(cut -f1 "$work/others"); } | grep -E '^<?pg_' | grep -vE '^<?pg_bench::' |
    grep -v '{{closure}}' | grep -vE '::(tests|prop_tests|oracle)::|^pg_[a-z_]+::main$' |
    grep -vE '^<.* as core::(clone|cmp|default|fmt|hash|ops)::' | sort -u >"$work/items"
symbols $(<"$work/systems") >"$work/linked"
comm -23 "$work/items" "$work/linked" >"$work/unlinked"

# item <tab> root source of each other executable that links it.
while IFS=$'\t' read -r exe src; do
    symbols "$exe" | comm -12 - "$work/unlinked" | sed "s|\$|\t${src#"$PWD"/}|"
done <"$work/others" >"$work/linkers"

awk -F'\t' -v allow="$allow" -v linkers="$work/linkers" -v all_items="$work/items" -v reexports="$work/reexports" -v decls="$work/decls" '
    function complain(line, what) { printf "%s:%d: %s\n", allow, line, what > "/dev/stderr"; bad = 1 }
    # The allow-list: prefix, reason, path.
    FILENAME == allow {
        sub(/#.*/, ""); n = split($0, f, " ")
        if (n == 0) next
        if (f[2] !~ /^(paper|reference|frozen)$/ || (f[2] != "paper" && n < 3) || n > 3) {
            complain(FNR, "want `<prefix> paper [path]`, `<prefix> reference <test path>` or `<prefix> frozen <benchmark path>`")
            next
        }
        if (f[2] == "frozen" && f[3] !~ /^benchmark\//) complain(FNR, "a frozen item names a file under benchmark/")
        leaf = f[1]; sub(/.*::/, "", leaf)
        if (n == 3 && system("grep -qw -- \047" leaf "\047 \047" f[3] "\047 2>/dev/null") != 0)
            complain(FNR, f[3] " does not exist or never mentions `" leaf "`")
        prefix[++lines] = f[1]; reason[lines] = f[2]; at[lines] = FNR
        next
    }
    FILENAME == linkers { tests[$1] = tests[$1] (tests[$1] == "" ? "" : "<br>") $2; next }
    FILENAME == all_items { is_item[$0]; items++; next }
    # A line whose prefix ends at a path boundary explains an item.
    function explain(item,    i, rest, r) {
        sub(/^</, "", item); r = ""
        for (i = 1; i <= lines; i++) {
            rest = substr(item, length(prefix[i]) + 1)
            if (index(item, prefix[i]) == 1 && rest ~ /^($|[:< ])/) { if (r == "") r = reason[i]; used[i] = 1 }
        }
        return r
    }
    FILENAME == reexports { exported[++exports] = $0; why_export[$0] = explain($0); next }
    FILENAME == decls { declared[++decl_n] = $0; why_decl[$0] = explain($0); next }
    { why[$0] = explain($0); unlinked[++total] = $0 }
    END {
        print "| library function no system binary links | why it stays | still linked by |"
        print "|---|---|---|"
        for (i = 1; i <= total; i++) {
            item = unlinked[i]; len = item; sub(/::is_empty$/, "::len", len)
            # clippy::len_without_is_empty: an `is_empty` stays while its `len` does.
            if (why[item] == "" && len != item && len in is_item && (!(len in why) || why[len] != ""))
                why[item] = "its `len` stays"
            if (why[item] == "") { why[item] = "**unexplained**"; bad = 1 }
            count[why[item]]++
            print "| `" item "` | " why[item] " | " tests[item] " |"
        }
        printf "\n%d of %d library functions are linked by no system binary:", total, items
        for (w in count) printf " %d %s,", count[w], w
        print " nothing else."
        if (exports) {
            print "\n| crate-root re-export no file outside its crate names | why it stays |"
            print "|---|---|"
        }
        for (i = 1; i <= exports; i++) {
            item = exported[i]
            if (why_export[item] == "") { why_export[item] = "**unexplained**"; bad = 1 }
            print "| `" item "` | " why_export[item] " |"
        }
        if (decl_n) {
            print "\n| `pub` declaration no other line names | why it stays |"
            print "|---|---|"
        }
        for (i = 1; i <= decl_n; i++) {
            item = declared[i]
            if (why_decl[item] == "") { why_decl[item] = "**unexplained**"; bad = 1 }
            print "| `" item "` | " why_decl[item] " |"
        }
        for (i = 1; i <= lines; i++)
            if (!used[i]) complain(at[i], "`" prefix[i] "` matches nothing unlinked: delete the line")
        exit bad
    }
' "$allow" "$work/linkers" "$work/items" "$work/reexports" "$work/decls" "$work/unlinked"
