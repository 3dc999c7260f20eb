//! **microbench** — the CI perf-regression gate for the criterion
//! microbenches.
//!
//! `cargo bench` prints one `bench: <name> <ns> ns/iter` line per target
//! (the vendored criterion reports the median over its sample blocks).
//! This binary parses those lines into a pg-report/v1 JSON (`micro`),
//! writes it next to the experiment reports, and compares it against the
//! committed `baselines/BENCH_micro.json` with a **one-sided** relative
//! tolerance: getting faster never fails, getting more than the tolerance
//! slower does. Wall-clock numbers are noisy where simulation counters are
//! not, so the tolerance is 25% instead of the experiment gate's 1e-9
//! (`pg_bench::regress::Tolerances::MICROBENCH`).
//!
//! A bench name appearing more than once folds to the **min**: scheduler
//! noise on a shared runner is strictly additive, so the minimum of
//! several runs' medians tracks the true cost while a one-run contention
//! spike is discarded — a genuine regression slows *every* run and
//! survives the fold. CI therefore runs the suite a few times and
//! concatenates the output before gating:
//!
//! ```sh
//! for i in 1 2 3; do cargo bench -p pg-bench; done > bench.txt
//! cargo run --release -p pg-bench --bin microbench -- --input bench.txt
//! cargo run --release -p pg-bench --bin microbench -- --input bench.txt --write-baseline
//! ```
//!
//! Reading from stdin works too; `--input` may be repeated.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::key_part;
use pg_bench::regress::{compare, drift_table, Tolerances};
use pg_sim::report::Report;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: microbench [--input FILE]... [--baseline FILE] [--out DIR] \
         [--write-baseline]\n\
         \n  --input FILE      `bench:` lines to parse; repeatable (default: stdin)\
         \n  --baseline FILE   committed medians (default: baselines/BENCH_micro.json)\
         \n  --out DIR         where to write micro.json (default: results)\
         \n  --write-baseline  write the parsed report over the baseline\
         \n                    instead of comparing"
    );
    std::process::exit(2);
}

/// Parse `bench: <name> <ns> ns/iter ...` lines; a name seen more than
/// once (the suite run several times) folds to its minimum.
fn parse_bench_lines(text: &str) -> BTreeMap<String, f64> {
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("bench:") else {
            continue;
        };
        let mut tokens = rest.split_whitespace();
        let (Some(name), Some(ns), Some("ns/iter")) = (tokens.next(), tokens.next(), tokens.next())
        else {
            continue;
        };
        let Ok(ns) = ns.parse::<f64>() else { continue };
        best.entry(name.to_string())
            .and_modify(|b| *b = b.min(ns))
            .or_insert(ns);
    }
    best
}

fn main() -> ExitCode {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut baseline_path = PathBuf::from("baselines/BENCH_micro.json");
    let mut out_dir = PathBuf::from("results");
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--input" => inputs.push(args.next().map(PathBuf::from).unwrap_or_else(|| usage())),
            "--baseline" => {
                baseline_path = args.next().map(PathBuf::from).unwrap_or_else(|| usage())
            }
            "--out" => out_dir = args.next().map(PathBuf::from).unwrap_or_else(|| usage()),
            "--write-baseline" => write_baseline = true,
            _ => usage(),
        }
    }

    let mut text = String::new();
    if inputs.is_empty() {
        if let Err(e) = std::io::stdin().read_to_string(&mut text) {
            eprintln!("microbench: cannot read stdin: {e}");
            return ExitCode::FAILURE;
        }
    }
    for path in &inputs {
        match std::fs::read_to_string(path) {
            Ok(t) => text.push_str(&t),
            Err(e) => {
                eprintln!("microbench: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let parsed = parse_bench_lines(&text);
    if parsed.is_empty() {
        eprintln!("microbench: no `bench: ... ns/iter` lines found in the input");
        return ExitCode::FAILURE;
    }

    let mut fresh = Report::new("micro");
    fresh.set_meta("mode", "bench");
    for (name, ns) in &parsed {
        fresh.set_scalar(key_part(name), *ns);
    }
    let json = match fresh.to_json() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("microbench: report serialization failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("microbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let fresh_path = out_dir.join("micro.json");
    if let Err(e) = std::fs::write(&fresh_path, format!("{json}\n")) {
        eprintln!("microbench: cannot write {}: {e}", fresh_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "report: {} ({} benches)",
        fresh_path.display(),
        parsed.len()
    );

    if write_baseline {
        if let Err(e) = std::fs::write(&baseline_path, format!("{json}\n")) {
            eprintln!("microbench: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!("baseline written: {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Report::from_json(&t))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "microbench: missing or unreadable baseline {} — create one with \
                 --write-baseline: {e}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let tol = Tolerances::MICROBENCH;
    let cmp = compare(&baseline, &fresh, &tol);
    for w in &cmp.warnings {
        eprintln!("warn micro: {w}");
    }
    if cmp.ok() {
        println!(
            "ok   micro: {} bench(es) within the {:.0}% one-sided budget",
            cmp.matched,
            tol.rel * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!("FAIL micro: {} violation(s)", cmp.violations.len());
        if !cmp.drifts.is_empty() {
            print!("{}", drift_table(&cmp.drifts));
        }
        for v in cmp.violations.iter().filter(|v| !v.starts_with("drift:")) {
            println!("  {v}");
        }
        ExitCode::FAILURE
    }
}
