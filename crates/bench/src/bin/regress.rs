//! **regress** — the CI regression gate: diff fresh experiment reports
//! against the committed baselines.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin regress            # results/ vs baselines/
//! cargo run --release -p pg-bench --bin regress -- --results DIR
//! ```
//!
//! For every `baselines/BENCH_<exp>.json` there must be a fresh
//! `results/<exp>.json`; each pair is compared metric-by-metric with
//! relative tolerances of 1e-9, 1e-6 on percentile leaves (see
//! `pg_bench::regress`). Any drift, any metric missing from a fresh
//! report, any baseline without a fresh report, or any fresh report
//! without a baseline exits 1 with a human-readable drift table; a bad
//! flag exits 2. Metrics present only in the fresh report warn (the
//! baseline is stale but nothing regressed).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::regress::{compare, drift_table, key_mismatch_report};
use pg_sim::report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: regress [--baselines DIR] [--results DIR]\n\
         \n  --baselines DIR   committed BENCH_*.json directory (default: baselines)\
         \n  --results DIR     fresh report directory (default: results)"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut baselines = PathBuf::from("baselines");
    let mut results = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baselines" => baselines = args.next().map(PathBuf::from).unwrap_or_else(|| usage()),
            "--results" => results = args.next().map(PathBuf::from).unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    let mut baseline_files: Vec<PathBuf> = match std::fs::read_dir(&baselines) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_exp_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("regress: cannot read {}: {e}", baselines.display());
            return ExitCode::FAILURE;
        }
    };
    baseline_files.sort();
    if baseline_files.is_empty() {
        eprintln!(
            "regress: no BENCH_exp_*.json baselines in {} — nothing to gate",
            baselines.display()
        );
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    let mut warnings = 0usize;
    let mut compared = 0usize;
    for base_path in &baseline_files {
        let file_name = base_path.file_name().unwrap().to_str().unwrap();
        let exp = file_name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
            .unwrap();
        let fresh_path = results.join(format!("{exp}.json"));
        let baseline = match std::fs::read_to_string(base_path)
            .map_err(|e| e.to_string())
            .and_then(|t| Report::from_json(&t))
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!(
                    "FAIL {exp}: unreadable baseline {}: {e}",
                    base_path.display()
                );
                failures += 1;
                continue;
            }
        };
        let fresh = match std::fs::read_to_string(&fresh_path)
            .map_err(|e| e.to_string())
            .and_then(|t| Report::from_json(&t))
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!(
                    "FAIL {exp}: missing or unreadable fresh report {}: {e}",
                    fresh_path.display()
                );
                failures += 1;
                continue;
            }
        };
        let cmp = compare(&baseline, &fresh);
        compared += cmp.matched;
        for w in &cmp.warnings {
            eprintln!("warn {exp}: {w}");
        }
        warnings += cmp.warnings.len();
        if cmp.ok() {
            println!("ok   {exp}: {} metrics within tolerance", cmp.matched);
            // Key-set drift that does not fail the gate (extra leaves)
            // still prints its explicit paths so a stale baseline is
            // one copy-paste away from being refreshed.
            print!("{}", key_mismatch_report(&cmp));
        } else {
            failures += 1;
            println!("FAIL {exp}: {} violation(s)", cmp.violations.len());
            if !cmp.drifts.is_empty() {
                print!("{}", drift_table(&cmp.drifts));
            }
            // Missing/extra leaf paths, each under its own heading with
            // the exact flattened key — a renamed metric reads as one
            // `-` line plus one `+` line instead of a wall of text.
            print!("{}", key_mismatch_report(&cmp));
            for v in cmp
                .violations
                .iter()
                .filter(|v| !v.starts_with("drift:") && !v.starts_with("missing metric:"))
            {
                println!("  {v}");
            }
        }
    }

    // The reverse direction: a fresh report with no committed baseline is
    // an experiment the gate would silently never cover. Fail loudly with
    // the one-liner that fixes it.
    if let Ok(entries) = std::fs::read_dir(&results) {
        let mut fresh_only: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .filter(|n| n.starts_with("exp_") && n.ends_with(".json"))
            .filter(|n| {
                let exp = n.strip_suffix(".json").unwrap_or(n);
                !baselines.join(format!("BENCH_{exp}.json")).exists()
            })
            .collect();
        fresh_only.sort();
        for n in &fresh_only {
            let exp = n.strip_suffix(".json").unwrap_or(n);
            eprintln!(
                "FAIL {exp}: fresh report {} has no baseline {} — commit one \
                 via scripts/run_experiments.sh --rebaseline",
                results.join(n).display(),
                baselines.join(format!("BENCH_{exp}.json")).display(),
            );
            failures += 1;
        }
    }

    println!(
        "\nregress: {} baseline(s), {compared} metric(s) in tolerance, \
         {warnings} warning(s), {failures} failing report(s)",
        baseline_files.len()
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
