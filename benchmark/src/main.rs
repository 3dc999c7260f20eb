//! Command line of `pgbench`.
//!
//! ```text
//! pgbench [--seed N] [--seconds S] [--trace] [--smoke] [--out DIR]       all five workloads
//! pgbench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR] [--detail FILE]
//! pgbench compare A.json B.json
//! ```

use pgbench::run::{self, Options};
use pgbench::suite::{self, SuiteOptions};
use pgbench::workloads::Kind;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  pgbench [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--out DIR]
  pgbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out DIR] [--detail FILE]
  pgbench compare A.json B.json
workloads: metro_day metro_bandit fire_response scale_churn federation_faults";

/// Flags of the two running modes, parsed strictly: anything unknown is
/// a usage error.
struct Flags {
    workload: Option<Kind>,
    seed: u64,
    /// Host seconds to measure for: `run_seconds` of `BENCHMARK.json`
    /// unless given, and as short as can be on a smoke run.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    detail: Option<PathBuf>,
}

fn parse_flags(args: &[String], suite: bool) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        detail: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" if !suite => {
                let name = value()?;
                f.workload = Some(Kind::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => f.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                f.seconds = Some(s);
            }
            "--trace" if suite => f.trace = true,
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => f.smoke = true,
            "--out" => f.out_dir = PathBuf::from(value()?),
            "--detail" if !suite => f.detail = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(f)
}

impl Flags {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.0 } else { 15.0 })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        // Without a workload named, the whole suite.
        _ if !args.iter().any(|a| a == "--workload") => parse_flags(&args, true).and_then(|f| {
            suite::run(&SuiteOptions {
                seed: f.seed,
                seconds: f.seconds(),
                trace: f.trace,
                smoke: f.smoke,
                out_dir: f.out_dir,
            })
        }),
        _ => parse_flags(&args, false).and_then(one),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pgbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One workload, as the driver runs it: the result is the last line of
/// standard output.
fn one(f: Flags) -> Result<bool, String> {
    let kind = f.workload.ok_or("--workload is required")?;
    let options = Options {
        kind,
        seed: f.seed,
        seconds: f.seconds(),
        trace: f.trace,
        smoke: f.smoke,
        out_dir: f.out_dir,
    };
    let outcome = if f.trace {
        run::traced(options)
    } else {
        run::untraced(options)
    };
    for failure in &outcome.failures {
        eprintln!("pgbench: {} INVALID: {failure}", kind.name());
    }
    if let Some(path) = &f.detail {
        std::fs::write(path, outcome.detail()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", outcome.driver_line());
    Ok(outcome.correct)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".into());
    };
    let a = suite::load(a.as_ref())?;
    let b = suite::load(b.as_ref())?;
    let (table, any_worse) = pgbench::compare::compare(&a, &b)?;
    print!("{table}");
    Ok(!any_worse)
}
