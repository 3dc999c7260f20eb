//! Per-binary experiment plumbing: CLI flags, the chaos grid, and JSON
//! report emission.
//!
//! Every `exp_*` binary wraps its run in an [`Experiment`]: its stdout is
//! the binary's EXPERIMENTS.md block, and every number that lands in a
//! table row is also recorded into a [`Report`] written to
//! `results/<exp>.json`. The committed baselines under `baselines/` are
//! those same files, so `scripts/check_experiments.sh` gates, byte for
//! byte, both outputs of the very run EXPERIMENTS.md publishes.
//!
//! A table cell is written once: [`Experiment::table`] prints the title,
//! and each [`Experiment::row`] takes the row's [`Cell`]s — label, width,
//! rendering, value and report key together — prints the aligned line and
//! records every keyed cell under `<prefix>.<key>`. What still goes through
//! a direct `set_*` call is only what no printed cell holds: a value the
//! report gates but no table shows (T16's `errors` and `epochs`, the
//! per-hour rates behind T20's and T21's met-deadline counts), a number
//! printed in prose instead of a table (F1's plan, T3's oracle check), and
//! `record_samples`, where two printed quantile columns share one stats
//! key.
//!
//! Flags understood by every binary:
//!
//! - `--chaos` — run an *extended* sweep (longer horizons, higher fault
//!   rates, extra seeds), where a binary has one (see
//!   [`Experiment::scale`]). Chaos reports carry `meta.mode = "chaos"` and
//!   are never compared with the `"full"` baselines — the chaos run's
//!   value is its [`Claims`], not a numeric diff.
//! - `--out DIR` — write the JSON report into `DIR` (default `results`).
//!
//! What a binary claims about its numbers goes through
//! [`Experiment::claims`] into `claims.*` report leaves; a failed claim is
//! named on stderr after the report is written, and the binary exits 1.
//!
//! No binary reads the host clock (`crates/bench/clippy.toml` denies it):
//! tables and reports carry only simulation-deterministic quantities, which
//! is what lets the experiment gate demand equal bytes of both.

use crate::claims::Ledger;
use crate::table::{Cell, Table};
use crate::Claims;
use pg_sim::report::Report;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// One experiment run: mode flags plus the report being accumulated.
pub struct Experiment {
    report: Report,
    table: Table,
    claims: Ledger,
    chaos: bool,
    out_dir: PathBuf,
}

impl Experiment {
    /// Set up from the process CLI arguments (see module docs for flags).
    ///
    /// Exits the process with a usage message on unknown arguments — the
    /// `exp_*` binaries take no other flags.
    pub fn from_args(name: &str) -> Experiment {
        let mut chaos = false;
        let mut out_dir = PathBuf::from("results");
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--chaos" => chaos = true,
                "--out" => match args.next() {
                    Some(dir) => out_dir = PathBuf::from(dir),
                    None => {
                        eprintln!("{name}: --out requires a directory argument");
                        std::process::exit(2);
                    }
                },
                other => {
                    eprintln!("{name}: unknown argument {other:?}");
                    eprintln!("usage: {name} [--chaos] [--out DIR]");
                    std::process::exit(2);
                }
            }
        }
        Experiment::new(name, chaos, out_dir)
    }

    fn new(name: &str, chaos: bool, out_dir: PathBuf) -> Experiment {
        let mut report = Report::new(name);
        report.set_meta("mode", if chaos { "chaos" } else { "full" });
        Experiment {
            report,
            table: Table::default(),
            claims: Ledger::default(),
            chaos,
            out_dir,
        }
    }

    /// Pick the full-run or chaos-run value of a sweep parameter (longer
    /// horizons, higher fault rates, extra seeds in the soak).
    pub fn scale<T>(&self, full: T, chaos: T) -> T {
        if self.chaos {
            chaos
        } else {
            full
        }
    }

    /// Start a table: a blank line and the title. The rule and the column
    /// labels follow with the first [`row`](Experiment::row).
    pub fn table(&mut self, title: &str) {
        println!("\n{title}");
        self.table = Table::default();
    }

    /// Print one aligned row of the current table and record each keyed
    /// cell under `<prefix>.<key>` (see [`Cell`]).
    ///
    /// # Panics
    /// Panics when the row's columns are not those of the table's first row.
    pub fn row(&mut self, prefix: &str, cells: &[Cell]) {
        print!("{}", self.table.row(&mut self.report, prefix, cells));
    }

    /// Record free-form metadata (sweep parameters, modal choices, …).
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.report.set_meta(key, value);
    }

    /// Record an integer metric.
    pub fn set_counter(&mut self, key: impl Into<String>, value: u64) {
        self.report.set_counter(key, value);
    }

    /// Record a single measured value.
    pub fn set_scalar(&mut self, key: impl Into<String>, value: f64) {
        self.report.set_scalar(key, value);
    }

    /// Direct access to the underlying report.
    pub fn report_mut(&mut self) -> &mut Report {
        &mut self.report
    }

    /// A handle that states claims named `<key>.<name>`, or `<name>` under
    /// an empty key (see [`Claims`]).
    pub fn claims(&mut self, key: &str) -> Claims<'_> {
        Claims::new(&mut self.claims, key)
    }

    /// Record the claims, write `results/<name>.json` and finish the run.
    ///
    /// Returns a failing [`ExitCode`] when the report cannot be serialized
    /// or written, so a broken report fails CI instead of silently producing
    /// a table with no JSON behind it, and when a claim failed: each failed
    /// claim is named on stderr after the report is written.
    #[must_use]
    pub fn finish(self) -> ExitCode {
        self.finish_to(&mut std::io::stderr())
    }

    /// [`finish`](Experiment::finish), with its messages written to `err`.
    fn finish_to(mut self, err: &mut impl Write) -> ExitCode {
        self.claims.record(&mut self.report);
        let name = &self.report.name;
        let path = self.out_dir.join(format!("{name}.json"));
        let written = match self.report.to_json() {
            Ok(text) => (std::fs::create_dir_all(&self.out_dir))
                .and_then(|()| std::fs::write(&path, text + "\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display())),
            Err(e) => Err(format!("report serialization failed: {e}")),
        };
        let _ = match &written {
            Ok(()) => writeln!(err, "report: {}", path.display()),
            Err(e) => writeln!(err, "{name}: {e}"),
        };
        let failures = self.claims.failures();
        for line in &failures {
            let _ = writeln!(err, "{name}: {line}");
        }
        ExitCode::from(u8::from(written.is_err() || !failures.is_empty()))
    }
}

/// Slugify a table label into a report key segment: lowercase alphanumerics
/// with single underscores (`"in-network tree"` → `"in_network_tree"`).
pub fn key_part(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut last_sep = true;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_sep = false;
        } else if c == '.' {
            // Dots separate report-path segments; keep caller-provided ones.
            out.push('.');
            last_sep = true;
        } else if !last_sep {
            out.push('_');
            last_sep = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_part_slugifies() {
        assert_eq!(key_part("in-network tree"), "in_network_tree");
        assert_eq!(key_part("COST energy 0.005"), "cost_energy_0.005");
        assert_eq!(key_part("Gossip { p: 0.7 }"), "gossip_p_0.7");
        assert_eq!(key_part("plain"), "plain");
        assert_eq!(key_part("  spaced  out  "), "spaced_out");
    }

    #[test]
    fn failed_claims_all_reach_stderr_after_the_report_is_written() {
        let dir = std::env::temp_dir().join(format!("pg_bench_claims_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut exp = Experiment::new("exp_claims", false, dir.clone());
        exp.claims("").above("first", 1u64, 2u64);
        exp.claims("").at_least("kept", 2u64, 2u64);
        exp.claims("").seed(7).below("second", 0.5, 0.25);
        let mut err = Vec::new();
        assert_eq!(exp.finish_to(&mut err), ExitCode::FAILURE);
        let report = std::fs::read_to_string(dir.join("exp_claims.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let err = String::from_utf8(err).unwrap();
        assert!(err.starts_with("report: "), "the report comes first: {err}");
        let lines: Vec<_> = err.lines().skip(1).collect();
        assert_eq!(
            lines,
            [
                "exp_claims: claim first failed: 1 > 2 does not hold",
                "exp_claims: claim second failed: 0.5 < 0.25 does not hold (seed 7)",
            ]
        );
        for leaf in [
            "\"claims.first.held\":0",
            "\"claims.kept.held\":1",
            "\"claims.second.worst_seed\":7",
            "\"claims.second.bound\":0.25",
        ] {
            assert!(report.contains(leaf), "{leaf} not in {report}");
        }
    }

    #[test]
    fn a_run_whose_claims_all_hold_succeeds() {
        let dir = std::env::temp_dir().join(format!("pg_bench_held_{}", std::process::id()));
        let mut exp = Experiment::new("exp_held", false, dir.clone());
        exp.claims("x").equal("same", 3u64, 3u64);
        let mut err = Vec::new();
        assert_eq!(exp.finish_to(&mut err), ExitCode::SUCCESS);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            err.iter().filter(|&&b| b == b'\n').count(),
            1,
            "only the report line"
        );
    }
}
