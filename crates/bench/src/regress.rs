//! Baseline comparison for experiment reports: the logic behind the
//! `regress` binary.
//!
//! A committed baseline `baselines/BENCH_<exp>.json` is diffed against a
//! fresh `results/<exp>.json` metric by metric (the flattened numeric
//! leaves of the report). The simulation is deterministic — seeded RNG,
//! sequential reductions — so the tolerance is tiny and exists only to
//! absorb libm differences across platforms.

use pg_sim::report::Report;

/// Relative tolerance for every metric but the percentile leaves.
const REL: f64 = 1e-9;

/// Relative tolerance for `.p50`/`.p90`/`.p95`/`.p99` leaves: order
/// statistics sit on sample boundaries, so they get a wider tolerance than
/// means.
const PERCENTILE_REL: f64 = 1e-6;

/// The order-statistic leaves [`PERCENTILE_REL`] applies to.
const PERCENTILE_LEAVES: [&str; 4] = [".p50", ".p90", ".p95", ".p99"];

/// Values with magnitude below this floor are compared absolutely
/// (relative error is meaningless near zero).
const ABS_FLOOR: f64 = 1e-12;

/// The relative tolerance applying to `path`.
fn rel_for(path: &str) -> f64 {
    if PERCENTILE_LEAVES.iter().any(|q| path.ends_with(q)) {
        PERCENTILE_REL
    } else {
        REL
    }
}

/// One out-of-tolerance metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Flattened metric path (`stats.<key>.mean`, `counters.<key>`, …).
    pub path: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Measured relative error.
    pub rel_err: f64,
    /// Tolerance it violated.
    pub tolerance: f64,
}

/// Result of diffing one fresh report against its baseline.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Hard failures: drifted metrics, metrics missing from the fresh
    /// report, or a mode mismatch. Any entry fails the gate.
    pub violations: Vec<String>,
    /// Out-of-tolerance metrics (also mirrored into `violations`).
    pub drifts: Vec<Drift>,
    /// Soft findings: metrics present in the fresh report but absent from
    /// the baseline (the baseline is stale but nothing regressed).
    pub warnings: Vec<String>,
    /// Leaf key paths present in the baseline but absent from the fresh
    /// report (also mirrored into `violations`). A renamed or dropped
    /// metric shows up here by its exact flattened path.
    pub missing: Vec<String>,
    /// Leaf key paths present in the fresh report but absent from the
    /// baseline (also mirrored into `warnings`).
    pub extra: Vec<String>,
    /// Number of metrics compared within tolerance.
    pub matched: usize,
}

impl Comparison {
    /// True when the gate passes for this report.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Diff `fresh` against `baseline`.
///
/// Fails on: mode mismatch (a chaos report diffed against a full baseline
/// is a harness misconfiguration, not a regression), any baseline metric
/// missing from the fresh report, and any metric outside tolerance. Metrics
/// only present in the fresh report produce warnings — new instrumentation
/// should not fail the gate, but the baseline wants refreshing.
pub fn compare(baseline: &Report, fresh: &Report) -> Comparison {
    let mut cmp = Comparison::default();
    let base_mode = baseline.meta.get("mode");
    let fresh_mode = fresh.meta.get("mode");
    if base_mode != fresh_mode {
        cmp.violations.push(format!(
            "mode mismatch: baseline {:?} vs fresh {:?}",
            base_mode.map(String::as_str).unwrap_or("?"),
            fresh_mode.map(String::as_str).unwrap_or("?"),
        ));
        return cmp;
    }
    let fresh_flat: std::collections::BTreeMap<String, f64> = fresh.flatten().into_iter().collect();
    let mut seen = std::collections::BTreeSet::new();
    for (path, base_value) in baseline.flatten() {
        seen.insert(path.clone());
        let Some(&fresh_value) = fresh_flat.get(&path) else {
            cmp.violations.push(format!("missing metric: {path}"));
            cmp.missing.push(path);
            continue;
        };
        let rel = rel_for(&path);
        let rel_err = (fresh_value - base_value).abs() / base_value.abs().max(ABS_FLOOR);
        if rel_err > rel {
            cmp.violations.push(format!(
                "drift: {path}: baseline {base_value} -> fresh {fresh_value} \
                 (rel err {rel_err:.3e} > tol {rel:.1e})"
            ));
            cmp.drifts.push(Drift {
                path,
                baseline: base_value,
                fresh: fresh_value,
                rel_err,
                tolerance: rel,
            });
        } else {
            cmp.matched += 1;
        }
    }
    for (path, _) in fresh.flatten() {
        if !seen.contains(&path) {
            cmp.warnings
                .push(format!("extra metric (not in baseline): {path}"));
            cmp.extra.push(path);
        }
    }
    cmp
}

/// Render the missing/extra leaf paths of a comparison as explicit
/// labelled blocks — empty string when the key sets match. This is what
/// the `regress` binary prints on a mismatch, so a renamed metric shows
/// up as one line under each heading instead of being buried in the
/// violation stream.
pub fn key_mismatch_report(cmp: &Comparison) -> String {
    let mut out = String::new();
    if !cmp.missing.is_empty() {
        out.push_str(&format!(
            "  missing leaf paths (in baseline, absent from fresh): {}\n",
            cmp.missing.len()
        ));
        for p in &cmp.missing {
            out.push_str(&format!("    - {p}\n"));
        }
    }
    if !cmp.extra.is_empty() {
        out.push_str(&format!(
            "  extra leaf paths (in fresh, absent from baseline): {}\n",
            cmp.extra.len()
        ));
        for p in &cmp.extra {
            out.push_str(&format!("    + {p}\n"));
        }
    }
    out
}

/// Render drifted metrics as an aligned human-readable table.
pub fn drift_table(drifts: &[Drift]) -> String {
    let mut out = String::new();
    let width = drifts
        .iter()
        .map(|d| d.path.len())
        .max()
        .unwrap_or(6)
        .max(6);
    out.push_str(&format!(
        "{:<width$}  {:>14}  {:>14}  {:>10}  {:>8}\n",
        "metric", "baseline", "fresh", "rel err", "tol"
    ));
    for d in drifts {
        out.push_str(&format!(
            "{:<width$}  {:>14.6e}  {:>14.6e}  {:>10.3e}  {:>8.1e}\n",
            d.path, d.baseline, d.fresh, d.rel_err, d.tolerance
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_sim::metrics::Summary;

    fn report(name: &str, mode: &str, scalars: &[(&str, f64)]) -> Report {
        let mut r = Report::new(name);
        r.set_meta("mode", mode);
        for &(k, v) in scalars {
            r.set_scalar(k, v);
        }
        r
    }

    #[test]
    fn identical_reports_pass() {
        let a = report("e", "full", &[("x", 1.5), ("y", 0.0)]);
        let cmp = compare(&a, &a.clone());
        assert!(cmp.ok(), "{:?}", cmp.violations);
        assert_eq!(cmp.matched, 2);
        assert!(cmp.warnings.is_empty());
    }

    #[test]
    fn within_tolerance_passes() {
        let base = report("e", "full", &[("x", 100.0)]);
        let fresh = report("e", "full", &[("x", 100.0 + 5e-8)]);
        assert!(compare(&base, &fresh).ok());
        let fresh = report("e", "full", &[("x", 100.0 + 5e-7)]);
        assert!(!compare(&base, &fresh).ok());
    }

    #[test]
    fn drift_fails_with_table() {
        let base = report("e", "full", &[("x", 100.0)]);
        let fresh = report("e", "full", &[("x", 101.0)]);
        let cmp = compare(&base, &fresh);
        assert!(!cmp.ok());
        assert_eq!(cmp.drifts.len(), 1);
        let d = &cmp.drifts[0];
        assert_eq!(d.path, "scalars.x");
        assert!((d.rel_err - 0.01).abs() < 1e-12);
        let table = drift_table(&cmp.drifts);
        assert!(table.contains("scalars.x"), "table: {table}");
        assert!(table.contains("baseline"), "table: {table}");
    }

    #[test]
    fn missing_metric_fails() {
        let base = report("e", "full", &[("x", 1.0), ("gone", 2.0)]);
        let fresh = report("e", "full", &[("x", 1.0)]);
        let cmp = compare(&base, &fresh);
        assert!(!cmp.ok());
        assert!(
            cmp.violations
                .iter()
                .any(|v| v.contains("missing metric: scalars.gone")),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn extra_metric_warns_but_passes() {
        let base = report("e", "full", &[("x", 1.0)]);
        let fresh = report("e", "full", &[("x", 1.0), ("new", 9.0)]);
        let cmp = compare(&base, &fresh);
        assert!(cmp.ok(), "{:?}", cmp.violations);
        assert!(
            cmp.warnings.iter().any(|w| w.contains("scalars.new")),
            "{:?}",
            cmp.warnings
        );
    }

    #[test]
    fn missing_and_extra_leaf_paths_are_listed_explicitly() {
        // A renamed metric = one missing + one extra; both exact paths
        // must be carried structurally and rendered under headings.
        let base = report("e", "full", &[("x", 1.0), ("old_name", 2.0)]);
        let fresh = report("e", "full", &[("x", 1.0), ("new_name", 2.0)]);
        let cmp = compare(&base, &fresh);
        assert!(!cmp.ok());
        assert_eq!(cmp.missing, vec!["scalars.old_name".to_string()]);
        assert_eq!(cmp.extra, vec!["scalars.new_name".to_string()]);
        let rendered = key_mismatch_report(&cmp);
        assert!(
            rendered.contains("missing leaf paths") && rendered.contains("- scalars.old_name"),
            "missing block absent: {rendered}"
        );
        assert!(
            rendered.contains("extra leaf paths") && rendered.contains("+ scalars.new_name"),
            "extra block absent: {rendered}"
        );
        // A clean comparison renders nothing.
        let clean = compare(&base, &base.clone());
        assert_eq!(key_mismatch_report(&clean), "");
    }

    #[test]
    fn mode_mismatch_fails_fast() {
        let base = report("e", "full", &[("x", 1.0)]);
        let fresh = report("e", "chaos", &[("x", 1.0)]);
        let cmp = compare(&base, &fresh);
        assert!(!cmp.ok());
        assert!(cmp.violations[0].contains("mode mismatch"));
    }

    #[test]
    fn near_zero_values_compare_absolutely() {
        // 0 vs 5e-22: relative error undefined; the floor keeps it passing.
        let base = report("e", "full", &[("z", 0.0)]);
        assert!(compare(&base, &report("e", "full", &[("z", 5e-22)])).ok());
        // Below the floor a 5e-22 nudge passes although it is 5e-9 of the
        // value, and a 1e-15 one fails although the value is that small.
        let base = report("e", "full", &[("z", 1e-13)]);
        assert!(compare(&base, &report("e", "full", &[("z", 1e-13 + 5e-22)])).ok());
        assert!(!compare(&base, &report("e", "full", &[("z", 1e-13 + 1e-15)])).ok());
    }

    #[test]
    fn percentile_tolerance_covers_every_quantile_leaf() {
        for q in ["p50", "p90", "p95", "p99"] {
            assert_eq!(rel_for(&format!("stats.response_s.{q}")), 1e-6);
        }
        assert_eq!(rel_for("stats.response_s.mean"), 1e-9);
        assert_eq!(rel_for("stats.response_s.p95_ms"), 1e-9);
    }

    #[test]
    fn percentile_leaves_get_the_wider_tolerance() {
        let mut base = Report::new("e");
        base.set_meta("mode", "full");
        base.stats.insert(
            "response_s".into(),
            pg_sim::report::SummaryStats {
                mean: 10.0,
                p95: Some(10.0),
                ..pg_sim::report::SummaryStats::default()
            },
        );
        // 5e-7 of the value passes on a percentile leaf…
        let mut fresh = base.clone();
        fresh.stats.get_mut("response_s").unwrap().p95 = Some(10.0 + 5e-6);
        let cmp = compare(&base, &fresh);
        assert!(cmp.ok(), "{:?}", cmp.violations);
        // …but not on a mean…
        fresh.stats.get_mut("response_s").unwrap().mean = 10.0 + 5e-6;
        let cmp = compare(&base, &fresh);
        assert_eq!(cmp.drifts.len(), 1);
        assert_eq!(cmp.drifts[0].path, "stats.response_s.mean");
        // …and drift beyond 1e-6 still fails on the percentile leaf.
        let mut fresh = base.clone();
        fresh.stats.get_mut("response_s").unwrap().p95 = Some(12.0);
        let cmp = compare(&base, &fresh);
        assert!(!cmp.ok());
        assert!(
            cmp.drifts.iter().any(|d| d.path == "stats.response_s.p95"),
            "{:?}",
            cmp.violations
        );
    }

    #[test]
    fn summary_stats_are_compared_per_field() {
        let mut s = Summary::new();
        s.record(1.0);
        s.record(3.0);
        let mut base = Report::new("e");
        base.set_meta("mode", "full");
        base.record_summary("m", &s);
        let mut drifted = base.clone();
        drifted.stats.get_mut("m").unwrap().max = 4.0;
        let cmp = compare(&base, &drifted);
        assert!(!cmp.ok());
        assert_eq!(cmp.drifts.len(), 1);
        assert_eq!(cmp.drifts[0].path, "stats.m.max");
    }
}
