//! Machine-readable run reports: snapshots of [`crate::metrics`] state.
//!
//! The paper's §4 adaptive loop compares *estimated* computation /
//! data-transfer / energy / response-time figures against *measured* ones
//! during execution — which only works when every run's numbers are captured
//! as structured data rather than pretty-printed tables. A [`Report`] is
//! that capture: an ordered, serializable snapshot of counters, scalars,
//! and summary statistics, written as JSON by the dependency-free emitter
//! in [`json`] (the workspace deliberately avoids serde so builds stay
//! hermetic).
//!
//! Reports are deterministic: all maps are `BTreeMap`s, the field order is
//! fixed, and float formatting uses Rust's shortest round-trip notation —
//! two identical runs emit byte-identical JSON, which the experiment gate
//! (`scripts/check_experiments.sh`, a `cmp` against committed baselines)
//! and the parallel-vs-serial determinism tests both rely on.

use crate::metrics::{Samples, Summary};
use std::collections::BTreeMap;

pub mod json;

/// Schema tag embedded in every emitted report.
pub const SCHEMA: &str = "pg-report/v1";

/// Snapshot of one summary statistic stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SummaryStats {
    /// Number of observations.
    pub n: u64,
    /// Arithmetic mean (`0` when empty).
    pub mean: f64,
    /// Sample standard deviation (`0` with fewer than 2 samples).
    pub sd: f64,
    /// Smallest observation (`0` when empty).
    pub min: f64,
    /// Largest observation (`0` when empty).
    pub max: f64,
    /// Sum of observations.
    pub sum: f64,
    /// Median, when the source retained samples.
    pub p50: Option<f64>,
    /// 90th percentile, when the source retained samples.
    pub p90: Option<f64>,
    /// 95th percentile, when the source retained samples.
    pub p95: Option<f64>,
    /// 99th percentile, when the source retained samples.
    pub p99: Option<f64>,
}

impl From<&Summary> for SummaryStats {
    fn from(s: &Summary) -> Self {
        if s.count() == 0 {
            return SummaryStats::default();
        }
        SummaryStats {
            n: s.count(),
            mean: s.mean(),
            sd: s.stddev(),
            min: s.min(),
            max: s.max(),
            sum: s.sum(),
            p50: None,
            p90: None,
            p95: None,
            p99: None,
        }
    }
}

impl From<&mut Samples> for SummaryStats {
    fn from(s: &mut Samples) -> Self {
        if s.is_empty() {
            return SummaryStats::default();
        }
        let mut summary = Summary::new();
        for &x in s.raw() {
            summary.record(x);
        }
        let mut stats = SummaryStats::from(&summary);
        stats.p50 = s.quantile(0.5);
        stats.p90 = s.quantile(0.9);
        stats.p95 = s.quantile(0.95);
        stats.p99 = s.quantile(0.99);
        stats
    }
}

/// A machine-readable snapshot of one experiment (or one run).
///
/// Keys are free-form dotted paths by convention
/// (`"aggregate.in_network_tree.energy_j"`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Report name (by convention the experiment binary name).
    pub name: String,
    /// Free-form string metadata (mode, parameters, seed counts …).
    pub meta: BTreeMap<String, String>,
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Single measured values.
    pub scalars: BTreeMap<String, f64>,
    /// Summary statistics over repeated observations.
    pub stats: BTreeMap<String, SummaryStats>,
}

impl Report {
    /// Empty report with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            ..Report::default()
        }
    }

    /// Set a metadata entry.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.meta.insert(key.into(), value.into());
    }

    /// Set a counter.
    pub fn set_counter(&mut self, key: impl Into<String>, value: u64) {
        self.counters.insert(key.into(), value);
    }

    /// Set a scalar metric.
    pub fn set_scalar(&mut self, key: impl Into<String>, value: f64) {
        self.scalars.insert(key.into(), value);
    }

    /// Record a summary under `key`.
    pub fn record_summary(&mut self, key: impl Into<String>, summary: &Summary) {
        self.stats.insert(key.into(), SummaryStats::from(summary));
    }

    /// Record a retained-sample collection under `key` (with percentiles).
    pub fn record_samples(&mut self, key: impl Into<String>, samples: &mut Samples) {
        self.stats.insert(key.into(), SummaryStats::from(samples));
    }

    /// Serialize to deterministic JSON.
    ///
    /// # Errors
    /// Fails when any scalar or statistic is non-finite (NaN / ±inf): such
    /// values always indicate an upstream bug, and silently emitting `null`
    /// would defeat the experiment gate.
    pub fn to_json(&self) -> Result<String, json::JsonError> {
        let mut w = json::Writer::new();
        w.begin_object();
        w.key("schema");
        w.string(SCHEMA);
        w.key("name");
        w.string(&self.name);
        w.key("meta");
        w.begin_object();
        for (k, v) in &self.meta {
            w.key(k);
            w.string(v);
        }
        w.end_object();
        w.key("counters");
        w.begin_object();
        for (k, &v) in &self.counters {
            w.key(k);
            w.uint(v);
        }
        w.end_object();
        w.key("scalars");
        w.begin_object();
        for (k, &v) in &self.scalars {
            w.key(k);
            w.float(v).map_err(|e| e.at(format!("scalars.{k}")))?;
        }
        w.end_object();
        w.key("stats");
        w.begin_object();
        for (k, s) in &self.stats {
            w.key(k);
            w.begin_object();
            w.key("n");
            w.uint(s.n);
            for (field, value) in [
                ("mean", s.mean),
                ("sd", s.sd),
                ("min", s.min),
                ("max", s.max),
                ("sum", s.sum),
            ] {
                w.key(field);
                w.float(value)
                    .map_err(|e| e.at(format!("stats.{k}.{field}")))?;
            }
            for (field, q) in [
                ("p50", s.p50),
                ("p90", s.p90),
                ("p95", s.p95),
                ("p99", s.p99),
            ] {
                if let Some(q) = q {
                    w.key(field);
                    w.float(q).map_err(|e| e.at(format!("stats.{k}.{field}")))?;
                }
            }
            w.end_object();
        }
        w.end_object();
        w.end_object();
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut r = Report::new("exp_test");
        r.set_counter("tx_packets", 42);
        r.set_counter("rx_packets", 40);
        let mut latency = Summary::new();
        latency.record(0.5);
        latency.record(1.5);
        r.record_summary("latency_s", &latency);
        r.set_meta("mode", "full");
        r.set_scalar("delivered_frac", 0.95);
        let mut samples = Samples::new();
        for i in 0..100 {
            samples.record(i as f64);
        }
        r.record_samples("per_query_energy", &mut samples);
        r
    }

    #[test]
    fn report_holds_what_was_recorded() {
        let r = sample_report();
        assert_eq!(r.counters["tx_packets"], 42);
        assert_eq!(r.stats["latency_s"].n, 2);
        assert!((r.stats["latency_s"].mean - 1.0).abs() < 1e-12);
        assert_eq!(r.stats["per_query_energy"].p50, Some(49.5));
        let p95 = r.stats["per_query_energy"].p95.unwrap();
        assert!((p95 - 94.05).abs() < 1e-9, "p95 of 0..100: {p95}");
    }

    #[test]
    fn identical_reports_emit_identical_bytes() {
        let a = sample_report().to_json().unwrap();
        let b = sample_report().to_json().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn non_finite_scalar_is_rejected_with_path() {
        let mut r = Report::new("bad");
        r.set_scalar("rate", f64::NAN);
        let err = r.to_json().unwrap_err().to_string();
        assert!(err.contains("scalars.rate"), "unhelpful error: {err}");

        let mut r = Report::new("bad");
        r.set_scalar("rate", f64::INFINITY);
        assert!(r.to_json().is_err());
    }

    #[test]
    fn non_finite_stat_is_rejected() {
        let mut r = Report::new("bad");
        let mut s = Summary::new();
        s.record(1.0);
        r.record_summary("m", &s);
        r.stats.get_mut("m").unwrap().sd = f64::NEG_INFINITY;
        let err = r.to_json().unwrap_err().to_string();
        assert!(err.contains("stats.m.sd"), "unhelpful error: {err}");
    }

    #[test]
    fn empty_summary_snapshots_to_zeros() {
        let s = Summary::new();
        let stats = SummaryStats::from(&s);
        assert_eq!(stats, SummaryStats::default());
        // And serializes cleanly (no ±inf min/max leaking through).
        let mut r = Report::new("empty");
        r.record_summary("nothing", &s);
        assert!(r.to_json().is_ok());
    }
}
