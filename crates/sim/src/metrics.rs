//! Lightweight measurement for simulation runs.
//!
//! Experiments need three things: event/byte **counters**, streaming
//! **summaries** of sampled quantities (latency, energy per query), and
//! simple cross-replication **statistics** (mean, stddev, percentiles).
//! Everything here is allocation-light and `f64`-based; nothing touches wall
//! clocks.

use std::collections::BTreeMap;
use std::fmt;

/// A streaming summary: count / sum / min / max / mean / variance (Welford).
///
/// `O(1)` per observation, no retained samples — use [`Samples`] when
/// percentiles are needed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Record one observation.
    ///
    /// # Panics
    /// Panics on NaN — a NaN observation always indicates an upstream bug
    /// and would silently poison every derived statistic.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.n += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean (`0` when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n-1 denominator; `0` with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.stddev(),
            self.min,
            self.max
        )
    }
}

/// A retained-sample collection for percentile queries.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    xs: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty collection.
    pub fn new() -> Self {
        Samples {
            xs: Vec::new(),
            sorted: true,
        }
    }

    /// Record one observation.
    ///
    /// # Panics
    /// Panics on NaN (same rationale as [`Summary::record`]).
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.xs.push(x);
        self.sorted = false;
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank with linear
    /// interpolation. Returns `None` when empty.
    ///
    /// # Panics
    /// Panics when `q` is outside `[0, 1]`.
    // `record` rejects non-finite samples, so NaN cannot reach the sort.
    #[allow(clippy::expect_used)]
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.xs.is_empty() {
            return None;
        }
        if !self.sorted {
            self.xs
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
            self.sorted = true;
        }
        let pos = q * (self.xs.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.xs[lo] * (1.0 - frac) + self.xs[hi] * frac)
    }

    /// Borrow the raw samples (unsorted order not guaranteed).
    pub fn raw(&self) -> &[f64] {
        &self.xs
    }
}

/// A registry of named counters and summaries for one simulation run.
///
/// Keys are `&'static str` by convention (metric names are code, not data);
/// a `BTreeMap` keeps report output deterministically ordered.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    summaries: BTreeMap<&'static str, Summary>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the counter `name` (creating it at zero).
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Read a counter (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record an observation into the summary `name`.
    pub fn observe(&mut self, name: &'static str, x: f64) {
        self.summaries.entry(name).or_default().record(x);
    }

    /// Read a summary (empty when never touched).
    pub fn summary(&self, name: &str) -> Summary {
        self.summaries.get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_stats() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert_eq!(s.quantile(0.5), Some(2.5));
        assert_eq!(s.quantile(1.0 / 3.0), Some(2.0));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(Samples::new().quantile(0.5), None);
    }

    #[test]
    fn metrics_registry_counts_and_observes() {
        let mut m = Metrics::new();
        m.count("tx", 3);
        m.count("tx", 2);
        m.observe("latency", 0.5);
        m.observe("latency", 1.5);
        assert_eq!(m.counter("tx"), 5);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.summary("latency").count(), 2);
        assert!((m.summary("latency").mean() - 1.0).abs() < 1e-12);
    }
}
