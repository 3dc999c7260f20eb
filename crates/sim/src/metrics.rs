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
/// percentiles are needed. A NaN is not an observation: it is dropped, so
/// one upstream NaN cannot poison every derived statistic, and `count`
/// shows it was never recorded.
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

    /// Record one observation; a NaN is dropped.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
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

    /// Record one observation; a NaN is dropped, as by
    /// [`Summary::record`].
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.xs.push(x);
        self.sorted = false;
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The `q`-quantile by nearest-rank with linear interpolation, `q`
    /// clamped to `[0, 1]`. Returns `None` when empty or when `q` is NaN.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.xs.is_empty() || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if !self.sorted {
            self.xs.sort_by(f64::total_cmp);
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
    fn summary_drops_nan() {
        let mut s = Summary::new();
        s.record(1.0);
        s.record(f64::NAN);
        s.record(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!((s.sum(), s.mean(), s.min(), s.max()), (4.0, 2.0, 1.0, 3.0));
    }

    #[test]
    fn samples_drop_nan() {
        let mut s = Samples::new();
        s.record(f64::NAN);
        assert!(s.is_empty());
        s.record(2.0);
        s.record(f64::NAN);
        assert_eq!(s.raw(), &[2.0]);
        assert_eq!(s.quantile(0.5), Some(2.0));
    }

    #[test]
    fn quantile_clamps_q() {
        let mut s = Samples::new();
        for x in [1.0, 2.0, 3.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(-0.5), Some(1.0));
        assert_eq!(s.quantile(7.0), Some(3.0));
        assert_eq!(s.quantile(f64::INFINITY), Some(3.0));
        assert_eq!(s.quantile(f64::NAN), None);
    }

    /// The sort is total (`f64::total_cmp`): signed zeros and extremes
    /// order without a comparator that can fail.
    #[test]
    fn quantile_sorts_with_a_total_order() {
        let mut s = Samples::new();
        for x in [f64::MAX, 0.0, -0.0, f64::MIN, 5.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.0), Some(f64::MIN));
        assert_eq!(s.quantile(0.75), Some(5.0));
        assert_eq!(s.quantile(1.0), Some(f64::MAX));
        let sorted: Vec<u64> = s.raw().iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = [f64::MIN, -0.0, 0.0, 5.0, f64::MAX]
            .map(f64::to_bits)
            .to_vec();
        assert_eq!(sorted, want);
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
