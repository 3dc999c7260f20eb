//! Push-based stream operators over sensor data.
//!
//! §4's Continuous/Windowed query class needs "non-blocking and windowed
//! operators over streaming data" (the Fjords architecture \[20\] the paper
//! builds on). This module provides push-based operators composed into
//! chains, plus the **rate-based** cost model of Viglas & Naughton \[28\]:
//! "fundamental statistics used are estimates of the *rates* of the streams
//! in the query evaluation tree rather than the sizes of intermediate
//! results."
//!
//! Operators are deliberately allocation-light: ring buffers for windows,
//! no boxing per sample.

use crate::aggregate::{AggFn, Partial};
use pg_sim::{Duration, SimTime};
use std::collections::VecDeque;

/// One timestamped sample flowing through an operator chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the reading was taken.
    pub at: SimTime,
    /// The value.
    pub value: f64,
}

/// A push-based, non-blocking stream operator.
pub trait StreamOp {
    /// Push one sample; zero or more samples come out.
    fn push(&mut self, s: Sample) -> Vec<Sample>;

    /// Expected output rate given an input rate (samples/second) — the
    /// Viglas-Naughton statistic used to cost operator chains.
    fn output_rate(&self, input_rate: f64) -> f64;

    /// Operator name for plans and reports.
    fn name(&self) -> String;
}

/// Filter: passes samples whose value satisfies `predicate`; its
/// selectivity drives the rate model.
pub struct Filter<F: Fn(f64) -> bool> {
    predicate: F,
    /// Assumed fraction of samples passing (for rate estimates).
    pub selectivity: f64,
    label: String,
}

impl<F: Fn(f64) -> bool> Filter<F> {
    /// A filter with an assumed selectivity in `[0, 1]`.
    ///
    /// # Errors
    /// Rejects a selectivity outside `[0, 1]` (including NaN).
    pub fn new(
        label: impl Into<String>,
        selectivity: f64,
        predicate: F,
    ) -> Result<Self, pg_net::InvalidConfig> {
        if !(0.0..=1.0).contains(&selectivity) {
            return Err(pg_net::InvalidConfig::new(format!(
                "selectivity out of range: {selectivity}"
            )));
        }
        Ok(Filter {
            predicate,
            selectivity,
            label: label.into(),
        })
    }
}

impl<F: Fn(f64) -> bool> StreamOp for Filter<F> {
    fn push(&mut self, s: Sample) -> Vec<Sample> {
        if (self.predicate)(s.value) {
            vec![s]
        } else {
            Vec::new()
        }
    }

    fn output_rate(&self, input_rate: f64) -> f64 {
        input_rate * self.selectivity
    }

    fn name(&self) -> String {
        format!("filter({})", self.label)
    }
}

/// Sliding-window aggregate: emits the aggregate of the last `window` of
/// time on every input sample (non-blocking — never waits for a window to
/// "close").
pub struct SlidingAgg {
    agg: AggFn,
    window: Duration,
    buf: VecDeque<Sample>,
}

impl SlidingAgg {
    /// A sliding aggregate over `window`.
    pub fn new(agg: AggFn, window: Duration) -> Self {
        SlidingAgg {
            agg,
            window,
            buf: VecDeque::new(),
        }
    }
}

impl StreamOp for SlidingAgg {
    fn push(&mut self, s: Sample) -> Vec<Sample> {
        self.buf.push_back(s);
        // Evict samples older than the window.
        while let Some(front) = self.buf.front() {
            if s.at.since(front.at) > self.window {
                self.buf.pop_front();
            } else {
                break;
            }
        }
        let mut p = Partial::empty();
        for q in &self.buf {
            p.add(q.value);
        }
        match p.finalize(self.agg) {
            Some(v) => vec![Sample { at: s.at, value: v }],
            None => Vec::new(),
        }
    }

    fn output_rate(&self, input_rate: f64) -> f64 {
        input_rate // one output per input
    }

    fn name(&self) -> String {
        format!("sliding_{}({})", self.agg.name(), self.window)
    }
}

/// Tumbling-window aggregate: emits one aggregate per non-overlapping
/// window — the rate-reducing operator in-network pipelines rely on.
pub struct TumblingAgg {
    agg: AggFn,
    window: Duration,
    current: Partial,
    window_end: Option<SimTime>,
}

impl TumblingAgg {
    /// A tumbling aggregate over `window`.
    pub fn new(agg: AggFn, window: Duration) -> Self {
        TumblingAgg {
            agg,
            window,
            current: Partial::empty(),
            window_end: None,
        }
    }
}

impl StreamOp for TumblingAgg {
    fn push(&mut self, s: Sample) -> Vec<Sample> {
        let end = *self.window_end.get_or_insert(s.at + self.window);
        if s.at < end {
            self.current.add(s.value);
            return Vec::new();
        }
        // Close the window, emit, and open the next one containing s.
        let out = self
            .current
            .finalize(self.agg)
            .map(|v| Sample { at: end, value: v });
        let mut next_end = end;
        while s.at >= next_end {
            next_end += self.window;
        }
        self.window_end = Some(next_end);
        self.current = Partial::of(s.value);
        out.into_iter().collect()
    }

    fn output_rate(&self, _input_rate: f64) -> f64 {
        1.0 / self.window.as_secs_f64()
    }

    fn name(&self) -> String {
        format!("tumbling_{}({})", self.agg.name(), self.window)
    }
}

/// Threshold alarm: emits only on upward crossings (the "alert experts"
/// pattern of the paper's health-monitoring scenario).
pub struct ThresholdAlarm {
    threshold: f64,
    above: bool,
    /// Assumed crossing rate as a fraction of input rate (for estimates).
    pub crossing_fraction: f64,
}

impl ThresholdAlarm {
    /// An alarm firing when the value first exceeds `threshold`.
    pub fn new(threshold: f64) -> Self {
        ThresholdAlarm {
            threshold,
            above: false,
            crossing_fraction: 0.01,
        }
    }
}

impl StreamOp for ThresholdAlarm {
    fn push(&mut self, s: Sample) -> Vec<Sample> {
        let was_above = self.above;
        self.above = s.value > self.threshold;
        if self.above && !was_above {
            vec![s]
        } else {
            Vec::new()
        }
    }

    fn output_rate(&self, input_rate: f64) -> f64 {
        input_rate * self.crossing_fraction
    }

    fn name(&self) -> String {
        format!("alarm(>{})", self.threshold)
    }
}

/// A chain of operators: each output feeds the next.
#[derive(Default)]
pub struct Chain {
    ops: Vec<Box<dyn StreamOp>>,
}

impl Chain {
    /// An empty chain (identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an operator.
    pub fn then(mut self, op: impl StreamOp + 'static) -> Self {
        self.ops.push(Box::new(op));
        self
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the chain empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Push one sample through the whole chain.
    pub fn push(&mut self, s: Sample) -> Vec<Sample> {
        let mut batch = vec![s];
        for op in &mut self.ops {
            let mut next = Vec::new();
            for x in batch {
                next.extend(op.push(x));
            }
            if next.is_empty() {
                return next;
            }
            batch = next;
        }
        batch
    }

    /// Rate profile through the chain: the stream rate after each operator,
    /// starting from `input_rate` (the Viglas-Naughton evaluation-tree
    /// statistic).
    pub fn rate_profile(&self, input_rate: f64) -> Vec<f64> {
        let mut rates = Vec::with_capacity(self.ops.len() + 1);
        let mut r = input_rate;
        rates.push(r);
        for op in &self.ops {
            r = op.output_rate(r);
            rates.push(r);
        }
        rates
    }

    /// Total processing cost rate of the chain: each operator pays
    /// per-sample work proportional to its *input* rate. This is what
    /// rate-based optimization minimizes when ordering operators.
    pub fn cost_rate(&self, input_rate: f64) -> f64 {
        let profile = self.rate_profile(input_rate);
        profile[..profile.len() - 1].iter().sum()
    }
}

/// Rate-based operator ordering: given per-operator selectivities for
/// commuting filters, the cost-minimizing order is ascending selectivity
/// (drop the most data first). Returns the ordering of indices.
pub fn rate_optimal_filter_order(selectivities: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..selectivities.len()).collect();
    idx.sort_by(|&a, &b| selectivities[a].total_cmp(&selectivities[b]));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(at_s: u64, v: f64) -> Sample {
        Sample {
            at: SimTime::from_secs(at_s),
            value: v,
        }
    }

    #[test]
    fn filter_passes_and_drops() {
        let mut f = Filter::new("hot", 0.5, |v| v > 100.0).unwrap();
        assert_eq!(f.push(s(0, 150.0)), vec![s(0, 150.0)]);
        assert!(f.push(s(1, 50.0)).is_empty());
        assert_eq!(f.output_rate(10.0), 5.0);
    }

    #[test]
    fn sliding_agg_tracks_the_window() {
        let mut w = SlidingAgg::new(AggFn::Avg, Duration::from_secs(10));
        assert_eq!(w.push(s(0, 10.0))[0].value, 10.0);
        assert_eq!(w.push(s(5, 20.0))[0].value, 15.0);
        // t=20: the t=0 and t=5 samples have left the 10 s window.
        assert_eq!(w.push(s(20, 40.0))[0].value, 40.0);
    }

    #[test]
    fn sliding_window_keeps_boundary_sample() {
        let mut w = SlidingAgg::new(AggFn::Count, Duration::from_secs(10));
        w.push(s(0, 1.0));
        // Exactly 10 s later: the old sample is still inside (inclusive).
        let out = w.push(s(10, 1.0));
        assert_eq!(out[0].value, 2.0);
    }

    #[test]
    fn tumbling_agg_emits_once_per_window() {
        let mut w = TumblingAgg::new(AggFn::Max, Duration::from_secs(10));
        assert!(w.push(s(0, 5.0)).is_empty());
        assert!(w.push(s(3, 9.0)).is_empty());
        assert!(w.push(s(7, 2.0)).is_empty());
        let out = w.push(s(12, 1.0)); // crosses the boundary at t=10
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 9.0);
        assert_eq!(out[0].at, SimTime::from_secs(10));
        // Its own value opened the next window.
        let out = w.push(s(21, 0.0));
        assert_eq!(out[0].value, 1.0);
    }

    #[test]
    fn tumbling_skips_empty_windows() {
        let mut w = TumblingAgg::new(AggFn::Sum, Duration::from_secs(10));
        w.push(s(0, 3.0));
        // A long gap: the emitted window is [0, 10); the sample at t=55
        // opens a window ending at 60.
        let out = w.push(s(55, 7.0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 3.0);
        let out = w.push(s(61, 0.0));
        assert_eq!(out[0].value, 7.0);
        assert_eq!(out[0].at, SimTime::from_secs(60));
    }

    #[test]
    fn alarm_fires_on_upward_crossings_only() {
        let mut a = ThresholdAlarm::new(100.0);
        assert!(a.push(s(0, 50.0)).is_empty());
        assert_eq!(a.push(s(1, 150.0)).len(), 1); // crossing up
        assert!(a.push(s(2, 180.0)).is_empty()); // still above: silent
        assert!(a.push(s(3, 90.0)).is_empty()); // down: silent
        assert_eq!(a.push(s(4, 120.0)).len(), 1); // up again
    }

    #[test]
    fn chain_composes_and_profiles_rates() {
        let mut chain = Chain::new()
            .then(Filter::new("hot", 0.2, |v| v > 100.0).unwrap())
            .then(SlidingAgg::new(AggFn::Avg, Duration::from_secs(30)))
            .then(ThresholdAlarm::new(150.0));
        assert_eq!(chain.len(), 3);
        // Cold samples die at the filter.
        assert!(chain.push(s(0, 20.0)).is_empty());
        // A hot burst: the sliding average crosses 150 once.
        let mut alarms = 0;
        for (t, v) in [(1, 160.0), (2, 170.0), (3, 180.0)] {
            alarms += chain.push(s(t, v)).len();
        }
        assert_eq!(alarms, 1);

        let profile = chain.rate_profile(10.0);
        assert_eq!(profile.len(), 4);
        assert_eq!(profile[0], 10.0);
        assert_eq!(profile[1], 2.0); // after the 0.2-selectivity filter
        assert_eq!(profile[2], 2.0); // sliding: rate-preserving
        assert!((profile[3] - 0.02).abs() < 1e-12);
        assert_eq!(chain.cost_rate(10.0), 10.0 + 2.0 + 2.0);
    }

    #[test]
    fn tumbling_rate_is_input_independent() {
        let w = TumblingAgg::new(AggFn::Avg, Duration::from_secs(5));
        assert_eq!(w.output_rate(1.0), 0.2);
        assert_eq!(w.output_rate(1_000.0), 0.2);
    }

    #[test]
    fn rate_optimal_order_is_ascending_selectivity() {
        assert_eq!(rate_optimal_filter_order(&[0.9, 0.1, 0.5]), vec![1, 2, 0]);
        // And it genuinely minimizes chain cost: compare both orders.
        let cheap_first = Chain::new()
            .then(Filter::new("a", 0.1, |_| true).unwrap())
            .then(Filter::new("b", 0.9, |_| true).unwrap());
        let dear_first = Chain::new()
            .then(Filter::new("b", 0.9, |_| true).unwrap())
            .then(Filter::new("a", 0.1, |_| true).unwrap());
        assert!(cheap_first.cost_rate(100.0) < dear_first.cost_rate(100.0));
    }
}
