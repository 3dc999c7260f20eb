//! Property-based tests for the stream-operator layer.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_sensornet::aggregate::{AggFn, ValueFilter, ValueOp};
use pg_sensornet::stream::{
    rate_optimal_filter_order, Chain, Filter, Sample, SlidingAgg, StreamOp, TumblingAgg,
};
use pg_sim::{Duration, SimTime};
use propcheck::check;

fn samples(times: &[u64], values: &[f64]) -> Vec<Sample> {
    let mut ts: Vec<u64> = times.to_vec();
    ts.sort_unstable();
    ts.iter()
        .zip(values.iter().cycle())
        .map(|(&t, &v)| Sample {
            at: SimTime::from_secs(t),
            value: v,
        })
        .collect()
}

/// A sliding COUNT never reports more samples than exist in the window
/// span, and never zero on a push.
#[test]
fn sliding_count_bounded() {
    check("sliding_count_bounded", 64, |g| {
        let times = g.vec(1..100, |g| g.range(0u64..10_000));
        let window = g.range(1u64..100);
        let mut op = SlidingAgg::new(AggFn::Count, Duration::from_secs(window));
        for s in samples(&times, &[1.0]) {
            let out = op.push(s);
            assert_eq!(out.len(), 1);
            let count = out[0].value as usize;
            assert!(count >= 1);
            assert!(count <= times.len());
        }
    });
}

/// Sliding AVG output always lies within the input value range.
#[test]
fn sliding_avg_within_range() {
    check("sliding_avg_within_range", 64, |g| {
        let times = g.vec(1..60, |g| g.range(0u64..1_000));
        let values = g.vec(1..60, |g| g.range(-1e4f64..1e4));
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut op = SlidingAgg::new(AggFn::Avg, Duration::from_secs(50));
        for s in samples(&times, &values) {
            for o in op.push(s) {
                assert!(o.value >= lo - 1e-9 && o.value <= hi + 1e-9);
            }
        }
    });
}

/// Tumbling windows partition the stream: every input sample is
/// represented in exactly one emitted window (COUNT conservation; the
/// still-open final window holds the remainder).
#[test]
fn tumbling_count_conserves_samples() {
    check("tumbling_count_conserves_samples", 64, |g| {
        let times = g.vec(1..120, |g| g.range(0u64..10_000));
        let window = g.range(1u64..500);
        let mut op = TumblingAgg::new(AggFn::Count, Duration::from_secs(window));
        let input = samples(&times, &[1.0]);
        let n = input.len();
        let mut emitted = 0.0;
        for s in input {
            for o in op.push(s) {
                emitted += o.value;
            }
        }
        assert!(emitted <= n as f64);
        // Whatever was not emitted is still in the open window; pushing a
        // far-future sample flushes it.
        let mut flush = op.push(Sample {
            at: SimTime::from_secs(1_000_000),
            value: 0.0,
        });
        if let Some(last) = flush.pop() {
            emitted += last.value;
        }
        assert_eq!(emitted, n as f64);
    });
}

/// Filters commute in output (same surviving multiset) regardless of
/// order, while rate-optimal ordering never costs more than any other
/// permutation of the same selectivities.
#[test]
fn filter_order_output_invariant_cost_optimal() {
    check("filter_order_output_invariant_cost_optimal", 64, |g| {
        let sels = g.vec(2..5, |g| g.range(0.01f64..1.0));
        let rate = g.range(1.0f64..1_000.0);
        let build = |order: &[usize]| {
            let mut c = Chain::new();
            for &i in order {
                c = c.then(Filter::new(format!("f{i}"), sels[i], |_| true).unwrap());
            }
            c
        };
        let optimal_order = rate_optimal_filter_order(&sels);
        let identity: Vec<usize> = (0..sels.len()).collect();
        let optimal_cost = build(&optimal_order).cost_rate(rate);
        let identity_cost = build(&identity).cost_rate(rate);
        assert!(optimal_cost <= identity_cost + 1e-9);
    });
}

/// ValueFilter conjunction is order-independent and monotone: adding a
/// clause can only shrink the accepted set.
#[test]
fn value_filter_monotone() {
    check("value_filter_monotone", 64, |g| {
        let xs = g.vec(1..50, |g| g.range(-100.0f64..100.0));
        let b1 = g.range(-50.0f64..50.0);
        let b2 = g.range(-50.0f64..50.0);
        let one = ValueFilter::all().and(ValueOp::Gt, b1);
        let two = one.clone().and(ValueOp::Le, b2);
        let flipped = ValueFilter::all().and(ValueOp::Le, b2).and(ValueOp::Gt, b1);
        for &x in &xs {
            assert_eq!(two.matches(x), flipped.matches(x));
            if two.matches(x) {
                assert!(one.matches(x), "conjunction must be a subset");
            }
        }
    });
}
