//! Property-based tests for the DES kernel invariants.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_sim::metrics::{Samples, Summary};
use pg_sim::rng::RngStreams;
use pg_sim::{Duration, Scheduler, SimTime};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    /// Events always pop in non-decreasing time order, and the clock is
    /// monotone, whatever the insertion order.
    #[test]
    fn pop_order_is_monotone(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = s.pop() {
            prop_assert!(t >= last);
            prop_assert_eq!(s.now(), t);
            last = t;
        }
    }

    /// Same-time events pop in insertion order (FIFO tie-break) even when
    /// interleaved with other times.
    #[test]
    fn fifo_among_equal_times(times in prop::collection::vec(0u64..50, 1..200)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), (t, i));
        }
        let mut last_seq_per_time = std::collections::HashMap::new();
        while let Some((_, (t, i))) = s.pop() {
            if let Some(&prev) = last_seq_per_time.get(&t) {
                prop_assert!(i > prev, "tie at t={} broke FIFO", t);
            }
            last_seq_per_time.insert(t, i);
        }
    }

    /// Every scheduled event is popped exactly once.
    #[test]
    fn no_events_lost_or_duplicated(times in prop::collection::vec(0u64..1000, 0..300)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut seen: Vec<usize> = std::iter::from_fn(|| s.pop()).map(|(_, i)| i).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
    }

    /// SimTime/Duration arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(t);
        let d = Duration::from_nanos(d);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Welford summary mean/variance agree with the naive two-pass formulas.
    #[test]
    fn summary_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..100)) {
        let mut s = Summary::new();
        xs.iter().for_each(|&x| s.record(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        let scale = 1.0 + mean.abs() + var.abs();
        prop_assert!((s.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((s.variance() - var).abs() / scale < 1e-6);
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..100),
                          qs in prop::collection::vec(0.0f64..=1.0, 2..10)) {
        let mut s = Samples::new();
        xs.iter().for_each(|&x| s.record(x));
        let mut qs = qs;
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for &q in &qs {
            let v = s.quantile(q).unwrap();
            prop_assert!(v >= prev - 1e-12);
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            prev = v;
        }
    }

    /// RNG streams: same label reproduces, different indices diverge.
    #[test]
    fn rng_streams_deterministic(seed in any::<u64>(), idx in 0u64..1000) {
        let f = RngStreams::new(seed);
        let a: u64 = f.fork_indexed("x", idx).gen();
        let b: u64 = f.fork_indexed("x", idx).gen();
        let c: u64 = f.fork_indexed("x", idx + 1).gen();
        prop_assert_eq!(a, b);
        prop_assert_ne!(a, c);
    }
}
