//! Property-based tests for the DES kernel invariants.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_sim::metrics::{Samples, Summary};
use pg_sim::rng::RngStreams;
use pg_sim::{Duration, Scheduler, SimTime};
use propcheck::check;
use rand::Rng;

/// Events always pop in non-decreasing time order, and the clock is
/// monotone, whatever the insertion order.
#[test]
fn pop_order_is_monotone() {
    check("pop_order_is_monotone", 64, |g| {
        let times = g.vec(1..200, |g| g.range(0..1_000_000u64));
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = s.pop() {
            assert!(t >= last);
            assert_eq!(s.now(), t);
            last = t;
        }
    });
}

/// Same-time events pop in insertion order (FIFO tie-break) even when
/// interleaved with other times.
#[test]
fn fifo_among_equal_times() {
    check("fifo_among_equal_times", 64, |g| {
        let times = g.vec(1..200, |g| g.range(0..50u64));
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), (t, i));
        }
        let mut last_seq_per_time = std::collections::HashMap::new();
        while let Some((_, (t, i))) = s.pop() {
            if let Some(&prev) = last_seq_per_time.get(&t) {
                assert!(i > prev, "tie at t={} broke FIFO", t);
            }
            last_seq_per_time.insert(t, i);
        }
    });
}

/// Every scheduled event is popped exactly once.
#[test]
fn no_events_lost_or_duplicated() {
    check("no_events_lost_or_duplicated", 64, |g| {
        let times = g.vec(0..300, |g| g.range(0..1000u64));
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut seen: Vec<usize> = std::iter::from_fn(|| s.pop()).map(|(_, i)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
    });
}

/// SimTime/Duration arithmetic is consistent: (t + d) - t == d.
#[test]
fn time_add_sub_roundtrip() {
    check("time_add_sub_roundtrip", 64, |g| {
        let t = SimTime::from_nanos(g.range(0..u64::MAX / 4));
        let d = Duration::from_nanos(g.range(0..u64::MAX / 4));
        assert_eq!((t + d) - t, d);
    });
}

/// Welford summary mean/variance agree with the naive two-pass formulas.
#[test]
fn summary_matches_two_pass() {
    check("summary_matches_two_pass", 64, |g| {
        let xs = g.vec(2..100, |g| g.range(-1e6..1e6));
        let mut s = Summary::new();
        xs.iter().for_each(|&x| s.record(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        let scale = 1.0 + mean.abs() + var.abs();
        assert!((s.mean() - mean).abs() / scale < 1e-9);
        assert!((s.variance() - var).abs() / scale < 1e-6);
    });
}

/// Quantiles are monotone in q and bounded by min/max.
#[test]
fn quantiles_monotone() {
    check("quantiles_monotone", 64, |g| {
        let xs = g.vec(1..100, |g| g.range(-1e6..1e6));
        let mut qs = g.vec(2..10, |g| g.range(0.0..=1.0));
        let mut s = Samples::new();
        xs.iter().for_each(|&x| s.record(x));
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for &q in &qs {
            let v = s.quantile(q).unwrap();
            assert!(v >= prev - 1e-12);
            assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            prev = v;
        }
    });
}

/// RNG streams: same label reproduces, different indices diverge.
#[test]
fn rng_streams_deterministic() {
    check("rng_streams_deterministic", 64, |g| {
        let (seed, idx) = (g.u64(), g.range(0..1000u64));
        let f = RngStreams::new(seed);
        let a: u64 = f.fork_indexed("x", idx).gen();
        let b: u64 = f.fork_indexed("x", idx).gen();
        let c: u64 = f.fork_indexed("x", idx + 1).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    });
}
