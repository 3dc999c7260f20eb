//! Property tests for the arrival processes: seeded determinism (the
//! same seed replays the offered stream bit-identically) and statistical
//! sanity (the empirical Poisson rate converges to `rate_hz`).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_runtime::{ArrivalProcess, MetroConfig, MetroWorkload, PoissonArrivals, QueryOpts};
use pg_sim::{Duration, SimTime};
use propcheck::check;

fn mix() -> Vec<(String, QueryOpts)> {
    vec![
        (
            "SELECT AVG(temp) FROM sensors".to_string(),
            QueryOpts::default(),
        ),
        (
            "SELECT MAX(temp) FROM sensors".to_string(),
            QueryOpts::default().priority(1),
        ),
    ]
}

/// Drain a Poisson stream to a bit-exact fingerprint: nanosecond arrival
/// instants (`SimTime` is integer-backed, so equality is exact), text,
/// and priority.
fn fingerprint(seed: u64, rate_hz: f64, horizon_s: u64) -> Vec<(SimTime, String, u8)> {
    let mut p = PoissonArrivals::new(seed, rate_hz, SimTime::from_secs(horizon_s), mix());
    let mut out = Vec::new();
    while let Some(a) = p.next_arrival() {
        out.push((a.at, a.text, a.opts.priority));
    }
    out
}

/// Same seed ⇒ bit-identical stream; different seed ⇒ a different one.
#[test]
fn poisson_is_bit_identical_across_reruns() {
    check("poisson_is_bit_identical_across_reruns", 24, |g| {
        let seed = g.u64();
        let rate_scaled = g.range(1u32..200);
        let rate_hz = f64::from(rate_scaled) / 100.0; // 0.01..2.0 Hz
        let a = fingerprint(seed, rate_hz, 600);
        let b = fingerprint(seed, rate_hz, 600);
        assert_eq!(&a, &b);
        // A perturbed seed diverges (the rate keeps expected counts high
        // enough that identical streams would be a real failure).
        let c = fingerprint(seed.wrapping_add(1), rate_hz, 600);
        assert_ne!(&a, &c);
    });
}

/// Over a long horizon the empirical rate converges to `rate_hz`:
/// with n ≈ rate × horizon ≥ 2000 expected arrivals, a 10% relative
/// band is ~4.5σ wide — a false failure is vanishingly unlikely,
/// while a constant-factor bug in the gap distribution is certain to
/// trip it.
#[test]
fn poisson_empirical_rate_converges() {
    check("poisson_empirical_rate_converges", 24, |g| {
        let seed = g.u64();
        let rate_scaled = g.range(1u32..40);
        let rate_hz = f64::from(rate_scaled) / 10.0; // 0.1..4.0 Hz
        let horizon_s = (20_000.0 / rate_hz).ceil() as u64;
        let mut p = PoissonArrivals::new(seed, rate_hz, SimTime::from_secs(horizon_s), mix());
        let mut n = 0u64;
        while p.next_arrival().is_some() {
            n += 1;
        }
        let empirical = n as f64 / horizon_s as f64;
        assert!(
            (empirical - rate_hz).abs() <= 0.1 * rate_hz,
            "empirical {} vs configured {} over {} s",
            empirical,
            rate_hz,
            horizon_s
        );
    });
}

/// The metro population model replays bit-identically per seed too —
/// every stage (thinning, flash windows, sessions, class binding) is
/// driven by labelled streams off the one seed.
#[test]
fn metro_is_bit_identical_across_reruns() {
    check("metro_is_bit_identical_across_reruns", 24, |g| {
        let seed = g.u64();
        let cfg = || MetroConfig {
            users: 10_000,
            sessions_per_user_day: 0.5,
            day: Duration::from_secs(1200),
            horizon: SimTime::from_secs(1200),
            ..MetroConfig::default()
        };
        let drain = |seed: u64| {
            let mut w = MetroWorkload::new(seed, cfg());
            let mut out = Vec::new();
            while let Some(a) = w.next_arrival() {
                out.push((a.at, a.text, a.opts.priority));
            }
            out
        };
        assert_eq!(drain(seed), drain(seed));
    });
}
