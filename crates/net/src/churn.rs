//! Service/node availability churn.
//!
//! §3: "Services may be coming up and going down frequently in those
//! environments … short-lived services which stay in the vicinity for a
//! finite amount of time and then disappear." A [`ChurnProcess`] is a
//! two-state (up/down) continuous-time process with exponentially
//! distributed sojourn times; [`ChurnSchedule`] pre-samples the toggle
//! timeline so callers can query availability at any instant
//! deterministically.

use crate::error::InvalidConfig;
use pg_sim::{Duration, SimTime};
use rand::Rng;

/// Parameters of an on/off availability process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProcess {
    /// Mean time a service stays up, seconds.
    pub mean_up_s: f64,
    /// Mean time a service stays down, seconds.
    pub mean_down_s: f64,
}

impl ChurnProcess {
    /// Construct, validating that both means are positive and finite.
    pub fn new(mean_up_s: f64, mean_down_s: f64) -> Result<Self, InvalidConfig> {
        let valid = |x: f64| x.is_finite() && x > 0.0;
        if !valid(mean_up_s) || !valid(mean_down_s) {
            return Err(InvalidConfig(format!(
                "churn sojourn means must be positive and finite \
                 (up {mean_up_s}, down {mean_down_s})"
            )));
        }
        Ok(ChurnProcess {
            mean_up_s,
            mean_down_s,
        })
    }

    /// Long-run fraction of time the service is up.
    pub fn availability(&self) -> f64 {
        self.mean_up_s / (self.mean_up_s + self.mean_down_s)
    }

    /// Sample an exponential sojourn with the given mean.
    fn sample_exp<R: Rng>(mean: f64, rng: &mut R) -> f64 {
        // Inverse CDF; 1 - U avoids ln(0).
        -mean * (1.0 - rng.gen::<f64>()).ln()
    }

    /// Pre-sample the availability timeline from `t = 0` to `horizon`.
    /// The service starts up with probability equal to its long-run
    /// availability (stationary start).
    pub fn schedule<R: Rng>(&self, horizon: SimTime, rng: &mut R) -> ChurnSchedule {
        let mut up = rng.gen::<f64>() < self.availability();
        let initial_up = up;
        let mut t = 0.0;
        let horizon_s = horizon.as_secs_f64();
        let mut toggles = Vec::new();
        loop {
            let mean = if up { self.mean_up_s } else { self.mean_down_s };
            t += Self::sample_exp(mean, rng);
            if t >= horizon_s {
                break;
            }
            up = !up;
            toggles.push(SimTime::from_secs_f64(t));
        }
        ChurnSchedule {
            initial_up,
            toggles,
        }
    }
}

/// A sampled availability timeline: the state flips at each toggle instant.
#[derive(Debug, Clone)]
pub struct ChurnSchedule {
    initial_up: bool,
    toggles: Vec<SimTime>,
}

impl ChurnSchedule {
    /// A schedule that is always up (for baseline fixed-grid services).
    pub fn always_up() -> Self {
        ChurnSchedule {
            initial_up: true,
            toggles: Vec::new(),
        }
    }

    /// Build a schedule from an explicit sorted toggle list (tests and
    /// hand-crafted scenarios). Rejects toggle lists that are not strictly
    /// ascending.
    pub fn from_toggles(initial_up: bool, toggles: Vec<SimTime>) -> Result<Self, InvalidConfig> {
        if !toggles.windows(2).all(|w| w[0] < w[1]) {
            return Err(InvalidConfig::new(
                "churn toggles must be strictly ascending",
            ));
        }
        Ok(ChurnSchedule {
            initial_up,
            toggles,
        })
    }

    /// Is the service up at instant `t`?
    pub fn is_up(&self, t: SimTime) -> bool {
        // Toggles are sorted; count how many occurred at or before t.
        let flips = self.toggles.partition_point(|&x| x <= t);
        self.initial_up ^ (flips % 2 == 1)
    }

    /// The toggle instants (sorted ascending).
    pub fn toggles(&self) -> &[SimTime] {
        &self.toggles
    }

    /// Earliest instant `>= t` at which the service is up: `t` itself when
    /// already up, otherwise the next toggle (states alternate, so the next
    /// toggle after a down period brings the service back). `None` when the
    /// service never comes back within the sampled horizon.
    pub fn next_up_at(&self, t: SimTime) -> Option<SimTime> {
        if self.is_up(t) {
            return Some(t);
        }
        self.toggles.iter().copied().find(|&x| x > t)
    }

    /// Does the service stay up throughout `[start, start + span]`?
    pub fn up_throughout(&self, start: SimTime, span: Duration) -> bool {
        if !self.is_up(start) {
            return false;
        }
        let end = start + span;
        // Any toggle strictly inside the window takes the service down.
        let lo = self.toggles.partition_point(|&x| x <= start);
        let hi = self.toggles.partition_point(|&x| x <= end);
        lo == hi
    }

    /// Fraction of `[0, horizon]` the service is up.
    pub fn uptime_fraction(&self, horizon: SimTime) -> f64 {
        let mut up = self.initial_up;
        let mut t = SimTime::ZERO;
        let mut up_time = Duration::ZERO;
        for &tog in &self.toggles {
            if tog > horizon {
                break;
            }
            if up {
                up_time += tog - t;
            }
            t = tog;
            up = !up;
        }
        if up && horizon > t {
            up_time += horizon - t;
        }
        up_time.as_secs_f64() / horizon.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn availability_formula() {
        let p = ChurnProcess::new(90.0, 10.0).unwrap();
        assert!((p.availability() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn bad_parameters_are_rejected_not_panicked() {
        assert!(ChurnProcess::new(0.0, 10.0).is_err());
        assert!(ChurnProcess::new(10.0, -1.0).is_err());
        assert!(ChurnProcess::new(f64::NAN, 1.0).is_err());
        assert!(ChurnSchedule::from_toggles(
            true,
            vec![SimTime::from_secs(5), SimTime::from_secs(5)]
        )
        .is_err());
    }

    #[test]
    fn empirical_uptime_matches_availability() {
        let p = ChurnProcess::new(60.0, 30.0).unwrap();
        let horizon = SimTime::from_secs(500_000);
        let mut rng = StdRng::seed_from_u64(21);
        let mut total = 0.0;
        for _ in 0..10 {
            total += p.schedule(horizon, &mut rng).uptime_fraction(horizon);
        }
        let mean = total / 10.0;
        assert!(
            (mean - 2.0 / 3.0).abs() < 0.03,
            "empirical uptime {mean} vs expected 0.667"
        );
    }

    #[test]
    fn is_up_flips_at_toggles() {
        let s = ChurnSchedule {
            initial_up: true,
            toggles: vec![SimTime::from_secs(10), SimTime::from_secs(20)],
        };
        assert!(s.is_up(SimTime::from_secs(5)));
        assert!(!s.is_up(SimTime::from_secs(15)));
        assert!(s.is_up(SimTime::from_secs(25)));
    }

    #[test]
    fn up_throughout_detects_mid_window_toggle() {
        let s = ChurnSchedule {
            initial_up: true,
            toggles: vec![SimTime::from_secs(10)],
        };
        assert!(s.up_throughout(SimTime::from_secs(2), Duration::from_secs(5)));
        assert!(!s.up_throughout(SimTime::from_secs(8), Duration::from_secs(5)));
        assert!(!s.up_throughout(SimTime::from_secs(12), Duration::from_secs(1)));
    }

    #[test]
    fn always_up_never_fails() {
        let s = ChurnSchedule::always_up();
        assert!(s.is_up(SimTime::from_secs(1_000_000)));
        assert!(s.up_throughout(SimTime::ZERO, Duration::from_secs(1_000_000)));
        assert_eq!(s.uptime_fraction(SimTime::from_secs(100)), 1.0);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let p = ChurnProcess::new(10.0, 5.0).unwrap();
        let h = SimTime::from_secs(1_000);
        let a = p.schedule(h, &mut StdRng::seed_from_u64(3));
        let b = p.schedule(h, &mut StdRng::seed_from_u64(3));
        assert_eq!(a.toggles(), b.toggles());
    }

    #[test]
    fn uptime_fraction_of_always_down_tail() {
        // Starts up, goes down at t=50, never returns within horizon 100.
        let s = ChurnSchedule {
            initial_up: true,
            toggles: vec![SimTime::from_secs(50)],
        };
        assert!((s.uptime_fraction(SimTime::from_secs(100)) - 0.5).abs() < 1e-12);
    }
}
