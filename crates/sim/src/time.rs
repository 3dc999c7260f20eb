//! Integer-nanosecond simulation time.
//!
//! Simulated time is a `u64` count of nanoseconds since the start of the run
//! (~584 years of range — far beyond any network-lifetime experiment).
//! Integer time keeps event ordering exact: two events scheduled for "the
//! same" instant really are at the same instant, with no float rounding.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

const NANOS_PER_SEC: u64 = 1_000_000_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_MICRO: u64 = 1_000;

/// An absolute instant on the simulation clock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span between two [`SimTime`]s.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Instant `n` nanoseconds after the start of the run.
    pub const fn from_nanos(n: u64) -> Self {
        SimTime(n)
    }

    /// Instant `us` microseconds after the start of the run.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Instant `ms` milliseconds after the start of the run.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Instant `s` seconds after the start of the run.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Instant `s` (fractional) seconds after the start of the run.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Elapsed span since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> Duration {
        assert!(
            earlier <= self,
            "since() called with a later instant: {earlier:?} > {self:?}"
        );
        Duration(self.0 - earlier.0)
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Span of `n` nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        Duration(n)
    }

    /// Span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * NANOS_PER_MILLI)
    }

    /// Span of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * NANOS_PER_SEC)
    }

    /// Span of `s` (fractional) seconds.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        Duration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Multiply the span by an integer factor.
    pub const fn mul(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }

    /// Checked multiplication by a non-negative float factor (rounds).
    ///
    /// # Panics
    /// Panics on negative or non-finite factors.
    pub fn mul_f64(self, k: f64) -> Duration {
        assert!(k.is_finite() && k >= 0.0, "invalid factor: {k}");
        Duration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    /// `self + rhs`, clamped to [`SimTime::MAX`]: an instant ~584 years
    /// out, such as a deadline centuries away, is one the run never
    /// reaches, not an error.
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    /// `self + rhs`, clamped to `u64::MAX` nanoseconds (~584 years), as
    /// `SimTime + Duration` is; `+=` and `Sum` inherit the clamp.
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    // Durations are unsigned by design; a negative difference is a logic
    // error at the call site, so underflow fails fast.
    #[allow(clippy::expect_used)]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration underflow: rhs longer than lhs"),
        )
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2000));
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t, SimTime::from_millis(1250));
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + Duration::from_millis(500);
        assert_eq!(t.as_nanos(), 10_500_000_000);
        assert_eq!(t - SimTime::from_secs(10), Duration::from_millis(500));
        assert_eq!(
            Duration::from_secs(3) - Duration::from_secs(1),
            Duration::from_secs(2)
        );
        let far = Duration::from_nanos(u64::MAX);
        assert_eq!(SimTime::from_secs(1) + far, SimTime::MAX);
        assert_eq!(SimTime::MAX + Duration::from_nanos(1), SimTime::MAX);
        let mut end = SimTime::MAX;
        end += Duration::from_nanos(1);
        assert_eq!(end, SimTime::MAX);
        assert_eq!(far + Duration::from_nanos(1), far);
        let mut long = far;
        long += Duration::from_secs(1);
        assert_eq!(long, far);
        assert_eq!([far, far].into_iter().sum::<Duration>(), far);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn since_panics_on_reversed_args() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(Duration::from_secs(2).mul(3), Duration::from_secs(6));
        assert_eq!(
            Duration::from_secs(2).mul_f64(0.25),
            Duration::from_millis(500)
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = (1..=4).map(Duration::from_secs).sum();
        assert_eq!(total, Duration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs_f64(-0.5);
    }
}
