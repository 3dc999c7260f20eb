//! `pg-sim` — deterministic discrete-event simulation kernel.
//!
//! Every simulated subsystem of the pervasive grid (the wireless substrate in
//! `pg-net`, the sensor layer in `pg-sensornet`, the wired grid in `pg-grid`)
//! runs on this kernel. The design goals, in order:
//!
//! 1. **Determinism.** Given a master seed, a simulation run is bit-for-bit
//!    reproducible. Time is integer nanoseconds (no float drift), event ties
//!    are broken by an insertion sequence number (FIFO-stable), and all
//!    randomness flows through labelled [`rng::RngStreams`] forked from the
//!    master seed — never from ambient entropy.
//! 2. **Zero-surprise scheduling.** The queue is a plain binary heap keyed on
//!    `(time, seq)`; `O(log n)` push/pop, no timer wheels, no epsilon hacks.
//! 3. **Cheap measurement.** [`metrics`] provides counters, gauges and
//!    streaming summaries that experiments read out at the end of a run, and
//!    [`report`] snapshots them into machine-readable JSON reports that the
//!    experiment gate compares, byte for byte, with committed baselines.
//!
//! # Quick example
//!
//! ```
//! use pg_sim::{Scheduler, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_at(SimTime::from_secs(1), Ev::Ping(1));
//! sched.schedule_at(SimTime::from_secs(3), Ev::Ping(3));
//!
//! let mut seen = Vec::new();
//! while let Some((t, ev)) = sched.pop() {
//!     match ev { Ev::Ping(n) => seen.push((t.as_secs_f64(), n)) }
//! }
//! assert_eq!(seen, vec![(1.0, 1), (3.0, 3)]);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod fault;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod time;

mod queue;
mod runner;

pub use runner::{Model, Simulation};
pub use time::{Duration, SimTime};

use queue::Scheduled;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A future-event list: the classic DES pending-event set.
///
/// Events are ordered by `(time, sequence)` so that two events scheduled for
/// the same instant fire in the order they were scheduled. This is the
/// property that makes runs reproducible across platforms.
#[derive(Debug)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    now: SimTime,
    seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Create an empty scheduler with the clock at time zero.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (`at < self.now()`): scheduling into the
    /// past is always a logic error in a DES and silently clamping would hide
    /// it.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Schedule `event` after a relative delay from the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "heap yielded an event from the past");
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), "c");
        s.schedule_at(SimTime::from_secs(1), "a");
        s.schedule_at(SimTime::from_secs(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(2);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(250), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_millis(250));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(10), ());
        s.pop();
        s.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(4), "first");
        s.pop();
        s.schedule_in(Duration::from_secs(2), "second");
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(6));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(7), ());
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(s.now(), SimTime::ZERO);
    }
}
