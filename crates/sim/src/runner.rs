//! Generic run loop: a [`Model`] plus a [`crate::Scheduler`] makes a
//! [`Simulation`].
//!
//! The kernel stays single-threaded by design: a DES over a shared mutable
//! world gains nothing from parallel event dispatch (events are causally
//! ordered), and single-threaded dispatch is what keeps runs deterministic.
//! The rest of the workspace follows suit: the grid-side numerical kernels
//! (`pg-grid`) and the experiment sweeps (`pg-bench`) run on the calling
//! thread too, and the grid's parallelism is a simulated quantity
//! (`pg_grid::sched`).

use crate::time::SimTime;
use crate::Scheduler;

/// A run loop that processes this many events in one [`Simulation::run`]
/// or [`Simulation::run_until`] call has a model stuck in a zero-delay loop.
const EVENT_BUDGET: u64 = 500_000_000;

/// A simulation model: owns the world state and handles events.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handle one event at time `now`. New events may be scheduled on
    /// `sched`; the clock has already advanced to `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// A scheduler bound to a model, with a run loop.
#[derive(Debug)]
pub struct Simulation<M: Model> {
    /// The model (world state). Public so setups can wire initial state.
    pub model: M,
    /// The pending-event set. Public so setups can seed initial events.
    pub sched: Scheduler<M::Event>,
}

impl<M: Model> Simulation<M> {
    /// Bind `model` to a fresh scheduler.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            sched: Scheduler::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Run until the queue drains.
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Run for at most `horizon` of simulated time from `t = 0`.
    ///
    /// Events with timestamps beyond the horizon are left pending; the clock
    /// is *not* advanced past the last processed event.
    ///
    /// # Panics
    /// Panics, with the clock, when one call processes 500 M events: a
    /// model that keeps scheduling at zero delay never drains.
    // The loop condition just peeked an event and nothing runs in between,
    // so `pop` cannot come back empty.
    #[allow(clippy::expect_used)]
    pub fn run_until(&mut self, horizon: SimTime) {
        let mut processed = 0u64;
        while self.sched.peek_time().is_some_and(|t| t <= horizon) {
            assert!(
                processed < EVENT_BUDGET,
                "event budget of {EVENT_BUDGET} exhausted at {:?}: a runaway model",
                self.sched.now()
            );
            let (now, ev) = self.sched.pop().expect("peeked event vanished");
            processed += 1;
            self.model.handle(now, ev, &mut self.sched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// A birth-death toy model: each `Tick(n)` schedules `n` children one
    /// second later with `n - 1`, counting total ticks.
    struct Cascade {
        ticks: u64,
    }

    enum Ev {
        Tick(u32),
    }

    impl Model for Cascade {
        type Event = Ev;
        fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            let Ev::Tick(n) = ev;
            self.ticks += 1;
            for _ in 0..n {
                sched.schedule_in(Duration::from_secs(1), Ev::Tick(n - 1));
            }
        }
    }

    fn cascade() -> Simulation<Cascade> {
        let mut sim = Simulation::new(Cascade { ticks: 0 });
        sim.sched.schedule_at(SimTime::ZERO, Ev::Tick(3));
        sim
    }

    #[test]
    fn drains_queue() {
        let mut sim = cascade();
        sim.run();
        // 1 + 3 + 3*2 + 3*2*1 = 16 ticks.
        assert_eq!(sim.model.ticks, 16);
        assert_eq!(sim.sched.peek_time(), None);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn horizon_leaves_future_events_pending() {
        let mut sim = cascade();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.model.ticks, 4); // root + 3 children at t=1
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(sim.sched.peek_time(), Some(SimTime::from_secs(2)));
        // Resuming completes the run.
        sim.run();
        assert_eq!(sim.model.ticks, 16);
        assert_eq!(sim.sched.peek_time(), None);
    }
}
