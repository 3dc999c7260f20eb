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

/// A simulation model: owns the world state and handles events.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handle one event at time `now`. New events may be scheduled on
    /// `sched`; the clock has already advanced to `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);

    /// Return `true` to stop the run before the event queue drains
    /// (checked after each event). Default: never stop early.
    fn finished(&self, _now: SimTime) -> bool {
        false
    }
}

/// Why a [`Simulation::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained.
    QueueDrained,
    /// The model's [`Model::finished`] predicate fired.
    ModelFinished,
    /// The time horizon passed (events beyond it remain pending).
    HorizonReached,
    /// The event budget was exhausted (likely a runaway model).
    EventBudgetExhausted,
}

/// A scheduler bound to a model, with a run loop.
#[derive(Debug)]
pub struct Simulation<M: Model> {
    /// The model (world state). Public so setups can wire initial state.
    pub model: M,
    /// The pending-event set. Public so setups can seed initial events.
    pub sched: Scheduler<M::Event>,
    events_processed: u64,
    event_budget: u64,
}

impl<M: Model> Simulation<M> {
    /// Bind `model` to a fresh scheduler.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            sched: Scheduler::new(),
            events_processed: 0,
            // Generous default: experiments that legitimately need more can
            // raise it; a model stuck in a zero-delay loop trips it fast.
            event_budget: 500_000_000,
        }
    }

    /// Cap the total number of events processed across all `run*` calls.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Run until the queue drains or the model reports finished.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Run for at most `horizon` of simulated time from `t = 0`.
    ///
    /// Events with timestamps beyond the horizon are left pending; the clock
    /// is *not* advanced past the last processed event.
    // `peek_time` returned Some just above and nothing runs in between,
    // so `pop` cannot come back empty.
    #[allow(clippy::expect_used)]
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.model.finished(self.sched.now()) {
                return RunOutcome::ModelFinished;
            }
            match self.sched.peek_time() {
                None => return RunOutcome::QueueDrained,
                Some(t) if t > horizon => return RunOutcome::HorizonReached,
                Some(_) => {}
            }
            if self.events_processed >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            let (now, ev) = self.sched.pop().expect("peeked event vanished");
            self.events_processed += 1;
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
        stop_after: Option<u64>,
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
        fn finished(&self, _now: SimTime) -> bool {
            self.stop_after.is_some_and(|k| self.ticks >= k)
        }
    }

    fn cascade(stop_after: Option<u64>) -> Simulation<Cascade> {
        let mut sim = Simulation::new(Cascade {
            ticks: 0,
            stop_after,
        });
        sim.sched.schedule_at(SimTime::ZERO, Ev::Tick(3));
        sim
    }

    #[test]
    fn drains_queue() {
        let mut sim = cascade(None);
        assert_eq!(sim.run(), RunOutcome::QueueDrained);
        // 1 + 3 + 3*2 + 3*2*1 = 16 ticks.
        assert_eq!(sim.model.ticks, 16);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn model_finished_stops_early() {
        let mut sim = cascade(Some(5));
        assert_eq!(sim.run(), RunOutcome::ModelFinished);
        assert_eq!(sim.model.ticks, 5);
    }

    #[test]
    fn horizon_leaves_future_events_pending() {
        let mut sim = cascade(None);
        assert_eq!(
            sim.run_until(SimTime::from_secs(1)),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.model.ticks, 4); // root + 3 children at t=1
        assert!(sim.sched.pending() > 0);
        // Resuming completes the run.
        assert_eq!(sim.run(), RunOutcome::QueueDrained);
        assert_eq!(sim.model.ticks, 16);
    }

    #[test]
    fn event_budget_trips() {
        let mut sim = cascade(None).with_event_budget(2);
        assert_eq!(sim.run(), RunOutcome::EventBudgetExhausted);
        assert_eq!(sim.events_processed(), 2);
    }
}
