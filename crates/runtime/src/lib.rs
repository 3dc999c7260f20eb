//! `pg-runtime` — the multi-query runtime of the pervasive grid.
//!
//! The paper's scenario (§2, Figure 1) is many handheld users concurrently
//! querying one sensor/grid fabric. This crate is the broker that makes
//! that concurrency real: a [`MultiQueryRuntime`] owns a [`QueryEngine`]
//! (in production, `pg-core`'s `PervasiveGrid`) and runs N in-flight
//! queries against the one shared network with
//!
//! * **admission control** — a bounded queue, per-query deadlines and
//!   priorities, and a typed [`Admission`] verdict instead of queueing
//!   forever ([`admission`]); accepted queries come back with a
//!   [`QueryHandle`] the caller can poll (for its rank and the queue
//!   depth), cancel, or tighten the deadline on;
//! * **open-loop streaming** — an [`ArrivalProcess`] (seeded Poisson
//!   offered load, the metro-scale [`MetroWorkload`] population model, or
//!   trace replay) feeds the event-driven [`MultiQueryRuntime::step`]
//!   loop, which interleaves arrivals, admission, epoch scheduling, and
//!   completion ([`arrivals`]);
//! * **overload control** — queue-depth watermarks with hysteresis drive
//!   a brownout mode (the engine trades answer fidelity for cost) and a
//!   shed mode (backpressure rejections carrying a `retry_after` hint,
//!   plus dropping queued queries that can no longer meet their
//!   deadline), every affected query accounted for ([`overload`]);
//! * **epoch scheduling** — simulated time advances in shared epochs, each
//!   epoch's work interleaved across active queries under a
//!   [`SchedPolicy`] (FIFO, earliest-deadline-first, energy-weighted fair
//!   share), optionally with deadline preemption of deferred work when a
//!   query's slack goes negative;
//! * **shared execution** — each epoch's slate goes to the engine as one
//!   batch, so overlapping aggregate queries can reuse one collection tree
//!   and piggyback partials on the same radio traffic, with per-query
//!   [`Attribution`] of energy, bytes, and latency;
//! * **fault awareness** — the engine executes under its installed
//!   `FaultPlan`; degraded queries surface their own degradation reports
//!   while unaffected ones complete normally.
//!
//! The scheduler is deliberately engine-generic (no `pg-core` dependency):
//! `pg-core` implements [`QueryEngine`] for `PervasiveGrid`, and its
//! single-query `submit` is that same `execute_batch` handed a one-entry
//! batch, so there is exactly one execution path.
//!
//! Inside, the books are kept by three single things: one record (a
//! [`scheduler::QueuedQuery`] is the queue element, the journal payload
//! and what replay returns), one door (fresh and migrated admission run
//! the same gate / mint / journal / enqueue steps) and one fate (every id
//! that left the queue has exactly one entry in a fate table `poll` looks
//! up).
//!
//! # Example
//!
//! ```
//! use pg_runtime::{
//!     Admission, Attribution, BatchQuery, EngineOutcome, MultiQueryRuntime, QueryEngine,
//!     QueryOpts, RuntimeConfig, SchedPolicy, TraceArrivals,
//! };
//! use pg_sim::{Duration, SimTime};
//!
//! /// A toy engine: answers every query with its length, 1 J / 0.5 s each.
//! struct Echo {
//!     now: SimTime,
//! }
//!
//! impl QueryEngine for Echo {
//!     type Response = usize;
//!     type Error = String;
//!     fn now(&self) -> SimTime {
//!         self.now
//!     }
//!     fn advance(&mut self, dt: Duration) {
//!         self.now += dt;
//!     }
//!     fn estimate_energy_j(&mut self, _text: &str) -> Option<f64> {
//!         Some(1.0)
//!     }
//!     fn note_pressure(&mut self, _queue_depth: usize, _overload_level: f64) {}
//!     fn execute_batch(
//!         &mut self,
//!         batch: &[BatchQuery<'_>],
//!     ) -> Vec<EngineOutcome<usize, String>> {
//!         batch
//!             .iter()
//!             .map(|q| {
//!                 let attr = Attribution {
//!                     energy_j: 1.0,
//!                     time_s: 0.5,
//!                     ..Attribution::default()
//!                 };
//!                 Ok((q.text.len(), attr))
//!             })
//!             .collect()
//!     }
//! }
//!
//! let cfg = RuntimeConfig::builder().policy(SchedPolicy::Edf).build();
//! let mut rt = MultiQueryRuntime::new(cfg, Echo { now: SimTime::ZERO });
//! let a = rt.submit(
//!     "SELECT AVG(temp) FROM sensors",
//!     QueryOpts::with_deadline(Duration::from_secs(120)),
//! );
//! let handle = a.handle().expect("admitted");
//! assert!(matches!(a, Admission::Admitted { .. }));
//! // No further arrivals: serve the queue until it drains.
//! rt.run_stream(&mut TraceArrivals::new([]), 16);
//! assert!(rt.poll(handle).is_completed());
//! assert_eq!(rt.outcomes()[0].response, Ok(29));
//! ```

pub mod admission;
pub mod arrivals;
pub mod engine;
pub mod handle;
pub mod journal;
pub mod overload;
pub mod scheduler;

pub use admission::{Admission, QueryId, QueryOpts, RejectReason};
pub use arrivals::{
    Arrival, ArrivalProcess, DeviceClass, MetroConfig, MetroWorkload, PoissonArrivals,
    TraceArrivals,
};
pub use engine::{Attribution, BatchQuery, EngineOutcome, QueryEngine};
pub use handle::{QueryHandle, QueryStatus};
pub use journal::{JournalRecord, QueryJournal};
pub use overload::{OverloadConfig, OverloadPolicy, OverloadState};
pub use scheduler::{MigratedQuery, MultiQueryRuntime, QueryOutcome, RuntimeConfig, SchedPolicy};

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use pg_sim::{Duration, SimTime};

    /// Scripted engine: per-query cost comes from the text ("cost:<J>"),
    /// execution order is recorded, batches echo the text back.
    struct Mock {
        now: SimTime,
        executed: Vec<String>,
        batches: Vec<usize>,
    }

    impl Mock {
        fn new() -> Self {
            Mock {
                now: SimTime::ZERO,
                executed: Vec::new(),
                batches: Vec::new(),
            }
        }

        fn cost_of(text: &str) -> f64 {
            text.strip_prefix("cost:")
                .and_then(|s| s.parse().ok())
                .unwrap_or(1.0)
        }
    }

    impl QueryEngine for Mock {
        type Response = String;
        type Error = String;

        fn now(&self) -> SimTime {
            self.now
        }
        fn advance(&mut self, dt: Duration) {
            self.now += dt;
        }
        fn estimate_energy_j(&mut self, text: &str) -> Option<f64> {
            Some(Self::cost_of(text))
        }
        fn note_pressure(&mut self, _queue_depth: usize, _overload_level: f64) {}
        fn execute_batch(
            &mut self,
            batch: &[BatchQuery<'_>],
        ) -> Vec<EngineOutcome<String, String>> {
            self.batches.push(batch.len());
            batch
                .iter()
                .map(|q| {
                    let cost = Self::cost_of(q.text);
                    self.executed.push(q.text.to_string());
                    if q.text == "fail" {
                        return Err("boom".to_string());
                    }
                    Ok((
                        q.text.to_string(),
                        Attribution {
                            energy_j: cost,
                            bytes: 40.0,
                            time_s: 0.25,
                            retries: 0,
                            shared: batch.len() > 1,
                        },
                    ))
                })
                .collect()
        }
    }

    fn cfg() -> RuntimeConfig {
        RuntimeConfig::builder()
            .capacity(4)
            .slots_per_epoch(2)
            .build()
    }

    /// Serve the queue alone, with no arrivals, until it drains.
    fn drain(rt: &mut MultiQueryRuntime<Mock>) -> usize {
        rt.run_stream(&mut TraceArrivals::new([]), 8)
    }

    /// One epoch-wide step with no arrivals: at most one service round.
    fn round(rt: &mut MultiQueryRuntime<Mock>) -> usize {
        let epoch = rt.config().epoch;
        rt.step(epoch, &mut TraceArrivals::new([]))
    }

    #[test]
    fn builder_defaults_match_default() {
        let b = RuntimeConfig::builder().build();
        let d = RuntimeConfig::default();
        assert_eq!(b.capacity, d.capacity);
        assert_eq!(b.epoch, d.epoch);
        assert_eq!(b.slots_per_epoch, d.slots_per_epoch);
        assert_eq!(b.policy, d.policy);
        assert_eq!(b.preemption, d.preemption);
    }

    #[test]
    fn fifo_services_in_admission_order_across_epochs() {
        let mut rt = MultiQueryRuntime::new(cfg(), Mock::new());
        for q in ["a", "b", "c"] {
            assert!(rt.submit(q, QueryOpts::default()).is_accepted());
        }
        assert_eq!(round(&mut rt), 2);
        assert_eq!(rt.engine().now, SimTime::from_secs(30));
        assert_eq!(round(&mut rt), 1);
        assert_eq!(rt.engine().executed, ["a", "b", "c"]);
        // Third query waited one epoch; the first two none.
        assert_eq!(rt.outcomes()[0].queue_wait_s, 0.0);
        assert_eq!(rt.outcomes()[2].queue_wait_s, 30.0);
        assert_eq!(rt.outcomes()[2].completion_index, 2);
    }

    #[test]
    fn queue_overflow_rejects_with_capacity() {
        let mut rt = MultiQueryRuntime::new(cfg(), Mock::new());
        for q in ["a", "b", "c", "d"] {
            assert!(rt.submit(q, QueryOpts::default()).is_accepted());
        }
        let fifth = rt.submit("e", QueryOpts::default());
        assert_eq!(
            fifth,
            Admission::Rejected {
                reason: RejectReason::QueueFull { capacity: 4 },
                opts: QueryOpts::default(),
            }
        );
        assert_eq!(fifth.handle(), None);
        assert_eq!(rt.rejected, 1);
        // Draining the queue frees capacity again.
        drain(&mut rt);
        assert!(rt.submit("e", QueryOpts::default()).is_accepted());
    }

    #[test]
    fn beyond_next_epoch_slots_polls_behind_the_slots() {
        // Two slots an epoch: the third query polls at rank 2, a round away.
        let mut rt = MultiQueryRuntime::new(cfg(), Mock::new());
        rt.submit("a", QueryOpts::default());
        rt.submit("b", QueryOpts::default());
        let c = rt.submit("c", QueryOpts::default()).handle().unwrap();
        assert!(matches!(
            rt.poll(c),
            QueryStatus::Queued { rank: 2, depth: 3 }
        ));
    }

    #[test]
    fn priority_outranks_the_policy_key() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder().slots_per_epoch(1).build(),
            Mock::new(),
        );
        rt.submit("low1", QueryOpts::default());
        rt.submit("low2", QueryOpts::default());
        rt.submit("high", QueryOpts::default().priority(5));
        drain(&mut rt);
        // FIFO would say low1, low2, high; priority 5 jumps the stratum.
        assert_eq!(rt.engine().executed, ["high", "low1", "low2"]);
    }

    #[test]
    fn edf_services_earliest_deadline_first() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(4)
                .policy(SchedPolicy::Edf)
                .slots_per_epoch(1)
                .build(),
            Mock::new(),
        );
        rt.submit("late", QueryOpts::with_deadline(Duration::from_secs(600)))
            .is_accepted();
        rt.submit("none", QueryOpts::default()).is_accepted();
        rt.submit("soon", QueryOpts::with_deadline(Duration::from_secs(60)))
            .is_accepted();
        drain(&mut rt);
        assert_eq!(rt.engine().executed, ["soon", "late", "none"]);
    }

    #[test]
    fn energy_fair_services_cheapest_first() {
        // The policy itself asks the engine for the estimates it orders by.
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(4)
                .policy(SchedPolicy::EnergyFair)
                .slots_per_epoch(1)
                .build(),
            Mock::new(),
        );
        rt.submit("cost:5", QueryOpts::default());
        rt.submit("cost:1", QueryOpts::default());
        rt.submit("cost:3", QueryOpts::default());
        drain(&mut rt);
        assert_eq!(rt.engine().executed, ["cost:1", "cost:3", "cost:5"]);
    }

    #[test]
    fn sub_epoch_deadline_is_rejected_as_unmeetable() {
        let mut rt = MultiQueryRuntime::new(cfg(), Mock::new());
        let a = rt.submit("a", QueryOpts::with_deadline(Duration::from_secs(5)));
        assert!(matches!(
            a,
            Admission::Rejected {
                reason: RejectReason::DeadlineUnmeetable { .. },
                ..
            }
        ));
        // Reasons render for humans too.
        if let Admission::Rejected { reason, .. } = a {
            assert!(reason.to_string().contains("epoch"));
        }
    }

    #[test]
    fn per_query_failures_do_not_poison_the_batch() {
        let mut rt = MultiQueryRuntime::new(cfg(), Mock::new());
        rt.submit("a", QueryOpts::default());
        rt.submit("fail", QueryOpts::default());
        drain(&mut rt);
        assert_eq!(rt.outcomes()[0].response, Ok("a".to_string()));
        assert_eq!(rt.outcomes()[1].response, Err("boom".to_string()));
        assert_eq!(rt.outcomes()[1].attribution, Attribution::default());
    }

    #[test]
    fn deadline_exceeded_accounts_for_queue_wait() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(4)
                .slots_per_epoch(1)
                .build(),
            Mock::new(),
        );
        rt.submit("a", QueryOpts::with_deadline(Duration::from_secs(45)));
        rt.submit("b", QueryOpts::with_deadline(Duration::from_secs(45)));
        drain(&mut rt);
        // "a" ran in the first epoch (wait 0 s); "b" waited 30 s and still
        // fit its 45 s budget... with 0.25 s execution both are in budget,
        // but a third query would wait 60 s and miss it.
        assert!(!rt.outcomes()[0].deadline_exceeded());
        assert!(!rt.outcomes()[1].deadline_exceeded());
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(4)
                .slots_per_epoch(1)
                .build(),
            Mock::new(),
        );
        rt.submit("a", QueryOpts::with_deadline(Duration::from_secs(45)));
        rt.submit("b", QueryOpts::with_deadline(Duration::from_secs(45)));
        rt.submit("c", QueryOpts::with_deadline(Duration::from_secs(45)));
        drain(&mut rt);
        assert!(rt.outcomes()[2].deadline_exceeded());
    }

    #[test]
    fn poll_tracks_a_query_through_its_lifecycle() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(8)
                .slots_per_epoch(1)
                .build(),
            Mock::new(),
        );
        let first = rt.submit("a", QueryOpts::default()).handle().unwrap();
        let second = rt.submit("b", QueryOpts::default()).handle().unwrap();
        match rt.poll(second) {
            QueryStatus::Queued { rank, depth } => {
                assert_eq!(rank, 1);
                assert_eq!(depth, 2);
            }
            other => panic!("expected queued, got {other:?}"),
        }
        round(&mut rt);
        match rt.poll(first) {
            QueryStatus::Completed(outcome) => {
                assert_eq!(outcome.response, Ok("a".to_string()));
            }
            other => panic!("expected completed, got {other:?}"),
        }
        assert!(rt.poll(second).is_queued());
        // A handle this runtime never issued is unknown.
        let mut other_rt = MultiQueryRuntime::new(cfg(), Mock::new());
        for _ in 0..3 {
            other_rt.submit("x", QueryOpts::default());
        }
        let foreign = other_rt.submit("y", QueryOpts::default()).handle().unwrap();
        assert!(matches!(rt.poll(foreign), QueryStatus::Unknown));
    }

    #[test]
    fn cancel_removes_queued_work() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(8)
                .slots_per_epoch(1)
                .build(),
            Mock::new(),
        );
        let a = rt.submit("cost:2", QueryOpts::default()).handle().unwrap();
        let b = rt.submit("cost:3", QueryOpts::default()).handle().unwrap();
        assert!(rt.cancel(b));
        assert_eq!(rt.cancelled, 1);
        assert!(matches!(rt.poll(b), QueryStatus::Cancelled));
        // Cancel is not retryable and never touches completed queries.
        assert!(!rt.cancel(b));
        drain(&mut rt);
        assert!(!rt.cancel(a));
        assert!(rt.poll(a).is_completed());
        assert!(!rt.engine().executed.contains(&"cost:3".to_string()));
    }

    #[test]
    fn tighten_deadline_only_tightens_and_reorders_edf() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(8)
                .policy(SchedPolicy::Edf)
                .slots_per_epoch(1)
                .build(),
            Mock::new(),
        );
        let slow = rt
            .submit("slow", QueryOpts::with_deadline(Duration::from_secs(600)))
            .handle()
            .unwrap();
        let urgent = rt
            .submit("urgent", QueryOpts::with_deadline(Duration::from_secs(300)))
            .handle()
            .unwrap();
        // Loosening is refused; the existing deadline stands.
        assert!(!rt.tighten_deadline(urgent, Duration::from_secs(900)));
        // The caller's situation changes: urgent must now beat slow badly.
        assert!(rt.tighten_deadline(urgent, Duration::from_secs(60)));
        round(&mut rt);
        assert_eq!(rt.engine().executed, ["urgent"]);
        // Completed queries can no longer be tightened.
        assert!(!rt.tighten_deadline(urgent, Duration::from_secs(30)));
        assert!(rt.tighten_deadline(slow, Duration::from_secs(30)));
    }

    #[test]
    fn cancel_on_the_deferred_backlog_promotes_later_work() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(8)
                .slots_per_epoch(1)
                .build(),
            Mock::new(),
        );
        let _a = rt.submit("a", QueryOpts::default()).handle().unwrap();
        let b = rt.submit("b", QueryOpts::default()).handle().unwrap();
        assert!(
            matches!(rt.poll(b), QueryStatus::Queued { rank: 1, .. }),
            "b sits in the backlog"
        );
        let c = rt.submit("c", QueryOpts::default()).handle().unwrap();
        match rt.poll(c) {
            QueryStatus::Queued { rank, depth } => {
                assert_eq!((rank, depth), (2, 3));
            }
            other => panic!("expected queued, got {other:?}"),
        }
        // Cancelling the deferred b moves c up one backlog slot.
        assert!(rt.cancel(b));
        match rt.poll(c) {
            QueryStatus::Queued { rank, depth } => {
                assert_eq!((rank, depth), (1, 2));
            }
            other => panic!("expected queued, got {other:?}"),
        }
        drain(&mut rt);
        assert_eq!(rt.engine().executed, ["a", "c"]);
        assert!(matches!(rt.poll(b), QueryStatus::Cancelled));
    }

    #[test]
    fn tighten_deadline_on_deferred_work_drives_preemption() {
        let run = |tighten: bool| {
            let mut rt = MultiQueryRuntime::new(
                RuntimeConfig::builder()
                    .capacity(8)
                    .slots_per_epoch(1)
                    .preemption(true)
                    .build(),
                Mock::new(),
            );
            rt.submit("a", QueryOpts::default());
            rt.submit("b", QueryOpts::default());
            let c = rt.submit("c", QueryOpts::default()).handle().unwrap();
            if tighten {
                // c sits third under FIFO; a 40 s deadline makes the 30 s
                // round its last chance, so preemption must lift it over b.
                assert!(rt.tighten_deadline(c, Duration::from_secs(40)));
            }
            drain(&mut rt);
            rt
        };
        let plain = run(false);
        assert_eq!(plain.engine().executed, ["a", "b", "c"]);
        assert_eq!(plain.preemptions, 0);
        let tightened = run(true);
        assert_eq!(tightened.engine().executed, ["a", "c", "b"]);
        assert_eq!(tightened.preemptions, 1);
        let c = tightened.outcomes().iter().find(|o| o.text == "c").unwrap();
        assert!(!c.deadline_exceeded());
    }

    #[test]
    fn cancelled_critical_work_never_preempts() {
        // Cancel interacts with preemption: a deferred query tightened
        // into criticality then cancelled must neither run nor count a
        // preemptive jump.
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(8)
                .slots_per_epoch(1)
                .preemption(true)
                .build(),
            Mock::new(),
        );
        rt.submit("a", QueryOpts::default());
        rt.submit("b", QueryOpts::default());
        let c = rt.submit("c", QueryOpts::default()).handle().unwrap();
        assert!(rt.tighten_deadline(c, Duration::from_secs(40)));
        assert!(rt.cancel(c));
        drain(&mut rt);
        assert_eq!(rt.engine().executed, ["a", "b"]);
        assert_eq!(rt.preemptions, 0);
        assert!(matches!(rt.poll(c), QueryStatus::Cancelled));
    }

    #[test]
    fn shed_mode_rejects_with_a_retry_after_hint() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(32)
                .slots_per_epoch(2)
                .overload(OverloadConfig::watermarks(OverloadPolicy::Shed, 0, 0, 2, 4))
                .build(),
            Mock::new(),
        );
        for q in ["a", "b", "c", "d"] {
            assert!(rt.submit(q, QueryOpts::default()).is_accepted());
        }
        assert_eq!(rt.overload_state(), OverloadState::Shed);
        let fifth = rt.submit("e", QueryOpts::default());
        let Admission::Rejected {
            reason:
                RejectReason::Overloaded {
                    retry_after,
                    queue_depth,
                },
            ..
        } = fifth
        else {
            panic!("expected overload rejection, got {fifth:?}");
        };
        // Depth 4, exit watermark 2, 2 slots/epoch: one 30 s round drains
        // the excess.
        assert_eq!(retry_after, Duration::from_secs(30));
        assert_eq!(queue_depth, 4);
        assert!(!fifth.is_accepted());
        if let Admission::Rejected { reason, .. } = fifth {
            assert!(reason.to_string().contains("retry after"));
        }
        // Draining below the low watermark reopens the door (hysteresis:
        // depth must reach shed_low, not merely dip under shed_high).
        round(&mut rt);
        assert_eq!(rt.queue_depth(), 2);
        assert_eq!(rt.overload_state(), OverloadState::Normal);
        assert!(rt.submit("f", QueryOpts::default()).is_accepted());
        drain(&mut rt);
        // No deadlines anywhere: shedding never touched queued work.
        assert_eq!(rt.shed, 0);
        assert_eq!(rt.report("m").counters["shed"], 0);
    }

    #[test]
    fn doomed_queries_are_shed_with_full_accounting() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(32)
                .slots_per_epoch(1)
                .overload(OverloadConfig::watermarks(OverloadPolicy::Shed, 0, 0, 2, 4))
                .build(),
            Mock::new(),
        );
        let handles: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|q| {
                rt.submit(q, QueryOpts::with_deadline(Duration::from_secs(45)))
                    .handle()
                    .unwrap()
            })
            .collect();
        assert_eq!(rt.overload_state(), OverloadState::Shed);
        drain(&mut rt);
        // One slot per 30 s round against 45 s deadlines: ranks 2 and 3
        // would start at 60 s and 90 s — guaranteed misses, shed at the
        // first round. Ranks 0 and 1 complete in time.
        assert_eq!(rt.engine().executed, ["a", "b"]);
        assert_eq!(rt.shed, 2);
        let records = rt.shed_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].text, "c");
        assert_eq!(records[1].text, "d");
        assert_eq!(records[0].shed_at, SimTime::ZERO);
        assert!(matches!(rt.poll(handles[2]), QueryStatus::Shed));
        assert!(matches!(rt.poll(handles[3]), QueryStatus::Shed));
        assert!(rt.poll(handles[0]).is_completed());
        // Nothing serviced missed its deadline; nothing vanished.
        assert!(rt.outcomes().iter().all(|o| !o.deadline_exceeded()));
        let r = rt.report("m");
        assert_eq!(r.counters["shed"], 2);
        assert_eq!(r.counters["admitted"], 4);
        assert_eq!(r.counters["completed"] + r.counters["shed"], 4);
    }

    #[test]
    fn brownout_marks_rounds_then_recovers() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(32)
                .slots_per_epoch(2)
                .overload(OverloadConfig::watermarks(
                    OverloadPolicy::BrownoutShed,
                    1,
                    2,
                    8,
                    16,
                ))
                .build(),
            Mock::new(),
        );
        for q in ["a", "b", "c"] {
            rt.submit(q, QueryOpts::default());
        }
        assert_eq!(rt.overload_state(), OverloadState::Brownout);
        round(&mut rt);
        // The round drained to depth 1 = brownout_low: fidelity recovers.
        assert_eq!(rt.overload_state(), OverloadState::Normal);
        drain(&mut rt);
        let browned: Vec<bool> = rt.outcomes().iter().map(|o| o.brownout).collect();
        assert_eq!(browned, [true, true, false]);
        assert_eq!(rt.browned_out, 2);
        assert_eq!(rt.report("m").counters["browned_out"], 2);
        // Shed-only policy never browns out.
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(32)
                .slots_per_epoch(2)
                .overload(OverloadConfig::watermarks(
                    OverloadPolicy::Shed,
                    1,
                    2,
                    8,
                    16,
                ))
                .build(),
            Mock::new(),
        );
        for q in ["a", "b", "c"] {
            rt.submit(q, QueryOpts::default());
        }
        drain(&mut rt);
        assert_eq!(rt.browned_out, 0);
        assert!(rt.outcomes().iter().all(|o| !o.brownout));
    }

    #[test]
    fn step_feeds_overload_rejections_back_to_the_client() {
        // A saturating metro stream against a tiny shed watermark: every
        // Overloaded rejection must reach the workload's backoff hook,
        // and the final books must balance — nothing vanishes.
        let cfg = MetroConfig {
            users: 50_000,
            sessions_per_user_day: 0.04,
            day: Duration::from_secs(1800),
            horizon: SimTime::from_secs(1800),
            retry_max: 2,
            ..MetroConfig::default()
        };
        let mut w = MetroWorkload::new(77, cfg);
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(32)
                .slots_per_epoch(1)
                .overload(OverloadConfig::watermarks(OverloadPolicy::Shed, 0, 0, 2, 4))
                .build(),
            Mock::new(),
        );
        rt.run_stream(&mut w, 100_000);
        assert!(rt.rejected > 0, "the stream must overload the runtime");
        assert!(w.retries() > 0, "rejections must schedule backoff retries");
        // Every rejection here is an Overloaded one (the watermark sits
        // far below capacity), and each reached the hook: it either
        // became a retry or a give-up.
        assert_eq!(w.retries() + w.gave_up(), rt.rejected);
        // Conservation: every delivered arrival was completed, rejected,
        // or shed — the queue is drained and nothing is unaccounted.
        assert_eq!(rt.queue_depth(), 0);
        let completed = rt.outcomes().len() as u64;
        assert_eq!(rt.arrived, completed + rt.rejected + rt.shed);
        assert_eq!(rt.arrived, w.emitted());
    }

    #[test]
    fn streaming_step_interleaves_arrivals_and_rounds() {
        let mut rt = MultiQueryRuntime::new(
            RuntimeConfig::builder()
                .capacity(8)
                .slots_per_epoch(1)
                .build(),
            Mock::new(),
        );
        let mut trace = TraceArrivals::new(vec![
            Arrival {
                at: SimTime::from_secs(10),
                text: "first".into(),
                opts: QueryOpts::default(),
            },
            Arrival {
                at: SimTime::from_secs(70),
                text: "second".into(),
                opts: QueryOpts::default(),
            },
        ]);
        // Window [0, 60): arrival at 10 s, then an immediate round at 10 s
        // (the grid anchors at the first busy instant, idle time before it
        // does not accumulate rounds).
        assert_eq!(rt.step(Duration::from_secs(60), &mut trace), 1);
        assert_eq!(rt.engine().now, SimTime::from_secs(60));
        assert_eq!(rt.arrived, 1);
        let first = &rt.outcomes()[0];
        assert_eq!(first.submitted_at, SimTime::from_secs(10));
        assert_eq!(first.started_at, SimTime::from_secs(10));
        assert_eq!(first.queue_wait_s, 0.0);
        // Window [60, 120): arrival at 70 s; next grid slot was 40 s (in
        // the past), so the round fires at the clock, 70 s.
        assert_eq!(rt.step(Duration::from_secs(60), &mut trace), 1);
        let second = &rt.outcomes()[1];
        assert_eq!(second.submitted_at, SimTime::from_secs(70));
        assert_eq!(second.started_at, SimTime::from_secs(70));
        assert!(trace.is_exhausted());
        assert_eq!(rt.engine().now, SimTime::from_secs(120));
    }

    #[test]
    fn submitting_at_zero_matches_a_t0_trace() {
        let queries = ["a", "b", "c", "d", "e"];
        let mut batch_rt = MultiQueryRuntime::new(cfg(), Mock::new());
        for q in queries {
            batch_rt.submit(q, QueryOpts::with_deadline(Duration::from_secs(90)));
        }
        drain(&mut batch_rt);

        let mut stream_rt = MultiQueryRuntime::new(cfg(), Mock::new());
        let mut trace = TraceArrivals::batch_at_zero(queries.iter().map(|q| {
            (
                q.to_string(),
                QueryOpts::with_deadline(Duration::from_secs(90)),
            )
        }));
        stream_rt.run_stream(&mut trace, 16);

        assert_eq!(batch_rt.engine().executed, stream_rt.engine().executed);
        assert_eq!(batch_rt.engine().batches, stream_rt.engine().batches);
        assert_eq!(batch_rt.outcomes().len(), stream_rt.outcomes().len());
        for (b, s) in batch_rt.outcomes().iter().zip(stream_rt.outcomes()) {
            assert_eq!(b.id, s.id);
            assert_eq!(b.queue_wait_s, s.queue_wait_s);
            assert_eq!(b.started_at, s.started_at);
            assert_eq!(b.response, s.response);
        }
    }

    #[test]
    fn preemption_rescues_a_slack_negative_deadline() {
        let run = |preemption: bool| {
            let mut rt = MultiQueryRuntime::new(
                RuntimeConfig::builder()
                    .capacity(8)
                    .slots_per_epoch(1)
                    .preemption(preemption)
                    .build(),
                Mock::new(),
            );
            rt.submit("a", QueryOpts::default());
            rt.submit("b", QueryOpts::default());
            rt.submit("c", QueryOpts::with_deadline(Duration::from_secs(40)));
            drain(&mut rt);
            rt
        };
        // FIFO without preemption: c waits behind a and b, starts at 60 s,
        // and blows its 40 s budget.
        let fifo = run(false);
        let c = fifo.outcomes().iter().find(|o| o.text == "c").unwrap();
        assert!(c.deadline_exceeded());
        assert_eq!(fifo.preemptions, 0);
        // With preemption, c becomes critical at the 30 s round (the next
        // slot at 60 s would be too late) and jumps b.
        let pre = run(true);
        let c = pre.outcomes().iter().find(|o| o.text == "c").unwrap();
        assert!(!c.deadline_exceeded());
        assert_eq!(pre.engine().executed, ["a", "c", "b"]);
        assert_eq!(pre.preemptions, 1);
    }

    #[test]
    fn report_snapshots_the_workload() {
        let mut rt = MultiQueryRuntime::new(cfg(), Mock::new());
        for q in ["a", "b", "c", "d"] {
            rt.submit(q, QueryOpts::default());
        }
        rt.submit("e", QueryOpts::default()); // rejected: queue full
        drain(&mut rt);
        let r = rt.report("mock");
        assert_eq!(r.counters["admitted"], 4);
        assert_eq!(r.counters["rejected"], 1);
        assert_eq!(r.counters["completed"], 4);
        assert_eq!(r.counters["errors"], 0);
        assert_eq!(r.counters["cancelled"], 0);
        assert_eq!(r.counters["preemptions"], 0);
        assert_eq!(r.scalars["rejection_rate"], 0.2);
        assert_eq!(r.stats["response_s"].n, 4);
        assert!(r.stats["response_s"].p95.is_some());
        assert_eq!(r.scalars["energy_spent_j"], 4.0);
    }
}
