//! Crash-recovery and mid-migration handle semantics.
//!
//! 1. **Crash without a journal** destroys every waiting query — counted
//!    `lost`, polled as `Lost`, never recoverable.
//! 2. **Crash with the journal** is undone by replay: the same queries
//!    come back under their original ids, complete exactly once, and the
//!    accounting identity `admitted == completed + cancelled + shed +
//!    migrated_out + lost + still-queued` holds at every instant.
//! 3. **Mid-migration handles** (satellite): `cancel` and
//!    `tighten_deadline` on a query that has been extracted for migration
//!    refuse at the origin (it is `Migrated`, not controllable there) and
//!    work at the destination under the destination's handle.
//! 4. **Journal transparency** (property): a fault-free run — streamed
//!    arrivals interleaved with drawn submits, cancels, migrations both
//!    ways and deadline tightenings — is bit-identical with journaling
//!    enabled and without; with crashes and recoveries drawn too, every
//!    minted id is still either waiting or settled exactly once, after
//!    every step.
//! 5. **Tightening is durable**: a deadline tightened before a crash is
//!    the deadline the query comes back with.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_runtime::{
    Admission, Arrival, ArrivalProcess, Attribution, BatchQuery, EngineOutcome, JournalRecord,
    MultiQueryRuntime, OverloadConfig, OverloadPolicy, PoissonArrivals, QueryEngine, QueryHandle,
    QueryOpts, QueryStatus, RuntimeConfig, SchedPolicy, TraceArrivals,
};
use pg_sim::{Duration, SimTime};
use propcheck::check;

/// A deterministic toy engine: answers with the text length, 1 J / 0.5 s.
struct Echo {
    now: SimTime,
}

impl QueryEngine for Echo {
    type Response = usize;
    type Error = String;
    fn now(&self) -> SimTime {
        self.now
    }
    fn advance(&mut self, dt: Duration) {
        self.now += dt;
    }
    fn estimate_energy_j(&mut self, _text: &str) -> Option<f64> {
        Some(1.0)
    }
    fn note_pressure(&mut self, _queue_depth: usize, _overload_level: f64) {}
    fn execute_batch(&mut self, batch: &[BatchQuery<'_>]) -> Vec<EngineOutcome<usize, String>> {
        batch
            .iter()
            .map(|q| {
                let attr = Attribution {
                    energy_j: 1.0,
                    time_s: 0.5,
                    ..Attribution::default()
                };
                Ok((q.text.len(), attr))
            })
            .collect()
    }
}

fn runtime(slots: usize) -> MultiQueryRuntime<Echo> {
    let cfg = RuntimeConfig::builder()
        .capacity(64)
        .epoch(Duration::from_secs(30))
        .slots_per_epoch(slots)
        .policy(SchedPolicy::Edf)
        .build();
    MultiQueryRuntime::new(cfg, Echo { now: SimTime::ZERO })
}

/// Serve the queue alone, with no arrivals, for at most `max` epochs.
fn drain(rt: &mut MultiQueryRuntime<Echo>, max: usize) {
    rt.run_stream(&mut TraceArrivals::new([]), max);
}

/// One epoch-wide step with no arrivals: at most one service round.
fn round(rt: &mut MultiQueryRuntime<Echo>) {
    let epoch = rt.config().epoch;
    rt.step(epoch, &mut TraceArrivals::new([]));
}

fn submit_n(rt: &mut MultiQueryRuntime<Echo>, n: usize) -> Vec<QueryHandle> {
    (0..n)
        .map(|i| {
            rt.submit(
                &format!("SELECT {i} FROM sensors"),
                QueryOpts::with_deadline(Duration::from_secs(600)),
            )
            .handle()
            .expect("accepted")
        })
        .collect()
}

#[test]
fn crash_without_journal_loses_waiting_queries_permanently() {
    let mut rt = runtime(2);
    let handles = submit_n(&mut rt, 4);
    assert_eq!(rt.crash(), 4);
    assert_eq!(rt.lost, 4);
    assert_eq!(rt.queue_depth(), 0);
    for h in &handles {
        assert!(matches!(rt.poll(*h), QueryStatus::Lost));
    }
    // No journal: recovery recovers nothing.
    assert_eq!(rt.recover_from_journal(), 0);
    assert_eq!(rt.lost, 4);
    drain(&mut rt, 8);
    assert_eq!(rt.outcomes().len(), 0);
}

#[test]
fn journal_recovery_restores_open_queries_under_original_ids() {
    let mut rt = runtime(2);
    rt.enable_journal();
    let handles = submit_n(&mut rt, 6);
    // One epoch services the first two; four are still waiting at the
    // crash.
    round(&mut rt);
    assert_eq!(rt.outcomes().len(), 2);
    assert_eq!(rt.crash(), 4);
    assert_eq!(rt.lost, 4);
    assert!(matches!(rt.poll(handles[4]), QueryStatus::Lost));

    // Replay: the same four come back, same ids, still pollable through
    // the handles held across the crash.
    assert_eq!(rt.recover_from_journal(), 4);
    assert_eq!(rt.lost, 0);
    assert_eq!(rt.recovered, 4);
    assert_eq!(rt.queue_depth(), 4);
    for h in &handles[2..] {
        assert!(rt.poll(*h).is_queued(), "{h} not re-queued");
    }
    // Completed outcomes are never resurrected or re-run.
    drain(&mut rt, 8);
    assert_eq!(rt.outcomes().len(), 6);
    let mut ids: Vec<u64> = rt.outcomes().iter().map(|o| o.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 6, "a query completed twice");
    // Exactly-once identity, terminal form.
    assert_eq!(rt.admitted, 6);
    assert_eq!(rt.outcomes().len() as u64 + rt.lost, 6);
    // The journal closed every record it opened.
    let open = rt.journal().expect("journal on").open_queries();
    assert!(open.is_empty(), "journal still has open queries: {open:?}");
}

#[test]
fn double_crash_and_recover_stays_exactly_once() {
    let mut rt = runtime(1);
    rt.enable_journal();
    let handles = submit_n(&mut rt, 3);
    rt.crash();
    rt.recover_from_journal();
    round(&mut rt); // completes one
    rt.crash();
    assert_eq!(rt.lost, 2);
    rt.recover_from_journal();
    assert_eq!(rt.recovered, 3 + 2); // 3 first round, 2 second
    drain(&mut rt, 8);
    assert_eq!(rt.outcomes().len(), 3);
    for h in &handles {
        assert!(rt.poll(*h).is_completed());
    }
    assert_eq!(rt.lost, 0);
}

#[test]
fn queue_wait_accrues_across_a_crash() {
    // A recovered query's submitted_at is its original admission instant:
    // the outage shows up as queue wait, not as a reset clock.
    let mut rt = runtime(1);
    rt.enable_journal();
    let h = submit_n(&mut rt, 1)[0];
    rt.crash();
    // The cell is down for 300 s before it restarts and recovers.
    rt.engine_mut().advance(Duration::from_secs(300));
    rt.recover_from_journal();
    drain(&mut rt, 4);
    let o = match rt.poll(h) {
        QueryStatus::Completed(o) => o,
        s => panic!("expected completion, got {s:?}"),
    };
    assert!(
        o.queue_wait_s >= 300.0,
        "outage not charged as queue wait: {}",
        o.queue_wait_s
    );
}

#[test]
fn cancel_and_tighten_refuse_mid_migration_and_work_at_destination() {
    let mut origin = runtime(1);
    // An energy-fair destination asks its engine for the estimate the EDF
    // origin never needed.
    let energy_fair = RuntimeConfig {
        policy: SchedPolicy::EnergyFair,
        ..*runtime(2).config()
    };
    let mut dest = MultiQueryRuntime::new(energy_fair, Echo { now: SimTime::ZERO });
    origin.enable_journal();
    dest.enable_journal();
    let handles = submit_n(&mut origin, 3);
    let moving = handles[2];

    // Lift the query out: it is now mid-migration, owned by neither queue.
    let m = origin.extract(moving).expect("still queued");
    assert_eq!((m.id, m.estimate_j), (moving.id(), 0.0));
    assert!(matches!(origin.poll(moving), QueryStatus::Migrated));
    // The origin handle no longer controls it.
    assert!(!origin.cancel(moving));
    assert!(!origin.tighten_deadline(moving, Duration::from_secs(10)));
    // The journal agrees: three entries and one close appended, and the
    // migrant is no longer open at the origin.
    let journal = origin.journal().expect("journal on");
    assert_eq!(journal.len(), 4);
    let open: Vec<_> = journal.open_queries().iter().map(|q| q.id).collect();
    assert_eq!(open, [handles[0].id(), handles[1].id()]);

    // Landing at the destination mints a new handle; the *destination*
    // controls it from here.
    let dh = dest
        .admit_migrated(m.clone())
        .handle()
        .expect("re-admitted");
    assert!(dest.poll(dh).is_queued());
    // The destination journals the record it was handed, as a migrant,
    // under its own id and estimate; the rest is the origin's, deadline
    // clock included.
    let journal = dest.journal().expect("journal on");
    assert_eq!(journal.len(), 1);
    assert!(matches!(
        journal.records().next(),
        Some(JournalRecord::MigratedIn(_))
    ));
    let [q] = &journal.open_queries()[..] else {
        panic!("expected the migrant's entry alone");
    };
    assert_eq!((q.id, q.estimate_j), (dh.id(), 1.0));
    assert_ne!(q.id, m.id);
    assert_eq!(q.text, m.text);
    assert_eq!(q.submitted_at, m.submitted_at);
    assert_eq!(q.deadline_abs, m.deadline_abs);
    assert_eq!(q.priority, m.priority);
    assert!(dest.tighten_deadline(dh, Duration::from_secs(60)));
    // Tightening only tightens: a looser deadline is refused.
    assert!(!dest.tighten_deadline(dh, Duration::from_secs(3600)));
    assert!(dest.cancel(dh));
    assert!(matches!(dest.poll(dh), QueryStatus::Cancelled));
    // And a cancelled migrant cannot be cancelled again.
    assert!(!dest.cancel(dh));
    assert_eq!(dest.migrated_in, 1);
    assert_eq!(origin.migrated_out, 1);
}

#[test]
fn tighten_deadline_mid_migration_feeds_destination_edf() {
    // A migrated query that lands behind earlier work jumps ahead once
    // its deadline is tightened below theirs — EDF sees the new deadline.
    let mut origin = runtime(1);
    let mut dest = runtime(1);
    let h = submit_n(&mut origin, 1)[0];
    let m = origin.extract(h).expect("queued");
    // Two local queries with 600 s deadlines already wait at dest.
    submit_n(&mut dest, 2);
    let dh = dest.admit_migrated(m).handle().expect("re-admitted");
    match dest.poll(dh) {
        QueryStatus::Queued { rank, .. } => assert_eq!(rank, 2, "expected last in EDF order"),
        s => panic!("expected queued, got {s:?}"),
    }
    assert!(dest.tighten_deadline(dh, Duration::from_secs(30)));
    match dest.poll(dh) {
        QueryStatus::Queued { rank, .. } => assert_eq!(rank, 0, "tightened deadline must lead"),
        s => panic!("expected queued, got {s:?}"),
    }
}

#[test]
fn tightened_deadline_survives_a_crash() {
    let mut rt = runtime(1);
    rt.enable_journal();
    // Three queries, 600 s each; the last is then tightened to 60 s.
    let handles = submit_n(&mut rt, 3);
    assert!(rt.tighten_deadline(handles[2], Duration::from_secs(60)));
    // One record says so, and the open entry carries the new deadline.
    let journal = rt.journal().expect("journal on");
    assert_eq!(journal.len(), 4);
    let deadlines: Vec<_> = journal
        .open_queries()
        .iter()
        .map(|q| (q.id, q.deadline_abs))
        .collect();
    assert_eq!(
        deadlines,
        [
            (handles[0].id(), Some(SimTime::from_secs(600))),
            (handles[1].id(), Some(SimTime::from_secs(600))),
            (handles[2].id(), Some(SimTime::from_secs(60))),
        ]
    );
    rt.crash();
    assert_eq!(rt.recover_from_journal(), 3);
    // It comes back leading the EDF order, not behind the 600 s pair.
    match rt.poll(handles[2]) {
        QueryStatus::Queued { rank, .. } => assert_eq!(rank, 0, "the tightening was forgotten"),
        s => panic!("expected queued, got {s:?}"),
    }
    drain(&mut rt, 8);
    let first = &rt.outcomes()[0];
    assert_eq!(first.id, handles[2].id());
    assert_eq!(first.deadline, Some(SimTime::from_secs(60)));
    assert_eq!(rt.outcomes()[1].deadline, Some(SimTime::from_secs(600)));
    // The crash and the recovery append nothing; the three completions
    // close every entry.
    let journal = rt.journal().expect("journal on");
    assert_eq!(journal.len(), 7);
    assert!(journal.open_queries().is_empty());
}

/// Fingerprint everything observable about a finished runtime.
#[allow(clippy::type_complexity)]
fn fingerprint(
    rt: &MultiQueryRuntime<Echo>,
) -> (
    Vec<(u64, String, u64, u64, u64, u64, Option<SimTime>)>,
    [u64; 8],
    u64,
) {
    let outcomes = rt
        .outcomes()
        .iter()
        .enumerate()
        .map(|(i, o)| {
            (
                o.id.0,
                o.text.clone(),
                o.submitted_at.as_nanos(),
                o.started_at.as_nanos(),
                i as u64,
                o.queue_wait_s.to_bits(),
                o.deadline,
            )
        })
        .collect();
    let counters = [
        rt.admitted,
        rt.rejected,
        rt.cancelled,
        rt.arrived,
        rt.shed,
        rt.browned_out,
        rt.lost,
        rt.recovered,
    ];
    (outcomes, counters, rt.energy_spent_j().to_bits())
}

/// The books after any step: every handle ever issued polls as exactly
/// one of queued / completed / cancelled / shed / lost / migrated, each
/// kind as often as its counter says, and the kinds add up to `admitted`.
fn assert_books_balance(rt: &MultiQueryRuntime<Echo>, handles: &[QueryHandle]) {
    assert_eq!(
        handles.len() as u64,
        rt.admitted,
        "a minted id has no handle"
    );
    let mut kinds = [0u64; 6];
    for &h in handles {
        let kind = match rt.poll(h) {
            QueryStatus::Queued { .. } => 0,
            QueryStatus::Completed(o) => {
                assert_eq!(o.id, h.id());
                1
            }
            QueryStatus::Cancelled => 2,
            QueryStatus::Shed => 3,
            QueryStatus::Migrated => 4,
            QueryStatus::Lost => 5,
            QueryStatus::Unknown => panic!("{h} was minted here but polls as unknown"),
        };
        kinds[kind] += 1;
    }
    let counters = [
        rt.queue_depth() as u64,
        rt.outcomes().len() as u64,
        rt.cancelled,
        rt.shed,
        rt.migrated_out,
        rt.lost,
    ];
    assert_eq!(kinds, counters);
    assert_eq!(rt.admitted, counters.iter().sum::<u64>());
    if let Some(j) = rt.journal() {
        // The journal proves open exactly what waits or awaits recovery.
        assert_eq!(j.open_queries().len() as u64, counters[0] + rt.lost);
    }
}

/// A stream that keeps the handle of every arrival the runtime admits.
struct Handed(PoissonArrivals, Vec<QueryHandle>);

impl ArrivalProcess for Handed {
    fn peek(&mut self) -> Option<SimTime> {
        self.0.peek()
    }
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.0.next_arrival()
    }
    fn on_admitted(&mut self, handle: QueryHandle) {
        self.1.push(handle);
    }
}

/// Drive a runtime through `ops` — `(kind, argument)` pairs — over a
/// Poisson stream, then let the stream run out; the books are checked
/// after every step. Kinds: 0 submit, 1 cancel, 2 migrate out, 3 migrate
/// in, 4 tighten, 5 step, 6 crash, 7 recover; the last two fall back to a
/// step unless `faults` is set. `neighbour` only ever holds migrants.
fn drive(
    journal: bool,
    faults: bool,
    seed: u64,
    rate_hz: f64,
    ops: &[(u8, u16)],
) -> MultiQueryRuntime<Echo> {
    let cfg = RuntimeConfig::builder()
        .capacity(16)
        .epoch(Duration::from_secs(30))
        .slots_per_epoch(1)
        .policy(SchedPolicy::Edf)
        .overload(OverloadConfig::watermarks(
            OverloadPolicy::Shed,
            0,
            0,
            8,
            12,
        ))
        .build();
    let mut rt = MultiQueryRuntime::new(cfg, Echo { now: SimTime::ZERO });
    let mut neighbour = runtime(1);
    if journal {
        rt.enable_journal();
    }
    let poisson = PoissonArrivals::new(
        seed,
        rate_hz,
        SimTime::from_secs(3_600),
        vec![
            (
                "SELECT AVG(temp) FROM sensors".to_string(),
                QueryOpts::with_deadline(Duration::from_secs(120)),
            ),
            (
                "SELECT MAX(temp) FROM sensors".to_string(),
                QueryOpts::with_deadline(Duration::from_secs(90)).priority(1),
            ),
        ],
    );
    let mut arrivals = Handed(poisson, Vec::new());
    let mut handles: Vec<QueryHandle> = Vec::new();
    for &(kind, arg) in ops {
        let target = (!handles.is_empty()).then(|| handles[usize::from(arg) % handles.len()]);
        let deadline = Duration::from_secs(60 + u64::from(arg % 500));
        match (kind, target) {
            (0, _) => {
                let verdict = rt.submit(
                    "SELECT MIN(temp) FROM sensors",
                    QueryOpts::with_deadline(deadline),
                );
                handles.extend(verdict.handle());
            }
            (1, Some(h)) => {
                rt.cancel(h);
            }
            (2, Some(h)) => {
                if let Some(m) = rt.extract(h) {
                    neighbour.admit_migrated(m);
                }
            }
            (3, _) => {
                neighbour.engine_mut().now = rt.engine().now;
                let there = submit_n(&mut neighbour, 1)[0];
                let m = neighbour.extract(there).expect("just queued");
                handles.extend(rt.admit_migrated(m).handle());
            }
            (4, Some(h)) => {
                rt.tighten_deadline(h, deadline);
            }
            (6, _) if faults => {
                rt.crash();
            }
            (7, _) if faults => {
                rt.recover_from_journal();
            }
            _ => {
                rt.step(Duration::from_secs(30), &mut arrivals);
            }
        }
        handles.append(&mut arrivals.1);
        assert_books_balance(&rt, &handles);
    }
    rt.recover_from_journal();
    rt.run_stream(&mut arrivals, 10_000);
    handles.append(&mut arrivals.1);
    assert_books_balance(&rt, &handles);
    rt
}

/// Acceptance: with no faults injected, a run with the journal enabled
/// is bit-identical to the same run with it disabled — journaling
/// observes, never perturbs. With crashes and recoveries drawn in, the
/// journaled run must still balance its books after every step (which
/// `drive` asserts).
#[test]
fn journaling_is_bit_transparent_without_faults() {
    check("journaling_is_bit_transparent_without_faults", 16, |g| {
        let seed = g.u64();
        let rate_scaled = g.range(5u32..60);
        let ops = g.vec(0..48, |g| (g.range(0u8..8), g.u64() as u16));
        let faults = g.bool();
        let rate_hz = f64::from(rate_scaled) / 100.0;
        let with = drive(true, faults, seed, rate_hz, &ops);
        if !faults {
            let without = drive(false, false, seed, rate_hz, &ops);
            assert_eq!(fingerprint(&with), fingerprint(&without));
        }
        // The journal really was on and balanced.
        let j = with.journal().expect("journal on");
        assert!(j.len() as u64 >= with.admitted);
        assert_eq!(j.open_queries().len(), with.queue_depth());
    });
}

/// One cancelled-mid-flight sanity check against the `Admission` API
/// surface: a rejected migrant still reports usable options.
#[test]
fn rejected_migrant_reports_options() {
    let mut origin = runtime(1);
    let mut dest = MultiQueryRuntime::new(
        RuntimeConfig::builder().capacity(0).build(),
        Echo { now: SimTime::ZERO },
    );
    let h = submit_n(&mut origin, 1)[0];
    let m = origin.extract(h).expect("queued");
    match dest.admit_migrated(m) {
        Admission::Rejected { .. } => {}
        a => panic!("expected rejection at zero capacity, got {a:?}"),
    }
    assert_eq!(dest.migrated_in, 0);
}
