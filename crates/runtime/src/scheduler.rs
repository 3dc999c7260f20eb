//! The multi-query epoch scheduler.
//!
//! Owns a [`QueryEngine`] and a bounded admission queue.
//! Time advances in shared epochs: each epoch the scheduler orders the
//! queue under the configured [`SchedPolicy`], hands the engine up to
//! `slots_per_epoch` queries as one batch (so overlapping queries can share
//! a collection tree), records per-query outcomes with queue-wait
//! accounting, and steps the engine clock.
//!
//! Three single things hold the books together:
//!
//! * **one record** — a [`QueuedQuery`] is the waiting-queue element, the
//!   payload of the two journal records that say "entered the queue", and
//!   what journal replay hands back, so recovery is a push; it is also
//!   what leaves: [`MultiQueryRuntime::extract`] hands it to another
//!   runtime's `admit_migrated`;
//! * **one door** — a fresh `submit` and a migrated re-admission are short
//!   sequences of the same steps (queue gate → mint id → journal →
//!   enqueue), each written once;
//! * **one fate** — a query that leaves the queue gets exactly one entry
//!   in an `id → fate` table (completed, cancelled, shed, lost, migrated),
//!   so `poll` is a lookup and `next_id == waiting + fates` always holds.
//!
//! One loop drives it: the caller hands an [`ArrivalProcess`] to
//! [`MultiQueryRuntime::step`], which walks a `dt`-wide window of simulated
//! time, interleaving arrivals (admitted through the ordinary `submit`
//! path), service rounds, and clock advancement, or to
//! [`MultiQueryRuntime::run_stream`], which steps one epoch at a time until
//! the stream is exhausted and the queue drains. Queries `submit`ted
//! directly wait in the same queue: submitting a workload at t=0 and then
//! running an empty stream is the same run as streaming that workload as a
//! t=0 trace — the equivalence property test pins this.

use crate::admission::{Admission, QueryId, QueryOpts, RejectReason};
use crate::arrivals::ArrivalProcess;
use crate::engine::{Attribution, BatchQuery, QueryEngine};
use crate::handle::{QueryHandle, QueryStatus};
use crate::journal::{JournalRecord, QueryJournal};
use crate::overload::{OverloadConfig, OverloadPolicy, OverloadState};
use pg_sim::metrics::Samples;
use pg_sim::report::Report;
use pg_sim::{Duration, SimTime};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// How the scheduler orders the queue when filling an epoch's slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict admission order.
    Fifo,
    /// Earliest absolute deadline first (deadline-free queries last,
    /// admission order breaking ties).
    Edf,
    /// Energy-weighted fair share: cheapest estimated energy first, so
    /// light handheld queries are never starved behind heavy ones.
    EnergyFair,
}

impl SchedPolicy {
    /// Canonical lower-case name (report keys, CLI).
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Edf => "edf",
            SchedPolicy::EnergyFair => "efair",
        }
    }
}

/// Scheduler configuration.
///
/// Fields stay public (struct literals keep compiling), but in-repo code
/// builds configs with [`RuntimeConfig::builder`]:
///
/// ```
/// use pg_runtime::{RuntimeConfig, SchedPolicy};
/// use pg_sim::Duration;
///
/// let cfg = RuntimeConfig::builder()
///     .policy(SchedPolicy::Edf)
///     .epoch(Duration::from_secs(60))
///     .slots_per_epoch(4)
///     .preemption(true)
///     .build();
/// assert_eq!(cfg.slots_per_epoch, 4);
/// assert!(cfg.preemption);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Bounded admission-queue capacity (waiting queries).
    pub capacity: usize,
    /// Epoch length: the clock advances this much per scheduling round.
    pub epoch: Duration,
    /// Queries serviced per epoch.
    pub slots_per_epoch: usize,
    /// Queue ordering policy.
    pub policy: SchedPolicy,
    /// Deadline preemption: when a waiting query's slack goes negative —
    /// the coming round is its last chance to meet its deadline — it jumps
    /// the policy order (critical queries first, earliest deadline first
    /// among them). Off by default: v1 semantics are pure policy order.
    pub preemption: bool,
    /// Overload control: watermarks, shedding, brownout. The default
    /// policy is [`OverloadPolicy::None`], which leaves every existing
    /// workload bit-identical.
    pub overload: OverloadConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            capacity: 32,
            epoch: Duration::from_secs(30),
            slots_per_epoch: 8,
            policy: SchedPolicy::Fifo,
            preemption: false,
            overload: OverloadConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// Start a chainable builder from the defaults.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            cfg: RuntimeConfig::default(),
        }
    }
}

/// Chainable constructor for [`RuntimeConfig`], mirroring `GridBuilder`.
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    cfg: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Bounded admission-queue capacity (waiting queries).
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.cfg.capacity = capacity;
        self
    }

    /// Epoch length: the clock advances this much per scheduling round.
    pub fn epoch(mut self, epoch: Duration) -> Self {
        self.cfg.epoch = epoch;
        self
    }

    /// Queries serviced per epoch.
    pub fn slots_per_epoch(mut self, slots: usize) -> Self {
        self.cfg.slots_per_epoch = slots;
        self
    }

    /// Queue ordering policy.
    pub fn policy(mut self, policy: SchedPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Enable or disable deadline preemption of deferred work.
    pub fn preemption(mut self, preemption: bool) -> Self {
        self.cfg.preemption = preemption;
        self
    }

    /// Install an overload-control configuration (watermarks + policy).
    pub fn overload(mut self, overload: OverloadConfig) -> Self {
        self.cfg.overload = overload;
        self
    }

    /// Finish: the assembled configuration.
    pub fn build(self) -> RuntimeConfig {
        self.cfg
    }
}

/// A query waiting in the admission queue — the one record of it: the
/// queue element, the payload of [`JournalRecord::Admitted`] and
/// [`JournalRecord::MigratedIn`], what [`QueryJournal::open_queries`]
/// replays, and what [`MultiQueryRuntime::extract`] lifts out for another
/// runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedQuery {
    /// The id minted at admission (preserved across a crash; a migration's
    /// destination mints its own).
    pub id: QueryId,
    /// Raw query text.
    pub text: String,
    /// When it first entered a queue, anywhere (accounting survives a
    /// migration or an outage).
    pub submitted_at: SimTime,
    /// Absolute deadline, if one was requested.
    pub deadline_abs: Option<SimTime>,
    /// The engine's energy estimate, joules: the [`SchedPolicy::EnergyFair`]
    /// ordering key, zero under the other policies.
    pub estimate_j: f64,
    /// Scheduling priority.
    pub priority: u8,
}

/// Where a query that left the queue ended up. Every minted id is either
/// waiting or has exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Serviced: the index of its outcome.
    Completed(usize),
    /// Withdrawn by its caller.
    Cancelled,
    /// Dropped by overload shedding (counted in `shed`).
    Shed,
    /// Destroyed by a crash and not (yet) recovered.
    Lost,
    /// Extracted for re-admission in another runtime.
    Migrated,
}

/// Total order the scheduler drains the queue in: priority strata first
/// (higher priority serviced first; the default 0 keeps v1 ordering
/// untouched), the policy key within a stratum, and the id tiebreak last so
/// every policy is a strict order — outcomes are independent of submission
/// interleaving (the determinism property tests pin this down).
fn policy_cmp(policy: SchedPolicy, a: &QueuedQuery, b: &QueuedQuery) -> Ordering {
    let tie = a.id.cmp(&b.id);
    b.priority.cmp(&a.priority).then(match policy {
        SchedPolicy::Fifo => tie,
        SchedPolicy::Edf => a
            .deadline_abs
            .unwrap_or(SimTime::MAX)
            .cmp(&b.deadline_abs.unwrap_or(SimTime::MAX))
            .then(tie),
        SchedPolicy::EnergyFair => a.estimate_j.total_cmp(&b.estimate_j).then(tie),
    })
}

/// A waiting query is *critical* at a round starting `round_start`: the
/// round after this one starts past its deadline, so this round is its last
/// chance to respond in time.
fn is_critical(q: &QueuedQuery, round_start: SimTime, epoch: Duration) -> bool {
    q.deadline_abs.is_some_and(|d| d < round_start + epoch)
}

/// Time left until `deadline` at `now`: zero once it has passed.
fn time_left(deadline: SimTime, now: SimTime) -> Duration {
    if deadline >= now {
        deadline.since(now)
    } else {
        Duration::ZERO
    }
}

/// The effective order a round drains the queue in: pure policy order, or
/// critical-deadline queries first (earliest deadline, then id) when
/// preemption is enabled — shared by `service_round` and the shedding
/// victim scan so both see the same future.
fn round_cmp(
    policy: SchedPolicy,
    preemption: bool,
    round_start: SimTime,
    epoch: Duration,
    a: &QueuedQuery,
    b: &QueuedQuery,
) -> Ordering {
    if !preemption {
        return policy_cmp(policy, a, b);
    }
    let crit_a = is_critical(a, round_start, epoch);
    let crit_b = is_critical(b, round_start, epoch);
    crit_b
        .cmp(&crit_a)
        .then_with(|| {
            if crit_a && crit_b {
                a.deadline_abs.cmp(&b.deadline_abs).then(a.id.cmp(&b.id))
            } else {
                Ordering::Equal
            }
        })
        .then_with(|| policy_cmp(policy, a, b))
}

/// What happened to one admitted query.
#[derive(Debug, Clone)]
pub struct QueryOutcome<R, E> {
    /// The id assigned at admission.
    pub id: QueryId,
    /// The raw query text.
    pub text: String,
    /// When the query entered the queue.
    pub submitted_at: SimTime,
    /// Epoch start when it was serviced.
    pub started_at: SimTime,
    /// Seconds spent queued before the servicing epoch began.
    pub queue_wait_s: f64,
    /// Absolute deadline, when one was requested.
    pub deadline: Option<SimTime>,
    /// The query was serviced in a brownout round: the engine was asked
    /// to trade fidelity for cost (see
    /// [`OverloadPolicy::BrownoutShed`](crate::OverloadPolicy)).
    pub brownout: bool,
    /// The engine's answer (or per-query failure).
    pub response: Result<R, E>,
    /// The engine's per-query cost attribution (zeros on failure).
    pub attribution: Attribution,
}

impl<R, E> QueryOutcome<R, E> {
    /// End-to-end response time: queue wait plus attributed execution time.
    pub fn response_time_s(&self) -> f64 {
        self.queue_wait_s + self.attribution.time_s
    }

    /// The response missed its deadline.
    pub fn deadline_exceeded(&self) -> bool {
        match self.deadline {
            Some(d) => {
                let budget = if d >= self.submitted_at {
                    d.since(self.submitted_at).as_secs_f64()
                } else {
                    0.0
                };
                self.response_time_s() > budget
            }
            None => false,
        }
    }
}

/// The multi-query runtime: N in-flight queries over one shared engine.
#[derive(Debug)]
pub struct MultiQueryRuntime<E: QueryEngine> {
    engine: E,
    cfg: RuntimeConfig,
    waiting: Vec<QueuedQuery>,
    /// What became of every query that left the queue.
    fates: HashMap<QueryId, Fate>,
    outcomes: Vec<QueryOutcome<E::Response, E::Error>>,
    next_id: u64,
    /// Where the next service round lands on the epoch grid; `None` until
    /// the first round anchors the grid at the engine clock.
    next_round_at: Option<SimTime>,
    /// Energy attributed to completed queries, joules.
    spent_j: f64,
    /// Queries accepted into the queue.
    pub admitted: u64,
    /// Queries rejected at the door.
    pub rejected: u64,
    /// Queries cancelled by their callers while still queued.
    pub cancelled: u64,
    /// Streamed arrivals delivered through [`MultiQueryRuntime::step`].
    pub arrived: u64,
    /// Critical queries that jumped the policy order into a round they
    /// would not otherwise have made (only grows with preemption enabled).
    pub preemptions: u64,
    /// Queued queries dropped by overload shedding (each is in the shed
    /// log; only grows with an overload policy installed).
    pub shed: u64,
    /// Queries serviced in brownout rounds (degraded fidelity).
    pub browned_out: u64,
    /// Queued queries extracted for migration to another runtime.
    pub migrated_out: u64,
    /// Queries re-admitted here after migrating from another runtime.
    pub migrated_in: u64,
    /// Queued queries destroyed by a process crash ([`crash`]) and not
    /// (yet) recovered from the journal.
    ///
    /// [`crash`]: MultiQueryRuntime::crash
    pub lost: u64,
    /// Crash-lost queries re-admitted by journal replay
    /// ([`recover_from_journal`]).
    ///
    /// [`recover_from_journal`]: MultiQueryRuntime::recover_from_journal
    pub recovered: u64,
    /// Overload hysteresis state, stepped on every queue-depth change.
    overload_state: OverloadState,
    /// Write-ahead journal of admission-state transitions, when enabled.
    journal: Option<QueryJournal>,
}

impl<E: QueryEngine> MultiQueryRuntime<E> {
    /// Wrap an engine under a scheduling plan.
    pub fn new(cfg: RuntimeConfig, engine: E) -> Self {
        MultiQueryRuntime {
            engine,
            cfg,
            waiting: Vec::new(),
            fates: HashMap::new(),
            outcomes: Vec::new(),
            next_id: 0,
            next_round_at: None,
            spent_j: 0.0,
            admitted: 0,
            rejected: 0,
            cancelled: 0,
            arrived: 0,
            preemptions: 0,
            shed: 0,
            browned_out: 0,
            migrated_out: 0,
            migrated_in: 0,
            lost: 0,
            recovered: 0,
            overload_state: OverloadState::Normal,
            journal: None,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The wrapped engine, mutably (e.g. to ignite a fire mid-workload).
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Queries currently waiting for an epoch slot.
    pub fn queue_depth(&self) -> usize {
        self.waiting.len()
    }

    /// The current overload mode (normal, brownout, or shed).
    pub fn overload_state(&self) -> OverloadState {
        self.overload_state
    }

    /// Re-evaluate the hysteresis state machine against the current queue
    /// depth; call once the queue and the fate table have settled after a
    /// mutation of `waiting` — which is also where the books must balance.
    fn update_overload_state(&mut self) {
        debug_assert_eq!(
            self.next_id as usize,
            self.waiting.len() + self.fates.len(),
            "a minted id is neither waiting nor settled, or is both"
        );
        self.overload_state = self
            .overload_state
            .update(&self.cfg.overload, self.waiting.len());
    }

    /// How long a rejected client should wait before resubmitting: the
    /// epochs needed to drain the backlog below the shed-exit watermark.
    fn retry_after_estimate(&self) -> Duration {
        let slots = self.cfg.slots_per_epoch.max(1);
        let excess = self
            .waiting
            .len()
            .saturating_sub(self.cfg.overload.shed_low);
        let rounds = excess.div_ceil(slots).max(1);
        Duration::from_secs_f64(self.cfg.epoch.as_secs_f64() * rounds as f64)
    }

    /// Energy attributed to completed queries so far, joules.
    pub fn energy_spent_j(&self) -> f64 {
        self.spent_j
    }

    /// Completed outcomes so far, in completion order.
    pub fn outcomes(&self) -> &[QueryOutcome<E::Response, E::Error>] {
        &self.outcomes
    }

    /// Completed outcomes, mutably — post-hoc annotation (e.g. a
    /// federation layer stamping cross-cell provenance onto responses)
    /// without reopening the service path.
    pub fn outcomes_mut(&mut self) -> &mut [QueryOutcome<E::Response, E::Error>] {
        &mut self.outcomes
    }

    /// Turn on the write-ahead query journal. From here on every
    /// admission-state transition is recorded, so a later [`crash`] can be
    /// undone by [`recover_from_journal`]. Journaling never perturbs
    /// scheduling: a fault-free run with it enabled is bit-identical to
    /// one without (property-tested).
    ///
    /// [`crash`]: MultiQueryRuntime::crash
    /// [`recover_from_journal`]: MultiQueryRuntime::recover_from_journal
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(QueryJournal::new());
        }
    }

    /// The write-ahead journal, when enabled.
    pub fn journal(&self) -> Option<&QueryJournal> {
        self.journal.as_ref()
    }

    /// The one way out of the books: `q` has left the queue for good (or,
    /// for [`Fate::Lost`], until recovery revives it). Counts it, journals
    /// the closing record and files the fate `poll` will report.
    fn settle(&mut self, q: &QueuedQuery, fate: Fate) {
        let id = q.id;
        let closing = match fate {
            Fate::Completed(_) => Some(JournalRecord::Completed { id }),
            Fate::Cancelled => {
                self.cancelled += 1;
                Some(JournalRecord::Cancelled { id })
            }
            Fate::Shed => {
                self.shed += 1;
                Some(JournalRecord::Shed { id })
            }
            Fate::Migrated => {
                self.migrated_out += 1;
                Some(JournalRecord::MigratedOut { id })
            }
            // A crash writes nothing: the journal still proving the query
            // open is exactly what recovery reads.
            Fate::Lost => {
                self.lost += 1;
                None
            }
        };
        if let (Some(j), Some(record)) = (self.journal.as_mut(), closing) {
            j.append(record);
        }
        self.fates.insert(id, fate);
    }

    /// Take a still-queued query out of the queue and settle it.
    fn withdraw(&mut self, handle: QueryHandle, fate: Fate) -> Option<QueuedQuery> {
        let pos = self.waiting.iter().position(|q| q.id == handle.id())?;
        let q = self.waiting.remove(pos);
        self.settle(&q, fate);
        self.update_overload_state();
        Some(q)
    }

    /// The process crashes: every waiting query is destroyed — counted
    /// `lost`, polls report [`QueryStatus::Lost`] — and the epoch grid
    /// loses its anchor (a restart re-anchors at the first post-recovery
    /// round). Completed outcomes, counters, and the journal survive: they
    /// model state that was already delivered or durably recorded before
    /// the crash. Returns how many queries were destroyed.
    ///
    /// With the journal enabled, [`recover_from_journal`] afterwards
    /// re-admits exactly the destroyed queries under their original ids;
    /// without it the loss is permanent — that difference is the measured
    /// value of the journal.
    ///
    /// [`recover_from_journal`]: MultiQueryRuntime::recover_from_journal
    pub fn crash(&mut self) -> usize {
        let destroyed = std::mem::take(&mut self.waiting);
        for q in &destroyed {
            self.settle(q, Fate::Lost);
        }
        self.next_round_at = None;
        self.update_overload_state();
        destroyed.len()
    }

    /// Restart from the journal: every query the journal proves open and
    /// the crash destroyed is pushed back into the queue as the very
    /// record it was admitted as — **original id** (handles held across
    /// the crash stay valid), original submission instant and the absolute
    /// deadline as last tightened, so queue wait keeps accruing and the
    /// deadline the user watches never resets. Each is moved from `lost`
    /// to `recovered` accounting (exactly-once: a query is never
    /// simultaneously lost and queued). Returns how many queries were
    /// recovered. A no-op without a journal or after a clean shutdown.
    pub fn recover_from_journal(&mut self) -> usize {
        let open = match &self.journal {
            Some(j) => j.open_queries(),
            None => return 0,
        };
        let mut n = 0;
        for q in open {
            // Only revive what the crash actually destroyed: anything
            // else is still live, already closed, or was never lost.
            if self.fates.get(&q.id) != Some(&Fate::Lost) {
                continue;
            }
            self.fates.remove(&q.id);
            self.lost -= 1;
            self.recovered += 1;
            self.waiting.push(q);
            n += 1;
        }
        self.update_overload_state();
        n
    }

    /// Submit query text for execution in a future epoch.
    pub fn submit(&mut self, text: &str, opts: QueryOpts) -> Admission {
        self.admit_fresh(text, opts)
            .unwrap_or_else(|reason| self.reject(reason))
    }

    /// Turned away at the door: nothing was queued.
    fn reject(&mut self, reason: RejectReason) -> Admission {
        self.rejected += 1;
        Admission::Rejected { reason }
    }

    /// Door, step 1 — the queue gate. Overload backpressure comes before
    /// the hard queue bound: in shed mode the door closes at the
    /// watermark, with a drain-estimate retry hint, instead of slamming
    /// shut at capacity.
    fn queue_gate(&self) -> Result<(), RejectReason> {
        if self.overload_state == OverloadState::Shed {
            return Err(RejectReason::Overloaded {
                retry_after: self.retry_after_estimate(),
                queue_depth: self.waiting.len(),
            });
        }
        if self.waiting.len() >= self.cfg.capacity {
            return Err(RejectReason::QueueFull {
                capacity: self.cfg.capacity,
            });
        }
        Ok(())
    }

    /// The engine's energy estimate for `text`, asked for only when the
    /// energy-fair ordering is going to read it.
    fn estimate_j(&mut self, text: &str) -> f64 {
        if self.cfg.policy == SchedPolicy::EnergyFair {
            self.engine.estimate_energy_j(text).unwrap_or(0.0)
        } else {
            0.0
        }
    }

    /// Door, step 2 — mint the next id; the query is accepted.
    fn mint_id(&mut self) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.admitted += 1;
        id
    }

    /// Door, steps 3 and 4 — journal the entry (`entered` is the record
    /// variant that says how it came in), then queue it.
    fn enqueue(&mut self, q: QueuedQuery, entered: fn(QueuedQuery) -> JournalRecord) -> Admission {
        if let Some(j) = self.journal.as_mut() {
            j.append(entered(q.clone()));
        }
        let handle = QueryHandle::new(q.id);
        self.waiting.push(q);
        self.update_overload_state();
        Admission::Admitted { handle }
    }

    /// A fresh submission through the door. Beyond the shared steps it
    /// answers to the caller's own deadline.
    fn admit_fresh(&mut self, text: &str, opts: QueryOpts) -> Result<Admission, RejectReason> {
        self.queue_gate()?;
        // A deadline shorter than one epoch can never be met: the earliest
        // completion is one epoch away.
        if let Some(d) = opts.deadline.filter(|&d| d < self.cfg.epoch) {
            return Err(RejectReason::DeadlineUnmeetable {
                deadline_s: d.as_secs_f64(),
                epoch_s: self.cfg.epoch.as_secs_f64(),
            });
        }
        let estimate_j = self.estimate_j(text);
        let now = self.engine.now();
        let q = QueuedQuery {
            id: self.mint_id(),
            text: text.to_string(),
            submitted_at: now,
            deadline_abs: opts.deadline.map(|d| now + d),
            estimate_j,
            priority: opts.priority,
        };
        Ok(self.enqueue(q, JournalRecord::Admitted))
    }

    /// What the runtime knows about a handle: queued (with its live rank),
    /// settled (completed — borrowing the outcome — cancelled, shed, lost
    /// or migrated), or unknown.
    pub fn poll(&self, handle: QueryHandle) -> QueryStatus<'_, E::Response, E::Error> {
        let id = handle.id();
        match self.fates.get(&id) {
            Some(&Fate::Completed(index)) => QueryStatus::Completed(&self.outcomes[index]),
            Some(Fate::Cancelled) => QueryStatus::Cancelled,
            Some(Fate::Shed) => QueryStatus::Shed,
            Some(Fate::Lost) => QueryStatus::Lost,
            Some(Fate::Migrated) => QueryStatus::Migrated,
            None => match self.waiting.iter().find(|q| q.id == id) {
                Some(q) => QueryStatus::Queued {
                    rank: self.rank_of(q),
                    depth: self.waiting.len(),
                },
                None => QueryStatus::Unknown,
            },
        }
    }

    /// Withdraw a still-queued query: it leaves the queue and subsequent
    /// polls report [`QueryStatus::Cancelled`]. Returns `false` when the
    /// query is no longer cancellable (already serviced, already cancelled,
    /// or never admitted here).
    pub fn cancel(&mut self, handle: QueryHandle) -> bool {
        self.withdraw(handle, Fate::Cancelled).is_some()
    }

    /// Lift a still-queued query out of this runtime for re-admission
    /// elsewhere (roaming handoff). Like [`cancel`] it leaves the queue, but
    /// it is counted as `migrated_out` rather than `cancelled`, and the
    /// caller gets the queued record itself to [`admit_migrated`] at the
    /// destination: the original submission instant (queue wait keeps
    /// accruing across the move) and the *absolute* deadline (a handoff
    /// never resets the clock the user is watching). Returns `None` when
    /// the query is no longer queued here (already serviced, cancelled, or
    /// shed — too late to move).
    ///
    /// [`cancel`]: MultiQueryRuntime::cancel
    /// [`admit_migrated`]: MultiQueryRuntime::admit_migrated
    pub fn extract(&mut self, handle: QueryHandle) -> Option<QueuedQuery> {
        self.withdraw(handle, Fate::Migrated)
    }

    /// Re-admit a query lifted out of another runtime with [`extract`].
    ///
    /// The migrated query passes the same door as a fresh [`submit`] —
    /// shed-state backpressure and the queue bound both apply, so an
    /// overloaded destination honors its own watermarks instead of
    /// absorbing unconditionally. What differs is accounting:
    /// the original submission instant and absolute deadline are preserved
    /// (queue wait accrues across cells; the deadline never resets), the
    /// id and energy estimate are this runtime's own, and acceptance counts
    /// as `migrated_in`.
    ///
    /// [`extract`]: MultiQueryRuntime::extract
    /// [`submit`]: MultiQueryRuntime::submit
    pub fn admit_migrated(&mut self, m: QueuedQuery) -> Admission {
        self.admit_moved(m)
            .unwrap_or_else(|reason| self.reject(reason))
    }

    /// A migrated query through the door: the shared steps and nothing
    /// else (its deadline was vetted where it was first submitted).
    fn admit_moved(&mut self, q: QueuedQuery) -> Result<Admission, RejectReason> {
        self.queue_gate()?;
        let estimate_j = self.estimate_j(&q.text);
        self.migrated_in += 1;
        let q = QueuedQuery {
            id: self.mint_id(),
            estimate_j,
            ..q
        };
        Ok(self.enqueue(q, JournalRecord::MigratedIn))
    }

    /// Tighten a queued query's deadline to `deadline` from now. Only ever
    /// tightens: returns `false` (and changes nothing) when the query is
    /// not queued or the new absolute deadline would be later than the
    /// current one. A tightened deadline immediately feeds EDF ordering
    /// and, with preemption enabled, can make the query critical for the
    /// coming round; it is journaled, so it survives a crash.
    pub fn tighten_deadline(&mut self, handle: QueryHandle, deadline: Duration) -> bool {
        let id = handle.id();
        let deadline_abs = self.engine.now() + deadline;
        let Some(q) = self.waiting.iter_mut().find(|q| q.id == id) else {
            return false;
        };
        if q.deadline_abs
            .is_some_and(|current| deadline_abs >= current)
        {
            return false;
        }
        q.deadline_abs = Some(deadline_abs);
        if let Some(j) = self.journal.as_mut() {
            j.append(JournalRecord::Tightened { id, deadline_abs });
        }
        true
    }

    /// Position of `q` in the policy-ordered queue: the number of queued
    /// entries ordered before it (the id tiebreak makes `policy_cmp` a
    /// strict total order, so this is what sorting the queue would say).
    fn rank_of(&self, q: &QueuedQuery) -> usize {
        self.waiting
            .iter()
            .filter(|other| policy_cmp(self.cfg.policy, other, q) == Ordering::Less)
            .count()
    }

    /// Ids of queued queries that can no longer meet their deadline from
    /// their position in the coming service order: with `s` slots per
    /// round, the `r`-th surviving query starts no earlier than
    /// `floor(r/s)` epochs from now — when that instant already lies past
    /// its deadline, a slot spent on it is a guaranteed miss. Survivors
    /// are counted as the scan goes, so a query is only doomed against the
    /// queue as it would look *after* earlier victims are gone.
    ///
    /// Pure (no mutation): this is the shedding decision hot path, run at
    /// every round start under overload.
    fn shed_victims(&self) -> Vec<QueryId> {
        let round_start = self.engine.now();
        let mut order: Vec<&QueuedQuery> = self.waiting.iter().collect();
        order.sort_by(|a, b| {
            round_cmp(
                self.cfg.policy,
                self.cfg.preemption,
                round_start,
                self.cfg.epoch,
                a,
                b,
            )
        });
        let slots = self.cfg.slots_per_epoch.max(1);
        let epoch_s = self.cfg.epoch.as_secs_f64();
        let mut kept = 0usize;
        let mut victims = Vec::new();
        for p in order {
            let Some(d) = p.deadline_abs else {
                kept += 1;
                continue;
            };
            let start = round_start + Duration::from_secs_f64(epoch_s * (kept / slots) as f64);
            if start > d {
                victims.push(p.id);
            } else {
                kept += 1;
            }
        }
        victims
    }

    /// Drop and settle every doomed queued query (see [`shed_victims`]).
    ///
    /// [`shed_victims`]: MultiQueryRuntime::shed_victims
    fn shed_doomed(&mut self) {
        let victims: HashSet<QueryId> = self.shed_victims().into_iter().collect();
        if victims.is_empty() {
            return;
        }
        let doomed: Vec<QueuedQuery> = self
            .waiting
            .extract_if(.., |q| victims.contains(&q.id))
            .collect();
        for q in &doomed {
            self.settle(q, Fate::Shed);
        }
        self.update_overload_state();
    }

    /// Service one round at the current engine clock: order the queue
    /// (policy order; critical queries first when preemption is on), hand
    /// the engine up to `slots_per_epoch` queries as one batch, and record
    /// outcomes. Does not move the clock. Returns queries completed.
    ///
    /// Under an overload policy, shed mode drops doomed queries before
    /// the slate is cut, and brownout mode marks the batch so the engine
    /// degrades fidelity instead of the queue degrading everyone's
    /// response time.
    fn service_round(&mut self) -> usize {
        let policy = self.cfg.policy;
        let epoch_start = self.engine.now();
        let level = match self.overload_state {
            OverloadState::Normal => 0.0,
            OverloadState::Brownout => 0.5,
            OverloadState::Shed => 1.0,
        };
        self.engine.note_pressure(self.waiting.len(), level);
        if self.overload_state == OverloadState::Shed {
            self.shed_doomed();
        }
        let brownout = self.cfg.overload.policy == OverloadPolicy::BrownoutShed
            && self.overload_state != OverloadState::Normal;
        if self.cfg.preemption {
            let k = self.cfg.slots_per_epoch.min(self.waiting.len());
            let epoch = self.cfg.epoch;
            self.waiting
                .sort_by(|a, b| round_cmp(policy, true, epoch_start, epoch, a, b));
            // Count queue jumps: a critical query that sat beyond the slot
            // cutoff under pure policy order is preempting deferred work.
            let jumps = self
                .waiting
                .iter()
                .take(k)
                .filter(|p| is_critical(p, epoch_start, epoch) && self.rank_of(p) >= k)
                .count() as u64;
            self.preemptions += jumps;
        } else {
            self.waiting.sort_by(|a, b| policy_cmp(policy, a, b));
        }
        let k = self.cfg.slots_per_epoch.min(self.waiting.len());
        let batch: Vec<QueuedQuery> = self.waiting.drain(..k).collect();

        let requests: Vec<BatchQuery<'_>> = batch
            .iter()
            .map(|p| BatchQuery {
                text: &p.text,
                deadline: p.deadline_abs.map(|d| time_left(d, epoch_start)),
                brownout,
            })
            .collect();
        let mut results = self.engine.execute_batch(&requests);
        // Contract: one result per request. Pad with nothing rather than
        // panic — a short engine answer shows up as missing outcomes.
        debug_assert_eq!(results.len(), batch.len());
        results.truncate(batch.len());

        let mut completed = 0usize;
        for (p, res) in batch.into_iter().zip(results) {
            let (response, attribution) = match res {
                Ok((r, attr)) => {
                    self.spent_j += attr.energy_j;
                    (Ok(r), attr)
                }
                Err(e) => (Err(e), Attribution::default()),
            };
            let queue_wait_s = epoch_start.since(p.submitted_at).as_secs_f64();
            if brownout {
                self.browned_out += 1;
            }
            self.settle(&p, Fate::Completed(self.outcomes.len()));
            self.outcomes.push(QueryOutcome {
                id: p.id,
                text: p.text,
                submitted_at: p.submitted_at,
                started_at: epoch_start,
                queue_wait_s,
                deadline: p.deadline_abs,
                brownout,
                response,
                attribution,
            });
            completed += 1;
        }
        self.update_overload_state();
        self.next_round_at = Some(epoch_start + self.cfg.epoch);
        completed
    }

    fn advance_engine_to(&mut self, t: SimTime) {
        let now = self.engine.now();
        if t > now {
            self.engine.advance(t.since(now));
        }
    }

    /// Advance simulated time by `dt`, interleaving streamed arrivals with
    /// service rounds — the open-loop event-driven mode.
    ///
    /// The window `[now, now + dt)` is walked event by event: each arrival
    /// due inside the window is delivered (the clock advances to its
    /// instant and it goes through the ordinary [`submit`] path — it can be
    /// admitted, and the arrival process is told its handle, or rejected
    /// at the door), and each service round
    /// due inside the window runs at its slot on the epoch grid (anchored
    /// at the first round; idle time does not accumulate rounds — a round
    /// fires as soon as work is waiting). Arrivals win ties with a
    /// coincident round, so a query arriving exactly at a round boundary
    /// makes that round. The clock always ends at `now + dt`, busy or idle:
    /// offered load never slows down because the grid is busy.
    ///
    /// An arrival is never moved in time: one stamped before the clock is
    /// the arrival process's error, and a debug build panics on it.
    ///
    /// Returns the number of queries completed during the window.
    ///
    /// [`submit`]: MultiQueryRuntime::submit
    pub fn step<A>(&mut self, dt: Duration, arrivals: &mut A) -> usize
    where
        A: ArrivalProcess + ?Sized,
    {
        let window_end = self.engine.now() + dt;
        let mut completed = 0usize;
        loop {
            let next_arrival = arrivals.peek().filter(|&t| t < window_end);
            let next_round = if self.waiting.is_empty() {
                None
            } else {
                // The grid anchors at the first round; a round never fires
                // before the clock (idle periods collapse).
                let due = self
                    .next_round_at
                    .unwrap_or_else(|| self.engine.now())
                    .max(self.engine.now());
                (due < window_end).then_some(due)
            };
            // Arrivals win ties so a query landing exactly on a round
            // boundary joins that round, as a direct `submit` before the
            // step would.
            let take_arrival = match (next_arrival, next_round) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(at), Some(round)) => at <= round,
            };
            if take_arrival {
                let Some(arrival) = arrivals.next_arrival() else {
                    break;
                };
                debug_assert!(
                    arrival.at >= self.engine.now(),
                    "arrival at {} is behind the clock at {}: an arrival is never moved in time",
                    arrival.at,
                    self.engine.now()
                );
                self.advance_engine_to(arrival.at);
                self.arrived += 1;
                // The arrival process hears its arrival's verdict: the
                // handle of an admitted one, and — backpressure closing the
                // loop — an Overloaded rejection, which it may retry
                // (exponential backoff) or drop.
                match self.submit(&arrival.text, arrival.opts) {
                    Admission::Admitted { handle } => arrivals.on_admitted(handle),
                    Admission::Rejected {
                        reason: RejectReason::Overloaded { retry_after, .. },
                    } => {
                        let now = self.engine.now();
                        arrivals.on_overload(arrival, retry_after, now);
                    }
                    Admission::Rejected { .. } => {}
                }
            } else if let Some(round) = next_round {
                self.advance_engine_to(round);
                completed += self.service_round();
            }
        }
        self.advance_engine_to(window_end);
        completed
    }

    /// Drive [`step`] until the arrival stream is exhausted *and* the queue
    /// drains, stepping one epoch at a time (bounded by `max_epochs`).
    /// Returns the number of steps executed.
    ///
    /// [`step`]: MultiQueryRuntime::step
    pub fn run_stream<A>(&mut self, arrivals: &mut A, max_epochs: usize) -> usize
    where
        A: ArrivalProcess + ?Sized,
    {
        let mut steps = 0;
        while (!arrivals.is_exhausted() || !self.waiting.is_empty()) && steps < max_epochs {
            self.step(self.cfg.epoch, arrivals);
            steps += 1;
        }
        steps
    }

    /// Snapshot the workload into a `pg-report/v1` [`Report`]: admission
    /// counters, energy totals, and per-query response-time percentiles.
    pub fn report(&self, name: impl Into<String>) -> Report {
        let mut r = Report::new(name);
        r.set_counter("admitted", self.admitted);
        r.set_counter("rejected", self.rejected);
        r.set_counter("cancelled", self.cancelled);
        r.set_counter("preemptions", self.preemptions);
        r.set_counter("shed", self.shed);
        r.set_counter("browned_out", self.browned_out);
        r.set_counter("completed", self.outcomes.len() as u64);
        let errors = self.outcomes.iter().filter(|o| o.response.is_err()).count() as u64;
        r.set_counter("errors", errors);
        let shared = self
            .outcomes
            .iter()
            .filter(|o| o.attribution.shared)
            .count() as u64;
        r.set_counter("shared", shared);
        r.set_scalar("energy_spent_j", self.spent_j);
        let total = self.admitted + self.rejected;
        r.set_scalar(
            "rejection_rate",
            if total > 0 {
                self.rejected as f64 / total as f64
            } else {
                0.0
            },
        );
        let mut resp = Samples::new();
        let mut bytes = Samples::new();
        for o in &self.outcomes {
            if o.response.is_ok() {
                resp.record(o.response_time_s());
                bytes.record(o.attribution.bytes);
            }
        }
        if !resp.is_empty() {
            r.record_samples("response_s", &mut resp);
            r.record_samples("bytes", &mut bytes);
        }
        r
    }
}
