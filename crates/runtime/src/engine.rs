//! The engine abstraction the scheduler drives.
//!
//! `pg-runtime` deliberately does not depend on `pg-core`: the scheduler is
//! generic over anything that can execute query text against shared
//! resources. `pg-core` implements [`QueryEngine`] for `PervasiveGrid`
//! (including the shared aggregation-tree batch path); tests implement it
//! with scripted mock engines.

use pg_sim::{Duration, SimTime};

/// One query as handed to the engine for execution within an epoch.
#[derive(Debug, Clone)]
pub struct BatchQuery<'a> {
    /// The raw query text.
    pub text: &'a str,
    /// Remaining deadline budget at epoch start, if the query has one.
    pub deadline: Option<Duration>,
    /// The scheduler is in brownout: the engine should trade answer
    /// fidelity for cost (coarser aggregation strata, reused trees) and
    /// annotate the response as degraded. Engines without a cheaper mode
    /// may ignore the flag — it is a request, not a contract.
    pub brownout: bool,
}

/// Per-query share of one epoch's measured cost, attributed by the engine.
///
/// When queries share radio traffic (piggybacked partial aggregates), the
/// engine splits the shared cost across them; attributed values sum to the
/// epoch's measured totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    /// Energy attributed to this query, joules.
    pub energy_j: f64,
    /// Radio bytes attributed to this query (shared packets split).
    pub bytes: f64,
    /// Execution time this query observed, seconds (excludes queue wait).
    pub time_s: f64,
    /// Retransmissions on traffic that carried this query's data.
    pub retries: u64,
    /// The query rode a shared collection epoch with other queries.
    pub shared: bool,
}

/// What the engine returns for one batch entry.
pub type EngineOutcome<R, E> = Result<(R, Attribution), E>;

/// Anything that can execute queries against shared network resources.
///
/// The scheduler owns an engine, hands it policy-ordered batches once per
/// epoch, and advances its clock between epochs.
pub trait QueryEngine {
    /// The per-query answer type.
    type Response: Clone;
    /// The per-query failure type.
    type Error: Clone;

    /// Current simulation time.
    fn now(&self) -> SimTime;

    /// Advance the simulation clock. Must be purely additive: the batch
    /// loop calls it once per epoch, while the streaming loop (`step`)
    /// advances in several smaller increments per epoch (to each arrival
    /// instant, each round, and the window end) — both must land the engine
    /// at the same instant.
    fn advance(&mut self, dt: Duration);

    /// Energy still available to spend, joules. The runtime never reads
    /// it; it stays only because the `pgbench` harness under `benchmark/`
    /// implements it, and it goes when that harness stops doing so.
    fn available_energy_j(&self) -> f64 {
        f64::INFINITY
    }

    /// Deterministic pre-execution energy estimate: the
    /// [`SchedPolicy::EnergyFair`](crate::SchedPolicy) ordering key, asked
    /// for at admission under that policy only. `None` when the text cannot
    /// be costed (it orders as zero and surfaces a real error at execution).
    fn estimate_energy_j(&mut self, text: &str) -> Option<f64>;

    /// Scheduler pressure notification: waiting-queue depth and overload
    /// level (0 normal, 0.5 brownout, 1 shed), published once per service
    /// round. Engines with an adaptive decision maker feed this into its
    /// selection context; the default is a no-op.
    fn note_pressure(&mut self, _queue_depth: usize, _overload_level: f64) {}

    /// Execute one epoch's batch, in the given (policy) order, returning
    /// one outcome per entry *in the same order*. Engines are free to run
    /// overlapping queries through a shared collection pass as long as the
    /// attribution splits the shared cost.
    fn execute_batch(
        &mut self,
        batch: &[BatchQuery<'_>],
    ) -> Vec<EngineOutcome<Self::Response, Self::Error>>;
}
