//! Handles to in-flight queries.
//!
//! A [`QueryHandle`] is what an accepting `submit` returns inside its
//! [`Admission`](crate::Admission) verdict: a small copyable token the
//! caller keeps to interact with a query after submission — poll its
//! [`QueryStatus`], cancel it while it still waits in the queue, or tighten
//! its deadline mid-flight (feeding EDF ordering and, when enabled, the
//! preemption of deferred work). The handle does not borrow the runtime, so
//! handheld clients can hold handles across scheduling epochs.

use crate::admission::QueryId;
use crate::scheduler::QueryOutcome;

/// A caller-side token for one accepted query.
///
/// Obtained from [`Admission::handle`](crate::Admission::handle); used with
/// `MultiQueryRuntime::{poll, cancel, tighten_deadline}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryHandle(QueryId);

impl QueryHandle {
    /// Wrap an id (the runtime does this at admission).
    pub(crate) fn new(id: QueryId) -> Self {
        QueryHandle(id)
    }

    /// The underlying query id.
    pub fn id(&self) -> QueryId {
        self.0
    }
}

impl std::fmt::Display for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What `MultiQueryRuntime::poll` reports about a handle.
#[derive(Debug)]
pub enum QueryStatus<'a, R, E> {
    /// Still waiting for an epoch slot.
    Queued {
        /// Position in the current policy-ordered queue (0 = next up).
        rank: usize,
        /// Total queue depth.
        depth: usize,
    },
    /// Serviced: the outcome (answer, attribution, deadline accounting).
    Completed(&'a QueryOutcome<R, E>),
    /// Cancelled by the caller before it was serviced.
    Cancelled,
    /// Dropped by overload shedding: the runtime judged the query could
    /// no longer meet its deadline behind the backlog and freed its slot
    /// for queries that still can. Recorded, never silent — the shed
    /// counter and this status account for every one.
    Shed,
    /// Destroyed by a process crash while queued and not (yet) recovered
    /// from the write-ahead journal. With journaling enabled a restart
    /// moves the query back to `Queued` under the same handle.
    Lost,
    /// Extracted from this runtime for re-admission elsewhere (roaming
    /// handoff): this handle no longer controls it — poll the
    /// destination's handle instead.
    Migrated,
    /// The runtime has never seen this handle (e.g. it belongs to another
    /// runtime instance).
    Unknown,
}

impl<R, E> QueryStatus<'_, R, E> {
    /// True when the query has been serviced.
    pub fn is_completed(&self) -> bool {
        matches!(self, QueryStatus::Completed(_))
    }

    /// True when the query is still waiting in the queue.
    pub fn is_queued(&self) -> bool {
        matches!(self, QueryStatus::Queued { .. })
    }
}
