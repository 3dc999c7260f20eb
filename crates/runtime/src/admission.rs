//! Typed admission verdicts for the bounded multi-query runtime.
//!
//! The paper's handhelds are resource-limited clients of a shared fabric
//! (§2); a broker that silently queues forever hides exactly the resource
//! exhaustion the system is supposed to manage. Every submission therefore
//! returns an [`Admission`]: admitted with a handle the caller can poll for
//! its place in the queue, or rejected with a machine-readable
//! [`RejectReason`] *plus the options that were refused*, so the caller can
//! relax a constraint and resubmit without reconstructing its request.

use crate::handle::QueryHandle;
use std::fmt;

/// Stable per-runtime query identifier, in admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Per-submission options, built by chaining:
///
/// ```
/// use pg_runtime::QueryOpts;
/// use pg_sim::Duration;
///
/// let opts = QueryOpts::with_deadline(Duration::from_secs(120)).priority(3);
/// assert_eq!(opts.priority, 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryOpts {
    /// Response deadline relative to submission. Feeds EDF ordering, the
    /// per-query `deadline_exceeded` annotation, and (when preemption is
    /// enabled) slack-based queue jumps; generous deadlines change nothing.
    pub deadline: Option<pg_sim::Duration>,
    /// Scheduling priority: higher values are serviced first under every
    /// policy (the policy key only orders queries of equal priority). The
    /// default 0 leaves the policy ordering untouched.
    pub priority: u8,
}

impl QueryOpts {
    /// Options with a relative deadline.
    pub fn with_deadline(deadline: pg_sim::Duration) -> Self {
        QueryOpts {
            deadline: Some(deadline),
            ..QueryOpts::default()
        }
    }

    /// Chainable priority setter (higher = serviced first).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// The verdict returned by `MultiQueryRuntime::submit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// In the queue; `poll` reports its live rank and the queue depth.
    Admitted {
        /// Handle for polling, cancelling, or tightening the deadline.
        handle: QueryHandle,
    },
    /// Not accepted; nothing was queued.
    Rejected {
        /// Why the runtime turned the query away.
        reason: RejectReason,
    },
}

impl Admission {
    /// The handle, when the query entered the queue.
    pub fn handle(&self) -> Option<QueryHandle> {
        match self {
            Admission::Admitted { handle } => Some(*handle),
            Admission::Rejected { .. } => None,
        }
    }

    /// True when the query entered the queue.
    pub fn is_accepted(&self) -> bool {
        self.handle().is_some()
    }
}

/// Why a submission was rejected at the door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The bounded admission queue is full.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The deadline is shorter than one scheduling epoch: no schedule can
    /// complete it in time, so admitting it would only burn energy.
    DeadlineUnmeetable {
        /// The requested deadline, seconds.
        deadline_s: f64,
        /// The scheduler's epoch length, seconds.
        epoch_s: f64,
    },
    /// Overload backpressure: the queue depth crossed the shedding
    /// watermark, so the runtime turns new work away *before* the queue is
    /// physically full. Unlike [`RejectReason::QueueFull`] this carries a
    /// machine-readable `retry_after` hint — the runtime's estimate of when
    /// the backlog will have drained below the watermark — so a
    /// well-behaved client (e.g. the metro workload generator's
    /// exponential backoff) resubmits when the grid can actually take the
    /// query instead of hammering a saturated base station.
    Overloaded {
        /// Resubmitting before this much time has passed will almost
        /// certainly be rejected again.
        retry_after: pg_sim::Duration,
        /// Queue depth at the moment of rejection.
        queue_depth: usize,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} queries)")
            }
            RejectReason::DeadlineUnmeetable {
                deadline_s,
                epoch_s,
            } => write!(
                f,
                "deadline {deadline_s:.3} s shorter than one {epoch_s:.3} s epoch"
            ),
            RejectReason::Overloaded {
                retry_after,
                queue_depth,
            } => write!(
                f,
                "overloaded ({queue_depth} queued); retry after {:.1} s",
                retry_after.as_secs_f64()
            ),
        }
    }
}
