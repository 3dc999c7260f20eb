//! Deterministic write-ahead query journal — crash recovery for the
//! multi-query runtime.
//!
//! A cell process that crashes loses its volatile admission queue; every
//! in-flight query a handheld was waiting on simply vanishes. The journal
//! fixes that the classic way: every admission-state transition appends a
//! [`JournalRecord`] *before* the transition is observable, so replaying
//! the journal after a restart reconstructs exactly the set of queries
//! that were admitted (locally or by migration) but not yet completed,
//! cancelled, shed, or migrated away. Replay preserves the original
//! [`QueryId`]s, so handles held by callers — including a federation
//! layer tracking cross-cell migrations — remain valid across the crash,
//! and completion accounting stays exactly-once: a query is counted
//! completed or lost, never both, never twice.
//!
//! Determinism contract: the journal is an in-memory value (the simulated
//! analogue of an fsync'd log); appending never draws randomness and
//! never perturbs scheduling, so a fault-free run with journaling enabled
//! is bit-identical to one without (pinned by property test).

use crate::admission::QueryId;
use crate::scheduler::QueuedQuery;
use pg_sim::SimTime;
use std::collections::BTreeMap;

/// One durable admission-state transition.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A fresh local submission entered the queue, as this record.
    Admitted(QueuedQuery),
    /// A query migrated in from another runtime entered the queue, as this
    /// record: the id and energy estimate are the ones assigned here, the
    /// submission instant and deadline are the original ones.
    MigratedIn(QueuedQuery),
    /// The caller tightened a still-queued query's deadline.
    Tightened {
        /// The tightened query.
        id: QueryId,
        /// Its new, earlier absolute deadline.
        deadline_abs: SimTime,
    },
    /// The query was serviced to completion.
    Completed {
        /// The completed query.
        id: QueryId,
    },
    /// The caller withdrew the query before service.
    Cancelled {
        /// The cancelled query.
        id: QueryId,
    },
    /// Overload control dropped the query as a guaranteed deadline miss.
    Shed {
        /// The shed query.
        id: QueryId,
    },
    /// The query was lifted out for re-admission in another runtime.
    MigratedOut {
        /// The extracted query.
        id: QueryId,
    },
}

impl JournalRecord {
    /// The query this record is about.
    pub fn id(&self) -> QueryId {
        match self {
            JournalRecord::Admitted(QueuedQuery { id, .. })
            | JournalRecord::MigratedIn(QueuedQuery { id, .. })
            | JournalRecord::Tightened { id, .. }
            | JournalRecord::Completed { id }
            | JournalRecord::Cancelled { id }
            | JournalRecord::Shed { id }
            | JournalRecord::MigratedOut { id } => *id,
        }
    }
}

/// The append-only write-ahead journal.
#[derive(Debug, Clone, Default)]
pub struct QueryJournal {
    records: Vec<JournalRecord>,
}

impl QueryJournal {
    /// An empty journal.
    pub fn new() -> Self {
        QueryJournal::default()
    }

    /// Append one record (the simulated fsync).
    pub fn append(&mut self, record: JournalRecord) {
        self.records.push(record);
    }

    /// Records appended so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the journal empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Every record, in append order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Replay: the queries admitted (or migrated in) but never completed,
    /// cancelled, shed, or migrated out — each as the record it entered
    /// the queue as, with its deadline as last tightened — in id order, so
    /// the recovery insertion order is deterministic whatever the crash
    /// interleaving was. This is the journal-replay hot path pgbench times
    /// as `runtime.journal.replay_busy_s`.
    pub fn open_queries(&self) -> Vec<QueuedQuery> {
        let mut open: BTreeMap<QueryId, QueuedQuery> = BTreeMap::new();
        for rec in &self.records {
            match rec {
                JournalRecord::Admitted(q) | JournalRecord::MigratedIn(q) => {
                    open.insert(q.id, q.clone());
                }
                JournalRecord::Tightened { id, deadline_abs } => {
                    if let Some(q) = open.get_mut(id) {
                        q.deadline_abs = Some(*deadline_abs);
                    }
                }
                JournalRecord::Completed { id }
                | JournalRecord::Cancelled { id }
                | JournalRecord::Shed { id }
                | JournalRecord::MigratedOut { id } => {
                    open.remove(id);
                }
            }
        }
        open.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(id: u64) -> JournalRecord {
        JournalRecord::Admitted(QueuedQuery {
            id: QueryId(id),
            text: format!("q{id}"),
            submitted_at: SimTime::from_secs(id),
            deadline_abs: Some(SimTime::from_secs(id + 120)),
            estimate_j: 0.5,
            priority: 0,
        })
    }

    #[test]
    fn replay_keeps_exactly_the_open_set() {
        let mut j = QueryJournal::new();
        for id in 0..6 {
            j.append(admit(id));
        }
        j.append(JournalRecord::Completed { id: QueryId(0) });
        j.append(JournalRecord::Cancelled { id: QueryId(1) });
        j.append(JournalRecord::Shed { id: QueryId(2) });
        j.append(JournalRecord::MigratedOut { id: QueryId(3) });
        let open = j.open_queries();
        let ids: Vec<u64> = open.iter().map(|q| q.id.0).collect();
        assert_eq!(ids, vec![4, 5]);
        assert_eq!(open[0].text, "q4");
        assert_eq!(open[0].submitted_at, SimTime::from_secs(4));
        // A migrated-in record reopens under its new id; closing it again
        // empties the set.
        j.append(JournalRecord::MigratedIn(QueuedQuery {
            id: QueryId(9),
            text: "q9".into(),
            submitted_at: SimTime::from_secs(1),
            deadline_abs: None,
            estimate_j: 0.0,
            priority: 2,
        }));
        j.append(JournalRecord::Completed { id: QueryId(4) });
        j.append(JournalRecord::Completed { id: QueryId(5) });
        let open = j.open_queries();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].id, QueryId(9));
        assert_eq!(open[0].priority, 2);
    }
}
