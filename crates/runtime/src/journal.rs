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
//! It keeps what replay reads, not the log: each record is applied as it
//! is appended (an entry opens its query, a tightening moves its deadline,
//! a close drops it), so it holds one entry per open query and the count
//! of records appended, and replay returns what folding the whole log
//! would (pinned by property test).
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

/// The write-ahead journal, kept as what replay reads (see the module doc).
#[derive(Debug, Clone, Default)]
pub struct QueryJournal {
    /// Per open query, its entry record, deadline as last tightened.
    open: BTreeMap<QueryId, JournalRecord>,
    /// Records appended so far.
    appended: usize,
}

impl QueryJournal {
    /// An empty journal.
    pub fn new() -> Self {
        QueryJournal::default()
    }

    /// Append one record (the simulated fsync), applied as replay folds it;
    /// a tightening or close of an id that is not open is only counted.
    pub fn append(&mut self, record: JournalRecord) {
        self.appended += 1;
        let id = record.id();
        match record {
            JournalRecord::Admitted(_) | JournalRecord::MigratedIn(_) => {
                self.open.insert(id, record);
            }
            JournalRecord::Tightened { deadline_abs, .. } => {
                if let Some(JournalRecord::Admitted(q) | JournalRecord::MigratedIn(q)) =
                    self.open.get_mut(&id)
                {
                    q.deadline_abs = Some(deadline_abs);
                }
            }
            // Every other record closes its query.
            _ => {
                self.open.remove(&id);
            }
        }
    }

    /// Records appended so far, closed queries' included.
    pub fn len(&self) -> usize {
        self.appended
    }

    /// Is the journal empty?
    pub fn is_empty(&self) -> bool {
        self.appended == 0
    }

    /// The kept entry records, in id order: appended to an empty journal
    /// they replay to the same open set.
    pub fn records(&self) -> impl Iterator<Item = &JournalRecord> {
        self.open.values()
    }

    /// Replay: the queries admitted (or migrated in) but never completed,
    /// cancelled, shed, or migrated out — each as the record it entered
    /// the queue as, with its deadline as last tightened — in id order, so
    /// the recovery insertion order is deterministic whatever the crash
    /// interleaving was. This is the journal-replay hot path pgbench times
    /// as `runtime.journal.replay_busy_s`.
    pub fn open_queries(&self) -> Vec<QueuedQuery> {
        self.open
            .values()
            .filter_map(|r| match r {
                JournalRecord::Admitted(q) | JournalRecord::MigratedIn(q) => Some(q.clone()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propcheck::{check, Gen};

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

    #[test]
    fn closed_queries_leave_nothing_but_the_count() {
        let mut j = QueryJournal::new();
        for id in 0..50 {
            j.append(admit(id));
            j.append(JournalRecord::Completed { id: QueryId(id) });
        }
        assert_eq!(j.records().count(), 0);
        assert_eq!(j.len(), 100);
        assert!(j.open_queries().is_empty());
    }

    /// The oracle: every record kept in append order and folded into the
    /// open set on each replay, as the journal first did it.
    fn fold(records: &[JournalRecord]) -> Vec<QueuedQuery> {
        let mut open: BTreeMap<QueryId, QueuedQuery> = BTreeMap::new();
        for rec in records {
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

    /// One record about one of a few ids, so entries, tightenings and
    /// closes hit known, closed and never-seen ids in any order.
    fn draw_record(g: &mut Gen) -> JournalRecord {
        let id = QueryId(g.range(0..8u64));
        let entry = |g: &mut Gen| QueuedQuery {
            id,
            text: format!("q{}", g.range(0..4u8)),
            submitted_at: SimTime::from_secs(g.range(0..100u64)),
            deadline_abs: g.bool().then(|| SimTime::from_secs(g.range(100..900u64))),
            estimate_j: g.range(0.0..2.0),
            priority: g.range(0..3u8),
        };
        match g.range(0..7u8) {
            0 => JournalRecord::Admitted(entry(g)),
            1 => JournalRecord::MigratedIn(entry(g)),
            2 => JournalRecord::Tightened {
                id,
                deadline_abs: SimTime::from_secs(g.range(0..900u64)),
            },
            3 => JournalRecord::Completed { id },
            4 => JournalRecord::Cancelled { id },
            5 => JournalRecord::Shed { id },
            _ => JournalRecord::MigratedOut { id },
        }
    }

    #[test]
    fn replay_and_len_agree_with_the_full_fold() {
        check("replay_and_len_agree_with_the_full_fold", 256, |g| {
            let records = g.vec(0..60, draw_record);
            let mut j = QueryJournal::new();
            for (n, r) in records.iter().enumerate() {
                j.append(r.clone());
                assert_eq!(j.len(), n + 1);
                assert_eq!(j.open_queries(), fold(&records[..=n]), "after {n} records");
            }
        });
    }
}
