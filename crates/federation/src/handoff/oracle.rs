//! The pre-vector ledger, kept as the test oracle: records in a
//! `BTreeMap`, a peer's ledger merged from a cloned snapshot with one
//! lookup per record, nothing ever retired.
//! [`super::HandoffStore::merge_from`] must leave the same records and
//! report the same delta (`tests::lockstep_merge_matches_the_snapshot_merge`),
//! and a checkpointed store must count and hash what this one holds
//! (`tests::checkpointed_replicas_match_the_oracle`).

use super::{HandoffId, HandoffRecord};
use std::collections::BTreeMap;

/// The map-backed ledger.
#[derive(Debug, Clone, Default)]
pub(super) struct HandoffStore {
    records: BTreeMap<HandoffId, HandoffRecord>,
}

impl HandoffStore {
    /// Open (or overwrite) a record.
    pub fn open(&mut self, record: HandoffRecord) {
        self.records.insert(record.id, record);
    }

    /// Every record, for replication.
    pub fn snapshot(&self) -> Vec<HandoffRecord> {
        self.records.values().cloned().collect()
    }

    /// Merge a peer's snapshot; returns how many records were adopted or
    /// changed.
    pub fn merge(&mut self, snapshot: &[HandoffRecord]) -> usize {
        let mut delta = 0;
        for r in snapshot {
            match self.records.get_mut(&r.id) {
                Some(mine) => {
                    if mine.absorb(r) {
                        delta += 1;
                    }
                }
                None => {
                    self.records.insert(r.id, r.clone());
                    delta += 1;
                }
            }
        }
        delta
    }

    /// Fingerprint of the whole ledger: the wrapping sum of record hashes.
    pub fn ledger_hash(&self) -> u64 {
        (self.records.values()).fold(0, |h, r| h.wrapping_add(r.hash()))
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Records per phase, as [`super::HandoffStore::phase_counts`].
    pub fn phase_counts(&self) -> [usize; 4] {
        let mut c = [0; 4];
        for r in self.records.values() {
            c[r.phase as usize] += 1;
        }
        c
    }
}
