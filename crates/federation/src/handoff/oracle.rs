//! The pre-vector ledger, kept verbatim as the test oracle: records in a
//! `BTreeMap`, a peer's ledger merged from a cloned snapshot with one
//! lookup per record. [`super::HandoffStore::merge_from`] must leave the
//! same records and report the same delta
//! (`tests::lockstep_merge_matches_the_snapshot_merge`).

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

    /// Fingerprint of the whole ledger.
    pub fn ledger_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in self.records.values() {
            r.hash_into(&mut h);
        }
        h
    }
}
