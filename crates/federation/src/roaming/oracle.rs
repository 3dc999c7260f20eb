//! The nested-map predictor, kept as the test oracle: counts in two levels
//! of `BTreeMap`, one upsert per observation, training one observation
//! per hop. [`super::NextCellPredictor`]'s flat tables must predict what
//! this one does for every user and cell, count ties included
//! (`tests::flat_tables_predict_what_the_nested_maps_do`).

use super::Trace;
use crate::gossip::CellId;
use std::collections::BTreeMap;

/// The map-backed predictor.
#[derive(Debug, Clone, Default)]
pub(super) struct NextCellPredictor {
    per_user: BTreeMap<(u64, CellId), BTreeMap<CellId, u64>>,
    global: BTreeMap<CellId, BTreeMap<CellId, u64>>,
    /// Transitions observed (training plus online).
    pub observations: u64,
}

impl NextCellPredictor {
    /// Record one observed transition.
    pub fn observe(&mut self, user: u64, from: CellId, to: CellId) {
        *self
            .per_user
            .entry((user, from))
            .or_default()
            .entry(to)
            .or_insert(0) += 1;
        *self.global.entry(from).or_default().entry(to).or_insert(0) += 1;
        self.observations += 1;
    }

    /// Offline training pass over historical traces.
    pub fn train(&mut self, traces: &[Trace]) {
        for t in traces {
            let mut from = t.start;
            for m in &t.moves {
                self.observe(t.user, from, m.to);
                from = m.to;
            }
        }
    }

    /// The argmax of `user`'s row for `cell` (smallest cell id breaking
    /// ties), else of the federation-wide row, else `None`.
    pub fn predict(&self, user: u64, cell: CellId) -> Option<CellId> {
        let argmax = |m: &BTreeMap<CellId, u64>| {
            m.iter()
                .max_by(|(ca, na), (cb, nb)| na.cmp(nb).then(cb.cmp(ca)))
                .map(|(&c, _)| c)
        };
        self.per_user
            .get(&(user, cell))
            .and_then(argmax)
            .or_else(|| self.global.get(&cell).and_then(argmax))
    }
}
