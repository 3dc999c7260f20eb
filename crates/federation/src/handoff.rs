//! Replicated handoff records, D-GRID style.
//!
//! Every cross-cell handoff — a migrating in-flight query or a result
//! forwarded home — is tracked by a [`HandoffRecord`] that moves through
//! `Pending → InProgress → Completed`. Records live in per-cell
//! [`HandoffStore`]s replicated by the gossip layer (SNIPPETS #1: queue /
//! in-progress / completed state replicated between peers with no central
//! orchestrator), merging by phase dominance: a record can only move
//! forward, so whichever replica has seen more of the handoff wins and
//! every cell converges on the same view.
//!
//! A ledger is a `Vec` of records **sorted by [`HandoffId`]**. Gossip is
//! the ledger's hot path — every contact, every round, visits every record
//! of both replicas to apply a handful of changes — so the exchange is
//! store-to-store ([`HandoffStore::merge_from`]): one lockstep walk down
//! the two sorted vectors, absorbing in place where the ids match and
//! cloning only the records the receiver has never seen. No snapshot is
//! copied and no record is looked up. Point operations (`open`, `advance`,
//! `get`, single-record `merge`) are binary searches. The `BTreeMap`
//! ledger this replaced is the `#[cfg(test)]` oracle the lockstep merge is
//! checked against.

use crate::gossip::CellId;
use pg_sim::SimTime;

#[cfg(test)]
mod oracle;

/// Globally unique handoff identity: the opening cell in the high bits,
/// its local sequence number in the low bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HandoffId(pub u64);

impl HandoffId {
    /// Mint the `seq`-th handoff opened by `cell`.
    pub fn mint(cell: CellId, seq: u64) -> Self {
        debug_assert!(seq < (1 << 32));
        HandoffId(((cell.0 as u64) << 32) | (seq & 0xffff_ffff))
    }
}

/// Which way the handoff moves work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffKind {
    /// The queued query migrates with the roaming user: extracted at the
    /// origin, re-planned and re-admitted at the destination, partial
    /// results riding in the envelope.
    Migrate,
    /// The query completes at its origin after the user left; only the
    /// result travels, forwarded to the user's new cell.
    ForwardHome,
}

/// Lifecycle phase. Ordered: merge keeps the furthest-along phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HandoffPhase {
    /// Opened at the origin; the envelope is in flight.
    Pending,
    /// The destination has the envelope and is re-planning / admitting.
    InProgress,
    /// Done: re-admitted at the destination, or the result delivered.
    Completed,
}

/// One replicated handoff record.
#[derive(Debug, Clone, PartialEq)]
pub struct HandoffRecord {
    /// Globally unique id (see [`HandoffId::mint`]).
    pub id: HandoffId,
    /// The roaming user whose query this is.
    pub user: u64,
    /// Origin cell.
    pub from: CellId,
    /// Destination cell.
    pub to: CellId,
    /// Migration or forward-home.
    pub kind: HandoffKind,
    /// Current phase (monotone).
    pub phase: HandoffPhase,
    /// When the origin opened the record.
    pub opened_at: SimTime,
    /// When it completed, once it has.
    pub completed_at: Option<SimTime>,
    /// Measured end-to-end handoff latency, seconds (transport plus, for
    /// migrations, destination re-planning), once completed.
    pub latency_s: Option<f64>,
    /// The destination plan cache was warm when the handoff landed
    /// (pre-warmed by the next-cell predictor or still fresh).
    pub warm: bool,
}

impl HandoffRecord {
    /// Anti-entropy merge: phase dominance first, then — when both
    /// replicas sit at the *same* phase but diverged on the two sides of a
    /// partition — a deterministic field-wise join so every merge order
    /// converges on one value: earliest completion wins (ties broken by
    /// smaller latency), and `warm` joins by OR (either side saw a warm
    /// landing). Returns true when anything changed.
    fn absorb(&mut self, other: &HandoffRecord) -> bool {
        if other.phase > self.phase {
            self.phase = other.phase;
            self.completed_at = other.completed_at;
            self.latency_s = other.latency_s;
            self.warm = other.warm;
            return true;
        }
        if other.phase < self.phase {
            return false;
        }
        let mut changed = false;
        let other_key = (other.completed_at, other.latency_s.map(f64::to_bits));
        let my_key = (self.completed_at, self.latency_s.map(f64::to_bits));
        if other.completed_at.is_some() && (self.completed_at.is_none() || other_key < my_key) {
            self.completed_at = other.completed_at;
            self.latency_s = other.latency_s;
            changed = true;
        }
        if other.warm && !self.warm {
            self.warm = true;
            changed = true;
        }
        changed
    }

    /// Fold this record into a running FNV-1a hash — the ledger
    /// fingerprint two replicas compare to assert convergence.
    fn hash_into(&self, h: &mut u64) {
        let mut mixin = |v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(0x100_0000_01b3);
        };
        mixin(self.id.0);
        mixin(self.user);
        mixin(self.from.0 as u64);
        mixin(self.to.0 as u64);
        mixin(match self.kind {
            HandoffKind::Migrate => 1,
            HandoffKind::ForwardHome => 2,
        });
        mixin(match self.phase {
            HandoffPhase::Pending => 1,
            HandoffPhase::InProgress => 2,
            HandoffPhase::Completed => 3,
        });
        mixin(self.opened_at.as_nanos());
        mixin(self.completed_at.map_or(u64::MAX, |t| t.as_nanos()));
        mixin(self.latency_s.map_or(u64::MAX, f64::to_bits));
        mixin(self.warm as u64);
    }
}

/// One cell's replica of the federation-wide handoff ledger.
#[derive(Debug, Clone, Default)]
pub struct HandoffStore {
    /// Strictly ascending by `id`.
    records: Vec<HandoffRecord>,
}

impl HandoffStore {
    /// An empty ledger.
    pub fn new() -> Self {
        HandoffStore::default()
    }

    /// Where `id` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, id: HandoffId) -> Result<usize, usize> {
        self.records.binary_search_by_key(&id, |r| r.id)
    }

    /// Absorb `record` into the replica's copy of it, or adopt it if the
    /// id is new. Returns true when the ledger changed.
    fn upsert(&mut self, record: &HandoffRecord) -> bool {
        match self.position(record.id) {
            Ok(i) => self.records[i].absorb(record),
            Err(i) => {
                self.records.insert(i, record.clone());
                true
            }
        }
    }

    /// Open a record. Callers mint fresh ids; replaying a copy of a record
    /// the ledger already holds merges like any other replica's copy, so
    /// an older `Pending` can never un-complete it.
    pub fn open(&mut self, record: HandoffRecord) {
        self.upsert(&record);
    }

    /// Advance `id` to `phase` if that moves it forward; stamps completion
    /// time and measured latency when `phase` is Completed.
    pub fn advance(
        &mut self,
        id: HandoffId,
        phase: HandoffPhase,
        now: SimTime,
        latency_s: Option<f64>,
        warm: bool,
    ) {
        if let Ok(i) = self.position(id) {
            let r = &mut self.records[i];
            if phase > r.phase {
                r.phase = phase;
                r.warm = warm;
                if phase == HandoffPhase::Completed {
                    r.completed_at = Some(now);
                    r.latency_s = latency_s;
                }
            }
        }
    }

    /// Look up one record.
    pub fn get(&self, id: HandoffId) -> Option<&HandoffRecord> {
        self.position(id).ok().map(|i| &self.records[i])
    }

    /// A copy of every record, in id order.
    pub fn snapshot(&self) -> Vec<HandoffRecord> {
        self.records.clone()
    }

    /// Merge records in any order (an envelope's one record, a peer's
    /// snapshot): unknown records are adopted, known ones absorbed (phase
    /// dominance, then the field-wise join for equal phases). Idempotent
    /// and commutative, so gossip order never matters. Returns how many
    /// records were adopted or changed — the anti-entropy delta, zero once
    /// two replicas have converged.
    pub fn merge(&mut self, snapshot: &[HandoffRecord]) -> usize {
        let mut delta = 0;
        for r in snapshot {
            delta += usize::from(self.upsert(r));
        }
        delta
    }

    /// Merge a peer's whole ledger, replica to replica — what
    /// `merge(&other.snapshot())` would do, same delta, without the copy
    /// or the lookups. One lockstep pass down both sorted vectors absorbs
    /// the records both sides hold; only if the peer holds ids this
    /// replica lacks does a second pass clone those in, merging backwards
    /// into the grown vector so nothing is shifted twice or rebuilt.
    pub fn merge_from(&mut self, other: &HandoffStore) -> usize {
        let mut delta = 0;
        let mut missing = 0;
        let mut first_missing = None;
        let mut i = 0;
        for r in &other.records {
            while self.records.get(i).is_some_and(|mine| mine.id < r.id) {
                i += 1;
            }
            match self.records.get_mut(i) {
                Some(mine) if mine.id == r.id => {
                    delta += usize::from(mine.absorb(r));
                    i += 1;
                }
                _ => {
                    missing += 1;
                    first_missing.get_or_insert(r);
                }
            }
        }
        let Some(filler) = first_missing else {
            return delta;
        };
        // Backward merge: `read` is the end of this replica's records not
        // yet placed, `write` the end of the free space above them. Every
        // slot from the final `write` up is written exactly once, so the
        // filler the vector grew by never survives.
        let mut read = self.records.len();
        let mut write = read + missing;
        self.records.resize(write, filler.clone());
        for r in other.records.iter().rev() {
            while read > 0 && self.records[read - 1].id > r.id {
                read -= 1;
                write -= 1;
                self.records.swap(read, write);
            }
            if read > 0 && self.records[read - 1].id == r.id {
                continue;
            }
            write -= 1;
            self.records[write] = r.clone();
            if write == read {
                break;
            }
        }
        delta + missing
    }

    /// Order-independent fingerprint of the whole ledger: two replicas
    /// that gossiped to convergence hash identically, however their
    /// updates interleaved across a partition.
    pub fn ledger_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &self.records {
            r.hash_into(&mut h);
        }
        h
    }

    /// Total records known.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the ledger empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records sit in each phase: `(pending, in_progress,
    /// completed)`.
    pub fn phase_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.records {
            match r.phase {
                HandoffPhase::Pending => c.0 += 1,
                HandoffPhase::InProgress => c.1 += 1,
                HandoffPhase::Completed => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, phase: HandoffPhase) -> HandoffRecord {
        HandoffRecord {
            id: HandoffId(id),
            user: 1,
            from: CellId(0),
            to: CellId(1),
            kind: HandoffKind::Migrate,
            phase,
            opened_at: SimTime::ZERO,
            completed_at: None,
            latency_s: None,
            warm: false,
        }
    }

    #[test]
    fn merge_is_phase_dominant_and_idempotent() {
        let mut a = HandoffStore::new();
        let mut b = HandoffStore::new();
        a.open(rec(1, HandoffPhase::Pending));
        b.open(rec(1, HandoffPhase::Completed));
        b.open(rec(2, HandoffPhase::InProgress));
        let sb = b.snapshot();
        a.merge(&sb);
        assert_eq!(a.len(), 2);
        assert_eq!(
            a.get(HandoffId(1)).map(|r| r.phase),
            Some(HandoffPhase::Completed)
        );
        // Merging an older view back never regresses.
        let mut stale = HandoffStore::new();
        stale.open(rec(1, HandoffPhase::Pending));
        a.merge(&stale.snapshot());
        assert_eq!(
            a.get(HandoffId(1)).map(|r| r.phase),
            Some(HandoffPhase::Completed)
        );
        // Idempotent.
        let before = a.snapshot();
        a.merge(&sb);
        assert_eq!(a.snapshot(), before);
    }

    #[test]
    fn split_brain_equal_phase_divergence_converges_both_ways() {
        // Both sides of a partition completed the same record with
        // different observations; after anti-entropy the replicas agree
        // bit-for-bit whichever direction merged first.
        let mut left = rec(9, HandoffPhase::Completed);
        left.completed_at = Some(SimTime::from_secs(10));
        left.latency_s = Some(2.0);
        left.warm = false;
        let mut right = rec(9, HandoffPhase::Completed);
        right.completed_at = Some(SimTime::from_secs(8));
        right.latency_s = Some(3.5);
        right.warm = true;

        let mut a = HandoffStore::new();
        let mut b = HandoffStore::new();
        a.open(left.clone());
        b.open(right.clone());
        let d1 = a.merge(&b.snapshot());
        let d2 = b.merge(&a.snapshot());
        assert!(d1 > 0, "divergent replicas must report a merge delta");
        assert_eq!(a.ledger_hash(), b.ledger_hash(), "replicas diverge");
        // Earliest completion won; warm joined by OR.
        let r = a.get(HandoffId(9)).expect("present");
        assert_eq!(r.completed_at, Some(SimTime::from_secs(8)));
        assert_eq!(r.latency_s, Some(3.5));
        assert!(r.warm);
        // Converged replicas exchange zero delta from then on.
        assert_eq!(a.merge(&b.snapshot()), 0);
        assert_eq!(b.merge(&a.snapshot()), 0);
        let _ = d2;

        // The reverse merge order lands on the same value.
        let mut c = HandoffStore::new();
        let mut d = HandoffStore::new();
        c.open(right);
        d.open(left);
        c.merge(&d.snapshot());
        d.merge(&c.snapshot());
        assert_eq!(c.ledger_hash(), a.ledger_hash());
        assert_eq!(d.ledger_hash(), a.ledger_hash());
    }

    #[test]
    fn advance_is_monotone_and_stamps_completion() {
        let mut s = HandoffStore::new();
        s.open(rec(7, HandoffPhase::Pending));
        s.advance(
            HandoffId(7),
            HandoffPhase::InProgress,
            SimTime::from_secs(1),
            None,
            false,
        );
        s.advance(
            HandoffId(7),
            HandoffPhase::Completed,
            SimTime::from_secs(2),
            Some(0.25),
            true,
        );
        let r = s.get(HandoffId(7)).expect("present");
        assert_eq!(r.phase, HandoffPhase::Completed);
        assert_eq!(r.completed_at, Some(SimTime::from_secs(2)));
        assert_eq!(r.latency_s, Some(0.25));
        assert!(r.warm);
        // A late Pending replay changes nothing.
        s.advance(
            HandoffId(7),
            HandoffPhase::Pending,
            SimTime::from_secs(3),
            None,
            false,
        );
        assert_eq!(
            s.get(HandoffId(7)).map(|r| r.phase),
            Some(HandoffPhase::Completed)
        );
        assert_eq!(s.phase_counts(), (0, 0, 1));
    }

    /// Regression: `open` used to overwrite whatever the ledger held, so
    /// replaying the opener's original `Pending` copy over a record that
    /// had since completed un-completed it.
    #[test]
    fn reopening_a_known_id_never_regresses_it() {
        let mut s = HandoffStore::new();
        s.open(rec(7, HandoffPhase::Pending));
        s.advance(
            HandoffId(7),
            HandoffPhase::Completed,
            SimTime::from_secs(2),
            Some(0.25),
            true,
        );
        let done = s.snapshot();
        s.open(rec(7, HandoffPhase::Pending));
        assert_eq!(s.snapshot(), done);
        // A copy that is further along still lands.
        let mut t = HandoffStore::new();
        t.open(rec(7, HandoffPhase::Pending));
        t.open(done[0].clone());
        assert_eq!(t.snapshot(), done);
    }

    mod against_oracle {
        use super::super::oracle;
        use super::*;
        use proptest::prelude::*;

        /// One drawn record: `(id, phase, completed_at, latency, warm)`,
        /// the two options as `0 = None`, else `Some(n)` — and no latency
        /// without a completion time, since one stamp sets both.
        /// Everything that identifies the handoff follows from the id, as
        /// it does for two replicas of one record.
        type Drawn = (u64, u8, u64, u64, bool);

        fn drawn() -> impl Strategy<Value = Vec<Drawn>> {
            let one = (0u64..24, 0u8..3, 0u64..4, 0u64..4, any::<bool>());
            prop::collection::vec(one, 0..20)
        }

        /// The same ledger in both representations; a repeated id keeps
        /// its first draw. Ids are spread by `stride` and moved by
        /// `offset`, so two sides can interleave, overlap or sit apart.
        fn build(recs: &[Drawn], stride: u64, offset: u64) -> (HandoffStore, oracle::HandoffStore) {
            let mut new = HandoffStore::new();
            let mut old = oracle::HandoffStore::default();
            for &(id, phase, completed, latency, warm) in recs {
                let id = HandoffId(id * stride + offset);
                if new.get(id).is_some() {
                    continue;
                }
                let r = HandoffRecord {
                    id,
                    user: id.0,
                    from: CellId(id.0 as u32 % 5),
                    to: CellId(id.0 as u32 % 3),
                    kind: if id.0.is_multiple_of(2) {
                        HandoffKind::Migrate
                    } else {
                        HandoffKind::ForwardHome
                    },
                    phase: [
                        HandoffPhase::Pending,
                        HandoffPhase::InProgress,
                        HandoffPhase::Completed,
                    ][phase as usize],
                    opened_at: SimTime::from_secs(id.0),
                    completed_at: (completed > 0).then(|| SimTime::from_secs(completed)),
                    latency_s: (completed > 0 && latency > 0).then_some(latency as f64 * 0.5),
                    warm,
                };
                new.open(r.clone());
                old.open(r);
                assert_sorted(&new);
            }
            (new, old)
        }

        fn assert_sorted(s: &HandoffStore) {
            assert!(
                s.records.windows(2).all(|w| w[0].id < w[1].id),
                "ledger out of id order: {:?}",
                s.records.iter().map(|r| r.id).collect::<Vec<_>>()
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Store-to-store `merge_from` against the map ledger merging
            /// a cloned snapshot: same delta, same records, same hash —
            /// for overlapping, interleaved and disjoint id sets, every
            /// phase, equal-phase records that diverged, and either side
            /// empty. Then the algebra gossip relies on: idempotent, and
            /// a two-way exchange ends the same whichever leg runs first.
            #[test]
            fn lockstep_merge_matches_the_snapshot_merge(
                a in drawn(),
                b in drawn(),
                layout in 0usize..4,
            ) {
                // Same ids / interleaved / b above a / b below a.
                let (sa, oa, sb, ob) = [(1, 0, 1, 0), (2, 0, 2, 1), (1, 0, 1, 100), (1, 100, 1, 0)][layout];
                let (a, a_old) = build(&a, sa, oa);
                let (b, b_old) = build(&b, sb, ob);

                let mut x = a.clone();
                let mut x_old = a_old.clone();
                let delta = x.merge_from(&b);
                prop_assert_eq!(delta, x_old.merge(&b_old.snapshot()));
                prop_assert_eq!(x.snapshot(), x_old.snapshot());
                prop_assert_eq!(x.ledger_hash(), x_old.ledger_hash());
                assert_sorted(&x);

                // The slice form agrees, whatever order the slice is in.
                let mut reversed = b.snapshot();
                reversed.reverse();
                let mut via_slice = a.clone();
                prop_assert_eq!(via_slice.merge(&reversed), delta);
                prop_assert_eq!(via_slice.snapshot(), x.snapshot());
                assert_sorted(&via_slice);

                // Idempotent.
                prop_assert_eq!(x.merge_from(&b), 0);
                prop_assert_eq!(x.snapshot(), x_old.snapshot());

                // Push-then-pull and pull-then-push leave both replicas
                // with the same ledger.
                let mut y = b.clone();
                y.merge_from(&x);
                let mut y2 = b.clone();
                y2.merge_from(&a);
                let mut x2 = a.clone();
                x2.merge_from(&y2);
                prop_assert_eq!(y.snapshot(), x.snapshot());
                prop_assert_eq!(y2.snapshot(), x.snapshot());
                prop_assert_eq!(x2.snapshot(), x.snapshot());
                assert_sorted(&y);
            }
        }
    }
}
