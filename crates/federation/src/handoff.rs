//! Replicated handoff records, D-GRID style.
//!
//! Every cross-cell handoff — a migrating in-flight query or a result
//! forwarded home — is tracked by a [`HandoffRecord`] that moves through
//! `Pending → InProgress` and ends in one of two terminal phases:
//! `Completed`, or `Abandoned` when its envelope dead-lettered or the
//! forward will never carry an answer. Records live in per-cell
//! [`HandoffStore`]s replicated by the gossip layer (SNIPPETS #1: queue /
//! in-progress / completed state replicated between peers with no central
//! orchestrator). A record is a phase lattice: everything in it but the
//! phase is fixed when it is opened, the phase only moves forward, and a
//! merge keeps the later phase, so whichever replica has seen more of the
//! handoff wins and every cell converges on the same view. What a handoff
//! cost (its latency, whether it landed warm) is measured once, where it
//! lands, in the driver's `FederationStats`, not replicated here.
//!
//! A ledger walks only what is still open somewhere. Each live record
//! carries two sets of replicas, one bit per cell index: `held`, the
//! replicas seen holding it terminal, and `settled`, the replicas seen
//! holding it with `held` full — each of those knows that every replica
//! holds it terminal. A gossip contact joins both sets by union
//! (`HandoffStore::merge_from`, told its own index, the peer's and the
//! federation's size). Once `settled` is full the record leaves the live
//! vector for a checkpoint of per-phase counts and a sum of record hashes;
//! [`len`](HandoffStore::len), [`phase_counts`](HandoffStore::phase_counts)
//! and [`ledger_hash`](HandoffStore::ledger_hash) count checkpoint and
//! live records alike, so retiring a record changes none of them.
//!
//! Retirement needs no retired-id table because of two rules. When a store
//! has retired a record, every live copy of it carries that store's own
//! bit in `held`, since `settled` was full. So a record a store does not
//! hold whose `held` names the store is one it retired, and it is dropped,
//! never re-adopted. And a peer that lacks a record it is known to have
//! held terminal retired it, so the receiver retires it too. One level is
//! not enough: retiring on a full `held` leaves peers whose copies lack
//! the retiree's bit, and the retiree would adopt their copy a second
//! time.
//!
//! Live records are a `Vec` **sorted by [`HandoffId`]**. A gossip contact
//! is store-to-store: one lockstep walk down the two sorted vectors,
//! absorbing in place where the ids match and cloning only the records the
//! receiver has never seen. No snapshot is copied and no record is looked
//! up. Point operations (`open`, `advance`, `get`, single-record `merge`)
//! are binary searches. The `BTreeMap` ledger this replaced, which never
//! retires anything, is the `#[cfg(test)]` oracle the stores are checked
//! against.

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
    /// Terminal, nothing delivered: the envelope dead-lettered on the bus,
    /// or the forward will never carry an answer (its query was shed, lost
    /// in a crash, migrated away, or given a newer forward).
    Abandoned,
    /// Terminal: re-admitted at the destination, or the result delivered.
    Completed,
}

impl HandoffPhase {
    /// No replica moves the record on its own from here.
    fn is_terminal(self) -> bool {
        self >= HandoffPhase::Abandoned
    }
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
}

impl HandoffRecord {
    /// Anti-entropy merge of another replica's copy: keep the later phase.
    /// Returns true when that moved this copy.
    fn absorb(&mut self, other: &HandoffRecord) -> bool {
        let changed = other.phase > self.phase;
        if changed {
            self.phase = other.phase;
        }
        changed
    }

    /// FNV-1a over every field: this record's term in the ledger hash.
    fn hash(&self) -> u64 {
        let phase = match self.phase {
            HandoffPhase::Pending => 1,
            HandoffPhase::InProgress => 2,
            HandoffPhase::Completed => 3,
            HandoffPhase::Abandoned => 4,
        };
        let kind = match self.kind {
            HandoffKind::Migrate => 1,
            HandoffKind::ForwardHome => 2,
        };
        [
            self.id.0,
            self.user,
            u64::from(self.from.0),
            u64::from(self.to.0),
            kind,
            phase,
            self.opened_at.as_nanos(),
        ]
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v).wrapping_mul(0x100_0000_01b3)
        })
    }
}

/// One gossip contact as retirement sees it: the receiving replica's bit,
/// the sending peer's, and the set of every replica.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Quorum {
    me: u64,
    peer: u64,
    all: u64,
}

impl Quorum {
    /// A contact that sets no bit and can never be full: a plain merge.
    pub(crate) const NONE: Quorum = Quorum {
        me: 0,
        peer: 0,
        all: u64::MAX,
    };

    /// Replica `me` merging from replica `peer`, of `replicas` in all. A
    /// federation of more cells than a `u64` has bits retires nothing.
    pub(crate) fn new(me: usize, peer: usize, replicas: usize) -> Quorum {
        if !(1..=64).contains(&replicas) {
            return Quorum::NONE;
        }
        debug_assert!(me < replicas && peer < replicas && me != peer);
        Quorum {
            me: 1 << me,
            peer: 1 << peer,
            all: u64::MAX >> (64 - replicas),
        }
    }
}

/// A record still open somewhere, with the replicas known to hold it
/// terminal.
#[derive(Debug, Clone)]
struct Live {
    record: HandoffRecord,
    /// Replicas seen holding the record terminal.
    held: u64,
    /// Replicas seen holding it with `held` full.
    settled: u64,
}

impl Live {
    fn new(record: HandoffRecord) -> Live {
        Live {
            record,
            held: 0,
            settled: 0,
        }
    }

    /// Join the peer's copy's sets into these (its record already
    /// absorbed), counting the peer in where its copy shows it. True once
    /// the record is settled everywhere.
    fn join(&mut self, theirs: &Live, q: Quorum) -> bool {
        let mut held = theirs.held;
        if theirs.record.phase.is_terminal() {
            held |= q.peer;
        }
        if held == q.all {
            self.settled |= q.peer;
        }
        self.held |= held;
        self.settled |= theirs.settled;
        self.count_me(q)
    }

    /// The peer holds no copy. True when this one should retire: settled
    /// everywhere, or the peer — known to have held it terminal — retired
    /// it, which it does only once the record is settled everywhere.
    fn alone(&mut self, q: Quorum) -> bool {
        if self.held & q.peer != 0 {
            self.settled = q.all;
        }
        self.count_me(q)
    }

    /// Count this replica in; true once the record is settled everywhere.
    fn count_me(&mut self, q: Quorum) -> bool {
        if self.record.phase.is_terminal() {
            self.held |= q.me;
        }
        if self.held == q.all {
            self.settled |= q.me;
        }
        self.settled == q.all
    }
}

/// One cell's replica of the federation-wide handoff ledger.
#[derive(Debug, Clone, Default)]
pub struct HandoffStore {
    /// Strictly ascending by id.
    live: Vec<Live>,
    /// Records retired, by phase (`HandoffPhase as usize`).
    retired: [usize; 4],
    /// Wrapping sum of the retired records' hashes.
    retired_hash: u64,
}

impl HandoffStore {
    /// An empty ledger.
    pub fn new() -> Self {
        HandoffStore::default()
    }

    /// Where `id` is (`Ok`) or would be inserted (`Err`) among the live
    /// records.
    fn position(&self, id: HandoffId) -> Result<usize, usize> {
        self.live.binary_search_by_key(&id, |l| l.record.id)
    }

    /// Absorb `record` into the replica's copy of it, or adopt it if the
    /// id is not live here. Returns true when the ledger changed.
    fn upsert(&mut self, record: &HandoffRecord) -> bool {
        match self.position(record.id) {
            Ok(i) => self.live[i].record.absorb(record),
            Err(i) => {
                self.live.insert(i, Live::new(record.clone()));
                true
            }
        }
    }

    /// Open a record. Callers mint fresh ids; replaying a copy of a record
    /// the ledger still holds merges like any other replica's copy, so an
    /// older `Pending` can never un-complete it.
    pub fn open(&mut self, record: HandoffRecord) {
        self.upsert(&record);
    }

    /// Advance `id` to `phase` if that moves it forward from a phase that
    /// is not terminal. A terminal record is final at its replica, which
    /// is what lets retirement checkpoint its value.
    pub fn advance(&mut self, id: HandoffId, phase: HandoffPhase) {
        if let Ok(i) = self.position(id) {
            let r = &mut self.live[i].record;
            if phase > r.phase && !r.phase.is_terminal() {
                r.phase = phase;
            }
        }
    }

    /// Look up one live record.
    pub fn get(&self, id: HandoffId) -> Option<&HandoffRecord> {
        self.position(id).ok().map(|i| &self.live[i].record)
    }

    /// A copy of every live record, in id order.
    pub fn snapshot(&self) -> Vec<HandoffRecord> {
        self.live.iter().map(|l| l.record.clone()).collect()
    }

    /// Merge records in any order (an envelope's one record, a peer's
    /// snapshot): unknown records are adopted, known ones absorbed (the
    /// later phase wins). Idempotent and commutative, so gossip order never
    /// matters. Returns how many records were adopted or changed — the
    /// anti-entropy delta, zero once two replicas have converged.
    pub fn merge(&mut self, snapshot: &[HandoffRecord]) -> usize {
        let mut delta = 0;
        for r in snapshot {
            delta += usize::from(self.upsert(r));
        }
        delta
    }

    /// Merge a peer's whole ledger, replica to replica — what
    /// `merge(&other.snapshot())` would do, same delta, without the copy
    /// or the lookups — and retire what `q` shows settled everywhere. One
    /// lockstep pass down both sorted vectors absorbs the records both
    /// sides hold and joins their replica sets; only if the peer holds ids
    /// this replica lacks (and never retired) does a second pass clone
    /// those in, merging backwards into the grown vector so nothing is
    /// shifted twice or rebuilt. Retired records leave in one last pass.
    pub(crate) fn merge_from(&mut self, other: &HandoffStore, q: Quorum) -> usize {
        let mut delta = 0;
        let mut missing = 0;
        let mut first_missing = None;
        let mut settled = false;
        let mut i = 0;
        for theirs in &other.live {
            let id = theirs.record.id;
            while let Some(mine) = self.live.get_mut(i).filter(|l| l.record.id < id) {
                settled |= mine.alone(q);
                i += 1;
            }
            match self.live.get_mut(i) {
                Some(mine) if mine.record.id == id => {
                    delta += usize::from(mine.record.absorb(&theirs.record));
                    settled |= mine.join(theirs, q);
                    i += 1;
                }
                // It names this replica as a holder: retired here.
                _ if theirs.held & q.me != 0 => {}
                _ => {
                    missing += 1;
                    first_missing.get_or_insert(theirs);
                }
            }
        }
        for mine in &mut self.live[i..] {
            settled |= mine.alone(q);
        }
        if let Some(filler) = first_missing {
            // Backward merge: `read` is the end of this replica's records
            // not yet placed, `write` the end of the free space above them.
            // Every slot from the final `write` up is written exactly once,
            // so the filler the vector grew by never survives.
            let mut read = self.live.len();
            let mut write = read + missing;
            self.live.resize(write, filler.clone());
            for theirs in other.live.iter().rev() {
                let id = theirs.record.id;
                while read > 0 && self.live[read - 1].record.id > id {
                    read -= 1;
                    write -= 1;
                    self.live.swap(read, write);
                }
                if read > 0 && self.live[read - 1].record.id == id || theirs.held & q.me != 0 {
                    continue;
                }
                write -= 1;
                let mut adopted = Live::new(theirs.record.clone());
                adopted.join(theirs, q);
                self.live[write] = adopted;
                if write == read {
                    break;
                }
            }
            delta += missing;
        }
        if settled {
            let (retired, hash) = (&mut self.retired, &mut self.retired_hash);
            self.live.retain(|l| {
                if l.settled != q.all {
                    return true;
                }
                retired[l.record.phase as usize] += 1;
                *hash = hash.wrapping_add(l.record.hash());
                false
            });
        }
        delta
    }

    /// Order-independent fingerprint of every record this replica knows,
    /// retired or live: a wrapping sum of per-record hashes, so two
    /// replicas that gossiped to convergence hash identically however
    /// their updates interleaved, and retiring a record never moves it.
    pub fn ledger_hash(&self) -> u64 {
        (self.live.iter()).fold(self.retired_hash, |h, l| h.wrapping_add(l.record.hash()))
    }

    /// Total records known, retired or live.
    pub fn len(&self) -> usize {
        self.retired.iter().sum::<usize>() + self.live.len()
    }

    /// Is the ledger empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many records, retired or live, sit in each phase: `[pending,
    /// in_progress, abandoned, completed]`.
    pub fn phase_counts(&self) -> [usize; 4] {
        let mut c = self.retired;
        for l in &self.live {
            c[l.record.phase as usize] += 1;
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
    fn advance_is_monotone_and_final_once_terminal() {
        let mut s = HandoffStore::new();
        s.open(rec(7, HandoffPhase::Pending));
        s.advance(HandoffId(7), HandoffPhase::InProgress);
        s.advance(HandoffId(7), HandoffPhase::Completed);
        assert_eq!(
            s.get(HandoffId(7)).map(|r| r.phase),
            Some(HandoffPhase::Completed)
        );
        // A late Pending replay changes nothing.
        s.advance(HandoffId(7), HandoffPhase::Pending);
        assert_eq!(
            s.get(HandoffId(7)).map(|r| r.phase),
            Some(HandoffPhase::Completed)
        );
        assert_eq!(s.phase_counts(), [0, 0, 0, 1]);

        // An abandoned record is final here: completing it is a no-op.
        s.open(rec(8, HandoffPhase::Pending));
        s.advance(HandoffId(8), HandoffPhase::Abandoned);
        s.advance(HandoffId(8), HandoffPhase::Completed);
        assert_eq!(
            s.get(HandoffId(8)).map(|r| r.phase),
            Some(HandoffPhase::Abandoned)
        );
        assert_eq!(s.phase_counts(), [0, 0, 1, 1]);
    }

    /// Regression: `open` used to overwrite whatever the ledger held, so
    /// replaying the opener's original `Pending` copy over a record that
    /// had since completed un-completed it.
    #[test]
    fn reopening_a_known_id_never_regresses_it() {
        let mut s = HandoffStore::new();
        s.open(rec(7, HandoffPhase::Pending));
        s.advance(HandoffId(7), HandoffPhase::Completed);
        let done = s.snapshot();
        s.open(rec(7, HandoffPhase::Pending));
        assert_eq!(s.snapshot(), done);
        // A copy that is further along still lands.
        let mut t = HandoffStore::new();
        t.open(rec(7, HandoffPhase::Pending));
        t.open(done[0].clone());
        assert_eq!(t.snapshot(), done);
    }

    /// Three replicas, one record: it retires at each replica only once
    /// every replica has seen every other hold it terminal, and a copy a
    /// lagging peer pushes afterwards is dropped, not adopted again.
    #[test]
    fn a_settled_record_retires_and_is_never_adopted_again() {
        let n = 3;
        let mut s: Vec<HandoffStore> = (0..n).map(|_| HandoffStore::new()).collect();
        s[0].open(rec(5, HandoffPhase::Completed));
        s[1].open(rec(6, HandoffPhase::Pending));
        let hash = |s: &[HandoffStore]| {
            let mut a = HandoffStore::new();
            for x in s {
                a.merge(&x.snapshot());
            }
            a.ledger_hash()
        };
        let want = hash(&s);
        let contact = |s: &mut [HandoffStore], to: usize, from: usize| {
            let Ok([a, b]) = s.get_disjoint_mut([to, from]) else {
                unreachable!()
            };
            a.merge_from(b, Quorum::new(to, from, n));
        };
        // 0 -> 1 -> 2 spreads it. 2 sees every replica hold it terminal,
        // 2 -> 1 tells 1 so, but neither knows the others know: both keep
        // it live.
        for (to, from) in [(1, 0), (2, 1), (1, 2)] {
            contact(&mut s, to, from);
        }
        assert!(s.iter().all(|x| x.get(HandoffId(5)).is_some()));
        // 1 -> 0: 0 learns that 1 and 2 both saw it held everywhere, and
        // it has now seen that too. It retires the record.
        contact(&mut s, 0, 1);
        assert!(s[0].get(HandoffId(5)).is_none(), "0 never retired it");
        assert_eq!(s[0].phase_counts(), [1, 0, 0, 1]);
        // 0 -> 1 carries only #6, but 1's copy of #5 lists 0 as a holder
        // and 0 no longer holds it: 0 retired it, so 1 may too.
        contact(&mut s, 1, 0);
        assert!(s[1].get(HandoffId(5)).is_none());
        // 2 still holds it live and pushes it back to 0 and 1: dropped.
        assert!(s[2].get(HandoffId(5)).is_some());
        contact(&mut s, 0, 2);
        contact(&mut s, 1, 2);
        for x in &s {
            assert_eq!(x.len(), 2, "a retired id was counted twice");
            assert_eq!(x.phase_counts(), [1, 0, 0, 1]);
            assert_eq!(x.ledger_hash(), want, "retiring moved the hash");
        }
        assert!(s[0].get(HandoffId(5)).is_none() && s[1].get(HandoffId(5)).is_none());
        contact(&mut s, 2, 0);
        assert!(s[2].get(HandoffId(5)).is_none());
        assert!(s.iter().all(|x| x.snapshot().len() == 1));
    }

    mod against_oracle {
        use super::super::oracle;
        use super::*;
        use propcheck::{check, Gen};

        /// One drawn record: `(id, phase)`. Everything else in it follows
        /// from the id, as it does for two replicas of one record.
        type Drawn = (u64, u8);

        fn drawn(g: &mut Gen) -> Vec<Drawn> {
            g.vec(0..20, |g| (g.range(0u64..24), g.range(0u8..4)))
        }

        fn record(id: HandoffId, phase: u8) -> HandoffRecord {
            HandoffRecord {
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
                    HandoffPhase::Abandoned,
                    HandoffPhase::Completed,
                ][phase as usize],
                opened_at: SimTime::from_secs(id.0),
            }
        }

        /// The same ledger in both representations; a repeated id keeps
        /// its first draw. Ids are spread by `stride` and moved by
        /// `offset`, so two sides can interleave, overlap or sit apart.
        fn build(recs: &[Drawn], stride: u64, offset: u64) -> (HandoffStore, oracle::HandoffStore) {
            let mut new = HandoffStore::new();
            let mut old = oracle::HandoffStore::default();
            for &(id, phase) in recs {
                let id = HandoffId(id * stride + offset);
                if new.get(id).is_some() {
                    continue;
                }
                let r = record(id, phase);
                new.open(r.clone());
                old.open(r);
                assert_sorted(&new);
            }
            (new, old)
        }

        fn assert_sorted(s: &HandoffStore) {
            assert!(
                s.live.windows(2).all(|w| w[0].record.id < w[1].record.id),
                "ledger out of id order: {:?}",
                s.live.iter().map(|l| l.record.id).collect::<Vec<_>>()
            );
        }

        /// One step of a gossip schedule over `n` replicas: open a fresh
        /// record at a replica, advance one it holds, or merge one replica
        /// into another.
        #[derive(Debug, Clone)]
        enum Op {
            Open { at: usize, phase: u8 },
            Advance { at: usize, pick: usize, phase: u8 },
            Contact { to: usize, from: usize },
        }

        /// Up to 120 steps, half of them contacts.
        fn ops(g: &mut Gen, n: usize) -> Vec<Op> {
            g.vec(0..120, |g| match g.range(0..4) {
                0 => Op::Open {
                    at: g.range(0..n),
                    phase: g.range(0u8..4),
                },
                1 => Op::Advance {
                    at: g.range(0..n),
                    pick: g.range(0usize..64),
                    phase: g.range(1u8..4),
                },
                _ => Op::Contact {
                    to: g.range(0..n),
                    from: g.range(0..n),
                },
            })
        }

        /// What a checkpointed replica must agree on with the oracle
        /// replica that went through the same merges but retires nothing.
        fn agree(new: &HandoffStore, old: &oracle::HandoffStore) {
            assert_eq!(new.ledger_hash(), old.ledger_hash());
            assert_eq!(new.len(), old.len());
            assert_eq!(new.phase_counts(), old.phase_counts());
            let all = old.snapshot();
            for r in new.snapshot() {
                assert!(
                    all.contains(&r),
                    "live record {:?} differs from the oracle's",
                    r.id
                );
            }
            assert_sorted(new);
        }

        /// Store-to-store `merge_from` against the map ledger merging
        /// a cloned snapshot: same delta, same records, same hash —
        /// for overlapping, interleaved and disjoint id sets, every
        /// phase, and either side empty. Then the algebra gossip relies
        /// on: idempotent, and a two-way exchange ends the same whichever
        /// leg runs first.
        #[test]
        fn lockstep_merge_matches_the_snapshot_merge() {
            check("lockstep_merge_matches_the_snapshot_merge", 512, |g| {
                let a = drawn(g);
                let b = drawn(g);
                let layout = g.range(0usize..4);
                // Same ids / interleaved / b above a / b below a.
                let (sa, oa, sb, ob) =
                    [(1, 0, 1, 0), (2, 0, 2, 1), (1, 0, 1, 100), (1, 100, 1, 0)][layout];
                let (a, a_old) = build(&a, sa, oa);
                let (b, b_old) = build(&b, sb, ob);
                let plain = Quorum::NONE;

                let mut x = a.clone();
                let mut x_old = a_old.clone();
                let delta = x.merge_from(&b, plain);
                assert_eq!(delta, x_old.merge(&b_old.snapshot()));
                assert_eq!(x.snapshot(), x_old.snapshot());
                assert_eq!(x.ledger_hash(), x_old.ledger_hash());
                assert_sorted(&x);

                // The slice form agrees, whatever order the slice is in.
                let mut reversed = b.snapshot();
                reversed.reverse();
                let mut via_slice = a.clone();
                assert_eq!(via_slice.merge(&reversed), delta);
                assert_eq!(via_slice.snapshot(), x.snapshot());
                assert_sorted(&via_slice);

                // Idempotent.
                assert_eq!(x.merge_from(&b, plain), 0);
                assert_eq!(x.snapshot(), x_old.snapshot());

                // Push-then-pull and pull-then-push leave both replicas
                // with the same ledger.
                let mut y = b.clone();
                y.merge_from(&x, plain);
                let mut y2 = b.clone();
                y2.merge_from(&a, plain);
                let mut x2 = a.clone();
                x2.merge_from(&y2, plain);
                assert_eq!(y.snapshot(), x.snapshot());
                assert_eq!(y2.snapshot(), x.snapshot());
                assert_eq!(x2.snapshot(), x.snapshot());
                assert_sorted(&y);
            });
        }

        /// Checkpointed replicas against oracle replicas driven
        /// through the same random schedule of opens, advances and
        /// contacts: after every step each agrees with its oracle on
        /// hash, count and phases, and every live record is the
        /// oracle's. Then everything open is abandoned and full
        /// rounds run: every live ledger empties, and every replica
        /// counts each record opened exactly once.
        #[test]
        fn checkpointed_replicas_match_the_oracle() {
            check("checkpointed_replicas_match_the_oracle", 512, |g| {
                let n = g.range(2usize..6);
                let steps = ops(g, 5);
                let mut new: Vec<HandoffStore> = (0..n).map(|_| HandoffStore::new()).collect();
                let mut old: Vec<oracle::HandoffStore> =
                    (0..n).map(|_| Default::default()).collect();
                let mut opened = 0u64;
                let contact = |new: &mut [HandoffStore],
                               old: &mut [oracle::HandoffStore],
                               to: usize,
                               from: usize| {
                    if to == from {
                        return;
                    }
                    let Ok([a, b]) = new.get_disjoint_mut([to, from]) else {
                        unreachable!()
                    };
                    a.merge_from(b, Quorum::new(to, from, n));
                    let theirs = old[from].snapshot();
                    old[to].merge(&theirs);
                };
                for op in steps {
                    match op {
                        Op::Open { at, phase } => {
                            let r = record(HandoffId(opened), phase);
                            opened += 1;
                            new[at % n].open(r.clone());
                            old[at % n].open(r);
                        }
                        Op::Advance { at, pick, phase } => {
                            // Only a record open at this replica moves here.
                            let at = at % n;
                            let open: Vec<HandoffRecord> = (new[at].snapshot().into_iter())
                                .filter(|r| !r.phase.is_terminal())
                                .collect();
                            if let Some(r) = open.get(pick % open.len().max(1)) {
                                let next = record(r.id, phase);
                                new[at].merge(std::slice::from_ref(&next));
                                old[at].merge(&[next]);
                            }
                        }
                        Op::Contact { to, from } => contact(&mut new, &mut old, to % n, from % n),
                    }
                    for (a, b) in new.iter().zip(&old) {
                        agree(a, b);
                        assert!(a.len() as u64 <= opened, "a retired id was adopted again");
                    }
                }
                // Close what is still open, then gossip every pair.
                for at in 0..n {
                    for r in new[at]
                        .snapshot()
                        .into_iter()
                        .filter(|r| !r.phase.is_terminal())
                    {
                        let next = record(r.id, 2);
                        new[at].merge(std::slice::from_ref(&next));
                        old[at].merge(&[next]);
                    }
                }
                for _ in 0..6 {
                    for to in 0..n {
                        for from in 0..n {
                            contact(&mut new, &mut old, to, from);
                        }
                    }
                }
                for (a, b) in new.iter().zip(&old) {
                    agree(a, b);
                    assert_eq!(a.len() as u64, opened);
                    assert!(a.live.is_empty(), "{} records never retired", a.live.len());
                    assert_eq!(a.ledger_hash(), new[0].ledger_hash());
                }
            });
        }
    }
}
