//! Anti-entropy gossip membership with heartbeat suspicion and eviction.
//!
//! Every cell keeps a [`Membership`] table mapping peers to their latest
//! heartbeat, load digest, and liveness classification. Each gossip round
//! a live cell increments its own heartbeat, picks a seeded random fanout
//! of known peers, and performs a push-pull digest exchange: both sides
//! merge entry-wise by heartbeat max, so fresher information always wins
//! (SNIPPETS #2's introducer idiom: a new cell bootstraps knowing only the
//! introducer and learns the rest by anti-entropy). Liveness is a local
//! judgment from staleness — a peer whose heartbeat has not advanced for
//! 120 s is *Suspect*, for 300 s *Dead* — so a crashed base station is
//! discovered without any central orchestrator, and a cell that recovers
//! (volunteer churn) is rehabilitated the moment its heartbeat advances
//! again. Cells are numbered densely from 0, so a table is one row per
//! cell in a `Vec` indexed by `CellId.0`: a merge reads the peer's rows in
//! cell order and writes each into the same slot, with no lookup.
//!
//! Digests piggyback a [`LoadDigest`] per cell — queue depth, overload
//! state, base-station health — which is what peer load absorption steers
//! by, and [`gossip_round`] also merges the replicated [`HandoffStore`]s
//! D-GRID-style so every cell converges on the same
//! pending/in-progress/terminal handoff view. Both exchanges are by
//! reference: a contact borrows the two cells' tables and the two cells'
//! ledgers out of their slices and merges one into the other in place
//! ([`Membership::merge_from`], `HandoffStore::merge_from`) — nothing is
//! copied to be sent. A ledger contact is told which two cells meet and
//! how many the federation has, which is all a ledger needs to retire the
//! records every cell holds settled (see [`crate::handoff`]), so each
//! contact walks only what is still open somewhere.

use crate::handoff::{HandoffStore, Quorum};
use pg_runtime::OverloadState;
use pg_sim::fault::FaultPlan;
use pg_sim::rng::mix;
use pg_sim::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Identity of one base-station cell in the federation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

impl fmt::Debug for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// The per-cell load summary piggybacked on every gossip digest — what
/// neighbors steer redirected admissions by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadDigest {
    /// Queries waiting in the cell's admission queue.
    pub queue_depth: u32,
    /// The cell's overload hysteresis state at digest time.
    pub overload: OverloadState,
    /// The cell's base station was down at digest time.
    pub base_down: bool,
}

impl LoadDigest {
    /// Can this cell accept redirected admissions right now, as far as the
    /// digest knows? Shedding or headless cells cannot.
    pub fn can_absorb(&self) -> bool {
        !self.base_down && self.overload != OverloadState::Shed
    }
}

/// Liveness judgment a cell holds about a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Heartbeat advancing recently.
    Alive,
    /// Heartbeat stale past 120 s; still counted live.
    Suspect,
    /// Heartbeat stale past [`EVICT_AFTER`]; evicted from the live set.
    Dead,
}

/// The gossiped payload for one cell: its heartbeat and load digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberEntry {
    /// Monotone counter the owner increments each gossip round it is up.
    pub heartbeat: u64,
    /// Owner-only epoch counter, bumped when the cell's process restarts
    /// (crash recovery). Entries order lexicographically by
    /// `(incarnation, heartbeat)`, so a restarted cell whose heartbeat
    /// reset still dominates its own pre-crash rumors, and an evicted
    /// peer can be resurrected by rumor only when a strictly higher
    /// incarnation proves the owner itself declared a new life.
    pub incarnation: u64,
    /// The owner's load summary as of that heartbeat.
    pub load: LoadDigest,
}

impl MemberEntry {
    /// Freshness order: incarnation dominates heartbeat.
    fn key(&self) -> (u64, u64) {
        (self.incarnation, self.heartbeat)
    }
}

/// What one cell knows about one peer.
#[derive(Debug, Clone)]
pub struct MemberInfo {
    /// Latest gossiped entry.
    pub entry: MemberEntry,
    /// Local time the heartbeat last advanced.
    pub last_heard: SimTime,
    /// Current liveness classification.
    pub state: MemberState,
}

/// Peers contacted per round per cell.
const FANOUT: usize = 2;
/// Staleness after which a peer becomes Suspect.
const SUSPECT_AFTER: Duration = Duration::from_secs(120);
/// Staleness after which a peer is evicted (Dead).
pub const EVICT_AFTER: Duration = Duration::from_secs(300);

/// Gossip-layer tuning.
#[derive(Debug, Clone, Copy)]
pub struct GossipConfig {
    /// Gossip period (one round every this often).
    pub round: Duration,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            round: Duration::from_secs(30),
        }
    }
}

/// One cell's membership table.
#[derive(Debug, Clone)]
pub struct Membership {
    /// The owning cell.
    pub me: CellId,
    /// One row per cell, indexed by `CellId.0`; `None` for a cell not yet
    /// heard of.
    rows: Vec<Option<MemberInfo>>,
    /// Dead -> Alive transitions per cell, indexed like `rows` (shorter
    /// while the last cells never came back).
    resurrections: Vec<u64>,
    /// Count of peers currently in [`MemberState::Dead`]. Only
    /// [`classify`](Membership::classify) kills and only
    /// [`absorb`](Membership::absorb) resurrects, so those two points keep
    /// it exact — and the fault-free steady state (no dead peers, every
    /// cell, every round) skips the probe-pool table scan entirely.
    dead_count: u32,
}

impl Membership {
    /// Bootstrap: a fresh cell knows itself and its introducers only; the
    /// rest of the federation is learned by anti-entropy.
    pub fn new(me: CellId, introducers: &[CellId], now: SimTime) -> Self {
        let fresh = |hb| MemberInfo {
            entry: MemberEntry {
                heartbeat: hb,
                incarnation: 0,
                load: LoadDigest::default(),
            },
            last_heard: now,
            state: MemberState::Alive,
        };
        let mut m = Membership {
            me,
            rows: Vec::new(),
            resurrections: Vec::new(),
            dead_count: 0,
        };
        *m.row_mut(me) = Some(fresh(1));
        for &i in introducers {
            if i != me {
                *m.row_mut(i) = Some(fresh(0));
            }
        }
        m
    }

    /// `cell`'s row, the table grown to hold it.
    fn row_mut(&mut self, cell: CellId) -> &mut Option<MemberInfo> {
        let c = cell.0 as usize;
        if c >= self.rows.len() {
            self.rows.resize(c + 1, None);
        }
        &mut self.rows[c]
    }

    /// The owner is up at `now`: advance its heartbeat and publish `load`.
    pub fn beat(&mut self, now: SimTime, load: LoadDigest) {
        let me = self.me;
        let info = self.row_mut(me).get_or_insert(MemberInfo {
            entry: MemberEntry {
                heartbeat: 0,
                incarnation: 0,
                load,
            },
            last_heard: now,
            state: MemberState::Alive,
        });
        info.entry.heartbeat += 1;
        info.entry.load = load;
        info.last_heard = now;
        info.state = MemberState::Alive;
    }

    /// The owner declares a new life — called on crash recovery, before
    /// the first post-restart beat. The bumped incarnation dominates every
    /// pre-crash rumor about this cell and is the one piece of evidence
    /// (besides first-hand contact) that resurrects it at peers that
    /// already evicted it.
    pub fn bump_incarnation(&mut self) {
        let me = self.me;
        if let Some(info) = self.row_mut(me) {
            info.entry.incarnation += 1;
        }
    }

    /// How many times this table has resurrected `cell` (Dead -> Alive).
    /// A stable protocol resurrects an evicted peer at most once per
    /// genuine recovery; flapping shows up as a higher count.
    pub fn resurrections_of(&self, cell: CellId) -> u64 {
        (self.resurrections.get(cell.0 as usize).copied()).unwrap_or(0)
    }

    /// Merge everything `other` would gossip, straight from its table:
    /// all its non-dead entries (dead peers are withheld so eviction stays
    /// a local staleness judgment rather than a rumor). Two of these run
    /// per gossip contact, every round, for every cell.
    pub fn merge_from(&mut self, other: &Membership, now: SimTime) {
        for (cell, info) in other.members() {
            if info.state == MemberState::Dead {
                continue;
            }
            self.absorb(other.me, cell, info.entry, now);
        }
    }

    /// Merge one entry about `cell` heard from `from`: `(incarnation,
    /// heartbeat)` max. A strictly newer entry refreshes `last_heard` and
    /// rehabilitates a Suspect; the owner's own row is authoritative and
    /// never overwritten by rumor.
    ///
    /// A **Dead** peer is held Dead against rumor: third-party entries at
    /// the same incarnation adopt the payload but do not resurrect, because
    /// that is exactly the stale-rumor path that used to flap an evicted
    /// peer live/dead around a partition (a lagging cell's "newer"
    /// heartbeat can still be ancient). Resurrection needs first-hand
    /// evidence — the entry came from the evicted peer itself — or a
    /// strictly higher incarnation, the owner's own declaration of a new
    /// life after a crash.
    fn absorb(&mut self, from: CellId, cell: CellId, entry: MemberEntry, now: SimTime) {
        if cell == self.me {
            return;
        }
        let row = self.row_mut(cell);
        let Some(info) = row.as_mut() else {
            *row = Some(MemberInfo {
                entry,
                last_heard: now,
                state: MemberState::Alive,
            });
            return;
        };
        let newer = entry.key() > info.entry.key();
        let was_dead = info.state == MemberState::Dead;
        // First-hand: the evicted peer itself sent this digest — proof of
        // life even when its entry is no newer than the rumors we already
        // absorbed while holding it Dead.
        let resurrect = if was_dead {
            cell == from || entry.incarnation > info.entry.incarnation
        } else {
            newer
        };
        if newer {
            info.entry = entry;
        }
        if resurrect {
            info.last_heard = now;
            info.state = MemberState::Alive;
        }
        if resurrect && was_dead {
            let c = cell.0 as usize;
            if c >= self.resurrections.len() {
                self.resurrections.resize(c + 1, 0);
            }
            self.resurrections[c] += 1;
            self.dead_count -= 1;
        }
    }

    /// Re-classify every peer by heartbeat staleness at `now`.
    pub fn classify(&mut self, now: SimTime) {
        let mut dead = 0;
        let me = self.me.0 as usize;
        for (c, row) in self.rows.iter_mut().enumerate() {
            let Some(info) = row.as_mut().filter(|_| c != me) else {
                continue;
            };
            let stale = now.since(info.last_heard);
            info.state = if stale >= EVICT_AFTER {
                dead += 1;
                MemberState::Dead
            } else if stale >= SUSPECT_AFTER {
                MemberState::Suspect
            } else {
                MemberState::Alive
            };
        }
        self.dead_count = dead;
    }

    /// Cells this table counts as live (self plus every non-Dead peer).
    pub fn live_set(&self) -> Vec<CellId> {
        (self.members())
            .filter(|(_, i)| i.state != MemberState::Dead)
            .map(|(c, _)| c)
            .collect()
    }

    /// The last gossiped load digest for `cell`, if known and not evicted.
    pub fn load_of(&self, cell: CellId) -> Option<&LoadDigest> {
        (self.rows.get(cell.0 as usize)?.as_ref())
            .filter(|i| i.state != MemberState::Dead)
            .map(|i| &i.entry.load)
    }

    /// Every known cell with its row, in cell order (the full table view).
    pub fn members(&self) -> impl Iterator<Item = (CellId, &MemberInfo)> {
        (self.rows.iter().enumerate())
            .filter_map(|(c, row)| Some((CellId(c as u32), row.as_ref()?)))
    }

    /// Peers other than self, in cell order: the evicted ones when `dead`,
    /// else the rest — the gossip target pool.
    fn peers(&self, dead: bool) -> impl Iterator<Item = CellId> + '_ {
        (self.members())
            .filter(move |&(c, i)| c != self.me && (i.state == MemberState::Dead) == dead)
            .map(|(c, _)| c)
    }

    /// The evicted peer probed in round `round_idx`, round-robin over the
    /// dead pool: the probe re-discovers a healed partition (an evicted
    /// peer never re-enters the candidate pool on its own, so somebody has
    /// to keep knocking).
    fn dead_probe(&self, round_idx: u64) -> Option<CellId> {
        let dead = self.dead_count as usize;
        if dead == 0 {
            return None;
        }
        self.peers(true).nth(round_idx as usize % dead)
    }
}

/// Run one synchronous gossip round at `now` over the whole federation.
///
/// Each cell with `up[i] == true` (index = `CellId.0`) beats beforehand
/// (caller's job), then contacts up to two distinct seeded-random
/// targets from its candidate pool. A contact with an up target is a
/// push-pull exchange: both membership digests merge both ways, and the
/// paired [`HandoffStore`]s merge both ways too (the D-GRID replication
/// ride-along). `handoffs` is indexed like `members`; a cell it does not
/// reach — the slice may be empty or short — exchanges membership only. A
/// contact with a down target is simply lost — that is how crashes are
/// discovered, by silence. Afterwards every up cell re-classifies its
/// table.
///
/// Peer selection derives from `(seed, round_idx, cell)` alone, so rounds
/// replay bit-identically regardless of caller structure. `_cfg` holds the
/// period the caller runs rounds at; one round reads nothing from it.
pub fn gossip_round(
    members: &mut [Membership],
    handoffs: &mut [HandoffStore],
    up: &[bool],
    now: SimTime,
    _cfg: &GossipConfig,
    seed: u64,
    round_idx: u64,
) {
    gossip_round_ctx(members, handoffs, up, now, seed, round_idx, None);
}

/// [`gossip_round`] under an optional fault script, the fault-aware form
/// (`None` behaves exactly like a fault-free plan).
///
/// On top of the base round: the push leg `i -> t` and the pull reply
/// `t -> i` are gated *independently* on [`FaultPlan::cell_link_up`], so a
/// bipartition silences both ways while an asymmetric one-way cut lets a
/// cell keep hearing a peer it can no longer reach — the peer passes
/// through suspicion to eviction without flapping (see
/// [`Membership::merge_from`]). Each cell additionally probes one evicted peer
/// per round (round-robin over its dead pool, no RNG draw, so fault-free
/// runs are untouched): a healed partition is re-discovered first-hand
/// instead of staying split forever once both sides evicted each other.
///
/// The federation is `members.len()` cells, and that is the quorum a
/// handoff ledger retires against: a record leaves the live ledgers once
/// every one of those cells is known to hold it terminal and to know the
/// others do (see [`crate::handoff`]). A crashed or partitioned cell holds
/// retirement back until it is heard from again.
pub fn gossip_round_ctx(
    members: &mut [Membership],
    handoffs: &mut [HandoffStore],
    up: &[bool],
    now: SimTime,
    seed: u64,
    round_idx: u64,
    faults: Option<&FaultPlan>,
) {
    debug_assert_eq!(members.len(), up.len());
    let n = members.len();
    let link_up =
        |from: usize, to: usize| faults.is_none_or(|f| f.cell_link_up(from as u64, to as u64, now));
    // One buffer serves every cell: its gossip target pool (the peers it
    // has not evicted), then, shuffled in part, its targets.
    let mut targets = Vec::new();
    for i in 0..members.len() {
        if !up[i] {
            continue;
        }
        targets.clear();
        targets.extend(members[i].peers(false));
        let mut rng = StdRng::seed_from_u64(mix(mix(seed, round_idx), i as u64));
        let picks = FANOUT.min(targets.len());
        for k in 0..picks {
            let j = rng.gen_range(k..targets.len());
            targets.swap(k, j);
        }
        targets.truncate(picks);
        if let Some(probe) = members[i].dead_probe(round_idx) {
            if !targets.contains(&probe) {
                targets.push(probe);
            }
        }
        for &target in &targets {
            let t = target.0 as usize;
            if t >= up.len() || !up[t] {
                continue; // contact lost: the silence that reveals a crash
            }
            // The push request and the pull reply travel opposite
            // directions; each leg is lost independently, and no request
            // means no reply.
            let push_ok = link_up(i, t);
            let pull_ok = push_ok && link_up(t, i);
            // Candidates never include self, so i != t and each slice
            // yields the two sides of the contact as disjoint borrows.
            let Ok([mi, mt]) = members.get_disjoint_mut([i, t]) else {
                continue;
            };
            if push_ok {
                mt.merge_from(mi, now);
            }
            if pull_ok {
                mi.merge_from(mt, now);
            }
            // A cell without a ledger has nothing to exchange, and the
            // records it never holds are never settled everywhere.
            if let Ok([hi, ht]) = handoffs.get_disjoint_mut([i, t]) {
                if push_ok {
                    ht.merge_from(hi, Quorum::new(t, i, n));
                }
                if pull_ok {
                    hi.merge_from(ht, Quorum::new(i, t, n));
                }
            }
        }
    }
    for (i, m) in members.iter_mut().enumerate() {
        if up[i] {
            m.classify(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handoff::{HandoffId, HandoffKind, HandoffPhase, HandoffRecord};

    fn bootstrap(n: usize) -> (Vec<Membership>, Vec<HandoffStore>, Vec<bool>) {
        // Cell 0 is the introducer: everyone else starts knowing only it.
        let members = (0..n)
            .map(|i| Membership::new(CellId(i as u32), &[CellId(0)], SimTime::ZERO))
            .collect();
        let handoffs = (0..n).map(|_| HandoffStore::new()).collect();
        (members, handoffs, vec![true; n])
    }

    #[test]
    fn introducer_bootstrap_converges_to_full_view() {
        let n = 16;
        let (mut members, mut handoffs, up) = bootstrap(n);
        let cfg = GossipConfig::default();
        for round in 0..12u64 {
            let now = SimTime::from_secs(30 * (round + 1));
            for m in members.iter_mut() {
                m.beat(now, LoadDigest::default());
            }
            gossip_round(&mut members, &mut handoffs, &up, now, &cfg, 7, round);
        }
        for m in &members {
            assert_eq!(m.live_set().len(), n, "{} sees a partial view", m.me);
        }
    }

    #[test]
    fn crashed_cell_is_suspected_then_evicted_then_rehabilitated() {
        let n = 8;
        let (mut members, mut handoffs, mut up) = bootstrap(n);
        let cfg = GossipConfig::default();
        let mut round = 0u64;
        let mut now = SimTime::ZERO;
        let mut run = |members: &mut Vec<Membership>,
                       handoffs: &mut Vec<HandoffStore>,
                       up: &[bool],
                       rounds: u64| {
            for _ in 0..rounds {
                round += 1;
                now = SimTime::from_secs(30 * round);
                for (i, m) in members.iter_mut().enumerate() {
                    if up[i] {
                        m.beat(now, LoadDigest::default());
                    }
                }
                gossip_round(members, handoffs, up, now, &cfg, 11, round);
            }
        };
        run(&mut members, &mut handoffs, &up.clone(), 10); // full view
        up[3] = false;
        run(&mut members, &mut handoffs, &up.clone(), 15); // > EVICT_AFTER
        for (i, m) in members.iter().enumerate() {
            if i == 3 {
                continue;
            }
            assert!(
                !m.live_set().contains(&CellId(3)),
                "{} still counts the crashed cell live",
                m.me
            );
        }
        // Volunteer churn: the cell comes back; its advancing heartbeat
        // rehabilitates it everywhere.
        up[3] = true;
        run(&mut members, &mut handoffs, &up.clone(), 12);
        for m in &members {
            assert!(
                m.live_set().contains(&CellId(3)),
                "{} did not rehabilitate the returned cell",
                m.me
            );
        }
    }

    /// Regression (stale-rumor flapping): an evicted peer must not be
    /// resurrected by a third-party rumor carrying a newer-but-stale
    /// heartbeat at the same incarnation — only first-hand contact or a
    /// higher incarnation may bring it back. The old heartbeat-max merge
    /// resurrected on any newer rumor, which oscillated an evicted peer
    /// live/dead as lagging cells traded ancient "news" around a
    /// partition.
    #[test]
    fn dead_peer_ignores_same_incarnation_rumor() {
        let now = SimTime::from_secs(1000);
        let mut q = Membership::new(CellId(0), &[CellId(1), CellId(2)], SimTime::ZERO);
        // Q evicted peer 2 (staleness past EVICT_AFTER).
        q.classify(now);
        assert_eq!(
            q.members()
                .find(|(c, _)| *c == CellId(2))
                .map(|(_, i)| i.state),
            Some(MemberState::Dead)
        );
        let rumor = |hb, inc| MemberEntry {
            heartbeat: hb,
            incarnation: inc,
            load: LoadDigest::default(),
        };
        // A rumor from cell 1 with a newer heartbeat: adopted, not revived.
        q.absorb(CellId(1), CellId(2), rumor(50, 0), now);
        let info = |q: &Membership| {
            q.members()
                .find(|(c, _)| *c == CellId(2))
                .map(|(_, i)| (i.state, i.entry.heartbeat))
                .expect("row")
        };
        assert_eq!(info(&q), (MemberState::Dead, 50));
        assert_eq!(q.resurrections_of(CellId(2)), 0);
        // Repeated rumors never flap it back either.
        q.absorb(CellId(1), CellId(2), rumor(60, 0), now);
        assert_eq!(info(&q).0, MemberState::Dead);
        assert_eq!(q.resurrections_of(CellId(2)), 0);
        // First-hand contact revives, even without a newer entry…
        q.absorb(CellId(2), CellId(2), rumor(60, 0), now);
        assert_eq!(info(&q).0, MemberState::Alive);
        assert_eq!(q.resurrections_of(CellId(2)), 1);
        // …and a higher incarnation (crash-recovery refutation) revives
        // via rumor.
        q.classify(SimTime::from_secs(2000));
        assert_eq!(info(&q).0, MemberState::Dead);
        q.absorb(CellId(1), CellId(2), rumor(61, 1), SimTime::from_secs(2000));
        assert_eq!(info(&q).0, MemberState::Alive);
        assert_eq!(q.resurrections_of(CellId(2)), 2);
    }

    /// Regression (satellite): a peer that can hear but not be heard — all
    /// its outbound links cut — passes monotonically through suspicion to
    /// eviction everywhere and never oscillates live/evicted; after the
    /// heal it is rehabilitated exactly once per observer.
    #[test]
    fn one_way_deaf_peer_passes_through_suspicion_without_flapping() {
        let n = 6usize;
        let p = 3u64; // the peer nobody can hear
        let cut_start = SimTime::from_secs(30 * 10);
        let cut_end = SimTime::from_secs(30 * 40);
        let mut b = FaultPlan::builder(5);
        for x in 0..n as u64 {
            if x != p {
                b = b.one_way_link_cut(p, x, cut_start, cut_end);
            }
        }
        let plan = b.build().expect("valid plan");
        let (mut members, mut handoffs, up) = bootstrap(n);
        for round in 0..60u64 {
            let now = SimTime::from_secs(30 * (round + 1));
            for m in members.iter_mut() {
                m.beat(now, LoadDigest::default());
            }
            gossip_round_ctx(&mut members, &mut handoffs, &up, now, 7, round, Some(&plan));
            if now >= cut_start && now < cut_end {
                // During the cut nobody ever resurrects the deaf peer:
                // its state decays monotonically, no flapping.
                for (i, m) in members.iter().enumerate() {
                    if i as u64 != p {
                        assert_eq!(
                            m.resurrections_of(CellId(p as u32)),
                            0,
                            "{} flapped the deaf peer live at {:?}",
                            m.me,
                            now
                        );
                    }
                }
            }
        }
        for (i, m) in members.iter().enumerate() {
            if i as u64 == p {
                // The deaf peer heard everyone throughout.
                assert_eq!(m.live_set().len(), n);
                continue;
            }
            assert!(
                m.live_set().contains(&CellId(p as u32)),
                "{} did not rehabilitate the healed peer",
                m.me
            );
            assert!(
                m.resurrections_of(CellId(p as u32)) <= 1,
                "{} resurrected the peer more than once",
                m.me
            );
        }
    }

    /// A clean bipartition: each side converges on exactly its own side,
    /// and after the heal every cell recovers the full view (dead-probing
    /// re-discovers peers both sides already evicted) with at most one
    /// resurrection per peer.
    #[test]
    fn bipartition_heals_without_false_evictions() {
        let n = 6usize;
        let side: Vec<u64> = vec![0, 1, 2];
        let cut_start = SimTime::from_secs(30 * 10);
        let cut_end = SimTime::from_secs(30 * 30);
        let plan = FaultPlan::builder(9)
            .cell_partition(&side, cut_start, cut_end)
            .build()
            .expect("valid plan");
        let (mut members, mut handoffs, up) = bootstrap(n);
        let run =
            |members: &mut Vec<Membership>, handoffs: &mut Vec<HandoffStore>, lo: u64, hi: u64| {
                for round in lo..hi {
                    let now = SimTime::from_secs(30 * (round + 1));
                    for m in members.iter_mut() {
                        m.beat(now, LoadDigest::default());
                    }
                    gossip_round_ctx(members, handoffs, &up, now, 13, round, Some(&plan));
                }
            };
        // Converge, then sit out the whole partition.
        run(&mut members, &mut handoffs, 0, 29);
        for (i, m) in members.iter().enumerate() {
            let mut live = m.live_set();
            live.sort();
            let mine: Vec<CellId> = (0..n as u64)
                .filter(|x| side.contains(x) == side.contains(&(i as u64)))
                .map(|x| CellId(x as u32))
                .collect();
            assert_eq!(live, mine, "{} sees across the partition", m.me);
        }
        // Heal and give dead-probing time to knit the views back.
        run(&mut members, &mut handoffs, 29, 45);
        for m in &members {
            assert_eq!(m.live_set().len(), n, "{} still split after heal", m.me);
            for x in 0..n as u32 {
                assert!(
                    m.resurrections_of(CellId(x)) <= 1,
                    "{} flapped {} across the heal",
                    m.me,
                    CellId(x)
                );
            }
        }
    }

    fn pending(id: HandoffId, from: usize, to: usize) -> HandoffRecord {
        HandoffRecord {
            id,
            user: 1,
            from: CellId(from as u32),
            to: CellId(to as u32),
            kind: HandoffKind::Migrate,
            phase: HandoffPhase::Pending,
            opened_at: SimTime::ZERO,
        }
    }

    /// The two legs of the ledger exchange are gated separately: with only
    /// the a -> b direction cut, b's push still delivers b's records to a,
    /// while a's records wait for the window to close (a's push is eaten,
    /// and b, hearing no request from a, never replies to one).
    #[test]
    fn one_way_cut_carries_ledgers_in_the_open_direction_only() {
        let (a, b) = (0usize, 1usize);
        let cut_end = SimTime::from_secs(30 * 6);
        let plan = FaultPlan::builder(3)
            .one_way_link_cut(a as u64, b as u64, SimTime::ZERO, cut_end)
            .build()
            .expect("valid plan");
        let (mut members, mut handoffs, up) = bootstrap(2);
        let (from_a, from_b) = (
            HandoffId::mint(CellId(a as u32), 0),
            HandoffId::mint(CellId(b as u32), 0),
        );
        handoffs[a].open(pending(from_a, a, b));
        handoffs[b].open(pending(from_b, b, a));
        for round in 0..10u64 {
            let now = SimTime::from_secs(30 * (round + 1));
            for m in members.iter_mut() {
                m.beat(now, LoadDigest::default());
            }
            gossip_round_ctx(&mut members, &mut handoffs, &up, now, 7, round, Some(&plan));
            assert!(
                handoffs[a].get(from_b).is_some(),
                "b -> a is open, yet b's record had not reached a at {now:?}"
            );
            assert_eq!(
                handoffs[b].get(from_a).is_some(),
                now >= cut_end,
                "a -> b is cut until {cut_end:?}; at {now:?}"
            );
        }
        assert_eq!(handoffs[a].ledger_hash(), handoffs[b].ledger_hash());
    }

    /// Regression: a non-empty `handoffs` shorter than `members` used to
    /// index out of bounds at the first contact with an unledgered cell.
    /// Such cells gossip membership only; the ledgered ones still exchange.
    #[test]
    fn cells_without_a_ledger_exchange_membership_only() {
        let (mut members, mut handoffs, up) = bootstrap(4);
        handoffs.truncate(2);
        let id = HandoffId::mint(CellId(1), 0);
        handoffs[1].open(pending(id, 1, 0));
        let cfg = GossipConfig::default();
        for round in 0..12u64 {
            let now = SimTime::from_secs(30 * (round + 1));
            for m in members.iter_mut() {
                m.beat(now, LoadDigest::default());
            }
            gossip_round(&mut members, &mut handoffs, &up, now, &cfg, 7, round);
        }
        for m in &members {
            assert_eq!(m.live_set().len(), 4, "{} sees a partial view", m.me);
        }
        assert!(handoffs[0].get(id).is_some());
    }

    #[test]
    fn load_digests_propagate() {
        let n = 6;
        let (mut members, mut handoffs, up) = bootstrap(n);
        let cfg = GossipConfig::default();
        for round in 0..10u64 {
            let now = SimTime::from_secs(30 * (round + 1));
            for (i, m) in members.iter_mut().enumerate() {
                let load = LoadDigest {
                    queue_depth: (i as u32 + 1) * 10,
                    overload: if i == 2 {
                        OverloadState::Shed
                    } else {
                        OverloadState::Normal
                    },
                    base_down: false,
                };
                m.beat(now, load);
            }
            gossip_round(&mut members, &mut handoffs, &up, now, &cfg, 3, round);
        }
        let view = &members[5];
        let l2 = view.load_of(CellId(2)).expect("cell 2 known");
        assert_eq!(l2.queue_depth, 30);
        assert!(!l2.can_absorb(), "a shedding cell must not absorb");
        let l1 = view.load_of(CellId(1)).expect("cell 1 known");
        assert!(l1.can_absorb());
    }
}
