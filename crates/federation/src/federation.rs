//! The federation driver: N cells, gossip, roaming, and load absorption.
//!
//! A [`Federation`] owns a vector of [`Cell`]s (each a full base-station
//! runtime over its own grid), their [`Membership`] replicas and
//! [`HandoffStore`] ledgers, and one reliable [`AgentSystem`] bus carrying
//! inter-cell envelopes (migrating queries with their partial results,
//! forwarded answers) with ack/retry/dead-letter semantics. There is no
//! central orchestrator in the *protocol*: every decision a cell makes —
//! who to gossip with, where to redirect an admission, whether a peer is
//! dead — uses only that cell's own replicated state. The driver is just
//! the clock: it advances all cells in lockstep windows, routes each
//! roaming user's arrivals to the cell under their feet, and carries out
//! the per-cell decisions.
//!
//! Per window the driver: (1) processes due mobility moves — observing
//! the next-cell predictor, pre-warming the predicted destination's plan
//! cache, and for each in-flight query either *migrating* it (extracted
//! at the origin, shipped over the bus, re-planned and re-admitted at the
//! destination under its own watermarks) or letting it finish at the
//! origin with the answer *forwarded home*; (2) routes due arrivals,
//! redirecting away from dead or shedding home cells into the neighbor
//! the local membership view says can absorb them; (3) runs due gossip
//! rounds (heartbeats + load digests + handoff-ledger replication);
//! (4) steps every cell's runtime one window; (5) harvests outcomes —
//! stamping cross-cell [`Provenance`], triggering result forwards, and
//! re-routing bounced admissions; (6) pumps the bus to quiescence and
//! applies deliveries.
//!
//! The driver's books are three tables, each holding only what is still
//! in flight: a `Roamer` per traced user (trace, position along it,
//! current cell, admitted queries that may still complete — a user
//! without a trace never moves, so nothing is kept for them); an
//! `InTransit` per handoff envelope on the bus, keyed by [`HandoffId`],
//! from `ship` until it is delivered or found dead-lettered; and a
//! `QueryTag` per admitted query in its [`Cell`] (offerer, provenance to
//! stamp, forward owed). Every handoff record is opened in `open_handoff`
//! and ends in exactly one [`FederationStats`] counter: a migration is
//! completed, rejected or lost; a forward is completed, lost or abandoned.
//! Its replicated record ends terminal to match — `Completed` once the
//! envelope landed, `Abandoned` when it was lost or the forward abandoned
//! — which is what lets the ledgers retire it.

use crate::cell::{Cell, QueryTag};
use crate::gossip::{gossip_round_ctx, CellId, GossipConfig, MemberState, Membership};
use crate::handoff::{HandoffId, HandoffKind, HandoffPhase, HandoffRecord, HandoffStore};
use crate::roaming::{NextCellPredictor, Trace};
use pg_agent::{Agent, AgentProfile, AgentSystem, DirectDeputy, Envelope, ReliableConfig};
use pg_compose::proactive::{CacheResult, PlanBook, REACTIVE_SETUP};
use pg_compose::MethodLibrary;
use pg_core::{CrossCellHandoff, PervasiveGrid, Provenance};
use pg_net::link::LinkModel;
use pg_runtime::arrivals::Arrival;
use pg_runtime::{
    MultiQueryRuntime, OverloadState, QueryHandle, QueryOpts, QueryStatus, QueuedQuery,
};
use pg_sim::fault::FaultPlan;
use pg_sim::rng::mix;
use pg_sim::{Duration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Wire size of a migrating query's partial results, or of an answer.
const PAYLOAD_BYTES: usize = 2048;
/// Plan-cache lifetime in a [`proactive`](FederationConfig::proactive) cell.
const PLAN_TTL: Duration = Duration::from_secs(600);

/// Federation-layer tuning. Not options: the lockstep window is the
/// cells' own scheduling epoch, gossip rounds every 30 s
/// ([`GossipConfig::default`]) and re-planning is priced by
/// `pg_compose::proactive`'s constants.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Master seed (gossip peer selection, bus retry jitter).
    pub seed: u64,
    /// The §3 proactive loop: train the next-cell predictor, pre-warm each
    /// predicted destination's plan cache, keep plans ten minutes. Off =
    /// purely reactive: no predictor, and every migration pays the full
    /// plan + discovery path (the *cold* mode).
    pub proactive: bool,
    /// Peer load absorption: redirect admissions away from dead or
    /// shedding cells into neighbors (each honoring its own watermarks).
    /// Off = isolated cells, the baseline the experiment compares against.
    pub redirect: bool,
    /// Reliable-bus tuning: the optional per-peer circuit breaker over
    /// dead-letter outcomes.
    pub reliable: ReliableConfig,
    /// Cell-level fault plan: partition windows and one-way cuts sever
    /// inter-cell links (gossip and bus alike, cells addressed by
    /// `CellId.0 as u64`); `cell_crash` windows crash-stop whole cell
    /// processes — the volatile queue is destroyed at the down edge and,
    /// when [`journal`](FederationConfig::journal) is on, replayed at the
    /// up edge. The empty plan (the default) changes nothing.
    pub cell_faults: FaultPlan,
    /// Write-ahead query journal per cell: admission-state transitions
    /// are logged so a crashed-then-restarted cell re-admits its
    /// in-flight queries under their original ids (exactly-once
    /// accounting). Off = a crash loses the queue outright.
    pub journal: bool,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            seed: 42,
            proactive: true,
            redirect: true,
            reliable: ReliableConfig::default(),
            cell_faults: FaultPlan::none(),
            journal: false,
        }
    }
}

/// What the federation counted and measured over a run.
#[derive(Debug, Clone, Default)]
pub struct FederationStats {
    /// Handoff records opened for migrating in-flight queries.
    pub migrations_opened: u64,
    /// Migrations re-admitted at their destination.
    pub migrations_completed: u64,
    /// Migrations the destination's own watermarks refused.
    pub migrations_rejected: u64,
    /// Migrations dead-lettered on the bus (query lost in transit).
    pub migrations_lost: u64,
    /// Handoff records opened for results forwarding home.
    pub forwards_opened: u64,
    /// Forwarded results delivered to the user's new cell.
    pub forwards_completed: u64,
    /// Forwarded results dead-lettered on the bus.
    pub forwards_lost: u64,
    /// Forwards that will never carry an answer: the query was shed or
    /// lost in a crash nothing recovers, migrated away on a later move, or
    /// was given a newer forward. The ledger record ends `Abandoned`.
    pub forwards_abandoned: u64,
    /// Fresh arrivals redirected away from a dead or shedding home cell.
    pub absorbed: u64,
    /// Arrivals dropped because the home cell was down and no live
    /// neighbor existed (or absorption was disabled — isolated cells).
    pub home_down_dropped: u64,
    /// Bounced (Overloaded) admissions re-routed into an absorbing peer.
    pub bounced_redirected: u64,
    /// Bounced admissions dropped (no absorber, or drain phase).
    pub bounced_dropped: u64,
    /// Plan-cache pre-warms issued by the next-cell predictor.
    pub prewarms: u64,
    /// End-to-end migration handoff latencies (transport + re-planning),
    /// seconds, when the destination cache was warm.
    pub warm_handoff_latencies_s: Vec<f64>,
    /// Same, when the destination had to re-plan cold.
    pub cold_handoff_latencies_s: Vec<f64>,
    /// Cell-process crash-stops applied from the cell fault plan.
    pub crashes: u64,
    /// Queries destroyed in those crashes (before any journal replay).
    pub crash_lost: u64,
    /// Crash-lost queries re-admitted by write-ahead journal replay at
    /// the restart edge.
    pub journal_recovered: u64,
}

/// A cell's endpoint on the inter-cell bus: queues deliveries (with their
/// arrival instants) for the driver to apply at the window boundary. The
/// reliable layer acks and dedups by sequence number underneath, so each
/// envelope lands here exactly once.
struct CellEndpoint {
    profile: AgentProfile,
    inbox: Vec<(SimTime, Envelope)>,
}

impl Agent for CellEndpoint {
    fn profile(&self) -> &AgentProfile {
        &self.profile
    }

    fn handle(&mut self, now: SimTime, env: Envelope) -> Vec<Envelope> {
        self.inbox.push((now, env));
        Vec::new()
    }
}

/// One traced user.
struct Roamer {
    trace: Trace,
    /// The next move of `trace.moves` not yet processed.
    cursor: usize,
    /// The cell under the user's feet as of the last processed move.
    cell: CellId,
    /// Admitted queries that may still complete, as `(cell index,
    /// handle)` in admission order.
    open: Vec<(usize, QueryHandle)>,
}

/// A handoff envelope on the bus: sent by cell `from`, whose ledger holds
/// the record it carries, and addressed to cell `to`.
struct InTransit {
    from: usize,
    to: usize,
    cargo: Cargo,
}

/// What a handoff envelope carries.
enum Cargo {
    /// A query extracted at the origin, migrating with its user.
    Query { query: QueuedQuery, user: u64 },
    /// The answer of a query that finished where its user left it.
    Answer,
}

/// The stamp for an answer that crossed cells.
fn cross_cell(origin: usize, served: usize, handoff: CrossCellHandoff) -> Provenance {
    Provenance {
        origin_cell: Some(origin as u32),
        served_cell: Some(served as u32),
        handoff: Some(handoff),
    }
}

/// N federated base-station cells plus the state that stitches them
/// together. Construct with [`Federation::new`], offer a workload with
/// [`offer`](Federation::offer), then [`run`](Federation::run).
pub struct Federation {
    cfg: FederationConfig,
    cells: Vec<Cell>,
    members: Vec<Membership>,
    handoffs: Vec<HandoffStore>,
    bus: AgentSystem,
    /// Sorted by user.
    roamers: Vec<Roamer>,
    offered: VecDeque<(u64, Arrival)>,
    in_transit: BTreeMap<HandoffId, InTransit>,
    predictor: NextCellPredictor,
    /// The standard task library, decomposed once for every cell's cache.
    /// User `u`'s queries plan against its task `u` (for destination
    /// re-planning and predictive pre-warming).
    book: Rc<PlanBook>,
    /// Which cells are currently crash-stopped (cell fault plan).
    crashed: Vec<bool>,
    now: SimTime,
    round_idx: u64,
    next_gossip: SimTime,
    next_seq: u64,
    /// Counters and latency samples for the run.
    pub stats: FederationStats,
}

impl Federation {
    /// Assemble a federation: one pre-built runtime per cell (index `i`
    /// is `CellId(i)`) and the mobility traces of its roaming users.
    /// Users without a trace are stationary at cell `user % cells`. Cell 0
    /// is every cell's introducer; the rest of the view is learned by
    /// anti-entropy. When `cfg.proactive` is set the next-cell predictor
    /// is trained on the given traces (the users' historical commutes)
    /// and each user's first predicted hop is pre-warmed immediately.
    pub fn new(
        cfg: FederationConfig,
        runtimes: Vec<MultiQueryRuntime<PervasiveGrid>>,
        traces: Vec<Trace>,
    ) -> Self {
        assert!(!runtimes.is_empty(), "a federation needs at least one cell");
        let mut bus = AgentSystem::new();
        bus.enable_reliability(cfg.reliable, mix(cfg.seed, 0xfed));
        let plan_ttl = if cfg.proactive {
            PLAN_TTL
        } else {
            Duration::ZERO
        };
        let book = Rc::new(PlanBook::new(&MethodLibrary::pervasive_grid()));
        let mut cells = Vec::with_capacity(runtimes.len());
        for (i, mut rt) in runtimes.into_iter().enumerate() {
            if cfg.journal {
                rt.enable_journal();
            }
            let endpoint = CellEndpoint {
                profile: AgentProfile::new(),
                inbox: Vec::new(),
            };
            let agent = bus.register(
                Box::new(endpoint),
                Box::new(DirectDeputy::new(LinkModel::wired_backhaul())),
            );
            cells.push(Cell::new(
                CellId(i as u32),
                rt,
                agent,
                Rc::clone(&book),
                plan_ttl,
            ));
        }
        let n = cells.len();
        if cfg.cell_faults.has_cell_faults() {
            // Project the cell-level plan onto the bus wire: a frame
            // between two cells is eaten while their link is severed or
            // either endpoint's process is down. Reliable retries (and the
            // per-peer breaker, when on) do the rest.
            let plan = cfg.cell_faults.clone();
            let agent_cell: BTreeMap<pg_agent::AgentId, u64> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| (c.agent, i as u64))
                .collect();
            bus.set_link_filter(move |from, to, now| {
                match (agent_cell.get(&from), agent_cell.get(&to)) {
                    (Some(&f), Some(&t)) => {
                        plan.cell_link_up(f, t, now)
                            && !plan.is_cell_down(f, now)
                            && !plan.is_cell_down(t, now)
                    }
                    _ => true,
                }
            });
        }
        let introducer = [CellId(0)];
        let members = (0..n)
            .map(|i| Membership::new(CellId(i as u32), &introducer, SimTime::ZERO))
            .collect();
        let handoffs = vec![HandoffStore::new(); n];
        // One trace per user, in user order; of two for the same user the
        // later one stands.
        let by_user: BTreeMap<u64, Trace> = traces.into_iter().map(|t| (t.user, t)).collect();
        let traces: Vec<Trace> = by_user.into_values().collect();
        let mut predictor = NextCellPredictor::new();
        if cfg.proactive {
            predictor.train(&traces);
        }
        let roamers = traces
            .into_iter()
            .map(|trace| Roamer {
                cursor: 0,
                cell: trace.start,
                open: Vec::new(),
                trace,
            })
            .collect();
        let mut fed = Federation {
            cfg,
            cells,
            members,
            handoffs,
            bus,
            roamers,
            offered: VecDeque::new(),
            in_transit: BTreeMap::new(),
            predictor,
            book,
            crashed: vec![false; n],
            now: SimTime::ZERO,
            round_idx: 0,
            next_gossip: SimTime::ZERO,
            next_seq: 0,
            stats: FederationStats::default(),
        };
        if fed.cfg.proactive {
            for r in 0..fed.roamers.len() {
                let roamer = &fed.roamers[r];
                fed.prewarm_next(roamer.trace.user, roamer.cell, SimTime::ZERO);
            }
        }
        fed
    }

    /// Offer one query arriving at `at` from roaming `user`. Call any
    /// number of times before [`run`](Federation::run); arrivals are
    /// sorted by time (stable on ties) when the run starts.
    pub fn offer(&mut self, at: SimTime, user: u64, text: impl Into<String>, opts: QueryOpts) {
        let text = text.into();
        self.offered.push_back((user, Arrival { at, text, opts }));
    }

    /// Drive the federation to `horizon`, then keep stepping until every
    /// queue, window, and in-flight handoff has drained.
    pub fn run(&mut self, horizon: SimTime) {
        self.offered.make_contiguous().sort_by_key(|(_, a)| a.at);
        let mut windows = 0u64;
        while !self.step_window(horizon) {
            windows += 1;
            assert!(windows < 4_000_000, "federation failed to drain");
        }
        self.release_dead();
    }

    /// Advance every cell by one lockstep window — the cells' scheduling
    /// epoch. True once the horizon is behind and everything has drained.
    fn step_window(&mut self, horizon: SimTime) -> bool {
        let dt = self.cells[0].rt.config().epoch;
        debug_assert!(
            self.cells.iter().all(|c| c.rt.config().epoch == dt),
            "cells of one federation share one scheduling epoch"
        );
        assert!(dt > Duration::ZERO, "window must be positive");
        let start = self.now;
        let end = start + dt;
        if self.cfg.cell_faults.has_cell_faults() {
            // Keep the bus clock in lockstep with the federation so
            // time-windowed link cuts bite (and heal) at the right
            // instants for in-flight retries.
            self.bus.advance_to(start);
            self.apply_cell_faults(start);
        }
        self.route_moves(end);
        self.route_arrivals(end);
        self.run_gossip(start);
        for c in self.cells.iter_mut() {
            c.rt.step(dt, &mut c.window);
            debug_assert_eq!(c.window.pending(), 0, "a window step left arrivals queued");
        }
        for i in 0..self.cells.len() {
            self.harvest(i, end, start >= horizon);
        }
        self.pump_bus(end);
        self.now = end;
        self.now >= horizon && self.is_drained()
    }

    /// The federation clock (end of the last completed window).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cells, indexed by `CellId.0`.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Per-cell membership replicas, indexed by `CellId.0`.
    pub fn members(&self) -> &[Membership] {
        &self.members
    }

    /// Per-cell handoff ledgers, indexed by `CellId.0`.
    pub fn handoff_ledgers(&self) -> &[HandoffStore] {
        &self.handoffs
    }

    /// The inter-cell bus metrics (reliable.sent / acked / retries /
    /// dead_letter and route counters).
    pub fn bus_metrics(&self) -> &pg_sim::metrics::Metrics {
        self.bus.metrics()
    }

    /// Completed queries across all cells: `(total, deadline_met)` —
    /// counting only `Ok` responses against their deadlines.
    pub fn goodput(&self) -> (u64, u64) {
        let mut total = 0;
        let mut met = 0;
        for c in &self.cells {
            for o in c.rt.outcomes() {
                total += 1;
                if o.response.is_ok() && !o.deadline_exceeded() {
                    met += 1;
                }
            }
        }
        (total, met)
    }

    /// Is cell `i` out of service at `t` — base station down (its own
    /// grid's fault plan) or process crash-stopped (the federation's
    /// cell fault plan)?
    fn cell_down(&self, i: usize, t: SimTime) -> bool {
        self.cells[i].is_down(t) || self.cfg.cell_faults.is_cell_down(i as u64, t)
    }

    /// Apply crash-stop edges from the cell fault plan at a window
    /// boundary: a cell entering a down window loses its volatile queue
    /// on the spot ([`MultiQueryRuntime::crash`]); a cell leaving one
    /// restarts — replaying its write-ahead journal when enabled, and
    /// announcing itself with a bumped gossip incarnation so peers
    /// resurrect it deterministically instead of trusting stale rumors.
    fn apply_cell_faults(&mut self, start: SimTime) {
        for i in 0..self.cells.len() {
            let down = self.cfg.cell_faults.is_cell_down(i as u64, start);
            if down && !self.crashed[i] {
                self.crashed[i] = true;
                let lost = self.cells[i].rt.crash();
                self.stats.crashes += 1;
                self.stats.crash_lost += lost as u64;
            } else if !down && self.crashed[i] {
                self.crashed[i] = false;
                let recovered = self.cells[i].rt.recover_from_journal();
                self.stats.journal_recovered += recovered as u64;
                self.members[i].bump_incarnation();
            }
        }
    }

    /// Index of `user`'s record in `roamers`, if they have a trace.
    fn roamer_of(&self, user: u64) -> Option<usize> {
        self.roamers
            .binary_search_by_key(&user, |r| r.trace.user)
            .ok()
    }

    /// Pre-warm the plan cache at the cell the predictor expects `user`
    /// (currently in `at_cell`) to enter next.
    fn prewarm_next(&mut self, user: u64, at_cell: CellId, now: SimTime) {
        let Some(next) = self.predictor.predict(user, at_cell) else {
            return;
        };
        let t = next.0 as usize;
        if t >= self.cells.len() || next == at_cell {
            return;
        }
        let task = self.book.task(user as usize);
        if self.cells[t].cache.warm(task, now).is_ok() {
            self.stats.prewarms += 1;
        }
    }

    /// Where should load that cannot stay at `home` go at `at`? The
    /// decision-maker is `home` itself when its base is up (shedding), or
    /// else the first live cell ring-wise — and it chooses from its *own
    /// gossip view*: the live, absorbing peer with the shallowest last
    /// digested queue (smallest id on ties). A candidate whose base is
    /// actually down fails the redirect handshake and is skipped.
    fn absorption_target(&self, home: usize, at: SimTime) -> Option<usize> {
        let n = self.cells.len();
        let decider = if !self.cell_down(home, at) {
            home
        } else {
            (1..n)
                .map(|k| (home + k) % n)
                .find(|&j| !self.cell_down(j, at))?
        };
        self.members[decider]
            .members()
            .filter(|(c, info)| {
                let j = c.0 as usize;
                j != home
                    && j < n
                    && info.state != MemberState::Dead
                    && info.entry.load.can_absorb()
                    && !self.cell_down(j, at)
                    // A partitioned-away peer may look alive in the view
                    // (stale entries persist through the suspicion
                    // window) but cannot be reached to absorb anything.
                    && self.cfg.cell_faults.cell_link_up(decider as u64, j as u64, at)
            })
            .map(|(c, info)| (info.entry.load.queue_depth, c))
            .min()
            .map(|(_, c)| c.0 as usize)
    }

    /// Redirect `arrival` away from `home` into the peer that can absorb
    /// it, stamped as absorbed. Hands the arrival back when no peer can.
    fn absorb(&mut self, arrival: Arrival, user: u64, home: usize) -> Result<(), Arrival> {
        let Some(t) = self.absorption_target(home, arrival.at) else {
            return Err(arrival);
        };
        let tag = cross_cell(home, t, CrossCellHandoff::Absorbed);
        self.cells[t].window.push(arrival, user, Some(tag));
        Ok(())
    }

    /// Open the replicated record of a handoff out of cell `from`, in
    /// that cell's ledger.
    fn open_handoff(
        &mut self,
        kind: HandoffKind,
        user: u64,
        from: usize,
        to: usize,
        at: SimTime,
    ) -> HandoffId {
        let origin = CellId(from as u32);
        let id = HandoffId::mint(origin, self.next_seq);
        self.next_seq += 1;
        self.handoffs[from].open(HandoffRecord {
            id,
            user,
            from: origin,
            to: CellId(to as u32),
            kind,
            phase: HandoffPhase::Pending,
            opened_at: at,
        });
        match kind {
            HandoffKind::Migrate => self.stats.migrations_opened += 1,
            HandoffKind::ForwardHome => self.stats.forwards_opened += 1,
        }
        id
    }

    /// Put handoff `id`'s envelope on the bus from cell `from` to cell
    /// `to`, and remember what it carries until it lands or dead-letters.
    fn ship(&mut self, id: HandoffId, from: usize, to: usize, cargo: Cargo) {
        self.bus.send(Envelope::binary(
            self.cells[from].agent,
            self.cells[to].agent,
            &format!("handoff/{}", id.0),
            vec![0u8; PAYLOAD_BYTES],
        ));
        self.in_transit.insert(id, InTransit { from, to, cargo });
    }

    /// A query was just admitted at cell `i`: a traced user's joins their
    /// open list, and the cell keeps a tag when the outcome will need one.
    fn track(&mut self, i: usize, handle: QueryHandle, user: u64, provenance: Option<Provenance>) {
        let roamer = self.roamer_of(user);
        if let Some(r) = roamer {
            self.roamers[r].open.push((i, handle));
        }
        if roamer.is_some() || provenance.is_some() {
            let tag = QueryTag {
                user,
                provenance,
                forward: None,
            };
            self.cells[i].tags.insert(handle.id(), tag);
        }
    }

    /// Process mobility moves due before `end`: predictor bookkeeping,
    /// predictive pre-warming, and per-in-flight-query migrate /
    /// forward-home decisions.
    fn route_moves(&mut self, end: SimTime) {
        for r in 0..self.roamers.len() {
            while let Some(&mv) = self.roamers[r].trace.moves.get(self.roamers[r].cursor) {
                if mv.at >= end {
                    break;
                }
                let roamer = &mut self.roamers[r];
                roamer.cursor += 1;
                let from = std::mem::replace(&mut roamer.cell, mv.to);
                if self.cfg.proactive {
                    let user = roamer.trace.user;
                    self.predictor.observe(user, from, mv.to);
                    self.prewarm_next(user, mv.to, mv.at);
                }
                self.migrate_user(r, mv.to.0 as usize, mv.at);
            }
        }
    }

    /// Roamer `r` just entered `to`: decide the fate of each of their
    /// open queries.
    fn migrate_user(&mut self, r: usize, to: usize, at: SimTime) {
        let user = self.roamers[r].trace.user;
        let mut keep = Vec::new();
        for (idx, handle) in std::mem::take(&mut self.roamers[r].open) {
            if idx == to {
                keep.push((idx, handle));
                continue;
            }
            let slots = self.cells[idx].rt.config().slots_per_epoch;
            let migrate = match self.cells[idx].rt.poll(handle) {
                // Deep in the queue: worth moving with the user. Near the
                // head: it will be serviced imminently — let it finish
                // here and forward the answer.
                QueryStatus::Queued { rank, .. } => rank >= slots,
                // Shed, cancelled or crash-lost: nothing to move.
                _ => continue,
            };
            // A user walking into a dead cell gets an absorbing neighbor
            // as the migration target instead (when redirect is on).
            let dest = if !self.cell_down(to, at) {
                Some(to)
            } else if self.cfg.redirect {
                self.absorption_target(to, at)
            } else {
                None
            };
            match dest {
                Some(d) if migrate && d != idx => {
                    if let Some(query) = self.cells[idx].rt.extract(handle) {
                        // The query's business at this cell is over; a
                        // forward it was promised on an earlier move
                        // will carry nothing.
                        let tag = self.cells[idx].tags.remove(&handle.id());
                        if let Some(forward) = tag.and_then(|t| t.forward) {
                            self.abandon_forward(idx, forward);
                        }
                        let id = self.open_handoff(HandoffKind::Migrate, user, idx, d, at);
                        self.ship(id, idx, d, Cargo::Query { query, user });
                    }
                }
                _ => {
                    // Finishing here (near the head, nowhere to migrate,
                    // or destination dead): forward the answer when it
                    // lands. A forward from an earlier move is superseded.
                    let id = self.open_handoff(HandoffKind::ForwardHome, user, idx, to, at);
                    let tag = self.cells[idx].tags.get_mut(&handle.id());
                    if let Some(superseded) = tag.and_then(|t| t.forward.replace(id)) {
                        self.abandon_forward(idx, superseded);
                    }
                    keep.push((idx, handle));
                }
            }
        }
        self.roamers[r].open = keep;
    }

    /// Route arrivals due before `end` to the cell under the user's feet,
    /// absorbing away from dead or shedding homes when redirect is on.
    fn route_arrivals(&mut self, end: SimTime) {
        while let Some((user, arrival)) = self.offered.pop_front_if(|(_, a)| a.at < end) {
            self.route_one(arrival, user);
        }
    }

    fn route_one(&mut self, mut arrival: Arrival, user: u64) {
        let at = arrival.at;
        let home = match self.roamer_of(user) {
            Some(r) => self.roamers[r].trace.cell_at(at).0 as usize,
            None => (user % self.cells.len() as u64) as usize,
        };
        let home_down = self.cell_down(home, at);
        let home_shedding = self.cells[home].rt.overload_state() == OverloadState::Shed;
        if (home_down || home_shedding) && self.cfg.redirect {
            match self.absorb(arrival, user, home) {
                Ok(()) => {
                    self.stats.absorbed += 1;
                    return;
                }
                // Nobody can take it. A shedding home is still offered
                // it, and its watermark decides.
                Err(back) => arrival = back,
            }
        }
        if home_down {
            // A dead base station serves nobody.
            self.stats.home_down_dropped += 1;
            return;
        }
        self.cells[home].window.push(arrival, user, None);
    }

    /// Run every gossip round due at or before `start`.
    fn run_gossip(&mut self, start: SimTime) {
        let gossip = GossipConfig::default();
        while self.next_gossip <= start {
            let now = self.next_gossip;
            let up: Vec<bool> = (0..self.cells.len())
                .map(|i| !self.cell_down(i, now))
                .collect();
            for (i, c) in self.cells.iter().enumerate() {
                if up[i] {
                    self.members[i].beat(now, c.load_digest(now));
                }
            }
            gossip_round_ctx(
                &mut self.members,
                &mut self.handoffs,
                &up,
                now,
                self.cfg.seed,
                self.round_idx,
                Some(&self.cfg.cell_faults),
            );
            self.round_idx += 1;
            self.next_gossip += gossip.round;
        }
    }

    /// Post-step bookkeeping for cell `i`: correlate streamed admissions
    /// with their users, re-route bounced admissions, stamp provenance on
    /// fresh outcomes, and trigger result forwards.
    fn harvest(&mut self, i: usize, end: SimTime, draining: bool) {
        for (handle, user, provenance) in self.cells[i].window.take_admitted() {
            self.track(i, handle, user, provenance);
        }

        for (mut arrival, user) in self.cells[i].window.take_bounced() {
            arrival.at = end;
            if self.cfg.redirect && !draining && self.absorb(arrival, user, i).is_ok() {
                self.stats.bounced_redirected += 1;
            } else {
                self.stats.bounced_dropped += 1;
            }
        }

        let total = self.cells[i].rt.outcomes().len();
        for k in self.cells[i].outcomes_seen..total {
            let id = self.cells[i].rt.outcomes()[k].id;
            let Some(tag) = self.cells[i].tags.remove(&id) else {
                continue;
            };
            // Answered: no longer the roamer's to carry around.
            let mut user_at = i;
            if let Some(r) = self.roamer_of(tag.user) {
                let roamer = &mut self.roamers[r];
                roamer.open.retain(|&(c, h)| (c, h.id()) != (i, id));
                user_at = roamer.cell.0 as usize;
            }
            let forwarded = tag
                .forward
                .map(|_| cross_cell(i, i, CrossCellHandoff::ForwardedHome));
            let response = self.cells[i].rt.outcomes_mut()[k].response.as_mut();
            if let (Some(stamp), Ok(resp)) = (forwarded.or(tag.provenance), response) {
                resp.provenance = stamp;
            }
            let Some(handoff) = tag.forward else {
                continue;
            };
            self.handoffs[i].advance(handoff, HandoffPhase::InProgress);
            if user_at == i {
                // The user is back here before the answer: delivery is local.
                self.handoffs[i].advance(handoff, HandoffPhase::Completed);
                self.stats.forwards_completed += 1;
            } else {
                self.ship(handoff, i, user_at, Cargo::Answer);
            }
        }
        self.cells[i].outcomes_seen = total;
    }

    /// Run the bus to quiescence and apply every delivery. Envelopes still
    /// unaccounted for afterwards exhausted their retries (dead-lettered):
    /// the sender's ledger marks their records `Abandoned`.
    fn pump_bus(&mut self, end: SimTime) {
        self.bus.run_to_quiescence();
        for i in 0..self.cells.len() {
            let inbox: Vec<(SimTime, Envelope)> = self
                .bus
                .with_agent_mut(self.cells[i].agent, |a| {
                    a.downcast_mut::<CellEndpoint>()
                        .map(|e| std::mem::take(&mut e.inbox))
                        .unwrap_or_default()
                })
                .unwrap_or_default();
            for (arrived, env) in inbox {
                let id = env
                    .content_type
                    .strip_prefix("handoff/")
                    .and_then(|s| s.parse::<u64>().ok());
                if let Some(id) = id {
                    // The bus clock idles between windows, so only the
                    // *duration* in transit is meaningful.
                    let transport_s = arrived.since(env.sent_at).as_secs_f64();
                    self.deliver(HandoffId(id), i, transport_s, end);
                }
            }
        }
        for (id, lost) in std::mem::take(&mut self.in_transit) {
            match lost.cargo {
                Cargo::Query { .. } => self.stats.migrations_lost += 1,
                Cargo::Answer => self.stats.forwards_lost += 1,
            }
            self.handoffs[lost.from].advance(id, HandoffPhase::Abandoned);
        }
    }

    /// Handoff `id`'s envelope arrived at cell `dest`. An answer is home.
    /// A migrating query is re-planned (through the destination's cache —
    /// warm if the predictor got there first) and re-admitted under the
    /// destination's own watermarks.
    fn deliver(&mut self, id: HandoffId, dest: usize, transport_s: f64, end: SimTime) {
        let Some(InTransit { from, to, cargo }) = self.in_transit.remove(&id) else {
            return;
        };
        debug_assert_eq!(to, dest, "handoff delivered to the wrong cell");
        // The envelope itself carries the record to the destination; the
        // rest of the federation learns by gossip.
        if let Some(rec) = self.handoffs[from].get(id).cloned() {
            self.handoffs[dest].merge(&[rec]);
        }
        let Cargo::Query { query, user } = cargo else {
            self.handoffs[dest].advance(id, HandoffPhase::Completed);
            self.stats.forwards_completed += 1;
            return;
        };
        let task = self.book.task(user as usize);
        let (warm, setup_s) = match self.cells[dest].cache.request(task, end) {
            Ok((_, CacheResult::Hit, d)) => (true, d.as_secs_f64()),
            Ok((_, CacheResult::Miss, d)) => (false, d.as_secs_f64()),
            Err(_) => (false, REACTIVE_SETUP.as_secs_f64()),
        };
        self.handoffs[dest].advance(id, HandoffPhase::InProgress);
        let latency = transport_s + setup_s;
        let verdict = self.cells[dest].rt.admit_migrated(query);
        self.handoffs[dest].advance(id, HandoffPhase::Completed);
        match verdict.handle() {
            Some(h) => {
                let stamp = cross_cell(from, dest, CrossCellHandoff::Migrated);
                self.track(dest, h, user, Some(stamp));
                self.stats.migrations_completed += 1;
                if warm {
                    self.stats.warm_handoff_latencies_s.push(latency);
                } else {
                    self.stats.cold_handoff_latencies_s.push(latency);
                }
            }
            None => {
                // The destination's own overload watermarks refused it.
                self.stats.migrations_rejected += 1;
            }
        }
    }

    /// Everything offered has been admitted (or accounted) and every
    /// queue, window, and in-transit handoff is empty.
    fn is_drained(&self) -> bool {
        self.offered.is_empty()
            && self.in_transit.is_empty()
            && self
                .cells
                .iter()
                .all(|c| c.rt.queue_depth() == 0 && c.window.pending() == 0)
    }

    /// The run has drained: with every queue empty, a query still on the
    /// books can no longer complete — except in a crash-stopped cell with
    /// a journal, whose lost queries come back at the restart edge.
    /// Everywhere else, let go of the handles and tags, counting each
    /// forward that will now carry nothing.
    fn release_dead(&mut self) {
        let (journal, crashed) = (self.cfg.journal, &self.crashed);
        for roamer in &mut self.roamers {
            roamer.open.retain(|&(c, _)| journal && crashed[c]);
        }
        for i in 0..self.cells.len() {
            if journal && self.crashed[i] {
                continue;
            }
            for tag in std::mem::take(&mut self.cells[i].tags).into_values() {
                if let Some(forward) = tag.forward {
                    self.abandon_forward(i, forward);
                }
            }
        }
    }

    /// Forward `id`, opened by cell `at`, will never carry an answer.
    fn abandon_forward(&mut self, at: usize, id: HandoffId) {
        self.stats.forwards_abandoned += 1;
        self.handoffs[at].advance(id, HandoffPhase::Abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roaming::{commute_traces, RoamingConfig};
    use pg_runtime::{OverloadConfig, OverloadPolicy, RuntimeConfig, SchedPolicy};
    use pg_sim::rng::RngStreams;
    use rand::Rng;

    fn cell_runtime(seed: u64) -> MultiQueryRuntime<PervasiveGrid> {
        let pg = PervasiveGrid::building(1, 4, seed).build();
        let cfg = RuntimeConfig::builder()
            .capacity(32)
            .epoch(Duration::from_secs(30))
            .slots_per_epoch(2)
            .policy(SchedPolicy::Edf)
            .overload(OverloadConfig::watermarks(
                OverloadPolicy::Shed,
                0,
                0,
                16,
                24,
            ))
            .build();
        MultiQueryRuntime::new(cfg, pg)
    }

    fn small_federation(seed: u64, cells: usize, cfg: FederationConfig) -> Federation {
        let runtimes = (0..cells).map(|i| cell_runtime(seed + i as u64)).collect();
        let traces = commute_traces(
            seed,
            &RoamingConfig {
                users: 8,
                cells,
                horizon: Duration::from_secs(3_600),
                dwell_min: Duration::from_secs(120),
                dwell_max: Duration::from_secs(300),
            },
        );
        Federation::new(cfg, runtimes, traces)
    }

    fn offer_poisson(fed: &mut Federation, seed: u64, rate_hz: f64, horizon_s: u64) {
        let mut rng = RngStreams::new(seed).fork("fed-arrivals");
        let mut t = 0.0;
        loop {
            t += -rng.gen::<f64>().max(1e-12).ln() / rate_hz;
            if t >= horizon_s as f64 {
                break;
            }
            let user = rng.gen_range(0..8u64);
            fed.offer(
                SimTime::from_secs_f64(t),
                user,
                "SELECT AVG(temp) FROM sensors",
                QueryOpts::with_deadline(Duration::from_secs(120)),
            );
        }
    }

    #[test]
    fn federation_runs_roams_and_hands_off() {
        let mut fed = small_federation(5, 3, FederationConfig::default());
        offer_poisson(&mut fed, 5, 0.08, 3_600);
        fed.run(SimTime::from_secs(3_600));
        let (total, met) = fed.goodput();
        assert!(total > 0, "no queries completed");
        assert!(met > 0, "no deadlines met");
        let s = &fed.stats;
        assert!(
            s.migrations_opened + s.forwards_opened > 0,
            "roaming users never triggered a handoff"
        );
        assert_eq!(
            s.migrations_completed + s.migrations_rejected + s.migrations_lost,
            s.migrations_opened,
            "migrations unaccounted for"
        );
        // With the predictor on, commute rings should produce warm
        // migrations whenever any migration happened at all.
        if s.migrations_completed > 0 {
            assert!(s.prewarms > 0, "predictor never pre-warmed anything");
        }
        // Cross-cell work leaves provenance on the outcomes: every
        // migration that was re-admitted and serviced, and every
        // forward-home, is visibly tagged.
        let cross: u64 = fed
            .cells()
            .iter()
            .flat_map(|c| c.rt.outcomes())
            .filter(|o| {
                o.response
                    .as_ref()
                    .is_ok_and(|r| r.provenance.is_cross_cell())
            })
            .count() as u64;
        assert!(
            cross > 0,
            "handoffs happened but no outcome carries cross-cell provenance"
        );
        // Nothing can be tagged that the stats never counted.
        assert!(
            cross <= s.migrations_completed + s.forwards_opened + s.absorbed + s.bounced_redirected,
            "more tagged outcomes than cross-cell events"
        );
    }

    #[test]
    fn determinism_same_seed_same_everything() {
        let run = || {
            let mut fed = small_federation(9, 3, FederationConfig::default());
            offer_poisson(&mut fed, 9, 0.08, 3_600);
            fed.run(SimTime::from_secs(3_600));
            let (total, met) = fed.goodput();
            (
                total,
                met,
                fed.stats.migrations_completed,
                fed.stats.forwards_completed,
                fed.stats.warm_handoff_latencies_s.clone(),
                fed.stats.cold_handoff_latencies_s.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bipartition_heals_and_views_reconverge() {
        // {0,1} | {2,3} for half an hour mid-run. During the cut the two
        // sides must not exchange anything; after the heal every view must
        // reconverge to all four cells alive — the incarnation-guarded
        // sticky-Dead rule plus dead-peer probing doing their job.
        let cfg = FederationConfig {
            cell_faults: FaultPlan::builder(7)
                .cell_partition(&[0, 1], SimTime::from_secs(600), SimTime::from_secs(2_400))
                .build()
                .unwrap(),
            reliable: ReliableConfig { breaker: true },
            ..FederationConfig::default()
        };
        let mut fed = small_federation(7, 4, cfg);
        offer_poisson(&mut fed, 7, 0.08, 3_600);
        fed.run(SimTime::from_secs(3_600));
        let (total, met) = fed.goodput();
        assert!(total > 0 && met > 0, "partition starved the federation");
        for m in fed.members() {
            let live = m.live_set();
            assert_eq!(
                live.len(),
                4,
                "cell {} did not reconverge after the heal: {live:?}",
                m.me
            );
        }
        // Accounting stays closed even with handoffs dying on the cut.
        let s = &fed.stats;
        assert_eq!(
            s.migrations_completed + s.migrations_rejected + s.migrations_lost,
            s.migrations_opened,
            "migrations unaccounted for across the partition"
        );
    }

    #[test]
    fn crash_restart_with_journal_beats_recovery_free_restart() {
        // Cell 1 crash-stops from t=900 to t=2100. With the write-ahead
        // journal its queued queries survive the restart; without it they
        // are simply gone. Long deadlines so recovered queries still count.
        let build = |journal: bool| {
            let cfg = FederationConfig {
                cell_faults: FaultPlan::builder(31)
                    .cell_crash(1, SimTime::from_secs(900), SimTime::from_secs(2_100))
                    .build()
                    .unwrap(),
                journal,
                ..FederationConfig::default()
            };
            let mut fed = small_federation(31, 3, cfg);
            let mut rng = RngStreams::new(31).fork("crash-arrivals");
            let mut t = 0.0;
            // Hot enough that queues are non-empty at the crash edge.
            while t < 3_600.0 {
                t += -rng.gen::<f64>().max(1e-12).ln() / 0.35;
                let user = rng.gen_range(0..8u64);
                fed.offer(
                    SimTime::from_secs_f64(t),
                    user,
                    "SELECT AVG(temp) FROM sensors",
                    QueryOpts::with_deadline(Duration::from_secs(2_400)),
                );
            }
            fed.run(SimTime::from_secs(3_600));
            fed
        };
        let with = build(true);
        let without = build(false);
        assert!(with.stats.crashes >= 1, "the crash window never applied");
        assert!(
            without.stats.crash_lost > 0,
            "the crash destroyed nothing — the scenario is vacuous"
        );
        assert_eq!(with.stats.journal_recovered, with.stats.crash_lost);
        assert_eq!(without.stats.journal_recovered, 0);
        let (total_with, _) = with.goodput();
        let (total_without, _) = without.goodput();
        assert!(
            total_with > total_without,
            "journal recovery must strictly beat a recovery-free restart: \
             {total_with} vs {total_without}"
        );
        // Exactly-once conservation per cell, at drain (queues empty):
        // everything admitted is completed, cancelled, shed, migrated
        // away, or (net of recovery) lost — nothing double-counted.
        for fed in [&with, &without] {
            for c in fed.cells() {
                assert_eq!(
                    c.rt.admitted,
                    c.rt.outcomes().len() as u64
                        + c.rt.cancelled
                        + c.rt.shed
                        + c.rt.migrated_out
                        + c.rt.lost,
                    "conservation identity broken at cell {}",
                    c.id
                );
            }
        }
    }

    #[test]
    fn every_handoff_ends_in_exactly_one_counter() {
        // Six cells offered their full capacity under the shed policy,
        // through a bipartition and then a crash-stopped cell: queries
        // are shed after their user left them a forward, and those
        // forwards have to be accounted for too.
        let t = 3_600;
        let mut abandoned = 0;
        for seed in 1..=5u64 {
            let cfg = FederationConfig {
                seed,
                cell_faults: FaultPlan::builder(seed ^ 0x7A21)
                    .cell_partition(
                        &[0, 1, 2],
                        SimTime::from_secs(t / 4),
                        SimTime::from_secs(t / 2),
                    )
                    .cell_crash(1, SimTime::from_secs(t / 2), SimTime::from_secs(2 * t / 3))
                    .build()
                    .unwrap(),
                journal: true,
                ..FederationConfig::default()
            };
            let mut fed = small_federation(seed, 6, cfg);
            offer_poisson(&mut fed, seed, 6.0 * 2.0 / 30.0, t);
            fed.run(SimTime::from_secs(t));
            let s = &fed.stats;
            assert_eq!(
                s.forwards_opened,
                s.forwards_completed + s.forwards_lost + s.forwards_abandoned,
                "seed {seed}: forwards unaccounted for"
            );
            assert_eq!(
                s.migrations_opened,
                s.migrations_completed + s.migrations_rejected + s.migrations_lost,
                "seed {seed}: migrations unaccounted for"
            );
            // Drained, every cell up again: nothing is left on the books.
            assert!(fed.cells().iter().all(|c| c.tags.is_empty()));
            assert!(fed.roamers.iter().all(|r| r.open.is_empty()));
            assert!(fed.in_transit.is_empty());
            abandoned += s.forwards_abandoned;

            // The ledgers end in the same counters: every record terminal,
            // and after a few more rounds of gossip every one retired at
            // every cell, each counted once.
            let completed = s.migrations_completed + s.migrations_rejected + s.forwards_completed;
            let given_up = s.migrations_lost + s.forwards_lost + s.forwards_abandoned;
            let opened = (s.migrations_opened + s.forwards_opened) as usize;
            for _ in 0..20 {
                fed.step_window(SimTime::from_secs(t));
            }
            for ledger in fed.handoff_ledgers() {
                assert_eq!(ledger.len(), opened, "seed {seed}");
                let want = [0, 0, given_up as usize, completed as usize];
                assert_eq!(ledger.phase_counts(), want, "seed {seed}");
                assert!(
                    ledger.snapshot().is_empty(),
                    "seed {seed}: records never retired"
                );
            }
        }
        assert!(abandoned > 0, "no forward was ever abandoned — vacuous");
    }

    /// Three cells and one traced user, user 0, who starts in cell 0,
    /// offers one patient query at t=10 and follows `moves` (`(at_s,
    /// to)`). Stationary user 9 (9 % 3 = cell 0) offers an opener at t=5
    /// — anchoring cell 0's rounds at t=5, 35, 65, … — and then one
    /// impatient query at each of `rivals_s`, which EDF serves first.
    fn left_behind(cfg: FederationConfig, moves: &[(u64, u32)], rivals_s: &[u64]) -> Federation {
        let moves = (moves.iter())
            .map(|&(at_s, to)| crate::roaming::Move {
                at: SimTime::from_secs(at_s),
                to: CellId(to),
            })
            .collect();
        let trace = Trace {
            user: 0,
            start: CellId(0),
            moves,
        };
        let runtimes = (1..=3).map(cell_runtime).collect();
        let mut fed = Federation::new(cfg, runtimes, vec![trace]);
        let rivals = rivals_s.iter().map(|&at_s| (at_s, 9, 60));
        for (at_s, user, deadline_s) in [(5, 9, 600), (10, 0, 2_400)].into_iter().chain(rivals) {
            fed.offer(
                SimTime::from_secs(at_s),
                user,
                "SELECT AVG(temp) FROM sensors",
                QueryOpts::with_deadline(Duration::from_secs(deadline_s)),
            );
        }
        fed
    }

    fn forwarded_home(fed: &Federation) -> usize {
        (fed.cells.iter().flat_map(|c| c.rt.outcomes()))
            .filter_map(|o| o.response.as_ref().ok())
            .filter(|r| r.provenance.handoff == Some(CrossCellHandoff::ForwardedHome))
            .count()
    }

    #[test]
    fn a_second_move_supersedes_the_forward_or_migrates_the_query_after_all() {
        // The user leaves at t=31 with the query at the head of cell 0's
        // queue: it stays, owed a forward. Rivals at t=32 and 33 take the
        // round at t=35, so the query is still queued when the user moves
        // again at t=61.
        //
        // Rivals at t=62 and 63 arrive after that move: the query is
        // still at the head, gets a second forward, and the first one
        // will never carry anything.
        let mut fed = left_behind(
            FederationConfig::default(),
            &[(31, 1), (61, 2)],
            &[32, 33, 62, 63],
        );
        fed.run(SimTime::from_secs(300));
        let s = &fed.stats;
        assert_eq!(
            (
                s.forwards_opened,
                s.forwards_completed,
                s.forwards_abandoned
            ),
            (2, 1, 1),
            "{s:?}"
        );
        assert_eq!(forwarded_home(&fed), 1);

        // Rivals at t=40 and 41 are already queued ahead of it at that
        // move: now deep in the queue, the query migrates, and the
        // forward it was owed is void.
        let mut fed = left_behind(
            FederationConfig::default(),
            &[(31, 1), (61, 2)],
            &[32, 33, 40, 41],
        );
        fed.run(SimTime::from_secs(300));
        let s = &fed.stats;
        assert_eq!(
            (
                s.forwards_opened,
                s.forwards_completed,
                s.forwards_abandoned
            ),
            (1, 0, 1),
            "{s:?}"
        );
        assert_eq!((s.migrations_opened, s.migrations_completed), (1, 1));
        assert_eq!(forwarded_home(&fed), 0);
        assert!(fed.cells.iter().all(|c| c.tags.is_empty()));
    }

    /// Regression: a cold federation's plan caches keep plans for zero
    /// seconds, and two migrations landing in one cell at the same window
    /// end used to meet one cached plan — the second was served warm.
    #[test]
    fn a_cold_federation_never_records_a_warm_handoff() {
        // Users 0 and `k` share a task and start in cell 0. Stationary user
        // 300 (300 % 3 = 0) anchors cell 0's rounds at t=5, 35, … and
        // queues six rivals ahead of their queries, so both queries are
        // deep in the queue when the two users walk into cell 1 within
        // the window [30, 60).
        let k = MethodLibrary::pervasive_grid().tasks().count() as u64;
        let traces = [(0, 31), (k, 32)]
            .map(|(user, at_s)| Trace {
                user,
                start: CellId(0),
                moves: vec![crate::roaming::Move {
                    at: SimTime::from_secs(at_s),
                    to: CellId(1),
                }],
            })
            .to_vec();
        let runtimes = (1..=3).map(cell_runtime).collect();
        let cfg = FederationConfig {
            proactive: false,
            ..FederationConfig::default()
        };
        let mut fed = Federation::new(cfg, runtimes, traces);
        let mut offers = vec![(5, 300, 600)];
        offers.extend([(20, 300, 600); 6]);
        offers.extend([(21, 0, 2_400), (21, k, 2_400)]);
        for (at_s, user, deadline_s) in offers {
            fed.offer(
                SimTime::from_secs(at_s),
                user,
                "SELECT AVG(temp) FROM sensors",
                QueryOpts::with_deadline(Duration::from_secs(deadline_s)),
            );
        }
        // Read the ledgers the window both land, before gossip retires
        // the records.
        let horizon = SimTime::from_secs(600);
        while fed.stats.migrations_completed < 2 {
            assert!(!fed.step_window(horizon), "drained before both landed");
        }
        let landed: Vec<HandoffRecord> = (fed.handoff_ledgers().iter())
            .flat_map(HandoffStore::snapshot)
            .filter(|r| r.kind == HandoffKind::Migrate && r.phase == HandoffPhase::Completed)
            .collect();
        assert_eq!(landed.len(), 2, "{landed:?}");
        fed.run(horizon);
        let s = &fed.stats;
        assert_eq!(s.migrations_completed, 2, "{s:?}");
        assert!(s.warm_handoff_latencies_s.is_empty(), "{s:?}");
        assert_eq!(s.cold_handoff_latencies_s.len(), 2);
    }

    #[test]
    fn a_drain_keeps_the_books_of_a_crashed_cell_that_has_a_journal() {
        // As above up to the round at t=35, but cell 0 crash-stops at
        // t=60 with the left-behind query still queued. The run to t=120
        // drains while the cell is down; the journal brings the query
        // back at t=300 and the forward it was owed must still fire.
        let cfg = FederationConfig {
            cell_faults: FaultPlan::builder(1)
                .cell_crash(0, SimTime::from_secs(60), SimTime::from_secs(300))
                .build()
                .unwrap(),
            journal: true,
            ..FederationConfig::default()
        };
        let mut fed = left_behind(cfg.clone(), &[(31, 1)], &[32, 33]);
        fed.run(SimTime::from_secs(120));
        assert_eq!(
            fed.stats.crash_lost, 1,
            "the query was not queued at the crash"
        );
        assert_eq!(fed.stats.forwards_opened, 1);
        assert_eq!(
            fed.cells[0].tags.len(),
            1,
            "the drain dropped a revivable query's tag"
        );
        fed.run(SimTime::from_secs(600));
        let s = &fed.stats;
        assert_eq!(s.journal_recovered, 1);
        assert_eq!(
            (s.forwards_completed, s.forwards_abandoned),
            (1, 0),
            "{s:?}"
        );
        assert_eq!(forwarded_home(&fed), 1);
        assert!(fed.cells[0].tags.is_empty());

        // The same when the user only leaves at t=305, after the restart:
        // their handle on the lost query has to outlive the drain too, or
        // the revived query is left behind with no forward at all.
        let mut fed = left_behind(cfg, &[(305, 1)], &[32, 33]);
        fed.run(SimTime::from_secs(120));
        assert_eq!((fed.stats.crash_lost, fed.stats.forwards_opened), (1, 0));
        assert_eq!(
            fed.roamers[0].open.len(),
            1,
            "the drain dropped a revivable handle"
        );
        fed.run(SimTime::from_secs(600));
        let s = &fed.stats;
        assert_eq!((s.forwards_opened, s.forwards_completed), (1, 1), "{s:?}");
        assert_eq!(forwarded_home(&fed), 1);
    }

    #[test]
    fn a_roamer_holds_only_the_queries_still_in_flight() {
        // A traced user who never moves: nothing ever prunes their list
        // but the harvest of each answer.
        let runtimes = vec![cell_runtime(3), cell_runtime(4)];
        let traces = vec![Trace {
            user: 0,
            start: CellId(0),
            moves: vec![],
        }];
        let mut fed = Federation::new(FederationConfig::default(), runtimes, traces);
        for k in 0..300 {
            fed.offer(
                SimTime::from_secs(20 * k),
                0,
                "SELECT AVG(temp) FROM sensors",
                QueryOpts::with_deadline(Duration::from_secs(120)),
            );
        }
        let mut peak = 0;
        while !fed.step_window(SimTime::from_secs(6_000)) {
            let open = fed.roamers[0].open.len();
            assert_eq!(open, fed.cells[0].rt.queue_depth(), "at {}", fed.now());
            assert_eq!(open, fed.cells[0].tags.len(), "at {}", fed.now());
            peak = peak.max(open);
        }
        assert!(peak > 0, "nothing was ever in flight — vacuous");
        assert!(peak <= fed.cells[0].rt.config().capacity);
        assert_eq!(fed.goodput().0, 300);
    }

    #[test]
    fn dead_home_cell_is_absorbed_by_peers() {
        let outage = |seed| {
            FaultPlan::builder(seed)
                .base_outage(SimTime::from_secs(600), SimTime::from_secs(2_400))
                .build()
                .unwrap()
        };
        let build = |redirect: bool| {
            let mut runtimes: Vec<MultiQueryRuntime<PervasiveGrid>> =
                (0..3).map(|i| cell_runtime(100 + i as u64)).collect();
            // Kill cell 1's base mid-run.
            let pg = PervasiveGrid::building(1, 4, 101)
                .faults(outage(101))
                .build();
            let cfg = *runtimes[1].config();
            runtimes[1] = MultiQueryRuntime::new(cfg, pg);
            let fcfg = FederationConfig {
                redirect,
                ..FederationConfig::default()
            };
            let traces = commute_traces(
                100,
                &RoamingConfig {
                    users: 8,
                    cells: 3,
                    horizon: Duration::from_secs(3_600),
                    dwell_min: Duration::from_secs(400),
                    dwell_max: Duration::from_secs(800),
                },
            );
            let mut fed = Federation::new(fcfg, runtimes, traces);
            offer_poisson(&mut fed, 100, 0.08, 3_600);
            fed.run(SimTime::from_secs(3_600));
            fed
        };
        let federated = build(true);
        let isolated = build(false);
        assert!(federated.stats.absorbed > 0, "nothing was absorbed");
        let (_, met_fed) = federated.goodput();
        let (_, met_iso) = isolated.goodput();
        assert!(
            met_fed > met_iso,
            "federated goodput {met_fed} not above isolated {met_iso}"
        );
    }
}
