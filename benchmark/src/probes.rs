//! Layer probes: after the traced run, replay the inputs it recorded
//! through each layer's public functions and time them in isolation.
//!
//! A probe answers "what does this layer cost at this workload's call
//! count", not "what share of the live run was it": the replay runs on a
//! fresh world, so cache state and battery levels differ from the live
//! run's. Shares therefore need not sum to `wall_s`;
//! `trace.unattributed_s` says by how much they miss. No crate under
//! `crates/` is instrumented — every number here comes from timing calls
//! into public functions.

use crate::ledger::{Answer, Ledger};
use crate::timed::Capture;
use crate::workloads::{federation, fire, metro, scale, FedReplay, FireReplay, Kind, Replay};
use pg_agent::{Agent, AgentProfile, AgentSystem, DirectDeputy, Envelope, ReliableConfig};
use pg_core::{FireScenario, PervasiveGrid, Policy, Reward};
use pg_discovery::ServiceRequest;
use pg_federation::{
    gossip_round, CellId, GossipConfig, HandoffRecord, HandoffStore, LoadDigest, Membership,
};
use pg_grid::{Job, Problem, Solver};
use pg_net::repair::repair_after_deaths;
use pg_net::{LinkModel, NodeId, Point, Topology};
use pg_partition::exec::{members_of, value_filter};
use pg_partition::learn::bandit_candidates;
use pg_partition::{ExecContext, QueryFeatures, SolutionModel};
use pg_query::{classify, Query, QueryKind};
use pg_runtime::QueryJournal;
use pg_sensornet::shared::MAX_SHARED_QUERIES;
use pg_sensornet::{AggFn, SharedQuery};
use pg_sim::metrics::Samples;
use pg_sim::report::Report;
use pg_sim::{Scheduler, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer values by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Run `f`, adding its host time to `acc`.
fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = black_box(f());
    *acc += start.elapsed().as_secs_f64();
    out
}

/// The execution context over a grid's substrates.
fn ctx_of(pg: &mut PervasiveGrid, now: SimTime) -> ExecContext<'_> {
    ExecContext {
        net: &mut pg.net,
        grid: &pg.grid,
        field: &pg.field,
        regions: &pg.regions,
        now,
    }
}

/// A grid as the workload's set-up leaves it, for learner `group` (the
/// cell in a federation, the incident in the fire response).
fn fresh_grid(kind: Kind, smoke: bool, seed: u64, group: u32) -> PervasiveGrid {
    match kind {
        Kind::MetroDay => metro::world(&metro::Size::day(smoke), seed),
        Kind::MetroBandit => metro::world(&metro::Size::bandit(smoke), seed),
        Kind::ScaleChurn => {
            let mut pg = scale::world(&scale::Size::new(smoke), seed);
            scale::first_flood(&mut pg, seed);
            pg
        }
        Kind::FireResponse => {
            let size = fire::Size::new(smoke);
            FireScenario::new(size.floors, size.side, seed.wrapping_add(u64::from(group))).runtime
        }
        Kind::FederationFaults => federation::cell_grid(&federation::Size::new(smoke), seed, group),
    }
}

/// `pg-query`: parse + classify every offered text.
fn query(cap: &Capture, out: &mut Layer) {
    let (mut busy, mut calls) = (0.0, 0u64);
    for (text, &n) in cap.texts.iter().zip(&cap.offered) {
        timed(&mut busy, || {
            for _ in 0..n {
                if let Ok(q) = pg_query::parse(black_box(text)) {
                    black_box(classify(&q));
                }
            }
        });
        calls += n;
    }
    out.insert("query.parse.calls", calls as f64);
    out.insert("query.parse.busy_s", busy);
}

/// The model with the lowest predicted scalar cost — what a learner that
/// never explored would pick.
fn greedy(pg: &PervasiveGrid, features: &QueryFeatures) -> Option<SolutionModel> {
    let candidates = if pg.decision.policy() == Policy::Bandit {
        bandit_candidates(features.members)
    } else {
        SolutionModel::candidates(features.members)
    };
    let weights = pg.decision.config().weights();
    candidates
        .into_iter()
        .map(|m| {
            (
                weights.scalar(&pg.decision.predict(&pg.net, &pg.grid, features, &m)),
                m,
            )
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, m)| m)
}

/// Mean of the last tenth of `times` over the mean of the first tenth:
/// 1 for a per-call cost that does not grow, ≫ 1 for one that does.
fn growth(times: &[f64]) -> f64 {
    let tenth = times.len() / 10;
    if tenth == 0 {
        return 1.0;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&times[times.len() - tenth..]) / mean(&times[..tenth]).max(1e-12)
}

/// `pg-partition`: replay every answer through a fresh decision maker —
/// `extract` + `observe` for answers that rode a shared tree, plus
/// `choose` for those that went through the single-query pipeline.
fn partition(kind: Kind, smoke: bool, seed: u64, log: &[Answer], out: &mut Layer) {
    let mut groups: BTreeMap<u32, Vec<&Answer>> = BTreeMap::new();
    for a in log {
        groups.entry(a.group).or_default().push(a);
    }
    let (mut features_s, mut choose_s, mut observe_s) = (0.0, 0.0, 0.0);
    let (mut chooses, mut observes, mut explored) = (0u64, 0u64, 0u64);
    let mut longest: Vec<f64> = Vec::new();
    for (group, answers) in groups {
        let mut pg = fresh_grid(kind, smoke, seed, group);
        let now = pg.now;
        let mut choose_times = Vec::new();
        for a in answers {
            let Ok(query) = pg_query::parse(&a.text) else {
                continue;
            };
            let features = {
                let ctx = ctx_of(&mut pg, now);
                timed(&mut features_s, || QueryFeatures::extract(&ctx, &query))
            };
            let Some(features) = features else {
                continue;
            };
            if !a.shared {
                let lazy = greedy(&pg, &features);
                let start = Instant::now();
                let chosen = black_box(pg.decision.choose(&pg.net, &pg.grid, &query, &features));
                choose_times.push(start.elapsed().as_secs_f64());
                chooses += 1;
                explored += u64::from(chosen.ok() != lazy);
            }
            let reward = Reward {
                cost: a.cost,
                loss_frac: (1.0 - a.delivered_frac).clamp(0.0, 1.0),
                deadline_missed: a.deadline_exceeded,
                retries: a.retries,
                dead_letters: 0,
            };
            timed(&mut observe_s, || {
                pg.decision
                    .observe(&pg.net, &pg.grid, features, a.model, reward);
            });
            observes += 1;
        }
        choose_s += choose_times.iter().sum::<f64>();
        if choose_times.len() > longest.len() {
            longest = choose_times;
        }
    }
    out.insert("partition.features.busy_s", features_s);
    out.insert("partition.choose.calls", chooses as f64);
    out.insert("partition.choose.busy_s", choose_s);
    out.insert("partition.observe.calls", observes as f64);
    out.insert("partition.observe.busy_s", observe_s);
    out.insert("partition.choose.growth", growth(&longest));
    out.insert(
        "partition.explore_frac",
        explored as f64 / chooses.max(1) as f64,
    );
}

/// `pg-sensornet`: replay every recorded engine batch's shared collection
/// on a fresh cell, with the recorded deaths applied at their epochs.
fn sensornet(
    kind: Kind,
    smoke: bool,
    seed: u64,
    cap: &Capture,
    deaths: &[Vec<NodeId>],
    out: &mut Layer,
) {
    let (mut busy, mut calls, mut waves) = (0.0, 0u64, 0u64);
    let (mut delivered, mut per_query) = (0.0, 0u64);
    if !cap.batches.is_empty() {
        let mut pg = fresh_grid(kind, smoke, seed, 0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        // Only one-shot aggregates without COST bounds ride a shared tree.
        let shareable: Vec<Option<Query>> = cap
            .texts
            .iter()
            .map(|t| {
                pg_query::parse(t)
                    .ok()
                    .filter(|q| classify(q) == QueryKind::Aggregate && q.cost.is_empty())
            })
            .collect();
        let mut next_epoch = 0;
        for batch in &cap.batches {
            while next_epoch <= batch.epoch as usize && next_epoch < deaths.len() {
                for &v in &deaths[next_epoch] {
                    pg.net.drain(v, f64::INFINITY);
                }
                next_epoch += 1;
            }
            let mut group = Vec::new();
            for &(id, brownout) in &batch.items {
                let Some(q) = &shareable[id as usize] else {
                    continue;
                };
                let Ok(mut members) = members_of(&ctx_of(&mut pg, batch.at), q) else {
                    continue;
                };
                if brownout {
                    // The engine's coarser stratum: even node ids only.
                    let coarse: Vec<NodeId> =
                        members.iter().copied().filter(|n| n.0 % 2 == 0).collect();
                    if !coarse.is_empty() {
                        members = coarse;
                    }
                }
                group.push(SharedQuery {
                    members,
                    filter: value_filter(q),
                    agg: q.first_agg().unwrap_or(AggFn::Avg),
                });
            }
            if group.len() < 2 {
                continue;
            }
            for chunk in group.chunks(MAX_SHARED_QUERIES) {
                let report = timed(&mut busy, || {
                    pg.tree_session
                        .collect(&mut pg.net, chunk, &pg.field, batch.at, &mut rng)
                });
                calls += 1;
                waves += u64::from(report.control_waves);
                for pq in &report.per_query {
                    delivered += pq.delivery_ratio();
                    per_query += 1;
                }
            }
        }
    }
    out.insert("sensornet.collect.calls", calls as f64);
    out.insert("sensornet.collect.busy_s", busy);
    out.insert("sensornet.collect.waves", waves as f64);
    out.insert(
        "sensornet.collect.delivery_frac",
        delivered / per_query.max(1) as f64,
    );
}

/// `pg-net`: build the workload's topologies, and repair the canonical
/// tree after each recorded batch of deaths.
fn net(kind: Kind, smoke: bool, deaths: &[Vec<NodeId>], out: &mut Layer) {
    let (floors, side, builds) = match kind {
        Kind::MetroDay | Kind::MetroBandit => {
            let s = metro::Size::day(smoke);
            (s.floors, s.side, 1)
        }
        Kind::ScaleChurn => {
            let s = scale::Size::new(smoke);
            (s.floors, s.side, 1)
        }
        Kind::FireResponse => {
            let s = fire::Size::new(smoke);
            (s.floors, s.side, s.incidents)
        }
        Kind::FederationFaults => {
            let s = federation::Size::new(smoke);
            (1, s.side, s.cells as u64)
        }
    };
    let build = || Topology::building(floors, side, side, 5.0, 4.0, 8.0);
    let mut build_s = 0.0;
    for _ in 0..builds {
        timed(&mut build_s, build);
    }
    let (mut repair_s, mut calls, mut reparented) = (0.0, 0u64, 0u64);
    if !deaths.is_empty() {
        let topo = build();
        let mut tree = topo.canonical_tree(NodeId(0));
        let mut alive = vec![true; topo.len()];
        for victims in deaths {
            for v in victims {
                alive[v.idx()] = false;
            }
            let stats = timed(&mut repair_s, || {
                repair_after_deaths(&topo, &mut tree, victims, |id| alive[id.idx()])
            });
            calls += 1;
            reparented += stats.touched() as u64;
        }
    }
    out.insert("net.topology_build.busy_s", build_s);
    out.insert("net.repair.calls", calls as f64);
    out.insert("net.repair.busy_s", repair_s);
    out.insert("net.repair.reparented", reparented as f64);
}

/// Grid shape for a reconstruction over `extent` metres — the rule
/// `pg_partition::exec` applies (1 m cells, at most 40 per axis).
fn problem_dims(extent: (f64, f64, f64)) -> (usize, usize, usize, f64) {
    let max_ext = extent.0.max(extent.1).max(extent.2).max(1.0);
    let spacing = (max_ext / 39.0).max(1.0);
    let dim = |e: f64| (((e / spacing).ceil() as usize) + 1).clamp(3, 40);
    (
        dim(extent.0),
        dim(extent.1),
        dim(extent.2.max(1.0)),
        spacing,
    )
}

/// `pg-grid` and `pg-discovery`: per round of the fire response, one CG
/// solve over the Complex query's region with that round's readings as
/// constraints, one grid scheduling decision, and one registry match per
/// step of the composition plan.
fn fire_layers(fr: &mut FireReplay, smoke: bool, out: &mut Layer) {
    let size = fire::Size::new(smoke);
    let rounds = fr.compositions / fr.incidents.len().max(1) as u64;
    let (mut pde_s, mut sched_s, mut match_s) = (0.0, 0.0, 0.0);
    let (mut solves, mut iters, mut matches) = (0u64, 0u64, 0u64);
    let (mut consulted, mut consultable) = (0u64, 0u64);
    for s in &mut fr.incidents {
        let complex = pg_query::parse(&s.archetype_queries()[2]).expect("archetype parses");
        let now = s.runtime.now;
        let members = members_of(&ctx_of(&mut s.runtime, now), &complex).unwrap_or_default();
        let at: Vec<Point> = members
            .iter()
            .map(|&n| s.runtime.net.topology().position(n))
            .collect();
        let span = |f: fn(&Point) -> f64| {
            let lo = at.iter().map(f).fold(f64::INFINITY, f64::min);
            let hi = at.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
            (lo, (hi - lo).max(0.0))
        };
        let ((x0, ex), (y0, ey), (z0, ez)) = (span(|p| p.x), span(|p| p.y), span(|p| p.z));
        let (nx, ny, nz, spacing) = problem_dims((ex, ey, ez));
        let origin = Point::new(x0, y0, if ez < spacing { z0 - spacing } else { z0 });
        let requests: Vec<ServiceRequest> = s
            .plan
            .steps
            .iter()
            .filter_map(|step| {
                let class = s.onto.class(&step.role.class)?;
                consulted += s.world.registry.candidates(&s.onto, class).len() as u64 * rounds;
                consultable += s.world.registry.len() as u64 * rounds;
                Some(
                    step.role
                        .constraints
                        .iter()
                        .fold(ServiceRequest::for_class(class), |r, c| {
                            r.with_constraint(c.clone())
                        }),
                )
            })
            .collect();
        for round in 0..rounds {
            let t = SimTime::from_secs(600 + round * size.step_s);
            let readings: Vec<f64> = at
                .iter()
                .map(|p| s.runtime.field.temperature(p, t))
                .collect();
            if !readings.is_empty() {
                let boundary = readings.iter().sum::<f64>() / readings.len() as f64;
                let mut p = Problem::new(nx, ny, nz, origin, spacing, boundary);
                for (pos, v) in at.iter().zip(&readings) {
                    p.add_constraint(pos, *v);
                }
                let (_, stats) = timed(&mut pde_s, || {
                    p.solve(Solver::ConjugateGradient, 1e-4, 4_000)
                });
                solves += 1;
                iters += u64::from(stats.iterations);
                let job = [Job {
                    name: "pde-solve".into(),
                    ops: stats.ops,
                    input_bytes: 16 * readings.len() as u64,
                    output_bytes: 8,
                }];
                timed(&mut sched_s, || s.runtime.grid.schedule(&job));
            }
            for req in &requests {
                timed(&mut match_s, || s.world.registry.query(&s.onto, req));
                matches += 1;
            }
        }
    }
    out.insert("grid.pde.solves", solves as f64);
    out.insert("grid.pde.busy_s", pde_s);
    out.insert("grid.pde.iters", iters as f64);
    out.insert("grid.sched.busy_s", sched_s);
    out.insert("discovery.match.calls", matches as f64);
    out.insert("discovery.match.busy_s", match_s);
    out.insert(
        "discovery.match.consulted_frac",
        consulted as f64 / consultable.max(1) as f64,
    );
}

/// A bus endpoint that swallows what it is sent.
struct Sink(AgentProfile);

impl Agent for Sink {
    fn profile(&self) -> &AgentProfile {
        &self.0
    }
    fn handle(&mut self, _now: SimTime, _env: Envelope) -> Vec<Envelope> {
        Vec::new()
    }
}

/// `pg-federation`, `pg-agent`, `pg-sim` and the runtime journal, at the
/// drained federation's own counts.
fn federation_layers(fr: &FedReplay, seed: u64, ledger: &Ledger, out: &mut Layer) {
    let fed = &fr.fed;
    let n = fr.size.cells;
    let cfg = GossipConfig::default();

    // Gossip: one round per window. First with empty handoff ledgers
    // (membership anti-entropy alone), then with the live run's handoff
    // records opened at their own instants; the difference is what
    // replicating the ledgers costs.
    let rounds = (fed.now().as_secs_f64() / cfg.round.as_secs_f64()) as u64;
    let mut records: Vec<HandoffRecord> = fed
        .handoff_ledgers()
        .iter()
        .max_by_key(|l| l.len())
        .map(HandoffStore::snapshot)
        .unwrap_or_default();
    records.sort_by_key(|r| (r.opened_at, r.id));
    let gossip = |records: &[HandoffRecord]| {
        let mut members: Vec<Membership> = (0..n as u32)
            .map(|i| Membership::new(CellId(i), &[CellId(0)], SimTime::ZERO))
            .collect();
        let mut stores = vec![HandoffStore::new(); n];
        let up = vec![true; n];
        let (mut busy, mut next) = (0.0, 0);
        for r in 0..rounds {
            let now = SimTime::from_secs_f64(r as f64 * cfg.round.as_secs_f64());
            while next < records.len() && records[next].opened_at <= now {
                let rec = records[next].clone();
                stores[rec.from.0 as usize % n].open(rec);
                next += 1;
            }
            timed(&mut busy, || {
                for m in members.iter_mut() {
                    m.beat(now, LoadDigest::default());
                }
                gossip_round(&mut members, &mut stores, &up, now, &cfg, seed, r);
            });
        }
        busy
    };
    let membership_s = gossip(&[]);
    let with_ledgers_s = gossip(&records);
    out.insert("federation.gossip.rounds", rounds as f64);
    out.insert("federation.gossip.busy_s", membership_s);
    out.insert(
        "federation.gossip.busy_per_round_us",
        membership_s * 1e6 / rounds.max(1) as f64,
    );
    out.insert(
        "federation.handoff.merge_busy_s",
        (with_ledgers_s - membership_s).max(0.0),
    );

    // Agent bus: as many reliable sends as the live bus made, handoff
    // sized, pumped to quiescence once per window's worth.
    let sent = ledger.layer.get("agent.bus.sent").copied().unwrap_or(0.0) as usize;
    let mut bus = AgentSystem::new();
    bus.enable_reliability(ReliableConfig::default(), seed);
    let ids: Vec<_> = (0..n)
        .map(|_| {
            bus.register(
                Box::new(Sink(AgentProfile::new())),
                Box::new(DirectDeputy::new(LinkModel::wired_backhaul())),
            )
        })
        .collect();
    let per_pump = (sent / rounds.max(1) as usize).max(1);
    let mut bus_s = 0.0;
    timed(&mut bus_s, || {
        for k in 0..sent {
            let (from, to) = (ids[k % n], ids[(k + 1) % n]);
            bus.send(Envelope::binary(from, to, "handoff/probe", vec![0u8; 2048]));
            if k % per_pump == per_pump - 1 {
                bus.run_to_quiescence();
            }
        }
        bus.run_to_quiescence();
    });
    out.insert("agent.bus.busy_s", bus_s);

    // Event queue: schedule-then-drain as many events as the live bus
    // put on the wire.
    let events = fed.bus_metrics().counter("route.sent");
    let mut queue_s = 0.0;
    timed(&mut queue_s, || {
        let mut sched: Scheduler<u64> = Scheduler::new();
        for i in 0..events {
            // A fixed odd stride scatters the instants over the horizon.
            let at = (i.wrapping_mul(7_919) % fr.size.horizon_s.max(1)) as f64;
            sched.schedule_at(SimTime::from_secs_f64(at), i);
        }
        while let Some(ev) = sched.pop() {
            black_box(ev);
        }
    });
    out.insert("sim.events.processed", events as f64);
    out.insert("sim.events.busy_s", queue_s);

    // Journal: re-append every cell's records, then replay them.
    let (mut append_s, mut replay_s) = (0.0, 0.0);
    for c in fed.cells() {
        let Some(journal) = c.rt.journal() else {
            continue;
        };
        let mut fresh = QueryJournal::new();
        timed(&mut append_s, || {
            for r in journal.records() {
                fresh.append(r.clone());
            }
        });
        timed(&mut replay_s, || fresh.open_queries());
    }
    out.insert("runtime.journal.append_busy_s", append_s);
    out.insert("runtime.journal.replay_busy_s", replay_s);
}

/// `pg-sim`'s report writer, on the run's own ledger.
fn report(name: &str, ledger: &Ledger, out: &mut Layer) {
    let mut r = Report::new(name);
    r.set_counter("offered", ledger.offered);
    r.set_counter("answers", ledger.answers);
    r.set_scalar("energy_j", ledger.energy_j);
    for (k, v) in &ledger.layer {
        r.set_scalar(*k, *v);
    }
    let mut resp = Samples::new();
    for &x in &ledger.resp_s {
        resp.record(x);
    }
    r.record_samples("response_s", &mut resp);
    let mut busy = 0.0;
    timed(&mut busy, || r.to_json().map(|s| s.len()).unwrap_or(0));
    out.insert("sim.report.busy_s", busy);
}

/// Run every probe that applies to `kind`. Layers a workload does not
/// exercise are left out of the map (they read 0).
pub fn run(
    kind: Kind,
    smoke: bool,
    seed: u64,
    cap: &Capture,
    ledger: &Ledger,
    replay: &mut Replay,
) -> Layer {
    let mut out = Layer::new();
    query(cap, &mut out);
    partition(
        kind,
        smoke,
        seed,
        ledger.log.as_deref().unwrap_or_default(),
        &mut out,
    );
    sensornet(kind, smoke, seed, cap, &replay.deaths, &mut out);
    net(kind, smoke, &replay.deaths, &mut out);
    if let Some(fr) = replay.fire.as_mut() {
        fire_layers(fr, smoke, &mut out);
    }
    if let Some(fr) = replay.fed.as_ref() {
        federation_layers(fr, seed, ledger, &mut out);
    }
    report(kind.name(), ledger, &mut out);
    out
}
