//! Federation-level property tests.
//!
//! 1. **Zero-cost wrapper**: a two-cell federation with every user homed
//!    in cell 0 and no mobility behaves *bit-identically*, per seed, to a
//!    standalone single-cell `run_stream` over the same arrivals — the
//!    federation layer adds membership, gossip, and routing around the
//!    runtime without perturbing a single scheduling decision.
//! 2. **Gossip convergence**: after enough rounds with up to `f` crashed
//!    cells, every live cell's local live-set agrees exactly with the
//!    ground truth — suspicion and eviction are purely local staleness
//!    judgments, yet the federation converges without any orchestrator;
//!    and recovered cells (volunteer churn) are rehabilitated everywhere.
//! 3. **Ledger retirement under faults**: through random partitions,
//!    one-way cuts and crashes, no replica ever adopts a record it retired
//!    or counts one twice; after the last heal the replicas reconverge on
//!    one hash, count and phase split, and once nothing is open every live
//!    ledger is empty.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_core::PervasiveGrid;
use pg_federation::gossip::{gossip_round_ctx, RoundCtx, EVICT_AFTER};
use pg_federation::handoff::{HandoffId, HandoffKind, HandoffPhase, HandoffRecord, HandoffStore};
use pg_federation::{
    gossip_round, CellId, Federation, FederationConfig, GossipConfig, LoadDigest, Membership, Trace,
};
use pg_runtime::{
    MultiQueryRuntime, OverloadConfig, OverloadPolicy, QueryOpts, RuntimeConfig, SchedPolicy,
    TraceArrivals,
};
use pg_sim::fault::FaultPlan;
use pg_sim::rng::RngStreams;
use pg_sim::{Duration, SimTime};
use propcheck::check;
use rand::Rng;
use std::collections::BTreeSet;

const EPOCH_S: u64 = 30;
/// Gossip rounds a drawn fault window may cover; all have closed by then.
const FAULT_ROUNDS: u64 = 40;
/// Fault-free rounds after that: views knit back together by dead-probing,
/// then every record settles everywhere.
const TAIL_ROUNDS: u64 = 80;

fn cell_runtime(seed: u64) -> MultiQueryRuntime<PervasiveGrid> {
    let pg = PervasiveGrid::building(1, 4, seed).build();
    let cfg = RuntimeConfig::builder()
        .capacity(64)
        .epoch(Duration::from_secs(EPOCH_S))
        .slots_per_epoch(2)
        .policy(SchedPolicy::Edf)
        .overload(OverloadConfig::watermarks(
            OverloadPolicy::Shed,
            0,
            0,
            24,
            40,
        ))
        .build();
    MultiQueryRuntime::new(cfg, pg)
}

/// A seeded Poisson arrival list over a handful of users.
fn arrivals(seed: u64, rate_hz: f64, horizon_s: u64) -> Vec<(SimTime, u64, String, QueryOpts)> {
    let mut rng = RngStreams::new(seed).fork("prop-arrivals");
    let texts = [
        "SELECT AVG(temp) FROM sensors",
        "SELECT MAX(temp) FROM sensors",
        "SELECT temp FROM sensors WHERE sensor_id = 3",
    ];
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.gen::<f64>().max(1e-12).ln() / rate_hz;
        if t >= horizon_s as f64 {
            break;
        }
        let user = rng.gen_range(0..6u64);
        let text = texts[rng.gen_range(0..texts.len())];
        out.push((
            SimTime::from_secs_f64(t),
            user,
            text.to_string(),
            QueryOpts::with_deadline(Duration::from_secs(120)),
        ));
    }
    out
}

/// Satellite: the federation is a zero-cost wrapper when nobody
/// roams. (Absorption is disabled: it is a deliberate behavioral
/// *feature* that rescues shed load, not wrapper overhead.)
#[test]
fn stationary_two_cell_federation_matches_standalone() {
    check(
        "stationary_two_cell_federation_matches_standalone",
        12,
        |g| {
            let seed = g.range(0u64..1_000);
            let rate_centi_hz = g.range(2u32..12);
            let rate_hz = f64::from(rate_centi_hz) / 100.0;
            let horizon_s = 3_600;
            let offered = arrivals(seed, rate_hz, horizon_s);

            // Standalone single cell over the identical arrival trace.
            let mut alone = cell_runtime(seed);
            let mut trace =
                TraceArrivals::new(
                    offered
                        .iter()
                        .map(|(at, _, text, opts)| pg_runtime::Arrival {
                            at: *at,
                            text: text.clone(),
                            opts: *opts,
                        }),
                );
            alone.run_stream(&mut trace, 100_000);

            // Two-cell federation, every user pinned to cell 0 by a moveless
            // trace.
            let runtimes = vec![cell_runtime(seed), cell_runtime(seed + 1)];
            let traces = (0..6u64)
                .map(|u| Trace {
                    user: u,
                    start: CellId(0),
                    moves: vec![],
                })
                .collect();
            let fcfg = FederationConfig {
                redirect: false,
                ..FederationConfig::default()
            };
            let mut fed = Federation::new(fcfg, runtimes, traces);
            for (at, user, text, opts) in &offered {
                fed.offer(*at, *user, text.clone(), *opts);
            }
            fed.run(SimTime::from_secs(horizon_s));

            // No cross-cell machinery may have engaged…
            assert_eq!(fed.stats.migrations_opened, 0);
            assert_eq!(fed.stats.forwards_opened, 0);
            assert_eq!(fed.stats.absorbed, 0);
            assert!(fed.cells()[1].rt.outcomes().is_empty());

            // …and cell 0 made bit-identical scheduling decisions.
            let a = alone.outcomes();
            let b = fed.cells()[0].rt.outcomes();
            assert_eq!(a.len(), b.len(), "outcome counts diverge");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.id, y.id);
                assert_eq!(&x.text, &y.text);
                assert_eq!(x.submitted_at, y.submitted_at);
                assert_eq!(x.started_at, y.started_at);
                assert_eq!(x.completion_index, y.completion_index);
                assert_eq!(x.queue_wait_s.to_bits(), y.queue_wait_s.to_bits());
                assert_eq!(x.deadline, y.deadline);
                assert_eq!(x.brownout, y.brownout);
                assert_eq!(&x.response, &y.response);
                assert_eq!(x.attribution, y.attribution);
            }
            assert_eq!(alone.rejected, fed.cells()[0].rt.rejected);
            assert_eq!(alone.shed, fed.cells()[0].rt.shed);
            assert_eq!(
                alone.energy_spent_j().to_bits(),
                fed.cells()[0].rt.energy_spent_j().to_bits()
            );
        },
    );
}

/// Satellite: gossip convergence under crashes. After K rounds with
/// ≤ f crashed cells, every live cell agrees on exactly the live set;
/// revived cells are rehabilitated.
#[test]
fn gossip_live_sets_agree_under_crashes() {
    check("gossip_live_sets_agree_under_crashes", 12, |g| {
        let seed = g.u64();
        let n = g.range(3usize..12);
        let crash_mask = g.u64();
        let cfg = GossipConfig::default();
        let round_s = cfg.round.as_secs_f64() as u64;
        // Rounds until a silent peer must be evicted, plus slack for the
        // view to have converged beforehand.
        let evict_rounds = (EVICT_AFTER.as_secs_f64() / round_s as f64).ceil() as u64 + 5;

        let mut members: Vec<Membership> = (0..n)
            .map(|i| Membership::new(CellId(i as u32), &[CellId(0)], SimTime::ZERO))
            .collect();
        let mut handoffs: Vec<HandoffStore> = (0..n).map(|_| HandoffStore::new()).collect();
        // f < n crashed cells drawn from the mask bits; cell 0 (the
        // introducer) stays up so the pre-crash bootstrap is never
        // degenerate, and at least two cells stay live so agreement is
        // non-trivial.
        let mut up = vec![true; n];
        for (i, u) in up.iter_mut().enumerate().skip(1) {
            *u = (crash_mask >> i) & 1 == 0;
        }
        for i in 1..n {
            if up.iter().filter(|&&u| u).count() >= 2 {
                break;
            }
            up[i] = true;
        }

        let mut round = 0u64;
        let mut run = |members: &mut Vec<Membership>,
                       handoffs: &mut Vec<HandoffStore>,
                       up: &[bool],
                       rounds: u64| {
            for _ in 0..rounds {
                round += 1;
                let now = SimTime::from_secs(round_s * round);
                for (i, m) in members.iter_mut().enumerate() {
                    if up[i] {
                        m.beat(now, LoadDigest::default());
                    }
                }
                gossip_round(members, handoffs, up, now, &cfg, seed, round);
            }
        };

        // Bootstrap with everyone up, then crash the picked set.
        let all_up = vec![true; n];
        run(&mut members, &mut handoffs, &all_up, 12);
        run(&mut members, &mut handoffs, &up.clone(), evict_rounds);

        let truth: Vec<CellId> = (0..n)
            .filter(|&i| up[i])
            .map(|i| CellId(i as u32))
            .collect();
        for (i, m) in members.iter().enumerate() {
            if !up[i] {
                continue;
            }
            let mut live = m.live_set();
            live.sort();
            assert_eq!(
                &live, &truth,
                "cell {} disagrees on the live set after {} rounds",
                i, evict_rounds
            );
        }

        // Volunteer churn: revive everyone; advancing heartbeats must
        // rehabilitate every cell in every view.
        run(&mut members, &mut handoffs, &all_up, 12);
        let everyone: Vec<CellId> = (0..n).map(|i| CellId(i as u32)).collect();
        for m in &members {
            let mut live = m.live_set();
            live.sort();
            assert_eq!(&live, &everyone, "{} not fully rehabilitated", m.me);
        }
    });
}

/// Satellite: handoff ledgers under random gossip schedules. Faults are
/// drawn as `(kind, cells, start round, length)`: a partition of cells
/// `0..=a` from the rest, a one-way cut `a -> c`, or cell `a` crashed.
/// Handoff events are drawn as `(round, cell, action)`: open a record
/// there, or move one the cell holds open to in-progress, abandoned or
/// completed.
#[test]
fn ledgers_reconverge_and_retire_under_partitions_cuts_and_crashes() {
    check(
        "ledgers_reconverge_and_retire_under_partitions_cuts_and_crashes",
        48,
        |g| {
            let seed = g.u64();
            let n = g.range(3usize..10);
            let faults = g.vec(0..5, |g| {
                (
                    g.range(0u8..3),
                    g.u64(),
                    g.range(0..FAULT_ROUNDS),
                    g.range(1u64..20),
                )
            });
            let events = g.vec(0..60, |g| {
                (g.range(0..FAULT_ROUNDS), g.u64(), g.range(0u8..4))
            });
            let at = |round: u64| {
                SimTime::from_secs(GossipConfig::default().round.as_secs_f64() as u64 * (round + 1))
            };
            let cells = n as u64;
            let mut plan = FaultPlan::builder(seed);
            for &(kind, pick, start, len) in &faults {
                let (a, c, end) = (
                    pick % cells,
                    pick / cells % cells,
                    (start + len).min(FAULT_ROUNDS),
                );
                plan = match kind {
                    0 => plan.cell_partition(&(0..=a).collect::<Vec<_>>(), at(start), at(end)),
                    1 if a != c => plan.one_way_link_cut(a, c, at(start), at(end)),
                    _ => plan.cell_crash(a, at(start), at(end)),
                };
            }
            let plan = plan.build().expect("valid plan");

            let mut members: Vec<Membership> = (0..n)
                .map(|i| Membership::new(CellId(i as u32), &[CellId(0)], SimTime::ZERO))
                .collect();
            let mut handoffs: Vec<HandoffStore> = (0..n).map(|_| HandoffStore::new()).collect();
            let mut opened: Vec<HandoffId> = Vec::new();
            // Per replica: the ids it held live after the last round, and the
            // ids it has since let go of — retired, never to come back.
            let mut live: Vec<Vec<HandoffId>> = vec![Vec::new(); n];
            let mut retired: Vec<BTreeSet<HandoffId>> = vec![BTreeSet::new(); n];
            for round in 0..FAULT_ROUNDS + TAIL_ROUNDS {
                let now = at(round);
                let up: Vec<bool> = (0..cells).map(|i| !plan.is_cell_down(i, now)).collect();
                for &(_, pick, action) in events.iter().filter(|e| e.0 == round) {
                    let cell = (pick % cells) as usize;
                    if !up[cell] {
                        continue;
                    }
                    let open: Vec<HandoffId> = (handoffs[cell].snapshot().into_iter())
                        .filter(|r| r.phase < HandoffPhase::Abandoned)
                        .map(|r| r.id)
                        .collect();
                    if action == 0 || open.is_empty() {
                        let id = HandoffId::mint(CellId(cell as u32), opened.len() as u64);
                        handoffs[cell].open(HandoffRecord {
                            id,
                            user: pick,
                            from: CellId(cell as u32),
                            to: CellId(((cell + 1) % n) as u32),
                            kind: HandoffKind::Migrate,
                            phase: HandoffPhase::Pending,
                            opened_at: now,
                            completed_at: None,
                            latency_s: None,
                            warm: false,
                        });
                        opened.push(id);
                    } else {
                        let id = open[(pick / cells) as usize % open.len()];
                        let phase = [
                            HandoffPhase::InProgress,
                            HandoffPhase::Abandoned,
                            HandoffPhase::Completed,
                        ][action as usize - 1];
                        handoffs[cell].advance(id, phase, now, Some(0.5), pick & 1 == 1);
                    }
                }
                if round == FAULT_ROUNDS {
                    // Every fault has healed; nothing stays open. Each origin
                    // gives up what it still holds open.
                    for &id in &opened {
                        let origin = (id.0 >> 32) as usize;
                        handoffs[origin].advance(id, HandoffPhase::Abandoned, now, None, false);
                    }
                }
                for (i, m) in members.iter_mut().enumerate() {
                    if up[i] {
                        m.beat(now, LoadDigest::default());
                    }
                }
                let ctx = RoundCtx {
                    now,
                    seed,
                    round_idx: round,
                    faults: Some(&plan),
                };
                gossip_round_ctx(&mut members, &mut handoffs, &up, &ctx);
                for (i, h) in handoffs.iter().enumerate() {
                    assert!(h.len() <= opened.len(), "cell {} counts a record twice", i);
                    let now_live: Vec<HandoffId> = h.snapshot().iter().map(|r| r.id).collect();
                    retired[i].extend(live[i].iter().filter(|id| !now_live.contains(id)));
                    assert!(
                        now_live.iter().all(|id| !retired[i].contains(id)),
                        "cell {} adopted a record it retired",
                        i
                    );
                    live[i] = now_live;
                }
            }
            // Conservation, reconvergence, and nothing left live.
            let first = &handoffs[0];
            let [pending, in_progress, _, _] = first.phase_counts();
            assert_eq!((pending, in_progress), (0, 0));
            for (i, h) in handoffs.iter().enumerate() {
                assert_eq!(h.len(), opened.len(), "cell {}", i);
                assert_eq!(h.ledger_hash(), first.ledger_hash(), "cell {}", i);
                assert_eq!(h.phase_counts(), first.phase_counts(), "cell {}", i);
                assert!(
                    h.snapshot().is_empty(),
                    "cell {} never retired {:?}",
                    i,
                    h.snapshot()
                );
            }
        },
    );
}
