//! Tier-1 guard on handoff-ledger replication: a bit-exact digest of what
//! a small `federation_faults`-shaped run leaves behind — ten journaling
//! cells, forty roaming users, a bipartition window and then a
//! crash-stopped cell.
//!
//! The workload is offered and run in six 300 s segments and the digest
//! is folded after each: every cell's `ledger_hash()`, `len()` and
//! `phase_counts()`, the migration / forward / absorption counters and
//! `goodput()`. A drained federation has converged replicas, which would
//! hide which contact carried what; mid-run — the newest records part-way
//! round, the two sides of the partition apart — it shows.
//!
//! The constants were captured on the commit *before* the ledger became a
//! sorted vector exchanged store-to-store (debug and release agree), and
//! mutation-checked there: dropping the pull leg of the handoff exchange
//! moves both digests.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pervasive_grid::core::PervasiveGrid;
use pervasive_grid::federation::{commute_traces, Federation, FederationConfig, RoamingConfig};
use pervasive_grid::runtime::{
    MultiQueryRuntime, OverloadConfig, OverloadPolicy, QueryOpts, RuntimeConfig, SchedPolicy,
};
use pervasive_grid::sim::fault::FaultPlan;
use pervasive_grid::sim::rng::RngStreams;
use pervasive_grid::sim::{Duration, SimTime};
use rand::Rng;

const CELLS: usize = 10;
const USERS: usize = 40;
const HORIZON_S: u64 = 1_800;
const SEGMENT_S: u64 = 300;
/// Half the aggregate capacity of ten cells serving 2 slots per 30 s.
const RATE_HZ: f64 = 0.5 * (2.0 / 30.0) * CELLS as f64;

fn fnv_u64(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn cell_runtime(seed: u64, i: usize) -> MultiQueryRuntime<PervasiveGrid> {
    let pg = PervasiveGrid::building(1, 4, seed * 1_000 + i as u64).build();
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

/// Run the scenario, returning the federation and the digest folded at
/// each checkpoint.
fn run(seed: u64) -> (Federation, u64) {
    let t = HORIZON_S;
    let left: Vec<u64> = (0..CELLS as u64 / 2).collect();
    let plan = FaultPlan::builder(seed ^ 0x7A21)
        .cell_partition(&left, SimTime::from_secs(t / 4), SimTime::from_secs(t / 2))
        .cell_crash(1, SimTime::from_secs(t / 2), SimTime::from_secs(2 * t / 3))
        .build()
        .expect("static cell fault plan");
    let traces = commute_traces(
        seed,
        &RoamingConfig {
            users: USERS,
            cells: CELLS,
            horizon: Duration::from_secs(t),
            dwell_min: Duration::from_secs(100),
            dwell_max: Duration::from_secs(220),
        },
    );
    let cfg = FederationConfig {
        seed,
        cell_faults: plan,
        journal: true,
        ..FederationConfig::default()
    };
    let runtimes = (0..CELLS).map(|i| cell_runtime(seed, i)).collect();
    let mut fed = Federation::new(cfg, runtimes, traces);
    let mut rng = RngStreams::new(seed).fork("federation-golden-arrivals");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut at = -rng.gen::<f64>().max(1e-12).ln() / RATE_HZ;
    for checkpoint in (SEGMENT_S..=t).step_by(SEGMENT_S as usize) {
        while at < checkpoint as f64 {
            fed.offer(
                SimTime::from_secs_f64(at),
                rng.gen_range(0..USERS as u64),
                "SELECT AVG(temp) FROM sensors",
                QueryOpts::with_deadline(Duration::from_secs(120)),
            );
            at += -rng.gen::<f64>().max(1e-12).ln() / RATE_HZ;
        }
        fed.run(SimTime::from_secs(checkpoint));
        fold(&fed, &mut h);
    }
    (fed, h)
}

fn fold(fed: &Federation, h: &mut u64) {
    for ledger in fed.handoff_ledgers() {
        fnv_u64(h, ledger.ledger_hash());
        fnv_u64(h, ledger.len() as u64);
        let (pending, in_progress, completed) = ledger.phase_counts();
        for x in [pending, in_progress, completed] {
            fnv_u64(h, x as u64);
        }
    }
    let s = &fed.stats;
    let (total, met) = fed.goodput();
    for x in [
        s.migrations_completed,
        s.forwards_completed,
        s.migrations_lost,
        s.absorbed,
        total,
        met,
    ] {
        fnv_u64(h, x);
    }
}

#[test]
fn handoff_ledgers_and_stats_match_the_pre_refactor_digests() {
    for (seed, want) in [
        (1u64, 0x9955_0294_5d46_eb3c_u64),
        (2, 0xec93_fbf4_045e_66d6),
    ] {
        let (fed, got) = run(seed);
        // The scenario has to exercise what it pins: both handoff kinds.
        let s = &fed.stats;
        assert!(s.migrations_completed > 0 && s.forwards_completed > 0);
        assert_eq!(
            got, want,
            "seed {seed}: digest {got:#018x} (migrations {} forwards {} lost {} absorbed {} goodput {:?})",
            s.migrations_completed,
            s.forwards_completed,
            s.migrations_lost,
            s.absorbed,
            fed.goodput(),
        );
    }
}
