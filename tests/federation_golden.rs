//! Tier-1 guard on handoff-ledger replication: two bit-exact digests of
//! what a small `federation_faults`-shaped run leaves behind — ten
//! journaling cells, forty roaming users, a bipartition window and then a
//! crash-stopped cell.
//!
//! The workload is offered and run in six 300 s segments and both digests
//! are folded after each. A drained federation has converged replicas,
//! which would hide which contact carried what; mid-run — the newest
//! records part-way round, the two sides of the partition apart — it
//! shows.
//!
//! - The **behaviour** digest folds the migration / forward / absorption
//!   counters and `goodput()`: what the federation did with its queries.
//!   Its constants were captured on the commit before handoff records
//!   gained terminal phases and retirement, and hold unchanged: no query
//!   moved.
//! - The **ledger** digest folds every cell's `ledger_hash()`, `len()` and
//!   `phase_counts()`. Its constants were re-captured, on purpose, when
//!   abandoned and dead-lettered handoffs got the `Abandoned` phase and
//!   `ledger_hash` became a sum of record hashes over checkpoint and live
//!   records (debug and release agree). Mutation-checked then: dropping
//!   the pull leg of the handoff exchange moves it.

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

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

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

/// Run the scenario, returning the federation and the `(behaviour,
/// ledger)` digests folded at each checkpoint.
fn run(seed: u64) -> (Federation, u64, u64) {
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
    let (mut behaviour, mut ledger) = (FNV_BASIS, FNV_BASIS);
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
        fold_behaviour(&fed, &mut behaviour);
        fold_ledgers(&fed, &mut ledger);
    }
    (fed, behaviour, ledger)
}

fn fold_behaviour(fed: &Federation, h: &mut u64) {
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

fn fold_ledgers(fed: &Federation, h: &mut u64) {
    for ledger in fed.handoff_ledgers() {
        fnv_u64(h, ledger.ledger_hash());
        fnv_u64(h, ledger.len() as u64);
        for x in ledger.phase_counts() {
            fnv_u64(h, x as u64);
        }
    }
}

/// `(seed, behaviour, ledger)`.
const DIGESTS: [(u64, u64, u64); 2] = [
    (1, 0x7ebc_e66b_648e_48c7, 0x6b9f_1156_f2e2_40ae),
    (2, 0x47aa_9d37_c943_d301, 0x1651_1b62_8c67_b9b3),
];

#[test]
fn stats_and_goodput_match_the_pre_retirement_digests() {
    for (seed, want, _) in DIGESTS {
        let (fed, got, _) = run(seed);
        // The scenario has to exercise what it pins: both handoff kinds.
        let s = &fed.stats;
        assert!(s.migrations_completed > 0 && s.forwards_completed > 0);
        assert_eq!(
            got, want,
            "seed {seed}: behaviour digest {got:#018x} (migrations {} forwards {} lost {} absorbed {} goodput {:?})",
            s.migrations_completed,
            s.forwards_completed,
            s.migrations_lost,
            s.absorbed,
            fed.goodput(),
        );
    }
}

#[test]
fn handoff_ledgers_match_the_checkpointed_digests() {
    for (seed, _, want) in DIGESTS {
        let (fed, _, got) = run(seed);
        let counts: Vec<_> = fed
            .handoff_ledgers()
            .iter()
            .map(|l| l.phase_counts())
            .collect();
        assert_eq!(
            got, want,
            "seed {seed}: ledger digest {got:#018x} (phase counts {counts:?})"
        );
    }
}
