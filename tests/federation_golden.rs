//! Tier-1 guard on handoff-ledger replication: bit-exact digests of what
//! a small `federation_faults`-shaped run leaves behind — ten journaling
//! cells, forty roaming users, a bipartition window and then a
//! crash-stopped cell — and the arrival books the same scenario keeps.
//!
//! The workload is offered and run in six 300 s segments and every digest
//! is folded after each. A drained federation has converged replicas,
//! which would hide which contact carried what; mid-run — the newest
//! records part-way round, the two sides of the partition apart — it
//! shows.
//!
//! - The **behaviour** digest folds the migration / forward / absorption
//!   counters and `goodput()`: what the federation did with its queries.
//!   Its constants were captured on the commit before handoff records
//!   gained terminal phases and retirement, and hold unchanged: no query
//!   moved.
//! - The **ledger counts** digest folds every cell's `len()` and
//!   `phase_counts()`: which handoffs each replica has heard of and how
//!   far along it holds each. It is pinned apart from the hash so that a
//!   change to what a record carries besides its phase, which moves every
//!   record's hash, shows whether any replica's view of the handoffs
//!   moved with it.
//! - The **ledger hash** digest folds every cell's `ledger_hash()`. Its
//!   constants were re-captured, on purpose, when abandoned and
//!   dead-lettered handoffs got the `Abandoned` phase and `ledger_hash`
//!   became a sum of record hashes over checkpoint and live records (debug
//!   and release agree), and again when records lost their completion
//!   time, latency and warm flag, which nothing read: a record hashes
//!   fewer fields, while the behaviour and counts digests held unchanged.
//!   Mutation-checked: dropping the pull leg of the handoff exchange moves
//!   it.
//!
//! The arrival books are checked, not digested: at twelve times the rate,
//! with redirection on and off, every checkpoint must account for each
//! arrival the cells saw, each one they refused and each one they queued
//! (`arrivals_are_conserved_at_every_checkpoint`).

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

/// Run the scenario with its arrivals offered at `scale` times
/// [`RATE_HZ`], calling `checkpoint` after each segment with the
/// federation and how many arrivals it has been offered so far.
fn run_scaled(
    seed: u64,
    scale: f64,
    redirect: bool,
    mut checkpoint: impl FnMut(&Federation, u64),
) -> Federation {
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
        redirect,
        ..FederationConfig::default()
    };
    let runtimes = (0..CELLS).map(|i| cell_runtime(seed, i)).collect();
    let mut fed = Federation::new(cfg, runtimes, traces);
    let mut rng = RngStreams::new(seed).fork("federation-golden-arrivals");
    let rate_hz = RATE_HZ * scale;
    let mut offered = 0;
    let mut at = -rng.gen::<f64>().max(1e-12).ln() / rate_hz;
    for end in (SEGMENT_S..=t).step_by(SEGMENT_S as usize) {
        while at < end as f64 {
            fed.offer(
                SimTime::from_secs_f64(at),
                rng.gen_range(0..USERS as u64),
                "SELECT AVG(temp) FROM sensors",
                QueryOpts::with_deadline(Duration::from_secs(120)),
            );
            offered += 1;
            at += -rng.gen::<f64>().max(1e-12).ln() / rate_hz;
        }
        fed.run(SimTime::from_secs(end));
        checkpoint(&fed, offered);
    }
    fed
}

/// The `(behaviour, ledger counts, ledger hash)` digests, folded at each
/// checkpoint of the scenario at its own rate.
fn run(seed: u64) -> (Federation, [u64; 3]) {
    let mut digests = [FNV_BASIS; 3];
    let fed = run_scaled(seed, 1.0, true, |fed, _| {
        let [behaviour, counts, hash] = &mut digests;
        fold_behaviour(fed, behaviour);
        fold_ledger_counts(fed, counts);
        fold_ledger_hashes(fed, hash);
    });
    (fed, digests)
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

fn fold_ledger_counts(fed: &Federation, h: &mut u64) {
    for ledger in fed.handoff_ledgers() {
        fnv_u64(h, ledger.len() as u64);
        for x in ledger.phase_counts() {
            fnv_u64(h, x as u64);
        }
    }
}

fn fold_ledger_hashes(fed: &Federation, h: &mut u64) {
    for ledger in fed.handoff_ledgers() {
        fnv_u64(h, ledger.ledger_hash());
    }
}

/// The seeds the scenario runs at, and per seed what each digest reads.
const SEEDS: [u64; 2] = [1, 2];
const BEHAVIOUR: [u64; 2] = [0x7ebc_e66b_648e_48c7, 0x47aa_9d37_c943_d301];
const LEDGER_COUNTS: [u64; 2] = [0xa317_098d_0406_8f55, 0x925a_d16d_bdc4_a8d1];
const LEDGER_HASHES: [u64; 2] = [0x67c2_e8b8_dd1b_2ca7, 0x63d2_95dd_9eb6_8ec4];

#[test]
fn stats_and_goodput_match_the_pre_retirement_digests() {
    for (seed, want) in SEEDS.into_iter().zip(BEHAVIOUR) {
        let (fed, [got, ..]) = run(seed);
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
fn handoff_ledger_counts_match_the_checkpointed_digests() {
    for (seed, want) in SEEDS.into_iter().zip(LEDGER_COUNTS) {
        let (fed, [_, got, _]) = run(seed);
        let counts: Vec<_> = fed
            .handoff_ledgers()
            .iter()
            .map(|l| l.phase_counts())
            .collect();
        assert_eq!(
            got, want,
            "seed {seed}: ledger counts digest {got:#018x} (phase counts {counts:?})"
        );
    }
}

#[test]
fn handoff_ledgers_match_the_checkpointed_digests() {
    for (seed, want) in SEEDS.into_iter().zip(LEDGER_HASHES) {
        let (_, [.., got]) = run(seed);
        assert_eq!(got, want, "seed {seed}: ledger hash digest {got:#018x}");
    }
}

/// Every arrival a cell saw was offered and not dropped at a downed home,
/// or a bounce redirected to it; every refusal was a bounce (redirected or
/// dropped) or a migration its destination turned away; and every query
/// queued was an arrival that was not bounced, or a migration let in. The
/// deadlines outlast an epoch and the shedding watermark sits below the
/// queue bound, so `Overloaded` is the only refusal a fresh arrival meets.
/// At twelve times the rate the cells shed hard: redirection on bounces,
/// redirects and drops, and with it off, arrivals meet a crashed home.
#[test]
fn arrivals_are_conserved_at_every_checkpoint() {
    for (seed, redirect) in [(1, true), (2, false)] {
        let fed = run_scaled(seed, 12.0, redirect, |fed, offered| {
            let s = &fed.stats;
            let sum = |f: fn(&pervasive_grid::federation::Cell) -> u64| -> u64 {
                fed.cells().iter().map(f).sum()
            };
            let arrived = sum(|c| c.rt.arrived);
            let bounces = s.bounced_redirected + s.bounced_dropped;
            let books = format!(
                "seed {seed} at {}: offered {offered}, dropped at a downed home {}, \
                 bounces redirected {} and dropped {}, migrations rejected {}",
                fed.now(),
                s.home_down_dropped,
                s.bounced_redirected,
                s.bounced_dropped,
                s.migrations_rejected
            );
            assert_eq!(
                arrived,
                offered - s.home_down_dropped + s.bounced_redirected,
                "arrivals: {books}"
            );
            assert_eq!(
                sum(|c| c.rt.rejected),
                bounces + s.migrations_rejected,
                "refusals: {books}"
            );
            assert_eq!(
                sum(|c| c.rt.admitted),
                arrived - bounces + sum(|c| c.rt.migrated_in),
                "admissions: {books}"
            );
        });
        // Each term of the books has to be exercised somewhere.
        let s = &fed.stats;
        if redirect {
            assert!(s.bounced_redirected > 0 && s.bounced_dropped > 0);
            assert!(s.migrations_rejected > 0);
        } else {
            assert!(s.home_down_dropped > 0 && s.bounced_redirected == 0);
        }
    }
}
