//! Microbenchmarks: the federation control plane. One gossip round is the
//! recurring cost every cell pays forever, and a handoff-ledger exchange
//! rides on every gossip contact — both scale with federation size, so
//! they are measured at 64 and 256 cells, over ledgers holding 4 records
//! per cell (an empty ledger would time membership alone).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_federation::handoff::{HandoffId, HandoffKind, HandoffPhase, HandoffRecord, HandoffStore};
use pg_federation::{gossip_round, CellId, GossipConfig, LoadDigest, Membership};
use pg_sim::SimTime;

/// Rounds of warm-up gossip before measurement starts.
const WARM_ROUNDS: u64 = 32;

/// Records each cell opens in its own ledger.
const RECORDS_PER_CELL: u64 = 4;

/// A federation of `n` cells with fully converged membership views (the
/// steady state: every digest carries all `n` entries) and fully
/// replicated ledgers (every cell holds every cell's records). Callers
/// must keep advancing sim time from `WARM_ROUNDS` — a gap larger than the
/// eviction timeout would mass-evict the whole table and measure a frozen
/// world.
fn converged(n: usize) -> (Vec<Membership>, Vec<HandoffStore>, Vec<bool>) {
    let mut members: Vec<Membership> = (0..n)
        .map(|i| Membership::new(CellId(i as u32), &[CellId(0)], SimTime::ZERO))
        .collect();
    let mut handoffs: Vec<HandoffStore> = (0..n).map(|_| HandoffStore::new()).collect();
    for seq in 0..n as u64 * RECORDS_PER_CELL {
        let r = record(n as u32, seq);
        handoffs[r.from.0 as usize].open(r);
    }
    let up = vec![true; n];
    let cfg = GossipConfig::default();
    for round in 1..=WARM_ROUNDS {
        let now = SimTime::from_secs(30 * round);
        for m in &mut members {
            m.beat(now, LoadDigest::default());
        }
        gossip_round(&mut members, &mut handoffs, &up, now, &cfg, 7, round);
    }
    assert!(
        members.iter().all(|m| m.live_set().len() == n),
        "warm-up did not converge: the bench would measure a degraded world"
    );
    assert!(
        handoffs
            .iter()
            .all(|h| h.len() as u64 == n as u64 * RECORDS_PER_CELL),
        "warm-up did not replicate the ledgers: the bench would measure adoption, not steady state"
    );
    (members, handoffs, up)
}

/// The `seq`-th handoff record of a federation of `cells` cells.
fn record(cells: u32, seq: u64) -> HandoffRecord {
    let from = CellId((seq % u64::from(cells)) as u32);
    let to = CellId(((seq + 1) % u64::from(cells)) as u32);
    HandoffRecord {
        id: HandoffId::mint(from, seq),
        user: seq,
        from,
        to,
        kind: if seq.is_multiple_of(3) {
            HandoffKind::ForwardHome
        } else {
            HandoffKind::Migrate
        },
        phase: match seq % 3 {
            0 => HandoffPhase::Pending,
            1 => HandoffPhase::InProgress,
            _ => HandoffPhase::Completed,
        },
        opened_at: SimTime::from_secs(seq),
        completed_at: None,
        latency_s: None,
        warm: seq.is_multiple_of(2),
    }
}

/// One replica of the fully replicated ledger of `cells` cells.
fn ledger(cells: u32) -> HandoffStore {
    let mut store = HandoffStore::new();
    for seq in 0..u64::from(cells) * RECORDS_PER_CELL {
        store.open(record(cells, seq));
    }
    store
}

fn bench_gossip_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("federation");
    for &n in &[64usize, 256] {
        let (mut members, mut handoffs, up) = converged(n);
        let cfg = GossipConfig::default();
        // Continue sim time from the warm-up rounds: a time jump here would
        // exceed `EVICT_AFTER` and silently bench a mass-evicted table.
        let mut round = WARM_ROUNDS;
        g.bench_with_input(BenchmarkId::new("gossip_round", n), &n, |b, _| {
            b.iter(|| {
                round += 1;
                let now = SimTime::from_secs(30 * round);
                for m in &mut members {
                    m.beat(now, LoadDigest::default());
                }
                gossip_round(&mut members, &mut handoffs, &up, now, &cfg, 7, round);
            });
        });
    }
    g.finish();
}

fn bench_handoff_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("federation");
    for &cells in &[64u32, 256] {
        // Steady-state anti-entropy between two replicas that already
        // know every record: store to store, as a gossip contact does it…
        let peer = ledger(cells);
        let mut replica = ledger(cells);
        g.bench_with_input(
            BenchmarkId::new("handoff_exchange", cells),
            &cells,
            |b, _| {
                b.iter(|| replica.merge_from(&peer));
            },
        );
        // …and from a slice of records, one lookup each.
        let snapshot = peer.snapshot();
        g.bench_with_input(BenchmarkId::new("handoff_merge", cells), &cells, |b, _| {
            b.iter(|| replica.merge(&snapshot));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gossip_round, bench_handoff_merge);
criterion_main!(benches);
