//! `federation_faults`: 32 cells, 128 fast-roaming users, a bipartition
//! followed by a crash-stopped cell, journaling on.
//!
//! The metro workloads use one runtime without journaling or migration.
//! Here 32 small runtimes journal every admission, queries migrate with
//! their users over the reliable agent bus, gossip replicates membership
//! and handoff ledgers, and a crashed cell replays its journal — the
//! write-heavy use of the same runtime, plus every federation layer.

use super::{FedReplay, Once, Replay};
use crate::ledger::Ledger;
use crate::timed::SharedCapture;
use pg_core::PervasiveGrid;
use pg_federation::{commute_traces, CellId, Federation, FederationConfig, RoamingConfig};
use pg_runtime::{
    MultiQueryRuntime, OverloadConfig, OverloadPolicy, QueryOpts, RuntimeConfig, SchedPolicy,
};
use pg_sim::fault::FaultPlan;
use pg_sim::rng::RngStreams;
use pg_sim::{Duration, SimTime};
use rand::Rng;
use std::time::Instant;

/// Per-cell service capacity: 2 slots per 30 s epoch.
const CAPACITY_HZ: f64 = 2.0 / 30.0;
const TEXT: &str = "SELECT AVG(temp) FROM sensors";

/// Frozen input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub cells: usize,
    pub side: usize,
    pub users: usize,
    /// Arrivals keep coming for this long, simulated seconds.
    pub horizon_s: u64,
    /// Offered load as a fraction of aggregate capacity. Half: at 0.7 the
    /// queues are deep enough that the count of in-flight migrations — and
    /// with it host time and the tail percentile — swings by a third from
    /// seed to seed, wider than any bound the benchmark may set.
    pub load: f64,
}

impl Size {
    pub fn new(smoke: bool) -> Size {
        Size {
            cells: if smoke { 12 } else { 32 },
            side: 6,
            users: if smoke { 48 } else { 128 },
            horizon_s: if smoke { 3_600 } else { 1_800 },
            load: 0.5,
        }
    }

    pub fn rate_hz(&self) -> f64 {
        self.load * CAPACITY_HZ * self.cells as f64
    }

    pub fn describe(&self) -> Vec<(&'static str, String)> {
        let t = self.horizon_s;
        vec![
            ("cells", self.cells.to_string()),
            ("sensors_per_cell", (self.side * self.side).to_string()),
            ("users", self.users.to_string()),
            ("horizon_s", t.to_string()),
            ("rate_hz", format!("{:.4}", self.rate_hz())),
            ("dwell_s", "100-220".into()),
            ("partition_s", format!("{}-{}", t / 4, t / 2)),
            ("crash_cell_1_s", format!("{}-{}", t / 2, 2 * t / 3)),
            ("journal", "on".into()),
        ]
    }
}

/// Cell `i`'s grid.
pub fn cell_grid(size: &Size, seed: u64, i: u32) -> PervasiveGrid {
    let cell_seed = seed.wrapping_mul(1_000).wrapping_add(u64::from(i));
    PervasiveGrid::building(1, size.side, cell_seed).build()
}

fn cell_runtime(size: &Size, seed: u64, i: u32) -> MultiQueryRuntime<PervasiveGrid> {
    let pg = cell_grid(size, seed, i);
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

/// Set-up: the federation with its whole workload offered, ready to run.
pub fn build(size: &Size, seed: u64) -> (Federation, u64) {
    let t = size.horizon_s;
    let left: Vec<u64> = (0..size.cells as u64 / 2).collect();
    let plan = FaultPlan::builder(seed ^ 0x7A21)
        .cell_partition(&left, SimTime::from_secs(t / 4), SimTime::from_secs(t / 2))
        .cell_crash(1, SimTime::from_secs(t / 2), SimTime::from_secs(2 * t / 3))
        .build()
        .expect("static cell fault plan");
    let runtimes = (0..size.cells)
        .map(|i| cell_runtime(size, seed, i as u32))
        .collect();
    let traces = commute_traces(
        seed,
        &RoamingConfig {
            users: size.users,
            cells: size.cells,
            horizon: Duration::from_secs(t),
            dwell_min: Duration::from_secs(100),
            dwell_max: Duration::from_secs(220),
        },
    );
    let fcfg = FederationConfig {
        seed,
        cell_faults: plan,
        journal: true,
        ..FederationConfig::default()
    };
    let mut fed = Federation::new(fcfg, runtimes, traces);
    let mut rng = RngStreams::new(seed).fork("pgbench-fed-arrivals");
    let mut offered = 0u64;
    let mut at = 0.0;
    loop {
        at += -rng.gen::<f64>().max(1e-12).ln() / size.rate_hz();
        if at >= t as f64 {
            break;
        }
        let user = rng.gen_range(0..size.users as u64);
        fed.offer(
            SimTime::from_secs_f64(at),
            user,
            TEXT,
            QueryOpts::with_deadline(Duration::from_secs(120)),
        );
        offered += 1;
    }
    (fed, offered)
}

pub fn run_once(size: &Size, seed: u64, cap: Option<&SharedCapture>) -> Once {
    let start = Instant::now();
    let (mut fed, offered) = build(size, seed);
    let setup_s = start.elapsed().as_secs_f64();
    let energy_before: f64 = fed
        .cells()
        .iter()
        .map(|c| c.rt.engine().energy_consumed())
        .sum();

    let root = cap.map(|c| c.borrow_mut().tracer.enter("run", 0));
    let start = Instant::now();
    fed.run(SimTime::from_secs(size.horizon_s));
    let wall_s = start.elapsed().as_secs_f64();
    if let (Some(cap), Some(root)) = (cap, root) {
        let mut c = cap.borrow_mut();
        c.tracer.exit(root);
        for _ in 0..offered {
            c.offer(TEXT);
        }
    }

    let mut ledger = Ledger::new(cap.is_some());
    ledger.offered = offered;
    let mut totals = [0u64; 4]; // admitted, rejected, shed, browned_out
    let mut journal_records = 0u64;
    for c in fed.cells() {
        let rt = &c.rt;
        for o in rt.outcomes() {
            ledger.absorb_outcome(c.id.0, o);
        }
        let closed =
            rt.outcomes().len() as u64 + rt.cancelled + rt.shed + rt.migrated_out + rt.lost;
        ledger.check(rt.admitted == closed, || {
            format!("cell {}: admitted {} != closed {closed}", c.id, rt.admitted)
        });
        for (t, x) in totals
            .iter_mut()
            .zip([rt.admitted, rt.rejected, rt.shed, rt.browned_out])
        {
            *t += x;
        }
        journal_records += rt.journal().map_or(0, |j| j.len() as u64);
    }
    // An answer whose forward home dead-lettered never reached its user.
    // Which ones is not recorded, so they are taken off the total and the
    // in-time count is capped by it.
    let stats = &fed.stats;
    ledger.answers = ledger.answers.saturating_sub(stats.forwards_lost);
    ledger.deadline_met = ledger.deadline_met.min(ledger.answers);
    ledger.energy_j = fed
        .cells()
        .iter()
        .map(|c| c.rt.engine().energy_consumed())
        .sum::<f64>()
        - energy_before;
    ledger.check(stats.journal_recovered == stats.crash_lost, || {
        format!(
            "journal recovered {} != crash lost {}",
            stats.journal_recovered, stats.crash_lost
        )
    });
    // Every fault window has closed by the horizon, so at drain every cell
    // is up and every view must have reconverged to the full set.
    let all: Vec<CellId> = (0..size.cells as u32).map(CellId).collect();
    for m in fed.members() {
        let live = m.live_set();
        ledger.check(live == all, || {
            format!(
                "cell {}: live set {live:?} != all {} cells",
                m.me, size.cells
            )
        });
    }
    let resurrections: u64 = fed
        .members()
        .iter()
        .map(|m| all.iter().map(|&c| m.resurrections_of(c)).sum::<u64>())
        .sum();

    for (name, x) in [
        "runtime.admitted",
        "runtime.rejected",
        "runtime.shed",
        "runtime.browned_out",
    ]
    .into_iter()
    .zip(totals)
    {
        ledger.set(name, x as f64);
    }
    let windows = fed.now().as_secs_f64() / 30.0;
    let bus = fed.bus_metrics();
    for (name, x) in [
        ("runtime.journal.records", journal_records),
        ("runtime.journal.recovered", stats.journal_recovered),
        (
            "federation.migrations.completed",
            stats.migrations_completed,
        ),
        ("federation.migrations.rejected", stats.migrations_rejected),
        ("federation.migrations.lost", stats.migrations_lost),
        ("federation.forwards.completed", stats.forwards_completed),
        ("federation.absorbed", stats.absorbed),
        ("federation.resurrections", resurrections),
        ("agent.bus.sent", bus.counter("reliable.sent")),
        ("agent.bus.acked", bus.counter("reliable.acked")),
        ("agent.bus.retries", bus.counter("reliable.retries")),
        ("agent.bus.dead_letter", bus.counter("reliable.dead_letter")),
    ] {
        ledger.set(name, x as f64);
    }
    ledger.set("federation.windows", windows);
    let handoff_records = fed
        .handoff_ledgers()
        .iter()
        .map(|l| l.len())
        .max()
        .unwrap_or(0);
    ledger.set("federation.handoff.records", handoff_records as f64);
    Once {
        setup_s,
        wall_s,
        ledger,
        replay: Replay {
            fed: Some(FedReplay { size: *size, fed }),
            ..Replay::default()
        },
    }
}
