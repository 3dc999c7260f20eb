//! `metro_day` and `metro_bandit`: one cell under T19's metro-scale
//! offered load, open loop in simulated time.
//!
//! The two differ only in decision policy and horizon. Under the default
//! policy (`Policy::Adaptive`, what README users get) the k-NN case
//! memory is scanned on every decision, so host time grows with the
//! square of the answers served; under `Policy::Bandit` a decision is
//! O(1) and the scheduler and shared collection do the work instead.

use super::{Once, Replay};
use crate::ledger::Ledger;
use crate::timed::{spanned, GridEngine, SharedCapture, TimedArrivals, TimedEngine};
use pg_core::{PervasiveGrid, Policy};
use pg_runtime::{
    ArrivalProcess, DeviceClass, MetroConfig, MetroWorkload, MultiQueryRuntime, OverloadConfig,
    OverloadPolicy, QueryOpts, RuntimeConfig, SchedPolicy,
};
use pg_sensornet::Region;
use pg_sim::fault::FaultPlan;
use pg_sim::{Duration, SimTime};
use std::time::Instant;

/// Service capacity: 4 slots per 30 s epoch.
const CAPACITY_HZ: f64 = 4.0 / 30.0;

/// Frozen input sizes of one metro workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub policy: Policy,
    pub floors: usize,
    pub side: usize,
    pub users: u64,
    /// Length of the diurnal cycle, simulated seconds.
    pub day_s: u64,
    /// How long arrivals keep coming, simulated seconds.
    pub horizon_s: u64,
    /// Mean offered load as a multiple of service capacity.
    pub load: f64,
}

impl Size {
    pub fn day(smoke: bool) -> Size {
        Size {
            policy: Policy::Adaptive,
            floors: 2,
            side: if smoke { 8 } else { 20 },
            users: 120_000,
            day_s: if smoke { 10_800 } else { 21_600 },
            horizon_s: if smoke { 10_800 } else { 21_600 },
            load: 2.0,
        }
    }

    pub fn bandit(smoke: bool) -> Size {
        Size {
            policy: Policy::Bandit,
            horizon_s: if smoke { 14_400 } else { 21_600 },
            ..Size::day(smoke)
        }
    }

    /// Mean offered rate, queries per simulated second.
    pub fn rate_hz(&self) -> f64 {
        CAPACITY_HZ * self.load
    }

    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("policy", format!("{:?}", self.policy)),
            ("sensors", (self.floors * self.side * self.side).to_string()),
            ("users", self.users.to_string()),
            ("day_s", self.day_s.to_string()),
            ("horizon_s", self.horizon_s.to_string()),
            ("load_x_capacity", self.load.to_string()),
            ("capacity_hz", format!("{CAPACITY_HZ:.4}")),
            ("overload", "brownout_shed 6/12/16/24".into()),
        ]
    }
}

/// T19's device-class mix: every class carries a deadline, three of the
/// four texts are overlapping aggregates (they share collection trees),
/// one is a single-sensor read (it goes through the decision maker).
fn classes() -> Vec<DeviceClass> {
    let q = |text: &str, deadline_s: u64| {
        (
            text.to_string(),
            QueryOpts::with_deadline(Duration::from_secs(deadline_s)),
        )
    };
    vec![
        DeviceClass {
            name: "handheld".into(),
            weight: 3.0,
            mix: vec![
                q("SELECT AVG(temp) FROM sensors", 60),
                q("SELECT MAX(temp) FROM sensors WHERE region(west)", 120),
            ],
        },
        DeviceClass {
            name: "display".into(),
            weight: 1.0,
            mix: vec![{
                let (t, o) = q("SELECT AVG(temp) FROM sensors WHERE region(east)", 180);
                (t, o.priority(1))
            }],
        },
        DeviceClass {
            name: "logger".into(),
            weight: 1.0,
            mix: vec![q("SELECT temp FROM sensors WHERE sensor_id = 7", 300)],
        },
    ]
}

/// T19's population, calibrated so the mean offered rate is
/// `load × capacity`.
fn metro_cfg(size: &Size) -> MetroConfig {
    let (floor, flash_mult, flash_every, flash_len) = (0.2, 8.0, 600.0, 90.0);
    let e_diurnal = floor + (1.0 - floor) * 0.5;
    let e_flash = 1.0 + (flash_mult - 1.0) * (flash_len / flash_every);
    // Pareto(1.5, 1) ceil-clamped at 50: E[ceil(X)] ≈ 3.3.
    let e_queries = 3.3;
    let spd =
        size.rate_hz() * size.day_s as f64 / (size.users as f64 * e_diurnal * e_flash * e_queries);
    MetroConfig {
        users: size.users,
        sessions_per_user_day: spd,
        day: Duration::from_secs(size.day_s),
        horizon: SimTime::from_secs(size.horizon_s),
        diurnal_floor: floor,
        flash_rate_mult: flash_mult,
        flash_every: Duration::from_secs(flash_every as u64),
        flash_len: Duration::from_secs(flash_len as u64),
        pareto_alpha: 1.5,
        queries_min: 1.0,
        queries_cap: 50,
        think_mean: Duration::from_secs(10),
        retry_max: 4,
        classes: classes(),
    }
}

fn runtime_cfg() -> RuntimeConfig {
    RuntimeConfig::builder()
        .capacity(32)
        .epoch(Duration::from_secs(30))
        .slots_per_epoch(4)
        .policy(SchedPolicy::Edf)
        .overload(OverloadConfig::watermarks(
            OverloadPolicy::BrownoutShed,
            6,
            12,
            16,
            24,
        ))
        .build()
}

/// The cell: T19's fault plan (5 % message loss, one sensor dark for five
/// minutes a third of the way through the first day) over two overlapping
/// halves of the building.
pub fn world(size: &Size, seed: u64) -> PervasiveGrid {
    let extent = (size.side as f64 - 1.0) * 5.0;
    let plan = FaultPlan::builder(seed)
        .message_loss(0.05)
        .node_crash(
            7,
            SimTime::from_secs(size.day_s / 3),
            SimTime::from_secs(size.day_s / 3 + 300),
        )
        .build()
        .expect("static fault plan");
    PervasiveGrid::building(size.floors, size.side, seed)
        .region("west", Region::room(0.0, 0.0, extent * 0.47, extent))
        .region("east", Region::room(extent * 0.33, 0.0, extent, extent))
        .policy(size.policy)
        .faults(plan)
        .build()
}

/// Drive the stream to exhaustion and book the outcome.
fn drive<E: GridEngine, A: ArrivalProcess>(
    rt: &mut MultiQueryRuntime<E>,
    arrivals: &mut A,
    cap: Option<&SharedCapture>,
) -> (f64, Ledger) {
    let energy_before = rt.engine().grid().energy_consumed();
    let start = Instant::now();
    match cap {
        None => rt.run_stream(arrivals, 4_000_000),
        Some(cap) => spanned(cap, "run", 0, || rt.run_stream(arrivals, 4_000_000)),
    };
    let wall_s = start.elapsed().as_secs_f64();

    let mut ledger = Ledger::new(cap.is_some());
    for o in rt.outcomes() {
        ledger.absorb_outcome(0, o);
    }
    ledger.energy_j = rt.engine().grid().energy_consumed() - energy_before;
    let outcomes = rt.outcomes().len() as u64;
    ledger.check(rt.arrived == outcomes + rt.rejected + rt.shed, || {
        format!(
            "arrived {} != answered {outcomes} + rejected {} + shed {}",
            rt.arrived, rt.rejected, rt.shed
        )
    });
    ledger.set("runtime.admitted", rt.admitted as f64);
    ledger.set("runtime.rejected", rt.rejected as f64);
    ledger.set("runtime.shed", rt.shed as f64);
    ledger.set("runtime.browned_out", rt.browned_out as f64);
    let session = &rt.engine().grid().tree_session;
    ledger.set("sensornet.tree.rebuilds", session.rebuilds as f64);
    ledger.set("sensornet.tree.repairs", session.repairs as f64);
    ledger.set(
        "sensornet.tree.control_bytes",
        session.control_bytes_total as f64,
    );
    (wall_s, ledger)
}

fn book_generator(ledger: &mut Ledger, w: &MetroWorkload, arrived: u64) {
    // A retry is the same query knocking again, not a new one.
    ledger.offered = w.emitted() - w.retries();
    ledger.check(w.emitted() == arrived, || {
        format!("emitted {} != arrived {arrived}", w.emitted())
    });
    ledger.set("runtime.retries", w.retries() as f64);
    ledger.set("runtime.gave_up", w.gave_up() as f64);
}

/// Set-up: the cell and its arrival generator.
pub fn build(size: &Size, seed: u64) -> (PervasiveGrid, MetroWorkload) {
    (world(size, seed), MetroWorkload::new(seed, metro_cfg(size)))
}

pub fn run_once(size: &Size, seed: u64, cap: Option<&SharedCapture>) -> Once {
    let start = Instant::now();
    let (pg, w) = build(size, seed);
    let (setup_s, wall_s, ledger) = match cap {
        None => {
            let mut rt = MultiQueryRuntime::new(runtime_cfg(), pg);
            let mut w = w;
            let setup_s = start.elapsed().as_secs_f64();
            let (wall_s, mut ledger) = drive(&mut rt, &mut w, None);
            book_generator(&mut ledger, &w, rt.arrived);
            (setup_s, wall_s, ledger)
        }
        Some(cap) => {
            let mut rt = MultiQueryRuntime::new(runtime_cfg(), TimedEngine::new(pg, cap.clone()));
            let mut w = TimedArrivals::new(w, cap.clone());
            let setup_s = start.elapsed().as_secs_f64();
            let (wall_s, mut ledger) = drive(&mut rt, &mut w, Some(cap));
            book_generator(&mut ledger, w.inner(), rt.arrived);
            (setup_s, wall_s, ledger)
        }
    };
    Once {
        setup_s,
        wall_s,
        ledger,
        replay: Replay::default(),
    }
}
