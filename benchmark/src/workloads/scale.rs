//! `scale_churn`: a 10 000-sensor cell whose collection tree is repaired
//! in place while sensors die, under a steady Poisson stream of four
//! overlapping regional aggregates.
//!
//! The metro workloads only ever *read* a static tree. Here two sensors
//! die before every epoch, so `pg-net`'s incremental repair *writes* the
//! tree between the shared collections that read it: a collection
//! speed-up that makes repair dearer shows up here and nowhere else.

use super::{Once, Replay};
use crate::ledger::Ledger;
use crate::timed::{spanned, GridEngine, SharedCapture, TimedArrivals, TimedEngine};
use pg_core::{PervasiveGrid, TreeMaintenance};
use pg_net::NodeId;
use pg_runtime::{
    ArrivalProcess, MultiQueryRuntime, PoissonArrivals, QueryOpts, RuntimeConfig, SchedPolicy,
};
use pg_sensornet::aggregate::{AggFn, ValueFilter};
use pg_sensornet::{Region, SharedQuery};
use pg_sim::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const EPOCH_S: u64 = 30;
const SLOTS: usize = 16;

/// Frozen input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub floors: usize,
    pub side: usize,
    /// Churn epochs: arrivals keep coming for `epochs × 30 s`.
    pub epochs: usize,
    /// Sensors killed before each epoch.
    pub deaths_per_epoch: usize,
    /// Offered load as a fraction of the 8-slot service capacity.
    pub load: f64,
}

impl Size {
    pub fn new(smoke: bool) -> Size {
        Size {
            floors: 4,
            side: if smoke { 12 } else { 25 },
            epochs: 100,
            deaths_per_epoch: 1,
            load: 0.8,
        }
    }

    pub fn rate_hz(&self) -> f64 {
        self.load * SLOTS as f64 / EPOCH_S as f64
    }

    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("sensors", (self.floors * self.side * self.side).to_string()),
            ("epochs", self.epochs.to_string()),
            ("deaths_per_epoch", self.deaths_per_epoch.to_string()),
            ("rate_hz", format!("{:.4}", self.rate_hz())),
            ("tree_maintenance", "incremental".into()),
            ("battery_j", "1e9".into()),
        ]
    }
}

/// Four aggregates over overlapping thirds-and-halves of the building.
fn mix() -> Vec<(String, QueryOpts)> {
    [
        "SELECT AVG(temp) FROM sensors",
        "SELECT MAX(temp) FROM sensors WHERE region(west)",
        "SELECT AVG(temp) FROM sensors WHERE region(east)",
        "SELECT MIN(temp) FROM sensors WHERE region(core)",
    ]
    .into_iter()
    .map(|t| {
        (
            t.to_string(),
            QueryOpts::with_deadline(Duration::from_secs(300)),
        )
    })
    .collect()
}

/// The cell, before its first tree flood. Batteries are oversized so the
/// only deaths are the scheduled ones.
pub fn world(size: &Size, seed: u64) -> PervasiveGrid {
    let extent = (size.side as f64 - 1.0) * 5.0;
    PervasiveGrid::building(size.floors, size.side, seed)
        .battery(1e9)
        .tree_maintenance(TreeMaintenance::Incremental)
        .region("west", Region::room(0.0, 0.0, extent * 0.6, extent))
        .region("east", Region::room(extent * 0.4, 0.0, extent, extent))
        .region(
            "core",
            Region::room(extent * 0.25, extent * 0.25, extent * 0.75, extent * 0.75),
        )
        .build()
}

/// Flood the collection tree once, so the run phase starts from the
/// steady state (repairs only).
pub fn first_flood(pg: &mut PervasiveGrid, seed: u64) {
    let members: Vec<NodeId> = (1..pg.net.len() as u32).map(NodeId).collect();
    let all = [SharedQuery {
        members,
        filter: ValueFilter::all(),
        agg: AggFn::Avg,
    }];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF100D);
    let now = pg.now;
    pg.tree_session
        .collect(&mut pg.net, &all, &pg.field, now, &mut rng);
}

/// `per_epoch` distinct victims per epoch, drawn without replacement from
/// the non-base sensors.
pub fn kill_schedule(size: &Size, seed: u64) -> Vec<Vec<NodeId>> {
    let n = size.floors * size.side * size.side;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95);
    let mut pool: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
    (0..size.epochs)
        .map(|_| {
            (0..size.deaths_per_epoch)
                .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
                .collect()
        })
        .collect()
}

fn runtime_cfg() -> RuntimeConfig {
    RuntimeConfig::builder()
        .capacity(64)
        .epoch(Duration::from_secs(EPOCH_S))
        .slots_per_epoch(SLOTS)
        .policy(SchedPolicy::Edf)
        .build()
}

fn drive<E: GridEngine, A: ArrivalProcess>(
    rt: &mut MultiQueryRuntime<E>,
    arrivals: &mut A,
    kills: &[Vec<NodeId>],
    cap: Option<&SharedCapture>,
) -> (f64, Ledger) {
    let energy_before = rt.engine().grid().energy_consumed();
    let dt = Duration::from_secs(EPOCH_S);
    // A forced death books the victim's whole remaining battery as
    // consumed; that is the kill, not the queries, so it is taken out.
    let mut killed_j = 0.0;
    let mut body = || {
        for (e, victims) in kills.iter().enumerate() {
            if let Some(cap) = cap {
                cap.borrow_mut().epoch = e as u32;
            }
            for &v in victims {
                let net = &mut rt.engine_mut().grid_mut().net;
                killed_j += net.remaining_energy(v);
                net.drain(v, f64::INFINITY);
            }
            rt.step(dt, arrivals);
        }
        // Drain what the last epochs left queued.
        let mut extra = 0;
        while (rt.queue_depth() > 0 || !arrivals.is_exhausted()) && extra < 10_000 {
            rt.step(dt, arrivals);
            extra += 1;
        }
    };
    let start = Instant::now();
    match cap {
        None => body(),
        Some(cap) => spanned(cap, "run", 0, body),
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut ledger = Ledger::new(cap.is_some());
    for o in rt.outcomes() {
        ledger.absorb_outcome(0, o);
    }
    ledger.energy_j = rt.engine().grid().energy_consumed() - energy_before - killed_j;
    let outcomes = rt.outcomes().len() as u64;
    ledger.check(rt.arrived == outcomes + rt.rejected + rt.shed, || {
        format!(
            "arrived {} != answered {outcomes} + rejected {} + shed {}",
            rt.arrived, rt.rejected, rt.shed
        )
    });
    let session = &rt.engine().grid().tree_session;
    ledger.check(session.repairs > 0, || "no tree repair happened".into());
    let (answers, valued) = (ledger.answers, ledger.valued);
    ledger.check(valued == answers, || {
        format!("{} of {answers} answers carry no value", answers - valued)
    });
    let delivered = ledger.delivered_sum / answers.max(1) as f64;
    ledger.check(delivered >= 0.9, || {
        format!("mean delivered_frac {delivered:.3} < 0.9")
    });
    ledger.set("runtime.admitted", rt.admitted as f64);
    ledger.set("runtime.rejected", rt.rejected as f64);
    ledger.set("runtime.shed", rt.shed as f64);
    ledger.set("runtime.browned_out", rt.browned_out as f64);
    ledger.set("sensornet.tree.rebuilds", session.rebuilds as f64);
    ledger.set("sensornet.tree.repairs", session.repairs as f64);
    ledger.set(
        "sensornet.tree.control_bytes",
        session.control_bytes_total as f64,
    );
    (wall_s, ledger)
}

fn book_generator(ledger: &mut Ledger, p: &PoissonArrivals, arrived: u64) {
    ledger.offered = p.emitted();
    ledger.check(p.emitted() == arrived, || {
        format!("emitted {} != arrived {arrived}", p.emitted())
    });
}

/// Set-up: the flooded cell, the kill schedule and the arrival generator.
pub fn build(size: &Size, seed: u64) -> (PervasiveGrid, Vec<Vec<NodeId>>, PoissonArrivals) {
    let mut pg = world(size, seed);
    first_flood(&mut pg, seed);
    let horizon = SimTime::from_secs(size.epochs as u64 * EPOCH_S);
    let p = PoissonArrivals::new(seed, size.rate_hz(), horizon, mix());
    (pg, kill_schedule(size, seed), p)
}

pub fn run_once(size: &Size, seed: u64, cap: Option<&SharedCapture>) -> Once {
    let start = Instant::now();
    let (pg, kills, p) = build(size, seed);
    let (setup_s, wall_s, ledger) = match cap {
        None => {
            let mut rt = MultiQueryRuntime::new(runtime_cfg(), pg);
            let mut p = p;
            let setup_s = start.elapsed().as_secs_f64();
            let (wall_s, mut ledger) = drive(&mut rt, &mut p, &kills, None);
            book_generator(&mut ledger, &p, rt.arrived);
            (setup_s, wall_s, ledger)
        }
        Some(cap) => {
            let mut rt = MultiQueryRuntime::new(runtime_cfg(), TimedEngine::new(pg, cap.clone()));
            let mut p = TimedArrivals::new(p, cap.clone());
            let setup_s = start.elapsed().as_secs_f64();
            let (wall_s, mut ledger) = drive(&mut rt, &mut p, &kills, Some(cap));
            book_generator(&mut ledger, p.inner(), rt.arrived);
            (setup_s, wall_s, ledger)
        }
    };
    Once {
        setup_s,
        wall_s,
        ledger,
        replay: Replay {
            deaths: kills,
            ..Replay::default()
        },
    }
}
