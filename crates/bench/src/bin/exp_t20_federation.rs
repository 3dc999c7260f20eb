//! **T20** — multi-cell federation: gossip membership, roaming handoff,
//! and peer load absorption, swept across federation size × cell churn ×
//! user mobility. Each cell owns its own streaming runtime over its own
//! grid; cells are stitched together only by seeded gossip (anti-entropy
//! membership + load digests + replicated handoff records) with no
//! central orchestrator.
//!
//! Three variants run per point:
//!
//! * **federated** — absorption on, next-cell predictor pre-warming plan
//!   caches at predicted destinations (warm handoffs);
//! * **cold** — absorption on but purely reactive planning (`proactive`
//!   off: no predictor, zero cache TTL): every migration pays the full
//!   plan + discovery path at the destination;
//! * **isolated** — absorption off (cells ignore each other), only run
//!   under churn as the baseline the tentpole claim compares against.
//!
//! Acceptance claims: under a single-cell kill, the federation answers
//! strictly more queries than isolated cells and meets no fewer deadlines,
//! per seed (neighbors discovered via gossip absorb the dead cell's
//! admissions, honoring their own watermarks), and meets strictly more
//! deadlines summed over a point's seeds; and, per seed, warm handoff p99
//! is strictly below cold handoff p99 (the predictor's pre-warm turns the
//! 370 ms plan+discovery path into a 30 ms revalidation).
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t20_federation [-- --chaos]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{cell_runtime, Cell, Experiment, Value};
use pg_federation::{commute_traces, Federation, FederationConfig, RoamingConfig};
use pg_runtime::QueryOpts;
use pg_sim::fault::FaultPlan;
use pg_sim::rng::RngStreams;
use pg_sim::{Duration, SimTime};
use rand::Rng;
use std::process::ExitCode;

/// Per-cell service capacity: 2 slots per 30 s epoch.
const CAPACITY_HZ: f64 = 2.0 / 30.0;
const HORIZON_S: u64 = 3_600;

#[derive(Clone, Copy)]
struct Churn {
    name: &'static str,
    /// Kill cell 1's base station mid-run?
    kill: bool,
}

#[derive(Clone, Copy)]
struct Mobility {
    name: &'static str,
    dwell_min: u64,
    dwell_max: u64,
}

const CHURNS: [Churn; 2] = [
    Churn {
        name: "steady",
        kill: false,
    },
    Churn {
        name: "kill1",
        kill: true,
    },
];
const MOBILITIES: [Mobility; 2] = [
    Mobility {
        name: "slow",
        dwell_min: 500,
        dwell_max: 900,
    },
    Mobility {
        name: "fast",
        dwell_min: 150,
        dwell_max: 300,
    },
];

/// The `q`-quantile of a latency sample set (nearest-rank), if non-empty.
fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((s.len() - 1) as f64 * q.clamp(0.0, 1.0)).ceil() as usize;
    Some(s[idx.min(s.len() - 1)])
}

/// One federation run. `seed` derives everything: grids, mobility traces,
/// arrivals, gossip peer selection, bus jitter.
fn run_one(
    cells: usize,
    churn: Churn,
    mobility: Mobility,
    seed: u64,
    redirect: bool,
    warm: bool,
) -> Federation {
    let runtimes = (0..cells)
        .map(|i| {
            let cell_seed = seed * 1_000 + i as u64;
            let faults = (churn.kill && i == 1).then(|| {
                FaultPlan::builder(cell_seed)
                    .base_outage(
                        SimTime::from_secs(HORIZON_S / 6),
                        SimTime::from_secs(2 * HORIZON_S / 3),
                    )
                    .build()
                    .unwrap()
            });
            cell_runtime(cell_seed, faults)
        })
        .collect();
    let users = 4 * cells;
    let traces = commute_traces(
        seed,
        &RoamingConfig {
            users,
            cells,
            horizon: Duration::from_secs(HORIZON_S),
            dwell_min: Duration::from_secs(mobility.dwell_min),
            dwell_max: Duration::from_secs(mobility.dwell_max),
        },
    );
    let fcfg = FederationConfig {
        seed,
        redirect,
        proactive: warm,
        ..FederationConfig::default()
    };
    let mut fed = Federation::new(fcfg, runtimes, traces);

    // Offered load ~60% of aggregate capacity: bursts queue deep enough
    // that roaming users leave in-flight queries behind (migrations), yet
    // live cells keep the headroom that makes absorbing a dead neighbor's
    // admissions a win rather than a cascade.
    let rate_hz = 0.6 * CAPACITY_HZ * cells as f64;
    let mut rng = RngStreams::new(seed).fork("t20-arrivals");
    let texts = [
        "SELECT AVG(temp) FROM sensors",
        "SELECT MAX(temp) FROM sensors",
        "SELECT temp FROM sensors WHERE sensor_id = 3",
    ];
    let mut t = 0.0;
    loop {
        t += -rng.gen::<f64>().max(1e-12).ln() / rate_hz;
        if t >= HORIZON_S as f64 {
            break;
        }
        let user = rng.gen_range(0..users as u64);
        let text = texts[rng.gen_range(0..texts.len())];
        fed.offer(
            SimTime::from_secs_f64(t),
            user,
            text,
            QueryOpts::with_deadline(Duration::from_secs(120)),
        );
    }
    fed.run(SimTime::from_secs(HORIZON_S));
    fed
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t20_federation");
    let reps: u64 = exp.scale(4, 12);
    let cell_counts: Vec<usize> = exp.scale(vec![3, 6], vec![3, 6, 9]);
    exp.set_meta("reps", reps.to_string());
    exp.set_meta("horizon_s", HORIZON_S.to_string());

    println!(
        "T20: federation size x cell churn x user mobility, {reps} seeds \
         per point ({HORIZON_S} s horizon, ~60% aggregate load, commute-ring \
         mobility; kill1 = cell 1 base down for half the run)"
    );
    exp.table("federated vs isolated goodput; warm (pre-warmed) vs cold (reactive) handoff p99");

    for &cells in &cell_counts {
        for churn in CHURNS {
            for mobility in MOBILITIES {
                /// Totals over the seeds of one sweep point.
                #[derive(Default)]
                struct Point {
                    met_fed: u64,
                    met_iso: u64,
                    absorbed: u64,
                    migrations: u64,
                    forwards: u64,
                    lost: u64,
                    prewarms: u64,
                    warm_lat: Vec<f64>,
                    cold_lat: Vec<f64>,
                }
                let mut sum = Point::default();
                let key = format!("c{cells}.{}.{}", churn.name, mobility.name);
                for rep in 0..reps {
                    let seed = rep * 100 + cells as u64;
                    let fed = run_one(cells, churn, mobility, seed, true, true);
                    let cold = run_one(cells, churn, mobility, seed, true, false);
                    let (answered_fed, met_fed) = fed.goodput();

                    // Warm-vs-cold: handoffs of both kinds land, and the
                    // predictor's pre-warm beats reactive re-planning at the
                    // tail, per seed. A p99 of no handoffs is NaN and fails.
                    let mut claims = exp.claims(&key).seed(seed);
                    let warm_lat = &fed.stats.warm_handoff_latencies_s;
                    let cold_lat = &cold.stats.cold_handoff_latencies_s;
                    claims.above("warm_handoffs", warm_lat.len(), 0usize);
                    claims.above("cold_handoffs", cold_lat.len(), 0usize);
                    let warm_p99 = quantile(warm_lat, 0.99).unwrap_or(f64::NAN);
                    let cold_p99 = quantile(cold_lat, 0.99).unwrap_or(f64::NAN);
                    claims.below("warm_vs_cold_handoff_p99_s", warm_p99, cold_p99);

                    // Tentpole: under a single-cell kill, the federation
                    // answers the dead cell's users where isolated cells
                    // drop them, and never meets fewer deadlines. Near
                    // capacity an absorbed query can push one already
                    // queued past its deadline, so per seed the deadline-met
                    // count may tie (seed 903, 3 cells, slow: 72 absorbed,
                    // 72 more misses, 376 = 376); the strict win is claimed
                    // over each point's seeds below.
                    if churn.kill {
                        let iso = run_one(cells, churn, mobility, seed, false, true);
                        let (answered_iso, met_iso) = iso.goodput();
                        claims.above("absorbed", fed.stats.absorbed, 0u64);
                        claims.above("answered_vs_isolated", answered_fed, answered_iso);
                        claims.at_least("deadline_met_vs_isolated", met_fed, met_iso);
                        sum.met_iso += met_iso;
                    }

                    let s = &fed.stats;
                    sum.met_fed += met_fed;
                    sum.absorbed += s.absorbed;
                    sum.migrations += s.migrations_completed;
                    sum.forwards += s.forwards_completed;
                    sum.lost += s.migrations_lost + s.forwards_lost;
                    sum.prewarms += s.prewarms;
                    sum.warm_lat.extend(warm_lat);
                    sum.cold_lat.extend(cold_lat);
                }

                // The table shows met-deadline counts; the report gates
                // them as per-hour rates.
                let per_h = |met: u64| met as f64 * 3_600.0 / (HORIZON_S as f64 * reps as f64);
                exp.set_scalar(format!("{key}.goodput_fed_per_h"), per_h(sum.met_fed));
                if churn.kill {
                    exp.set_scalar(format!("{key}.goodput_iso_per_h"), per_h(sum.met_iso));
                    let name = "deadline_met_total_vs_isolated";
                    exp.claims(&key).above(name, sum.met_fed, sum.met_iso);
                }
                let met_iso: Value = if churn.kill {
                    sum.met_iso.into()
                } else {
                    "-".into()
                };
                let warm_p99 = quantile(&sum.warm_lat, 0.99).unwrap_or(0.0);
                let cold_p99 = quantile(&sum.cold_lat, 0.99).unwrap_or(0.0);
                exp.row(
                    &key,
                    &[
                        Cell::int("cells", 5, cells),
                        Cell::text("churn", 6, churn.name),
                        Cell::text("move", 4, mobility.name),
                        Cell::int("good fed", 8, sum.met_fed),
                        Cell::int("good iso", 8, met_iso),
                        Cell::int("absorb", 6, sum.absorbed).key("absorbed"),
                        Cell::int("migr", 5, sum.migrations).key("migrations_completed"),
                        Cell::int("fwd", 4, sum.forwards).key("forwards_completed"),
                        Cell::int("lost", 4, sum.lost).key("handoffs_lost"),
                        Cell::fixed("warm p99", 8, 3, warm_p99).key("warm_handoff_p99_s"),
                        Cell::fixed("cold p99", 8, 3, cold_p99).key("cold_handoff_p99_s"),
                        Cell::int("prewarm", 7, sum.prewarms).key("prewarms"),
                    ],
                );
            }
        }
    }

    println!(
        "shape to check: under kill1 the federation answers more queries \
         than isolated cells and meets no fewer deadlines on every seed, and \
         strictly more deadlines summed over each point's seeds — the dead \
         cell's users are rerouted into live neighbors picked from gossiped \
         load digests, each neighbor still honoring its own shed watermarks \
         (absorb > 0). Warm handoff p99 sits ~340 ms under cold on every \
         seed: the next-cell predictor pre-warms the destination's plan \
         cache so a migration pays a 30 ms revalidation instead of the full \
         370 ms plan + discovery path. Faster mobility raises migrations and \
         forwards roughly in proportion to move frequency; lost handoffs \
         stay 0 with a clean bus (dead-letters only appear under bus fault \
         plans)."
    );

    exp.finish()
}
