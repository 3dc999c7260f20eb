//! Shared plumbing for the experiment harness binaries.
//!
//! Every `exp_*` binary in `src/bin/` prints one stdout block of
//! EXPERIMENTS.md. This library holds the worlds, query streams and cell
//! runtimes they share, the seed [`sweep`] and the [`table`] every number
//! is printed and recorded through, so each binary is just its sweep —
//! plus the [`experiment`] report plumbing: every binary also writes a
//! machine-readable `results/<exp>.json`, which CI's
//! `scripts/check_experiments.sh` compares, byte for byte, with the
//! committed baseline.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod claims;
pub mod experiment;
pub mod table;

pub use claims::Claims;
pub use experiment::{key_part, Experiment};
pub use table::{fmt, Cell, Value};

use pg_compose::htn::MethodLibrary;
use pg_compose::manager::{execute, ManagerKind, ServiceWorld};
use pg_core::{GridBuilder, PervasiveGrid};
use pg_discovery::description::ServiceDescription;
use pg_discovery::ontology::Ontology;
use pg_grid::sched::GridCluster;
use pg_net::churn::ChurnSchedule;
use pg_net::energy::RadioModel;
use pg_net::geom::Point;
use pg_net::link::LinkModel;
use pg_net::topology::{NodeId, Topology};
use pg_partition::decide::{oracle_choice, DecisionConfig, DecisionMaker, Policy};
use pg_partition::exec::{execute_once, resolve, ExecContext};
use pg_partition::learn::Reward;
use pg_partition::model::CostWeights;
use pg_runtime::{MultiQueryRuntime, OverloadConfig, OverloadPolicy, RuntimeConfig, SchedPolicy};
use pg_sensornet::field::TemperatureField;
use pg_sensornet::network::SensorNetwork;
use pg_sensornet::region::Region;
use pg_sim::fault::FaultPlan;
use pg_sim::metrics::{Samples, Summary};
use pg_sim::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A standard experiment world: an `n`-sensor random-geometric deployment
/// over a fire, lossless radios unless stated otherwise.
pub struct World {
    /// The sensor network.
    pub net: SensorNetwork,
    /// The campus grid.
    pub grid: GridCluster,
    /// The burning-building field.
    pub field: TemperatureField,
    /// Named regions (a quarter-area "room210").
    pub regions: BTreeMap<String, Region>,
    /// Query submission instant (10 min after ignition).
    pub now: SimTime,
}

impl World {
    /// The execution context over this world's own network, grid, field,
    /// regions and clock.
    pub fn ctx(&mut self) -> ExecContext<'_> {
        ExecContext {
            net: &mut self.net,
            grid: &self.grid,
            field: &self.field,
            regions: &self.regions,
            now: self.now,
        }
    }

    /// The sensor T1's Simple archetype reads: 17, or the next id where the
    /// deployment put its base station at node 17 (seed 4004 does).
    pub fn simple_sensor(&self) -> u32 {
        17 + u32::from(self.net.base() == NodeId(17))
    }
}

/// Build the standard world: `n` sensors in a `side × side` metre arena
/// (side scales with sqrt(n) to keep density constant), 2 % link loss.
pub fn standard_world(n: usize, seed: u64) -> World {
    standard_world_with_loss(n, seed, 0.02)
}

/// [`standard_world`] with an explicit link-loss probability.
///
/// # Panics
/// Panics when `loss` is outside `[0, 1)`.
#[allow(clippy::unwrap_used)]
pub fn standard_world_with_loss(n: usize, seed: u64, loss: f64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    // Constant density: ~1 sensor per 100 m², radio range 18 m.
    let side = ((n as f64) * 100.0).sqrt();
    let topo = loop {
        let t = Topology::random_geometric(n, side, side, 18.0, &mut rng);
        if t.is_connected() {
            break t;
        }
    };
    let base = topo.nearest_to(Point::flat(0.0, 0.0));
    let mut net = SensorNetwork::new(
        topo,
        base,
        RadioModel::mote(),
        LinkModel::new(250e3, Duration::from_millis(5), loss).unwrap(),
        50.0,
    );
    net.noise_sd = 0.5;
    let mut regions = BTreeMap::new();
    regions.insert(
        "room210".to_string(),
        Region::room(0.0, 0.0, side / 2.0, side / 2.0),
    );
    World {
        net,
        grid: GridCluster::campus(),
        field: TemperatureField::building_fire(
            Point::flat(side / 2.0, side / 2.0),
            SimTime::ZERO,
            400.0,
        ),
        regions,
        now: SimTime::from_secs(600),
    }
}

/// The 36-sensor single floor of the runtime experiments (T16, T17, T19)
/// with its two overlapping rooms, left unbuilt so a caller can add a
/// policy, a fault plan or a tree-maintenance mode.
pub fn floor(seed: u64) -> GridBuilder {
    PervasiveGrid::building(1, 6, seed)
        .region("west", Region::room(0.0, 0.0, 14.0, 30.0))
        .region("east", Region::room(10.0, 0.0, 30.0, 30.0))
}

/// One federation cell (T20, T21): a 16-sensor floor under an EDF
/// runtime of 2 slots per 30 s epoch that sheds above its watermarks.
pub fn cell_runtime(seed: u64, faults: Option<FaultPlan>) -> MultiQueryRuntime<PervasiveGrid> {
    let mut b = PervasiveGrid::building(1, 4, seed);
    if let Some(plan) = faults {
        b = b.faults(plan);
    }
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
    MultiQueryRuntime::new(cfg, b.build())
}

/// A service world (T5, T7) with `replicas` instances of each of the five
/// roles of the temperature-distribution plan, every instance on its own
/// churn schedule drawn from `schedule`.
#[allow(clippy::unwrap_used)]
pub fn service_world(
    onto: &Ontology,
    replicas: usize,
    mut schedule: impl FnMut() -> ChurnSchedule,
) -> ServiceWorld {
    let mut w = ServiceWorld::new();
    for class in [
        "TemperatureSensor",
        "MapService",
        "WeatherService",
        "PdeSolverService",
        "DisplayService",
    ] {
        for i in 0..replicas {
            w.add_service(
                ServiceDescription::new(format!("{class}-{i}"), onto.class(class).unwrap()),
                schedule(),
            );
        }
    }
    w
}

/// Per-run means over repeated executions of one composition plan.
pub struct Composed {
    /// Share of runs in which every required step completed.
    pub success: f64,
    /// Mean utility.
    pub utility: f64,
    /// Mean rebind attempts.
    pub rebinds: f64,
    /// Mean end-to-end latency, seconds.
    pub latency_s: f64,
}

/// Execute the temperature-distribution plan `runs` times over `w` (T5,
/// T7, T13), one run every `every_s` simulated seconds.
#[allow(clippy::unwrap_used)]
pub fn compose_runs(
    w: &ServiceWorld,
    onto: &Ontology,
    kind: ManagerKind,
    runs: u64,
    every_s: u64,
) -> Composed {
    let plan = MethodLibrary::pervasive_grid()
        .decompose("temperature-distribution")
        .unwrap();
    let (mut ok, mut utility, mut rebinds, mut latency) = (0u64, 0.0, 0u64, 0.0);
    for i in 0..runs {
        let r = execute(w, onto, &plan, kind, SimTime::from_secs(i * every_s));
        ok += u64::from(r.success);
        utility += r.utility;
        rebinds += u64::from(r.rebinds);
        latency += r.latency.as_secs_f64();
    }
    let n = runs as f64;
    Composed {
        success: ok as f64 / n,
        utility: utility / n,
        rebinds: rebinds as f64 / n,
        latency_s: latency / n,
    }
}

/// What one streaming-runtime run did (T16, T17, T19), and the per-cell
/// accumulator such runs fold into in seed order.
#[derive(Default)]
pub struct RunStats {
    /// Response time of every completed query, seconds.
    pub resp: Samples,
    /// Energy the runtime spent, joules.
    pub energy_j: f64,
    /// Bytes on air attributed to the completed queries.
    pub bytes: f64,
    /// Queries that arrived.
    pub arrived: u64,
    /// Queries admitted to the queue.
    pub admitted: u64,
    /// Queries turned away at admission.
    pub rejected: u64,
    /// Queries shed from the queue.
    pub shed: u64,
    /// Queries answered from browned-out (coarser) strata.
    pub browned: u64,
    /// Deadline preemptions.
    pub preemptions: u64,
    /// Queries that completed.
    pub completed: u64,
    /// Completions that came back as an error.
    pub errors: u64,
    /// Completions that rode a shared collection epoch.
    pub shared: u64,
    /// Completions that carried a deadline.
    pub dl_total: u64,
    /// Completions that met their deadline.
    pub dl_met: u64,
    /// Client-side retries, for the caller to fill in from a workload that
    /// models them (T19); zero otherwise.
    pub retries: u64,
    /// Clients that gave up retrying (as `retries`).
    pub gave_up: u64,
}

impl RunStats {
    /// Read the books of a finished run.
    pub fn of(rt: &MultiQueryRuntime<PervasiveGrid>) -> RunStats {
        let mut st = RunStats {
            energy_j: rt.energy_spent_j(),
            arrived: rt.arrived,
            admitted: rt.admitted,
            rejected: rt.rejected,
            shed: rt.shed,
            browned: rt.browned_out,
            preemptions: rt.preemptions,
            ..RunStats::default()
        };
        for o in rt.outcomes() {
            st.completed += 1;
            st.errors += u64::from(o.response.is_err());
            st.resp.record(o.response_time_s());
            st.bytes += o.attribution.bytes;
            st.shared += u64::from(o.attribution.shared);
            st.dl_total += u64::from(o.deadline.is_some());
            st.dl_met += u64::from(o.deadline.is_some() && !o.deadline_exceeded());
        }
        st
    }

    /// Add another run's books to these.
    pub fn absorb(&mut self, o: &RunStats) {
        for &r in o.resp.raw() {
            self.resp.record(r);
        }
        self.energy_j += o.energy_j;
        self.bytes += o.bytes;
        self.arrived += o.arrived;
        self.admitted += o.admitted;
        self.rejected += o.rejected;
        self.shed += o.shed;
        self.browned += o.browned;
        self.preemptions += o.preemptions;
        self.completed += o.completed;
        self.errors += o.errors;
        self.shared += o.shared;
        self.dl_total += o.dl_total;
        self.dl_met += o.dl_met;
        self.retries += o.retries;
        self.gave_up += o.gave_up;
    }

    /// Share of the deadline-carrying completions that met their deadline.
    pub fn hit_rate(&self) -> f64 {
        self.dl_met as f64 / self.dl_total.max(1) as f64
    }
}

/// A seeded query stream (T3, A1, T22): one draw in `0..10` per query
/// picks the first `mix` entry `(upto, text)` with `draw <= upto`, so the
/// last entry must carry 9. A `{sensor}` in the chosen text becomes a
/// second draw from `1..sensors`, a read of one random non-base sensor.
///
/// # Panics
/// Panics when a draw is above every `upto` in `mix`.
#[allow(clippy::expect_used)]
pub fn stream(seed: u64, len: usize, sensors: u32, mix: &[(u32, &str)]) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let draw = rng.gen_range(0..10u32);
            let (_, text) = mix
                .iter()
                .find(|(upto, _)| draw <= *upto)
                .expect("the mix covers every draw in 0..10");
            if text.contains("{sensor}") {
                text.replace("{sensor}", &rng.gen_range(1..sensors).to_string())
            } else {
                text.to_string()
            }
        })
        .collect()
}

/// The mixed one-shot stream of T3 and A1. Continuous queries are
/// deliberately absent: their idle-energy cost is identical under every
/// placement and would wash out the comparison (T12 studies them
/// separately).
pub const MIXED_QUERIES: [(u32, &str); 4] = [
    (3, "SELECT AVG(temp) FROM sensors"),
    (5, "SELECT temp FROM sensors WHERE sensor_id = {sensor}"),
    (7, "SELECT MAX(temp) FROM sensors WHERE region(room210)"),
    (
        9,
        "SELECT temperature_distribution() FROM sensors WHERE region(room210)",
    ),
];

/// Run [`MIXED_QUERIES`] through one decision maker on an `n`-sensor
/// standard world (T3, A1), everything seeded by `seed`. Returns the total
/// scalar cost, and over the last `judge_window` decisions the share that
/// agrees in family with the clairvoyant oracle and the mean regret ratio
/// scalar(chosen) / scalar(oracle) — both NaN when the window is 0.
#[allow(clippy::expect_used)]
pub fn run_mixed_stream(
    policy: Policy,
    config: DecisionConfig,
    n: usize,
    seed: u64,
    len: usize,
    judge_window: usize,
) -> (f64, f64, f64) {
    let weights = CostWeights::default();
    let mut w = standard_world(n, seed);
    let mut dm = DecisionMaker::with_config(policy, seed, config);
    let mut total = 0.0;
    let (mut agree, mut judged, mut regret_sum) = (0u32, 0u32, 0.0);
    let mut oracle_cost_pending: Option<f64> = None;
    for (i, text) in stream(seed, len, n as u32, &MIXED_QUERIES)
        .iter()
        .enumerate()
    {
        let query = pg_query::parse(text).expect("valid query");
        // A randomly drawn sensor id can land on the base station —
        // such queries are invalid and skipped under every policy.
        let Ok(resolved) = resolve(&w.net, &w.regions, &query) else {
            continue;
        };
        let Ok(model) = dm.choose(&w.net, &w.grid, &query, &resolved.features) else {
            continue;
        };
        // Judge the decision against the clairvoyant oracle (on a clone) for
        // the tail of the stream.
        if i >= len - judge_window {
            if let Some((best, best_cost)) =
                oracle_choice(&w.ctx(), &query, &resolved, i as u64, |out| {
                    weights.scalar(&out.cost)
                })
            {
                judged += 1;
                agree += u32::from(best.family() == model.family());
                oracle_cost_pending = Some(best_cost);
            }
        }
        let mut rng = StdRng::seed_from_u64(i as u64);
        let out = execute_once(&mut w.ctx(), &query, &resolved, model, &mut rng);
        total += weights.scalar(&out.cost);
        if let Some(oracle) = oracle_cost_pending.take() {
            regret_sum += weights.scalar(&out.cost) / oracle.max(1e-12);
        }
        let reward = Reward::from_cost(out.cost);
        dm.observe(&w.net, &w.grid, resolved.features, model, reward);
    }
    // 0/0 is NaN: nothing judged, nothing to report.
    let judged = f64::from(judged);
    (total, f64::from(agree) / judged, regret_sum / judged)
}

/// Run `f(seed)` for the seeds `0..reps` in ascending order and fold each
/// of the `N` values it returns into its own [`Summary`].
pub fn sweep<const N: usize>(reps: u64, mut f: impl FnMut(u64) -> [f64; N]) -> [Summary; N] {
    let mut out = [Summary::new(); N];
    for seed in 0..reps {
        for (summary, x) in out.iter_mut().zip(f(seed)) {
            summary.record(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_world_is_connected_and_deterministic() {
        let a = standard_world(100, 1);
        let b = standard_world(100, 1);
        assert!(a.net.topology().is_connected());
        assert_eq!(a.net.topology().edge_count(), b.net.topology().edge_count());
        assert_eq!(a.net.len(), 100);
    }

    #[test]
    fn the_simple_archetype_reads_17_unless_it_is_the_base_station() {
        for seed in 0..10 {
            assert_eq!(standard_world(100, seed).simple_sensor(), 17, "seed {seed}");
        }
        let w = standard_world(100, 4004);
        assert_eq!(w.net.base(), NodeId(17));
        let text = format!(
            "SELECT temp FROM sensors WHERE sensor_id = {}",
            w.simple_sensor()
        );
        let query = pg_query::parse(&text).unwrap();
        assert!(resolve(&w.net, &w.regions, &query).is_ok());
    }

    #[test]
    fn sweep_runs_each_seed_once_in_order_and_matches_the_hand_loop() {
        // Values whose Welford state depends on the order they arrive in.
        let value = |seed: u64| [1.0 / (seed as f64 + 3.0), (seed as f64).exp()];
        let mut seen = Vec::new();
        let got = sweep(7, |seed| {
            seen.push(seed);
            value(seed)
        });
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
        for (i, summary) in got.iter().enumerate() {
            let mut by_hand = Summary::new();
            for seed in 0..7 {
                by_hand.record(value(seed)[i]);
            }
            assert_eq!(summary.count(), 7);
            for (a, b) in [
                (summary.mean(), by_hand.mean()),
                (summary.variance(), by_hand.variance()),
                (summary.sum(), by_hand.sum()),
            ] {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn stream_is_seeded_and_draws_a_sensor_only_where_asked() {
        let mix = [(4, "avg"), (9, "read {sensor}")];
        let a = stream(3, 200, 50, &mix);
        assert_eq!(a, stream(3, 200, 50, &mix));
        assert_ne!(a, stream(4, 200, 50, &mix));
        assert!(a.iter().any(|t| t == "avg"));
        for t in a.iter().filter(|t| *t != "avg") {
            let id: u32 = t.strip_prefix("read ").unwrap().parse().unwrap();
            assert!((1..50).contains(&id));
        }
    }
}
