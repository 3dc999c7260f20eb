//! **T18** — scale: the 10k-node arena, incremental tree repair under
//! churn, and the indexed discovery matcher.
//!
//! T18a builds the flat CSR node arena (cell-binned, O(n + m)) at
//! 1k/10k/50k nodes and records its shape counters. T18b runs one
//! forced-death schedule per node count × churn rate × seed through a full
//! rebuild after every death epoch (a fresh `Incremental` session) and one
//! kept `Incremental` session (localized repair), claiming per seed that
//! repair beats the rebuild on wire bytes AND control waves. T18c checks
//! that the class-indexed matcher returns the linear scan's hits bit for
//! bit while consulting under a quarter of the registry.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t18_scale
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{key_part, Cell, Claims, Experiment};
use pg_discovery::corpus::mixed_corpus;
use pg_discovery::{Ontology, Preference, Registry, ServiceRequest};
use pg_net::energy::RadioModel;
use pg_net::link::LinkModel;
use pg_net::{NodeId, Topology};
use pg_sensornet::aggregate::{AggFn, ValueFilter};
use pg_sensornet::{
    SensorNetwork, SharedQuery, SharedTreeSession, TemperatureField, TreeMaintenance,
};
use pg_sim::{Duration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

/// One sweep size: a building of `floors × cols × rows` sensors.
#[derive(Clone, Copy)]
struct Size {
    label: &'static str,
    floors: usize,
    cols: usize,
    rows: usize,
}

impl Size {
    fn nodes(&self) -> usize {
        self.floors * self.cols * self.rows
    }

    /// 10 m in-plane pitch, 4 m floor height, 11 m radio range: in-plane
    /// 4-neighbours plus same- and adjacent-column links across floors.
    fn topology(&self) -> Topology {
        Topology::building(self.floors, self.cols, self.rows, 10.0, 4.0, 11.0)
    }
}

const K1: Size = Size {
    label: "1k",
    floors: 4,
    cols: 16,
    rows: 16,
};
const K10: Size = Size {
    label: "10k",
    floors: 4,
    cols: 50,
    rows: 50,
};
const K50: Size = Size {
    label: "50k",
    floors: 5,
    cols: 100,
    rows: 100,
};

fn network(size: Size) -> SensorNetwork {
    let mut net = SensorNetwork::new(
        size.topology(),
        NodeId(0),
        RadioModel::mote(),
        LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap(),
        // Oversized battery: deaths in this experiment come only from the
        // forced churn schedule, never from drain, so both arms see the
        // exact same death sequence.
        1e9,
    );
    net.noise_sd = 0.0;
    net
}

/// Kill schedule: `per_epoch` distinct victims per epoch for `epochs`
/// epochs, drawn without replacement from the non-base sensors.
fn kill_schedule(n: usize, epochs: usize, per_epoch: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95);
    let mut pool: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
    (0..epochs)
        .map(|_| {
            (0..per_epoch)
                .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
                .collect()
        })
        .collect()
}

/// Accumulated control-plane cost of one maintenance arm over a churn run,
/// counted **after** the initial build (the two arms pay the same first
/// flood; the sweep compares what churn costs from then on).
#[derive(Default)]
struct ArmCost {
    repair_bytes: u64,
    repair_waves: u64,
    rebuilds: u64,
    repairs: u64,
}

/// One arm over the churn run: `full_rebuild` starts a fresh session (a
/// whole-network flood) after every death epoch; otherwise one session
/// repairs its tree in place. It claims that the first epoch builds the
/// tree and that every forced drain kills its victim.
fn run_arm(
    size: Size,
    full_rebuild: bool,
    schedule: &[Vec<NodeId>],
    seed: u64,
    mut claims: Claims,
) -> ArmCost {
    let mut net = network(size);
    let field = TemperatureField::calm(25.0);
    let members: Vec<NodeId> = (1..size.nodes() as u32).map(NodeId).collect();
    let queries = [SharedQuery {
        members,
        filter: ValueFilter::all(),
        agg: AggFn::Avg,
    }];
    let mut session = SharedTreeSession::new(TreeMaintenance::Incremental);
    let mut rng = StdRng::seed_from_u64(seed);

    // Epoch 0: initial build, excluded from the churn cost.
    let t0 = SimTime::from_secs(0);
    let first = session.collect(&mut net, &queries, &field, t0, &mut rng);
    claims.equal("first_epoch_built", u64::from(first.tree_rebuilt), 1u64);

    let mut cost = ArmCost::default();
    let mut survivors = 0u64;
    for (e, victims) in schedule.iter().enumerate() {
        for &v in victims {
            net.drain(v, f64::INFINITY);
            survivors += u64::from(net.is_alive(v));
        }
        if full_rebuild {
            session = SharedTreeSession::new(TreeMaintenance::Incremental);
        }
        let t = SimTime::from_secs(30 * (e as u64 + 1));
        let report = session.collect(&mut net, &queries, &field, t, &mut rng);
        cost.repair_bytes += report.control_bytes;
        cost.repair_waves += u64::from(report.control_waves);
        cost.rebuilds += u64::from(report.tree_rebuilt);
        cost.repairs += u64::from(report.tree_repaired);
    }
    claims.equal("drain_survivors", survivors, 0u64);
    cost
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t18_scale");
    let sizes: &[Size] = &[K1, K10, K50];
    let reps: u64 = 5;
    let epochs = 8usize;
    exp.set_meta("reps", reps.to_string());
    exp.set_meta("epochs", epochs.to_string());

    // --- T18a: arena build at scale. ---
    println!(
        "T18a: CSR node arena build (building topology, 10 m pitch, 11 m range), \
         cell-binned O(n+m) adjacency"
    );
    exp.table("shape counters of each arena");
    for &size in sizes {
        let topo = size.topology();
        let tree = topo.canonical_tree(NodeId(0));
        let max_deg = (0..topo.len() as u32)
            .map(|i| topo.degree(NodeId(i)))
            .max()
            .unwrap_or(0);
        let key = format!("arena.{}", size.label);
        let alive = network(size).alive_sensors();
        exp.claims(&key)
            .equal("alive_sensors", alive, size.nodes() - 1);
        exp.row(
            &key,
            &[
                Cell::text("size", 5, size.label),
                Cell::int("nodes", 7, topo.len()).key("nodes"),
                Cell::int("edges", 8, topo.edge_count()).key("edges"),
                Cell::int("maxdeg", 6, max_deg).key("max_degree"),
                Cell::int("height", 6, tree.height()).key("tree_height"),
                Cell::int("covered", 7, tree.covered()).key("tree_covered"),
            ],
        );
    }

    // --- T18b: churn sweep, incremental repair vs full rebuild. ---
    let churn_rates = [("0.1%", 0.001f64), ("1%", 0.01f64)];
    println!(
        "\nT18b: churn sweep x tree maintenance, {reps} seeds per cell, {epochs} \
         churn epochs; costs counted after the initial build"
    );
    exp.table("bytes = repair beacons on the wire; waves = control-plane latency rounds");
    for &size in sizes {
        for (rate_label, rate) in churn_rates {
            let per_epoch = ((size.nodes() as f64 * rate).round() as usize).max(1);
            let key = format!(
                "churn.{}.{}",
                size.label,
                rate_label.trim_end_matches('%').replace('.', "_")
            );
            // Both arms per seed so the tentpole claim compares within
            // one seed.
            // (report name, full rebuild after every death epoch).
            let modes = [("persistent", true), ("incremental", false)];
            let mut totals: [ArmCost; 2] = Default::default();
            for seed in 0..reps {
                let schedule = kill_schedule(size.nodes(), epochs, per_epoch, seed);
                let arms = modes.map(|(mode, full)| {
                    let claims = exp.claims(&format!("{key}.{mode}")).seed(seed);
                    run_arm(size, full, &schedule, seed, claims)
                });
                let [full, incr] = &arms;
                // The tentpole claims, per seed and per churn level:
                // localized repair strictly beats the full rebuild on wire
                // bytes AND on repair latency, never re-floods, and repairs
                // every churn epoch.
                let vs = format!("{key}.incremental_vs_persistent");
                let mut claims = exp.claims(&vs).seed(seed);
                claims.below("repair_bytes", incr.repair_bytes, full.repair_bytes);
                claims.below("repair_waves", incr.repair_waves, full.repair_waves);
                let mut claims = exp.claims(&format!("{key}.incremental")).seed(seed);
                claims.equal("rebuilds", incr.rebuilds, 0u64);
                claims.equal("repairs", incr.repairs, epochs);
                for (total, arm) in totals.iter_mut().zip(&arms) {
                    total.repair_bytes += arm.repair_bytes;
                    total.repair_waves += arm.repair_waves;
                    total.rebuilds += arm.rebuilds;
                    total.repairs += arm.repairs;
                }
            }
            let n = reps as f64;
            for ((mode, _), arm) in modes.into_iter().zip(&totals) {
                exp.row(
                    &format!("{key}.{mode}"),
                    &[
                        Cell::text("size", 5, size.label),
                        Cell::text("churn", 6, rate_label),
                        Cell::text("mode", 12, mode),
                        Cell::eng("bytes", 10, arm.repair_bytes as f64 / n).key("repair_bytes"),
                        Cell::fixed("waves", 7, 1, arm.repair_waves as f64 / n).key("repair_waves"),
                        Cell::int("rebuilds", 8, arm.rebuilds).key("rebuilds"),
                        Cell::int("repairs", 8, arm.repairs).key("repairs"),
                    ],
                );
            }
            let [full, incr] = &totals;
            exp.set_scalar(
                format!("{key}.byte_ratio"),
                incr.repair_bytes as f64 / full.repair_bytes.max(1) as f64,
            );
        }
    }
    println!(
        "shape to check: the full-rebuild arm re-floods every sensor whenever a \
         carried node dies, so its repair bytes scale with n and its latency with \
         tree height x epochs; the incremental arm pays only for re-parented \
         nodes and one or two wavefronts per churn epoch — asserted strictly \
         cheaper on both axes for every seed at every churn level (byte_ratio \
         is the headline compression)."
    );

    // --- T18c: indexed matcher vs linear scan at scale. ---
    let n_services: usize = 20_000;
    let onto = Ontology::pervasive_grid();
    let mut rng = StdRng::seed_from_u64(42);
    let mut reg = Registry::new();
    let now = SimTime::from_secs(300);
    for (i, desc) in mixed_corpus(&onto, n_services, &mut rng)
        .into_iter()
        .enumerate()
    {
        // A fifth of the corpus holds an expired lease: the indexed path
        // must apply the same liveness filter the linear scan does.
        if i % 5 == 0 {
            reg.register_leased(desc, SimTime::from_secs(100));
        } else {
            reg.register(desc);
        }
    }
    println!("\nT18c: class-indexed matcher vs linear scan, {n_services} services");
    exp.table("identical hits asserted bit-for-bit; candidates = services consulted");
    let request_classes = [
        "PrinterService",
        "TemperatureSensor",
        "SensorService",
        "PdeSolverService",
        "Service",
    ];
    for class_name in request_classes {
        let class = onto.class(class_name).unwrap();
        let req =
            ServiceRequest::for_class(class).with_preference(Preference::Minimize("cost".into()));
        let hits_idx = reg.query_at(&onto, &req, now);
        let hits_lin = reg.query_linear_at(&onto, &req, now);
        let cand = reg.candidates(&onto, class).len();
        // Bit for bit the linear scan's hits; the root class consults the
        // whole registry, any other under a quarter of it.
        let key = format!("matcher.{}", key_part(class_name));
        let mismatches = (hits_idx.iter().zip(&hits_lin))
            .filter(|(a, b)| a.id != b.id || a.m.score.to_bits() != b.m.score.to_bits())
            .count();
        let mut claims = exp.claims(&key);
        claims.equal("index_vs_linear_hits", hits_idx.len(), hits_lin.len());
        claims.equal("index_vs_linear_mismatches", mismatches, 0usize);
        if class_name == "Service" {
            claims.equal("candidates_vs_registry", cand, reg.len());
        } else {
            claims.below("candidates_x4_vs_registry", 4 * cand, reg.len());
        }
        exp.set_scalar(
            format!("{key}.candidate_fraction"),
            cand as f64 / reg.len() as f64,
        );
        exp.row(
            &key,
            &[
                Cell::text("request class", 20, class_name),
                Cell::int("cand", 7, cand).key("candidates"),
                Cell::int("of", 7, reg.len()),
                Cell::int("hits", 6, hits_idx.len()).key("hits"),
            ],
        );
    }
    exp.set_counter("matcher.registry_size", reg.len() as u64);
    println!(
        "shape to check: specific classes consult only their ancestor/descendant \
         buckets (asserted under a quarter of the registry) yet return exactly \
         the hits the full scan finds; the root-class row is the control — its \
         candidate set is the whole registry by construction."
    );

    exp.finish()
}
