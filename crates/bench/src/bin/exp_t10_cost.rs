//! **T10** — the COST clause: how budgets steer (and gate) placement
//! ("We have also introduced the COST clause to specify the cost within
//! which the function is to be evaluated. Cost could be in terms of sensor
//! energy, response time or accuracy of the result." — §4).
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t10_cost
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{key_part, standard_world, Cell, Experiment};
use pg_partition::decide::{DecisionConfig, DecisionMaker, Policy};
use pg_partition::exec::{execute_once, resolve};
use pg_partition::learn::Reward;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const N: usize = 100;

fn run_bound(clause: &str, reps: u64) -> (f64, String, f64, f64) {
    // Returns (acceptance rate, modal model, mean energy, mean time).
    let mut accepted = 0u32;
    let mut models: Vec<String> = Vec::new();
    let mut energy = 0.0;
    let mut time = 0.0;
    for seed in 0..reps {
        let mut w = standard_world(N, seed);
        let mut dm = DecisionMaker::with_config(
            Policy::Adaptive,
            seed,
            DecisionConfig {
                epsilon: 0.0,
                ..DecisionConfig::default()
            },
        );
        let text = format!("SELECT AVG(temp) FROM sensors{clause}");
        let query = pg_query::parse(&text).expect("valid query");
        let resolved = resolve(&w.net, &w.regions, &query).expect("selects every sensor");
        let features = resolved.features;
        // Warm the learner with three unbounded runs so its predictions are
        // grounded in actuals before the bounded decision. The learner sees
        // the bounded query's features throughout.
        let warm = pg_query::parse("SELECT AVG(temp) FROM sensors").unwrap();
        let warm_resolved = resolve(&w.net, &w.regions, &warm).expect("selects every sensor");
        for i in 0..3u64 {
            if let Ok(m) = dm.choose(&w.net, &w.grid, &warm, &features) {
                let mut rng = StdRng::seed_from_u64(seed * 100 + i);
                let out = execute_once(&mut w.ctx(), &warm, &warm_resolved, m, &mut rng);
                dm.observe(&w.net, &w.grid, features, m, Reward::from_cost(out.cost));
            }
        }
        if let Ok(model) = dm.choose(&w.net, &w.grid, &query, &features) {
            accepted += 1;
            models.push(model.name());
            let mut rng = StdRng::seed_from_u64(seed);
            let out = execute_once(&mut w.ctx(), &query, &resolved, model, &mut rng);
            energy += out.cost.energy_j;
            time += out.cost.time_s;
        }
    }
    let modal = if models.is_empty() {
        "(rejected)".to_string()
    } else {
        let mut counts = std::collections::BTreeMap::new();
        for m in &models {
            *counts.entry(m.clone()).or_insert(0u32) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .map(|(m, _)| m)
            .unwrap()
    };
    let k = accepted.max(1) as f64;
    (accepted as f64 / reps as f64, modal, energy / k, time / k)
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t10_cost");
    let reps: u64 = 10;
    exp.set_meta("reps", reps.to_string());
    println!("T10: COST-bounded aggregate query on a {N}-sensor network ({reps} seeds)");
    exp.table("acceptance and steering per bound");
    for clause in [
        "",
        " COST energy 1.0",
        " COST energy 0.005",
        " COST energy 0.0005",
        " COST energy 0.000000001",
        " COST time 60",
        " COST time 0.3",
        " COST time 0.00001",
        " COST energy 0.01, time 1.0",
    ] {
        let (acc, modal, e, t) = run_bound(clause, reps);
        let label = if clause.is_empty() {
            "(none)"
        } else {
            clause.trim()
        };
        let cell = if clause.is_empty() {
            "unbounded".to_string()
        } else {
            key_part(clause)
        };
        exp.row(
            &cell,
            &[
                Cell::text("COST clause", 32, label),
                Cell::fixed("accepted", 9, 2, acc).key("acceptance"),
                Cell::text("modal model", 22, modal).key("modal_model"),
                Cell::eng("energy J", 10, e).key("energy_j"),
                Cell::eng("time s", 9, t).key("time_s"),
            ],
        );
    }
    println!(
        "\nshape to check: generous bounds accept with the unconstrained \
         choice; a tight energy bound steers toward in-network aggregation; \
         a tight time bound steers away from slow placements; impossible \
         bounds are rejected outright (acceptance 0) without draining the \
         network."
    );
    exp.finish()
}
