//! **T7** — scalability and churn: composition availability as services
//! come and go faster ("smartdust type environments", §3), and matcher
//! cost as the registry population grows.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t7_churn
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{compose_runs, service_world, Cell, Experiment};
use pg_compose::htn::MethodLibrary;
use pg_compose::manager::ManagerKind;
use pg_discovery::corpus::mixed_corpus;
use pg_discovery::description::ServiceRequest;
use pg_discovery::ontology::Ontology;
use pg_net::churn::ChurnProcess;
use pg_sim::rng::RngStreams;
use pg_sim::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t7_churn");
    let runs: u64 = 40;
    exp.set_meta("runs", runs.to_string());
    let onto = Ontology::pervasive_grid();
    let plan = MethodLibrary::pervasive_grid()
        .decompose("temperature-distribution")
        .unwrap();

    // --- T7a: availability vs churn cycle time (availability fixed 0.75). ---
    println!("T7a: composite availability vs churn speed (availability 0.75, 3 replicas/role)");
    exp.table("distributed reactive manager");
    for cycle in [600.0f64, 120.0, 30.0, 8.0] {
        let mut rng = RngStreams::new(3).fork("churn");
        let w = service_world(&onto, 3, || {
            ChurnProcess::new(cycle * 0.75, cycle * 0.25)
                .unwrap()
                .schedule(SimTime::from_secs(200_000), &mut rng)
        });
        let c = compose_runs(&w, &onto, ManagerKind::DistributedReactive, runs, 1_000);
        exp.row(
            &format!("cycle{cycle}"),
            &[
                Cell::text("cycle s", 8, cycle.to_string()),
                Cell::fixed("success", 8, 2, c.success).key("success"),
                Cell::fixed("utility", 8, 2, c.utility).key("utility"),
                Cell::fixed("rebinds", 8, 2, c.rebinds).key("rebinds"),
            ],
        );
    }
    println!(
        "(fast churn relative to the 2 s step time breaks executions mid-step \
         even at the same long-run availability)"
    );

    // --- T7b: discovery scalability with registry size. ---
    // Wall clock stays on stdout; the report records the (deterministic)
    // per-composition hit totals.
    println!("\nT7b: composition-time discovery cost vs registry size");
    exp.table("one 5-role composition, wall clock");
    let registry_sizes: &[usize] = &[100, 1_000, 10_000];
    for &n in registry_sizes {
        let mut rng = StdRng::seed_from_u64(11);
        let corpus = mixed_corpus(&onto, n, &mut rng);
        let mut reg = pg_discovery::registry::Registry::new();
        for d in corpus {
            reg.register(d);
        }
        // Count the hits of the five role queries once (deterministic).
        let mut role_hits = 0u64;
        for step in &plan.steps {
            let class = onto.class(&step.role.class).unwrap();
            let req = ServiceRequest::for_class(class);
            role_hits += reg.query(&onto, &req).len() as u64;
        }
        exp.set_counter(format!("registry.n{n}.role_hits"), role_hits);
        // Time the five role queries of the plan.
        let t0 = Instant::now();
        const ROUNDS: u32 = 20;
        for _ in 0..ROUNDS {
            for step in &plan.steps {
                let class = onto.class(&step.role.class).unwrap();
                let req = ServiceRequest::for_class(class);
                let _ = reg.query(&onto, &req);
            }
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
        exp.row(
            "",
            &[
                Cell::int("services", 9, n),
                Cell::eng("discovery us", 13, us),
            ],
        );
    }
    println!(
        "\nshape to check: availability degrades with churn *speed* at fixed \
         long-run availability; discovery cost scales linearly with registry \
         size (each composition pays 5 matcher passes)."
    );
    exp.finish()
}
