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

    // --- T7b: discovery scalability: the services the matcher consults. ---
    println!("\nT7b: composition-time discovery cost vs registry size");
    exp.table("one 5-role composition; candidates = services the matcher consults");
    let registry_sizes: &[usize] = &[100, 1_000, 10_000];
    let mut per_service = Vec::new();
    for &n in registry_sizes {
        let mut rng = StdRng::seed_from_u64(11);
        let corpus = mixed_corpus(&onto, n, &mut rng);
        let mut reg = pg_discovery::registry::Registry::new();
        for d in corpus {
            reg.register(d);
        }
        let mut role_hits = 0u64;
        let mut candidates = 0usize;
        for step in &plan.steps {
            let class = onto.class(&step.role.class).unwrap();
            let req = ServiceRequest::for_class(class);
            role_hits += reg.query(&onto, &req).len() as u64;
            candidates += reg.candidates(&onto, class).len();
        }
        exp.set_counter(format!("registry.n{n}.role_hits"), role_hits);
        per_service.push(candidates as f64 / n as f64);
        exp.row(
            &format!("registry.n{n}"),
            &[
                Cell::int("services", 9, n),
                Cell::int("candidates", 11, candidates).key("candidates"),
            ],
        );
    }
    // Linear in n: candidates per service within a quarter of their mean
    // (with tenfold steps, they also grow).
    let mean = per_service.iter().sum::<f64>() / per_service.len() as f64;
    for (&n, &rate) in registry_sizes.iter().zip(&per_service) {
        let mut claims = exp.claims(&format!("registry.n{n}"));
        claims.at_least("per_service_vs_low", rate, 0.75 * mean);
        claims.at_most("per_service_vs_high", rate, 1.25 * mean);
    }
    println!(
        "\nshape to check: availability degrades with churn *speed* at fixed \
         long-run availability; discovery cost scales linearly with registry \
         size (each composition pays 5 matcher passes)."
    );
    exp.finish()
}
