//! **T5** — composition fault tolerance: success rate and utility under
//! rising service churn, centralized vs. distributed-reactive, with and
//! without replicas (§3's fault-tolerance and graceful-degradation claims).
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t5_faults
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{compose_runs, key_part, service_world, Cell, Experiment};
use pg_compose::manager::{ManagerKind, ServiceWorld};
use pg_discovery::ontology::Ontology;
use pg_net::churn::{ChurnProcess, ChurnSchedule};
use pg_sim::rng::RngStreams;
use pg_sim::SimTime;
use std::process::ExitCode;

fn world(onto: &Ontology, replicas: usize, availability: f64, seed: u64) -> ServiceWorld {
    let mut rng = RngStreams::new(seed).fork("churn");
    service_world(onto, replicas, || {
        if availability >= 1.0 {
            ChurnSchedule::always_up()
        } else {
            // mean_up/(mean_up+mean_down) = availability, cycle 120 s.
            let up = 120.0 * availability;
            ChurnProcess::new(up.max(1.0), (120.0 - up).max(1.0))
                .unwrap()
                .schedule(SimTime::from_secs(200_000), &mut rng)
        }
    })
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t5_faults");
    let runs: u64 = 40;
    exp.set_meta("runs", runs.to_string());
    let onto = Ontology::pervasive_grid();
    println!("T5: composition under churn ({runs} runs per cell, 5-step plan)");
    exp.table("success rate / mean utility / rebinds per run");
    for &avail in &[1.0, 0.9, 0.75, 0.5] {
        for &replicas in &[1usize, 3] {
            for kind in [ManagerKind::Centralized, ManagerKind::DistributedReactive] {
                let w = world(&onto, replicas, avail, 17);
                let c = compose_runs(&w, &onto, kind, runs, 900);
                exp.row(
                    &format!("a{avail}.r{replicas}.{}", key_part(kind.name())),
                    &[
                        Cell::fixed("availability", 12, 2, avail),
                        Cell::int("replicas", 8, replicas),
                        Cell::text("manager", 22, kind.name()),
                        Cell::fixed("success", 8, 2, c.success).key("success"),
                        Cell::fixed("utility", 8, 2, c.utility).key("utility"),
                        Cell::fixed("rebinds", 8, 2, c.rebinds).key("rebinds"),
                    ],
                );
            }
        }
        println!();
    }
    println!(
        "shape to check: success degrades gracefully (utility falls slower \
         than success); replication recovers most of the loss; the two \
         managers tie here because the center is up — T5b breaks that."
    );

    // --- T5b: the single point of failure. ---
    println!("\nT5b: center outage sensitivity (service availability fixed at 0.9, 3 replicas)");
    println!("(the centralized manager waits out center outages: the cost is latency)");
    exp.table("center availability sweep");
    for &center in &[1.0, 0.8, 0.5, 0.2] {
        for kind in [ManagerKind::Centralized, ManagerKind::DistributedReactive] {
            let mut w = world(&onto, 3, 0.9, 31);
            if center < 1.0 {
                let streams = RngStreams::new(31);
                let up: f64 = 300.0 * center;
                w.center_churn = ChurnProcess::new(up.max(1.0), (300.0 - up).max(1.0))
                    .unwrap()
                    .schedule(SimTime::from_secs(200_000), &mut streams.fork("center"));
            }
            let c = compose_runs(&w, &onto, kind, runs, 900);
            exp.row(
                &format!("center{center}.{}", key_part(kind.name())),
                &[
                    Cell::fixed("center avail", 12, 2, center),
                    Cell::text("manager", 22, kind.name()),
                    Cell::fixed("success", 8, 2, c.success).key("success"),
                    Cell::eng("latency s", 10, c.latency_s).key("latency_s"),
                ],
            );
        }
    }
    println!(
        "\nshape to check: the distributed manager's latency is flat across \
         the sweep; the centralized manager's latency blows up as its center \
         spends more time down (every stalled step waits for the center)."
    );
    exp.finish()
}
