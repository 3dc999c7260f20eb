//! **T2** — in-network aggregation savings vs. network size (the TAG shape
//! §4 builds on): energy per epoch for direct / cluster / tree collection
//! as the network grows.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t2_aggregation
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{standard_world, sweep, Cell, Experiment};
use pg_partition::exec::{execute_once, resolve};
use pg_partition::model::SolutionModel;
use pg_sensornet::cluster::default_head_count;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t2_aggregation");
    let reps: u64 = 10;
    let sizes: &[usize] = &[25, 50, 100, 200, 400];
    exp.set_meta("reps", reps.to_string());
    println!("T2: aggregate-query energy vs network size (AVG over all sensors, one epoch)");
    exp.table(&format!("mean of {reps} seeds"));
    let query = pg_query::parse("SELECT AVG(temp) FROM sensors").expect("parses");
    for &n in sizes {
        // One epoch per (solution model, seed): `[energy J, bytes on air]`.
        let run = |model: SolutionModel| {
            sweep(reps, |seed| {
                let mut w = standard_world(n, seed);
                let resolved = resolve(&w.net, &w.regions, &query).expect("selects every sensor");
                let mut rng = StdRng::seed_from_u64(seed ^ 0xAA);
                let out = execute_once(&mut w.ctx(), &query, &resolved, model, &mut rng);
                [out.cost.energy_j, out.cost.bytes]
            })
        };
        let [direct, db] = run(SolutionModel::BaseStation);
        let [cluster, _] = run(SolutionModel::InNetworkCluster {
            heads: default_head_count(n - 1),
        });
        let [tree, tb] = run(SolutionModel::InNetworkTree);
        exp.row(
            &format!("n{n}"),
            &[
                Cell::int("n", 5, n),
                Cell::eng("direct J", 11, direct).key("direct_j"),
                Cell::eng("cluster J", 11, cluster).key("cluster_j"),
                Cell::eng("tree J", 11, tree).key("tree_j"),
                Cell::fixed("tree/direct", 11, 2, tree.mean() / direct.mean())
                    .key("tree_over_direct"),
                Cell::eng("direct B", 11, db).key("direct_bytes"),
                Cell::eng("tree B", 11, tb).key("tree_bytes"),
            ],
        );
    }
    println!(
        "\nshape to check: tree/direct ratio falls as n grows (in-network \
         aggregation pays off more the bigger the network — TAG's result); \
         direct bytes grow superlinearly (hop count grows), tree bytes \
         linearly (one partial per node)."
    );
    exp.finish()
}
