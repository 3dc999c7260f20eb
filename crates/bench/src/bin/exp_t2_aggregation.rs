//! **T2** — in-network aggregation savings vs. network size (the TAG shape
//! §4 builds on): energy per epoch for direct / cluster / tree collection
//! as the network grows.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t2_aggregation [-- --smoke]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::standard_world;
use pg_bench::{fmt, header, replicate, Experiment};
use pg_sensornet::aggregate::AggFn;
use pg_sensornet::cluster::default_head_count;
use pg_sensornet::epoch::Strategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t2_aggregation");
    let reps: u64 = exp.scale(10, 3);
    let sizes: &[usize] = exp.scale(&[25, 50, 100, 200, 400], &[25, 50, 100]);
    exp.set_meta("reps", reps.to_string());
    println!("T2: aggregate-query energy vs network size (AVG over all sensors, one epoch)");
    header(
        &format!("mean of {reps} seeds"),
        &[
            ("n", 5),
            ("direct J", 11),
            ("cluster J", 11),
            ("tree J", 11),
            ("tree/direct", 11),
            ("direct B", 11),
            ("tree B", 11),
        ],
    );
    for &n in sizes {
        let run = |strategy: Strategy| {
            move |seed: u64| {
                let mut w = standard_world(n, seed);
                let members: Vec<_> = w
                    .net
                    .topology()
                    .nodes()
                    .filter(|&x| x != w.net.base())
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xAA);
                let r =
                    strategy.run_epoch(&mut w.net, &members, &w.field, w.now, AggFn::Avg, &mut rng);
                r.energy_j
            }
        };
        let bytes = |strategy: Strategy| {
            move |seed: u64| {
                let mut w = standard_world(n, seed);
                let members: Vec<_> = w
                    .net
                    .topology()
                    .nodes()
                    .filter(|&x| x != w.net.base())
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xAA);
                let r =
                    strategy.run_epoch(&mut w.net, &members, &w.field, w.now, AggFn::Avg, &mut rng);
                r.total_bytes as f64
            }
        };
        let direct = replicate(reps, run(Strategy::Direct));
        let cluster = replicate(
            reps,
            run(Strategy::Cluster {
                heads: default_head_count(n - 1),
            }),
        );
        let tree = replicate(reps, run(Strategy::Tree));
        let db = replicate(reps, bytes(Strategy::Direct));
        let tb = replicate(reps, bytes(Strategy::Tree));
        exp.record_summary(format!("n{n}.direct_j"), &direct);
        exp.record_summary(format!("n{n}.cluster_j"), &cluster);
        exp.record_summary(format!("n{n}.tree_j"), &tree);
        exp.record_summary(format!("n{n}.direct_bytes"), &db);
        exp.record_summary(format!("n{n}.tree_bytes"), &tb);
        exp.set_scalar(
            format!("n{n}.tree_over_direct"),
            tree.mean() / direct.mean(),
        );
        println!(
            "{n:>5}  {:>11}  {:>11}  {:>11}  {:>11}  {:>11}  {:>11}",
            fmt(direct.mean()),
            fmt(cluster.mean()),
            fmt(tree.mean()),
            format!("{:.2}", tree.mean() / direct.mean()),
            fmt(db.mean()),
            fmt(tb.mean()),
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
