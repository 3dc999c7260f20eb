//! **A1** — ablation of the adaptive decision maker's design choices
//! (DESIGN.md §3): distance-weighted estimator blending and safe
//! exploration, on the T3 query stream.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_a1_ablation
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{run_mixed_stream, Cell, Experiment};
use pg_partition::decide::{DecisionConfig, Policy};
use std::process::ExitCode;

const N: usize = 100;

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_a1_ablation");
    let stream_len: usize = 400;
    let seeds: u64 = 3;
    exp.set_meta("stream_len", stream_len.to_string());
    exp.set_meta("seeds", seeds.to_string());
    println!("A1: decision-maker ablation on a {stream_len}-query stream ({N} sensors)");
    exp.table(&format!("mean total scalar cost over {seeds} seeds"));
    let mean = |blend, safe, eps| {
        let config = DecisionConfig {
            epsilon: eps,
            blend,
            safe_explore: safe,
        };
        (0..seeds)
            .map(|s| run_mixed_stream(Policy::Adaptive, config, N, 11 + s, stream_len, 0).0)
            .sum::<f64>()
            / seeds as f64
    };
    let full = mean(true, true, 0.1);
    let rows = [
        ("full", "full (blend + safe eps-greedy)", full),
        (
            "no_blend",
            "no estimator blending (pure k-NN)",
            mean(false, true, 0.1),
        ),
        (
            "no_safe",
            "no safe exploration (uniform eps)",
            mean(true, false, 0.1),
        ),
        ("neither", "neither", mean(false, false, 0.1)),
        (
            "eps0",
            "no exploration at all (eps = 0)",
            mean(true, true, 0.0),
        ),
        (
            "eps0.5",
            "heavy exploration (eps = 0.5)",
            mean(true, true, 0.5),
        ),
    ];
    for (key, name, cost) in rows {
        exp.row(
            key,
            &[
                Cell::text("variant", 38, name),
                Cell::eng("total cost", 11, cost).key("total_cost"),
                Cell::percent("vs full", 9, 0, (cost - full) / full).key("vs_full"),
            ],
        );
    }
    println!(
        "\nshape to check: removing blending costs the most (the first \
         Complex query is placed by extrapolated k-NN and lands in-network); \
         removing safe exploration costs every exploratory complex query; \
         eps = 0 is competitive here because the estimator's ranking is \
         already correct for this workload — exploration buys robustness, \
         not raw cost."
    );
    exp.finish()
}
