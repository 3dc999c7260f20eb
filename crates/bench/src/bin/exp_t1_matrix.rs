//! **T1** — the §4 measurement matrix: computation, data transfer, energy
//! consumption, and response time for every query type × solution model.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t1_matrix
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{key_part, standard_world, sweep, Cell, Experiment};
use pg_partition::exec::execute_once;
use pg_partition::model::SolutionModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t1_matrix");
    let reps: u64 = 10;
    let n: usize = 100;
    exp.set_meta("reps", reps.to_string());
    exp.set_meta("n", n.to_string());
    let queries = [
        ("simple", "SELECT temp FROM sensors WHERE sensor_id = 17"),
        ("aggregate", "SELECT AVG(temp) FROM sensors"),
        (
            "complex",
            "SELECT temperature_distribution() FROM sensors WHERE region(room210)",
        ),
        (
            "continuous",
            "SELECT AVG(temp) FROM sensors EPOCH DURATION 10 s",
        ),
    ];
    println!(
        "T1: cost matrix, {n}-sensor network, mean of {reps} seeds \
         (per-epoch costs for continuous)"
    );
    exp.table("query type x solution model");
    for (qname, qtext) in queries {
        let query = pg_query::parse(qtext).expect("valid query");
        for model in SolutionModel::candidates(n - 1) {
            let [e, t, b, o, d] = sweep(reps, |seed| {
                let mut w = standard_world(n, seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
                let out = execute_once(&mut w.ctx(), &query, model, &mut rng)
                    .expect("standard world answers all archetypes");
                let c = out.cost;
                [c.energy_j, c.time_s, c.bytes, c.ops, out.delivered_frac]
            });
            exp.row(
                &format!("{qname}.{}", key_part(&model.name())),
                &[
                    Cell::text("query", 10, qname),
                    Cell::text("model", 22, model.name()),
                    Cell::eng("energy J", 10, e).key("energy_j"),
                    Cell::eng("time s", 10, t).key("time_s"),
                    Cell::eng("bytes", 10, b).key("bytes"),
                    Cell::eng("ops", 10, o).key("ops"),
                    Cell::fixed("delivery", 8, 2, d).key("delivered_frac"),
                ],
            );
        }
        println!();
    }
    println!(
        "shape to check: aggregates cheapest in-network (tree), simple reads \
         cheapest at the base station, complex queries orders of magnitude \
         cheaper on the grid than in-network, and grid offload pure overhead \
         for non-complex queries."
    );
    exp.finish()
}
