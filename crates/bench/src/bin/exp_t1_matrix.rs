//! **T1** — the §4 measurement matrix: computation, data transfer, energy
//! consumption, and response time for every query type × solution model.
//!
//! Each query runs as the pipeline runs it (`execute_query`: one execution,
//! or five epochs for the continuous one). The binary asserts the matrix's
//! shape on the seed means and exits non-zero when it breaks.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t1_matrix
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{key_part, standard_world, sweep, Cell, Experiment};
use pg_core::runtime::execute_query;
use pg_partition::exec::resolve;
use pg_partition::model::SolutionModel;
use pg_sim::metrics::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// How far row `b` sits above `factor ×` row `a` on `axis`, both one
/// `[energy, time, bytes, ops, delivery]` per seed: the mean per-seed
/// difference less twice its standard error. Positive when `factor × a` is
/// below `b` by more than the seeds' spread.
fn gap(a: &[[f64; 5]], b: &[[f64; 5]], axis: usize, factor: f64) -> f64 {
    let mut d = Summary::new();
    for (a, b) in a.iter().zip(b) {
        d.record(b[axis] - factor * a[axis]);
    }
    d.mean() - 2.0 * d.stddev() / (d.count() as f64).sqrt()
}

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
    // Per query, per model in candidate order, the per-seed rows.
    let mut runs: Vec<Vec<Vec<[f64; 5]>>> = Vec::new();
    for (qname, qtext) in queries {
        let query = pg_query::parse(qtext).expect("valid query");
        runs.push(Vec::new());
        for model in SolutionModel::candidates(n - 1) {
            let mut seeds = Vec::new();
            let [e, t, b, o, d] = sweep(reps, |seed| {
                let mut w = standard_world(n, seed);
                let resolved = resolve(&w.net, &w.regions, &query)
                    .expect("standard world selects every archetype");
                let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
                let out = execute_query(&mut w.ctx(), &query, &resolved, model, &mut rng);
                let c = out.cost;
                let row = [c.energy_j, c.time_s, c.bytes, c.ops, out.delivered_frac];
                seeds.push(row);
                row
            });
            runs.last_mut().unwrap().push(seeds);
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

    // The shape, on the seed means; rows in `SolutionModel::candidates` order.
    let (simple, aggregate, complex) = (&runs[0], &runs[1], &runs[2]);
    let (tree, cluster, base, grid, hybrid) = (0, 1, 2, 3, 4);
    let (energy, time, bytes) = (0, 1, 2);
    for (a, b) in [(tree, base), (tree, grid), (cluster, base), (cluster, grid)] {
        for axis in [energy, bytes] {
            let g = gap(&aggregate[a], &aggregate[b], axis, 1.0);
            assert!(
                g > 0.0,
                "aggregate: row {a} must beat row {b} on axis {axis}"
            );
        }
    }
    for (m, row) in simple.iter().enumerate() {
        for axis in 0..4 {
            let g = gap(&simple[base], row, axis, 1.0);
            assert!(
                g >= 0.0,
                "simple: base station above row {m} on axis {axis}"
            );
        }
    }
    let g = gap(&complex[grid], &complex[tree], energy, 100.0);
    assert!(
        g > 0.0,
        "complex: grid must spend 100x less energy than in-network"
    );
    let g = gap(&complex[grid], &complex[tree], time, 1.0);
    assert!(g > 0.0, "complex: grid must be faster than in-network");
    for axis in 0..4 {
        let g = gap(&complex[hybrid], &complex[grid], axis, 1.0);
        assert!(g > 0.0, "complex: hybrid must beat grid on axis {axis}");
    }
    for q in [simple, aggregate] {
        let (b, g) = (&q[base], &q[grid]);
        let same_energy = gap(b, g, energy, 1.0) >= 0.0 && gap(g, b, energy, 1.0) >= 0.0;
        assert!(
            same_energy,
            "grid offload must spend the base station's energy"
        );
        assert!(gap(b, g, time, 1.0) > 0.0, "grid offload must add time");
    }

    println!(
        "shape to check: aggregates cheapest in-network (tree), simple reads \
         cheapest at the base station, complex queries orders of magnitude \
         cheaper on the grid than in-network, and grid offload pure overhead \
         for non-complex queries."
    );
    exp.finish()
}
