//! **T1** — the §4 measurement matrix: computation, data transfer, energy
//! consumption, and response time for every query type × solution model.
//!
//! Each query runs as the pipeline runs it (`execute_query`: one execution,
//! or five epochs for the continuous one). The binary claims the matrix's
//! shape on the seed means and exits non-zero when it breaks. The Simple
//! archetype reads sensor 17, or the next id in a world whose base station
//! is node 17.
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
        (
            "simple",
            "SELECT temp FROM sensors WHERE sensor_id = {sensor}",
        ),
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
        runs.push(Vec::new());
        for model in SolutionModel::candidates(n - 1) {
            let mut seeds = Vec::new();
            let [e, t, b, o, d] = sweep(reps, |seed| {
                let mut w = standard_world(n, seed);
                let text = qtext.replace("{sensor}", &w.simple_sensor().to_string());
                let query = pg_query::parse(&text).expect("valid query");
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

    // The shape, on the seed means; rows in `SolutionModel::candidates`
    // order. Claim `<group>.<a>_vs_<b>.<axis>` is `gap` above 0 (`strict`)
    // or at least 0: row `a` (times `factor`) sits below row `b`.
    let models: Vec<String> = (SolutionModel::candidates(n - 1).iter())
        .map(|m| key_part(&m.name()))
        .collect();
    let (tree, cluster, base, grid, hybrid) = (0, 1, 2, 3, 4);
    let (energy, time, bytes) = (0, 1, 2);
    let mut claim = |group: &str, q: usize, (a, b): (usize, usize), axis, factor: f64, strict| {
        let x = if factor == 1.0 {
            String::new()
        } else {
            format!("_x{factor}")
        };
        let axis_name = ["energy_j", "time_s", "bytes", "ops"][axis];
        let name = format!("{}{x}_vs_{}.{axis_name}", models[a], models[b]);
        let g = gap(&runs[q][a], &runs[q][b], axis, factor);
        let mut claims = exp.claims(group);
        if strict {
            claims.above(&name, g, 0.0);
        } else {
            claims.at_least(&name, g, 0.0);
        }
    };
    for pair in [(tree, base), (tree, grid), (cluster, base), (cluster, grid)] {
        claim("aggregate", 1, pair, energy, 1.0, true);
        claim("aggregate", 1, pair, bytes, 1.0, true);
    }
    for m in (0..models.len()).filter(|&m| m != base) {
        (0..4).for_each(|axis| claim("simple", 0, (base, m), axis, 1.0, false));
    }
    claim("complex", 2, (grid, tree), energy, 100.0, true);
    claim("complex", 2, (grid, tree), time, 1.0, true);
    (0..4).for_each(|axis| claim("complex", 2, (hybrid, grid), axis, 1.0, true));
    // Grid offload spends the base station's energy and adds time.
    for (group, q) in [("simple.offload", 0), ("aggregate.offload", 1)] {
        claim(group, q, (base, grid), energy, 1.0, false);
        claim(group, q, (grid, base), energy, 1.0, false);
        claim(group, q, (base, grid), time, 1.0, true);
    }

    println!(
        "shape to check: aggregates cheapest in-network (tree), simple reads \
         cheapest at the base station, complex queries orders of magnitude \
         cheaper on the grid than in-network, and grid offload pure overhead \
         for non-complex queries."
    );
    exp.finish()
}
