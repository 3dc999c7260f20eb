//! **T8** — partition crossover: where each solution model wins as the
//! computation intensity of the query grows (§4: "Some queries may involve
//! performing a lot of computation … Such queries are best solved by [the
//! grid]. Some very frequent queries may require less computation … The
//! [in-network] approach would work best … Some queries which fall between
//! … may be best solved by [the base station].").
//!
//! The sweep runs the Complex query over growing regions: the PDE problem
//! (and hence ops) scales with region volume while the data volume scales
//! with member count.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t8_crossover
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{standard_world, Cell, Experiment};
use pg_partition::exec::{execute_once, resolve};
use pg_partition::model::SolutionModel;
use pg_sensornet::region::Region;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const LABELS: [&str; 3] = ["in-net", "base", "grid"];

/// Mean response time per solution model, and the grid model's mean ops,
/// for `text` run over the region covering `frac` of each arena side.
fn measure(n: usize, reps: u64, frac: f64, text: &str) -> ([f64; 3], f64) {
    let query = pg_query::parse(text).expect("valid query");
    let mut times = [0.0f64; 3];
    let mut ops = 0.0;
    for seed in 0..reps {
        for (i, model) in [
            SolutionModel::InNetworkTree,
            SolutionModel::BaseStation,
            SolutionModel::GridOffload {
                reduction_cell_m: 0.0,
            },
        ]
        .into_iter()
        .enumerate()
        {
            let mut w = standard_world(n, seed);
            let side = ((n as f64) * 100.0).sqrt();
            w.regions.insert(
                "sweep".to_string(),
                Region::room(0.0, 0.0, side * frac, side * frac),
            );
            let resolved = resolve(&w.net, &w.regions, &query).expect("every region holds sensors");
            let mut rng = StdRng::seed_from_u64(seed);
            let out = execute_once(&mut w.ctx(), &query, &resolved, model, &mut rng);
            times[i] += out.cost.time_s / reps as f64;
            if i == 2 {
                ops += out.cost.ops / reps as f64;
            }
        }
    }
    (times, ops)
}

fn winner(times: &[f64; 3]) -> &'static str {
    LABELS[times
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0]
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t8_crossover");
    let n: usize = 200;
    let reps: u64 = 5;
    exp.set_meta("n", n.to_string());
    exp.set_meta("reps", reps.to_string());
    println!("T8: response time per solution model as computation intensity grows");
    println!("({n} sensors; Complex query over growing regions of the arena)");
    exp.table(&format!("response time seconds (mean of {reps} seeds)"));
    let fracs: &[f64] = &[0.1, 0.25, 0.5, 0.75, 1.0];
    for &frac in fracs {
        let (times, ops) = measure(
            n,
            reps,
            frac,
            "SELECT temperature_distribution() FROM sensors WHERE region(sweep)",
        );
        let pct = (frac * 100.0).round() as u32;
        exp.row(
            &format!("complex.region{pct}"),
            &[
                Cell::text("region %", 9, format!("{pct}%")),
                Cell::eng("ops", 10, ops).key("ops"),
                Cell::eng("in-net s", 10, times[0]).key("in_net_time_s"),
                Cell::eng("base s", 10, times[1]).key("base_time_s"),
                Cell::eng("grid s", 10, times[2]).key("grid_time_s"),
                Cell::text("winner", 8, winner(&times)).key("winner"),
            ],
        );
    }

    // The low end of the spectrum: a cheap aggregate over the same regions.
    println!("\nT8b: the cheap end (Aggregate query, same regions)");
    exp.table(&format!("response time seconds (mean of {reps} seeds)"));
    for frac in [0.25f64, 1.0] {
        let (times, _) = measure(
            n,
            reps,
            frac,
            "SELECT AVG(temp) FROM sensors WHERE region(sweep)",
        );
        let pct = (frac * 100.0).round() as u32;
        exp.row(
            &format!("aggregate.region{pct}"),
            &[
                Cell::text("region %", 9, format!("{pct}%")),
                Cell::eng("in-net s", 10, times[0]).key("in_net_time_s"),
                Cell::eng("base s", 10, times[1]).key("base_time_s"),
                Cell::eng("grid s", 10, times[2]).key("grid_time_s"),
                Cell::text("winner", 8, winner(&times)).key("winner"),
            ],
        );
    }
    println!(
        "\nshape to check: in-network wins the cheap aggregates; the grid \
         pulls ahead of the base station as the PDE grows (its compute-time \
         share shrinks while the PDA's explodes); in-network is never \
         competitive for Complex queries."
    );
    exp.finish()
}
