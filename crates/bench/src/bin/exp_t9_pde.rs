//! **T9** — the Complex-query substrate: PDE solver comparison and the
//! accuracy-vs-data-reduction trade §4 describes
//! ("instead of sending each sensor reading to the grid, one might only
//! send the average reading from a region").
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t9_pde
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_bench::{key_part, standard_world, Cell, Experiment, Value};
use pg_grid::pde::{Problem, Solver};
use pg_grid::reduction;
use pg_net::geom::Point;
use pg_net::topology::NodeId;
use pg_partition::exec::{execute_once, resolve};
use pg_partition::model::SolutionModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn make_problem(n: usize) -> Problem {
    let mut p = Problem::new(n, n, n, Point::flat(0.0, 0.0), 1.0, 20.0);
    // A hot spot and a cold spot pin the interior.
    let c = (n / 2) as f64;
    p.add_constraint(&Point::new(c, c, c), 400.0);
    p.add_constraint(&Point::new(c / 2.0, c / 2.0, c), 5.0);
    p
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t9_pde");

    // --- T9a: solver comparison by §4's "amount of computation". ---
    let tol = 1e-6;
    println!("T9a: solver comparison on the reconstruction problem (tol 1e-6)");
    exp.table("ops = estimated floating-point operations");
    let grids: &[usize] = &[24, 32, 48];
    for &n in grids {
        let p = make_problem(n);
        let [jacobi, rbgs, sor, cg] = [
            Solver::Jacobi,
            Solver::RedBlackGaussSeidel,
            Solver::Sor { omega_x100: 185 },
            Solver::ConjugateGradient,
        ]
        .map(|solver| {
            let (_, stats) = p.solve(solver, tol, 20_000);
            let key = format!("solver.n{n}.{}", key_part(solver.name()));
            exp.claims(&key)
                .at_most("residual_vs_tol", stats.residual, tol);
            exp.row(
                &key,
                &[
                    Cell::text("grid", 8, format!("{n}^3")),
                    Cell::text("solver", 8, solver.name()),
                    Cell::int("iters", 7, stats.iterations).key("iterations"),
                    Cell::int("ops", 11, stats.ops).key("ops"),
                    Cell::eng("residual", 10, stats.residual).key("residual"),
                ],
            );
            stats
        });
        // Red-black Gauss-Seidel halves Jacobi's sweeps, CG takes 8x fewer,
        // and SOR does the fewest operations.
        let (j, r, c) = (jacobi.iterations, rbgs.iterations, cg.iterations);
        let mut claims = exp.claims(&format!("solver.n{n}"));
        claims.equal("rbgs_x2_vs_jacobi_iterations", 2 * r, j);
        claims.at_most("cg_x8_vs_jacobi_iterations", 8 * c, j);
        let fewest_other_ops = [jacobi, rbgs, cg].iter().map(|s| s.ops).min().unwrap();
        claims.below("sor_vs_fewest_other_ops", sor.ops, fewest_other_ops);
        println!();
    }

    // --- T9b: accuracy vs region-averaging reduction. ---
    let reps: u64 = 5;
    let arena: usize = 200;
    exp.set_meta("reps", reps.to_string());
    exp.set_meta("arena_n", arena.to_string());
    println!("T9b: accuracy vs data reduction for the grid-offloaded Complex query");
    exp.table(&format!(
        "{arena}-sensor arena, mean of {reps} seeds (backhaul B = bytes shipped to the grid)"
    ));
    let cells: &[f64] = &[0.0, 10.0, 20.0, 40.0, 80.0];
    for &cell in cells {
        let mut bytes = 0.0;
        let mut err = 0.0;
        let mut count_readings = 0.0;
        for seed in 0..reps {
            let mut w = standard_world(arena, seed);
            let query = pg_query::parse("SELECT temperature_distribution() FROM sensors")
                .expect("valid query");
            let resolved = resolve(&w.net, &w.regions, &query).expect("selects every sensor");
            let mut rng = StdRng::seed_from_u64(seed);
            let out = execute_once(
                &mut w.ctx(),
                &query,
                &resolved,
                SolutionModel::GridOffload {
                    reduction_cell_m: cell,
                },
                &mut rng,
            );
            err += out.accuracy_err.unwrap_or(f64::NAN) / reps as f64;
            // Post-reduction constraint count and backhaul payload,
            // computed analytically over the deployment positions.
            let topo = w.net.topology();
            let readings: Vec<(Point, f64)> = (0..arena as u32 - 1)
                .map(|i| (topo.position(NodeId(i)), 0.0))
                .collect();
            let reduced = reduction::reduce_readings(&readings, cell).len();
            count_readings += reduced as f64 / reps as f64;
            bytes += reduction::wire_bytes(reduced) as f64 / reps as f64;
        }
        // A NaN error is printed but not recorded: the report emitter
        // rejects non-finite values.
        let rel_rmse: Value = if err.is_finite() {
            err.into()
        } else {
            err.to_string().into()
        };
        exp.row(
            &format!("reduction.cell{cell}"),
            &[
                Cell::text("cell m", 7, cell.to_string()),
                Cell::eng("readings", 9, count_readings).key("readings"),
                Cell::eng("backhaul B", 11, bytes).key("backhaul_bytes"),
                Cell::fixed("rel RMSE", 9, 4, rel_rmse).key("rel_rmse"),
            ],
        );
    }
    println!(
        "\nshape to check: CG converges in far fewer iterations than Jacobi \
         (RBGS in between, at exactly half Jacobi's sweeps) and SOR does the \
         fewest operations; coarser reduction cells cut bytes while relative RMSE \
         climbs — the paper's accuracy knob."
    );
    exp.finish()
}
