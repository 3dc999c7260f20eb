//! Property-based tests for the grid substrate: solver correctness,
//! reduction invariants, scheduler bounds.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_grid::pde::{Problem, Solver};
use pg_grid::reduction::{reduce_readings, Reading};
use pg_grid::sched::{GridCluster, GridNode, Job};
use pg_net::geom::Point;
use pg_net::link::LinkModel;
use propcheck::{check, Gen};

/// `(x, y, z, value)` inside a 10-cube interior.
fn constraints(g: &mut Gen, max: usize) -> Vec<(f64, f64, f64, f64)> {
    g.vec(1..max, |g| {
        (
            g.range(1.0..9.0),
            g.range(1.0..9.0),
            g.range(1.0..9.0),
            g.range(-50.0..400.0),
        )
    })
}

/// The discrete maximum principle: the harmonic interpolant lies within
/// the range of its boundary + constraint values, for any constraints.
#[test]
fn maximum_principle() {
    check("maximum_principle", 24, |g| {
        let cs = constraints(g, 6);
        let boundary = g.range(-20.0f64..40.0);
        let mut p = Problem::new(11, 11, 11, Point::flat(0.0, 0.0), 1.0, boundary);
        let mut lo = boundary;
        let mut hi = boundary;
        for &(x, y, z, v) in &cs {
            p.add_constraint(&Point::new(x, y, z), v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let (f, stats) = p.solve(Solver::ConjugateGradient, 1e-7, 5_000);
        assert!(stats.converged, "residual {}", stats.residual);
        for &v in f.raw() {
            assert!(v >= lo - 1e-4 && v <= hi + 1e-4, "{v} outside [{lo}, {hi}]");
        }
    });
}

/// All three solvers agree on the same problem (same fixed points, same
/// harmonic interior) to within tolerance.
#[test]
fn solvers_agree() {
    check("solvers_agree", 24, |g| {
        let cs = constraints(g, 4);
        let build = || {
            let mut p = Problem::new(10, 10, 10, Point::flat(0.0, 0.0), 1.0, 15.0);
            for &(x, y, z, v) in &cs {
                p.add_constraint(&Point::new(x, y, z), v);
            }
            p
        };
        let p = build();
        let (fj, sj) = p.solve(Solver::Jacobi, 1e-7, 20_000);
        let (fg, sg) = p.solve(Solver::RedBlackGaussSeidel, 1e-7, 20_000);
        let (fc, sc) = p.solve(Solver::ConjugateGradient, 1e-7, 20_000);
        assert!(sj.converged && sg.converged && sc.converged);
        assert!(
            fj.max_abs_diff(&fg) < 1e-2,
            "J vs G: {}",
            fj.max_abs_diff(&fg)
        );
        assert!(
            fj.max_abs_diff(&fc) < 1e-2,
            "J vs C: {}",
            fj.max_abs_diff(&fc)
        );
    });
}

/// More Jacobi sweeps never increase the residual (monotone smoothing).
#[test]
fn jacobi_residual_monotone() {
    check("jacobi_residual_monotone", 24, |g| {
        let cs = constraints(g, 4);
        let mut p = Problem::new(9, 9, 9, Point::flat(0.0, 0.0), 1.0, 0.0);
        for &(x, y, z, v) in &cs {
            p.add_constraint(&Point::new(x, y, z), v);
        }
        let (_, s_few) = p.solve(Solver::Jacobi, 0.0, 8);
        let (_, s_many) = p.solve(Solver::Jacobi, 0.0, 64);
        assert!(s_many.residual <= s_few.residual + 1e-12);
    });
}

/// Reduction: output count never exceeds input count, shrinks (weakly)
/// as the cell grows, and bin means stay within the global value range.
fn reductions_hold(readings: &[((f64, f64), f64)], c1: f64, c2: f64) {
    let rs: Vec<Reading> = readings
        .iter()
        .map(|&((x, y), v)| (Point::flat(x, y), v))
        .collect();
    // NB: bin count is NOT monotone in cell size for grid-aligned
    // binning (two points sharing a small bin can straddle a large bin
    // boundary), so only the input-count bound is asserted per cell.
    let (small, big) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
    let r_small = reduce_readings(&rs, small);
    let r_big = reduce_readings(&rs, big);
    assert!(r_small.len() <= rs.len());
    assert!(r_big.len() <= rs.len());
    // A cell spanning the whole arena leaves at most 2^2 corner bins.
    let r_huge = reduce_readings(&rs, 200.0);
    assert!(r_huge.len() <= 4);
    let lo = rs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let hi = rs.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
    for (_, v) in &r_big {
        assert!(*v >= lo - 1e-9 && *v <= hi + 1e-9);
    }
}

#[test]
fn reduction_invariants() {
    check("reduction_invariants", 24, |g| {
        let readings = g.vec(1..60, |g| {
            (
                (g.range(0.0f64..100.0), g.range(0.0f64..100.0)),
                g.range(-40.0f64..400.0),
            )
        });
        let c1 = g.range(1.0f64..60.0);
        let c2 = g.range(1.0f64..60.0);
        reductions_hold(&readings, c1, c2);
    });
}

/// An input an earlier property harness once recorded as failing: two
/// zero readings a few metres apart, near the arena's far corner.
#[test]
fn reduction_invariants_for_a_recorded_pair_of_readings() {
    reductions_hold(
        &[
            ((87.65482305279872, 79.03764192420654), 0.0),
            ((84.63406397322763, 78.29189989892116), 0.0),
        ],
        29.217135198587073,
        24.102763259255084,
    );
}

/// Scheduler: every placement starts after its upload, finishes before
/// the makespan, and the makespan is at least the best-case bound.
#[test]
fn scheduler_bounds() {
    check("scheduler_bounds", 24, |g| {
        let ops = g.vec(1..12, |g| g.range(1u64..5_000_000_000));
        let cluster = GridCluster::new(
            vec![GridNode::new("a", 10e9), GridNode::new("b", 2e9)],
            LinkModel::wired_backhaul(),
        );
        let jobs: Vec<Job> = ops
            .iter()
            .enumerate()
            .map(|(i, &o)| Job {
                name: format!("j{i}"),
                ops: o,
                input_bytes: 1_000,
                output_bytes: 100,
            })
            .collect();
        let (placements, makespan) = cluster.schedule(&jobs);
        assert_eq!(placements.len(), jobs.len());
        for p in &placements {
            assert!(p.start < p.done);
            assert!(p.done <= makespan);
        }
        // Lower bound: total work / total rate.
        let total_ops: u64 = ops.iter().sum();
        let best = total_ops as f64 / cluster.total_flops();
        assert!(makespan.as_secs_f64() + 1e-9 >= best);
    });
}
