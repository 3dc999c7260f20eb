//! Golden bits for the four PDE solvers. Every kernel in `pg_grid::pde`
//! promises a fixed order of floating-point operations, so a rewrite that
//! keeps that order reproduces these digests exactly and one that reorders
//! a sum or a sweep does not — the experiment baselines would catch that
//! too, but only through rounded, aggregated report values.

use pg_grid::pde::{Problem, Solver};
use pg_net::geom::Point;

/// FNV-1a over the bit pattern of every cell, in storage order.
fn digest(cells: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in cells {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Three interior sensors of mixed red/black parity (with one parity only,
/// RBGS sweep k equals Jacobi sweep 2k bit for bit), one pinned wall cell,
/// 20 C walls.
fn problem(n: usize) -> Problem {
    let m = (n - 1) as f64;
    let mut p = Problem::new(n, n, n, Point::flat(0.0, 0.0), 1.0, 20.0);
    p.add_constraint(&Point::new(3.0, 4.0, 4.0), 250.0);
    p.add_constraint(&Point::new(m - 3.0, m / 2.0, 2.0), 90.0);
    p.add_constraint(&Point::new(m / 2.0, m - 2.0, m - 4.0), -15.0);
    p.add_constraint(&Point::new(0.0, m / 2.0, m / 2.0), 60.0);
    p
}

/// `(n, solver, iterations, residual bits, field digest)`.
const GOLDEN: [(usize, Solver, u32, u64, u64); 8] = [
    (
        12,
        Solver::Jacobi,
        368,
        0x3ea0_7158_7000_0000,
        0x5af7_71aa_4be8_0743,
    ),
    (
        12,
        Solver::RedBlackGaussSeidel,
        184,
        0x3ea3_1038_4000_0000,
        0x220a_4dfe_4bfe_0425,
    ),
    (
        12,
        Solver::Sor { omega_x100: 185 },
        120,
        0x3e92_db61_8000_0000,
        0x209e_f6fc_0d6a_dbc9,
    ),
    (
        12,
        Solver::ConjugateGradient,
        47,
        0x3ea5_c07d_9000_0000,
        0x2cb9_6b6f_9107_95ad,
    ),
    (
        24,
        Solver::Jacobi,
        1264,
        0x3eaf_962d_2800_0000,
        0x14d2_725b_2bab_cd5f,
    ),
    (
        24,
        Solver::RedBlackGaussSeidel,
        640,
        0x3eaf_e9e1_7800_0000,
        0xf3dd_37ae_cbfe_2382,
    ),
    (
        24,
        Solver::Sor { omega_x100: 185 },
        112,
        0x3ea0_ec1c_3800_0000,
        0xa9c9_198c_4da3_7aad,
    ),
    (
        24,
        Solver::ConjugateGradient,
        89,
        0x3eac_29b6_5000_0000,
        0xa290_0d20_e899_587e,
    ),
];

#[test]
fn solver_outputs_are_pinned_to_the_bit() {
    for (n, solver, iterations, residual_bits, field_digest) in GOLDEN {
        let (field, stats) = problem(n).solve(solver, 1e-6, 20_000);
        assert!(stats.converged, "{} at {n}^3", solver.name());
        let got = (
            stats.iterations,
            stats.residual.to_bits(),
            digest(field.raw()),
        );
        assert_eq!(
            got,
            (iterations, residual_bits, field_digest),
            "{} at {n}^3: got ({}, {:#018x}, {:#018x})",
            solver.name(),
            got.0,
            got.1,
            got.2
        );
    }
}

/// `(solver, max_iters, iterations, residual bits, field digest, ops)` on
/// the 12³ cube, stopped by the sweep cap long before convergence: at 0
/// sweeps (the wall-filled first iterate) and at 13, which is no multiple of
/// either check interval, so the only residual check that can stop the
/// solve is the one at the cap.
const GOLDEN_CAPPED: [(Solver, u32, u32, u64, u64, u64); 6] = [
    (
        Solver::Jacobi,
        0,
        0,
        0x406c_c000_0000_0000,
        0xc905_8364_75a6_a324,
        0,
    ),
    (
        Solver::Jacobi,
        13,
        13,
        0x401e_fa57_ebeb_2340,
        0x9314_7f58_dcec_02af,
        103_688,
    ),
    (
        Solver::RedBlackGaussSeidel,
        0,
        0,
        0x406c_c000_0000_0000,
        0xc905_8364_75a6_a324,
        0,
    ),
    (
        Solver::RedBlackGaussSeidel,
        13,
        13,
        0x4009_7976_0927_d100,
        0x0b9d_a33a_ce75_673b,
        103_688,
    ),
    (
        Solver::Sor { omega_x100: 185 },
        0,
        0,
        0x406c_c000_0000_0000,
        0xc905_8364_75a6_a324,
        0,
    ),
    (
        Solver::Sor { omega_x100: 185 },
        13,
        13,
        0x4026_1f41_687f_27b0,
        0x52a0_ea11_e8b2_7b93,
        129_610,
    ),
];

#[test]
fn capped_relaxations_are_pinned_to_the_bit() {
    for (solver, max_iters, iterations, residual_bits, field_digest, ops) in GOLDEN_CAPPED {
        let (field, stats) = problem(12).solve(solver, 1e-6, max_iters);
        assert!(!stats.converged, "{} capped at {max_iters}", solver.name());
        let got = (
            stats.iterations,
            stats.residual.to_bits(),
            digest(field.raw()),
            stats.ops,
        );
        assert_eq!(
            got,
            (iterations, residual_bits, field_digest, ops),
            "{} capped at {max_iters}: got ({}, {:#018x}, {:#018x}, {})",
            solver.name(),
            got.0,
            got.1,
            got.2,
            got.3
        );
    }
}

/// A fire-like plume the fire-box rows sample their readings from.
fn plume(p: &Point) -> f64 {
    let d2 = p.distance_sq(&Point::new(27.5, 27.5, 0.0));
    21.0 + 446.9 * (-d2 / (2.0 * 32.0 * 32.0)).exp()
}

/// A box whose shell sits at the mean reading, as `exec_complex` builds it.
fn mean_shell(dims: (usize, usize, usize), readings: &[(Point, f64)]) -> Problem {
    let mean = readings.iter().map(|r| r.1).sum::<f64>() / readings.len() as f64;
    let mut p = Problem::new(dims.0, dims.1, dims.2, Point::flat(0.0, 0.0), 1.0, mean);
    for (pos, v) in readings {
        p.add_constraint(pos, *v);
    }
    p
}

/// Shapes the cubes above do not reach: `(name, problem, tol, max_iters)`.
fn cg_cases() -> Vec<(&'static str, Problem, f64, u32)> {
    let fire = (21, 21, 5);
    // Room #210's 49 sensors: 5 m pitch on the z = 0 and z = 4 planes (the
    // base station's corner is missing), so every reading overrides a shell
    // cell and none is interior.
    let raw: Vec<(Point, f64)> = (1..50)
        .map(|i| {
            let p = Point::new(
                5.0 * (i % 5) as f64,
                5.0 * (i / 5 % 5) as f64,
                4.0 * (i / 25) as f64,
            );
            (p, plume(&p))
        })
        .collect();
    // What `Hybrid { heads: 4 }` solves: four cluster summaries at interior
    // centroids.
    let summaries: Vec<(Point, f64)> = [
        (4.2, 5.1, 1.7),
        (14.6, 4.4, 2.2),
        (5.3, 15.2, 2.4),
        (15.8, 14.9, 1.3),
    ]
    .iter()
    .map(|&(x, y, z)| {
        let p = Point::new(x, y, z);
        (p, plume(&p))
    })
    .collect();

    let mut line = Problem::new(7, 5, 3, Point::flat(0.0, 0.0), 1.0, 18.0);
    line.add_constraint(&Point::new(0.0, 2.0, 1.0), 75.0);
    line.add_constraint(&Point::new(4.0, 2.0, 1.0), 40.0);

    let mut pinned = Problem::new(5, 4, 4, Point::flat(0.0, 0.0), 1.0, 20.0);
    for (i, (y, z)) in [(1, 1), (2, 1), (1, 2), (2, 2)].into_iter().enumerate() {
        for x in 1..4 {
            pinned.add_constraint(
                &Point::new(x as f64, y as f64, z as f64),
                30.0 + (3 * i + x) as f64,
            );
        }
    }
    assert_eq!(pinned.free_cells(), 0);

    let uniform = Problem::new(9, 8, 7, Point::flat(0.0, 0.0), 1.0, 21.0);

    let mut near_shell = Problem::new(10, 9, 6, Point::flat(0.0, 0.0), 1.0, 20.0);
    near_shell.add_constraint(&Point::new(1.0, 1.0, 1.0), 180.0);
    near_shell.add_constraint(&Point::new(8.0, 4.0, 4.0), 65.0);

    let mut signed = Problem::new(8, 8, 8, Point::flat(0.0, 0.0), 1.0, 5.0);
    signed.add_constraint(&Point::new(2.0, 3.0, 4.0), -40.0);
    signed.add_constraint(&Point::new(5.0, 4.0, 3.0), -0.0);
    signed.add_constraint(&Point::new(5.0, 5.0, 3.0), 12.5);

    vec![
        (
            "fire box, 49 raw readings",
            mean_shell(fire, &raw),
            1e-4,
            4_000,
        ),
        (
            "fire box, 4 summaries",
            mean_shell(fire, &summaries),
            1e-4,
            4_000,
        ),
        ("single interior line", line, 1e-6, 4_000),
        ("every interior cell pinned", pinned, 1e-6, 4_000),
        ("uniform shell, no constraint", uniform, 1e-6, 4_000),
        ("sensor beside the shell", near_shell, 1e-6, 4_000),
        ("negative and -0.0 readings", signed, 1e-6, 4_000),
        ("max_iters 0", mean_shell(fire, &summaries), 1e-4, 0),
        ("max_iters 1", mean_shell(fire, &summaries), 1e-4, 1),
    ]
}

/// `(iterations, residual bits, field digest, stats.ops)` per `cg_cases`
/// row, captured when CG began at the wall value and stopped on the
/// max-norm, identical in debug and release.
const GOLDEN_CG: [(u32, u64, u64, u64); 9] = [
    (24, 0x3f0a_0e30_e800_0000, 0xd1d2_36f4_e4ee_e360, 571_824),
    (24, 0x3f0a_5816_b400_0000, 0x34db_60e2_2f69_335d, 569_712),
    (9, 0x3d20_0000_0000_0000, 0x730b_d327_38c5_11a7, 2772),
    (0, 0x0000_0000_0000_0000, 0x9863_0f30_3e60_ac5f, 0),
    (0, 0x0000_0000_0000_0000, 0xfc02_e939_5a6e_84a5, 0),
    (30, 0x3ea7_195c_e800_0000, 0x717f_6998_7b72_b42e, 146_520),
    (26, 0x3ea2_3228_c200_0000, 0x0888_abe5_c22c_b269, 121_836),
    (0, 0x404f_2d16_84fe_25c0, 0xa0c0_6880_d1e9_2a37, 0),
    (1, 0x4034_c8b9_adfe_c400, 0xa655_78a6_ee17_6229, 23_738),
];

#[test]
fn cg_is_pinned_on_the_fire_box_and_the_edge_shapes() {
    for ((name, p, tol, max_iters), want) in cg_cases().iter().zip(GOLDEN_CG) {
        let (field, stats) = p.solve(Solver::ConjugateGradient, *tol, *max_iters);
        let got = (
            stats.iterations,
            stats.residual.to_bits(),
            digest(field.raw()),
            stats.ops,
        );
        assert_eq!(got, want, "{name}: got {got:#x?}");
    }
}

/// CG's stopping contract on the golden cubes and the fire box: it returns
/// at the first iterate whose max-norm residual is within `tol`, so the
/// same solve one iteration short has not converged.
#[test]
fn cg_stops_at_the_first_iterate_within_tol() {
    let cubes = [12, 24].map(|n| (format!("{n}^3 cube"), problem(n), 1e-6));
    let fire = cg_cases()
        .into_iter()
        .take(2)
        .map(|(name, p, tol, _)| (name.to_string(), p, tol));
    for (name, p, tol) in cubes.into_iter().chain(fire) {
        let (_, done) = p.solve(Solver::ConjugateGradient, tol, 20_000);
        assert!(
            done.converged && done.residual <= tol,
            "{name}: residual {:e} after {} iterations, tol {tol:e}",
            done.residual,
            done.iterations
        );
        let (_, short) = p.solve(Solver::ConjugateGradient, tol, done.iterations - 1);
        assert!(
            !short.converged,
            "{name}: already within tol {tol:e} after {} of {} iterations",
            short.iterations, done.iterations
        );
    }
}
