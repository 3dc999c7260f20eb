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
        55,
        0x3e5b_3a12_0000_0000,
        0x3352_13eb_0f0b_c5ff,
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
        101,
        0x3e69_3513_8000_0000,
        0x8fc2_8e81_1e28_618f,
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
