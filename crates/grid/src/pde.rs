//! Temperature-distribution reconstruction: the paper's Complex Query.
//!
//! The problem: given (a) wall/boundary temperatures and (b) a sparse set of
//! interior sensor readings, reconstruct the full 3-D temperature field.
//! We model it as the steady-state heat (Laplace) equation `∇²T = 0` on a
//! uniform grid with **Dirichlet** conditions at the boundary *and* at every
//! cell holding a sensor — "grid points populated by data from the sensors
//! and static data about building material and boundary conditions" (§4).
//! The discrete solution is the harmonic interpolant of the constraints.
//!
//! Four matrix-free solvers are provided, each a single-threaded loop over
//! plain slices:
//!
//! * [`Solver::Jacobi`] — two-buffer sweeps over z-slabs.
//! * [`Solver::RedBlackGaussSeidel`] — in-place colored sweeps; same-color
//!   cells are never stencil neighbours, so a half-sweep reads only the
//!   other colour.
//! * [`Solver::Sor`] — the same colored sweep with over-relaxation.
//! * [`Solver::ConjugateGradient`] — CG on the free-cell system for the
//!   deviation from the wall value (the masked 7-point Laplacian is
//!   symmetric positive definite), three passes over the interior x-lines
//!   per iteration: **A** `A·p` and `p·A·p`, **B** the steps of `x` and `r`
//!   and `r·r`, **C** the next `p`. The CG vectors are `+0.0` on every fixed
//!   cell and stay so, which is why the stencil subtracts all six neighbours
//!   untested (`s − 0.0` is `s` bit for bit) and the shell is left out of
//!   both sums (it only ever added `+0.0`). Those two sums are strict
//!   left-to-right chains: the kernel's host floor.
//!
//! All four start from the field filled with the wall value and stop at the
//! first residual check whose max-norm over free cells is within `tol`:
//! Jacobi checks every 16 sweeps, the colored sweeps every 8, CG every
//! iteration (a scan of `r` that runs only once `‖r‖₂ ≤ tol·√N`). The
//! three relaxations differ only in their sweep: one relaxation loop runs
//! each solver's sweep and checks the residual after every 16th or 8th
//! sweep and after the last, and one step turns every solve's end, CG's
//! included, into its [`SolveStats`].
//!
//! Every solver reports iterations, final residual, and an operation count
//! that `pg-partition` feeds into its grid-compute-time estimates. That
//! count is where the grid's parallelism lives: [`crate::sched`] prices it
//! over simulated nodes, while on the host each solve runs on the calling
//! thread in one fixed order of floating-point operations, so results are
//! bit-for-bit reproducible (`tests/pde_golden.rs` pins them).
//!
//! All sweeps visit **interior cells only**: the boundary shell is fixed, so
//! free cells are strictly interior.

use crate::field3::Field3;
use pg_net::geom::Point;

/// Which numerical method solves the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Solver {
    /// Two-buffer weighted-average sweeps.
    Jacobi,
    /// In-place red/black colored Gauss–Seidel (converges ~2× faster than
    /// Jacobi per sweep).
    RedBlackGaussSeidel,
    /// Conjugate gradient on the masked SPD system (fastest for tight
    /// tolerances): a stencil pass with no neighbour test — the vectors are
    /// zero on fixed cells — and two ordered dot products per iteration.
    ConjugateGradient,
    /// Red/black successive over-relaxation: RBGS with relaxation factor
    /// `ω` — near-optimal ω turns O(n²) sweeps into O(n).
    Sor {
        /// Relaxation factor in `(0, 2)`; ~1.9 is near-optimal for these
        /// grid sizes.
        omega_x100: u32,
    },
}

impl Solver {
    /// Table-friendly name.
    pub fn name(&self) -> &'static str {
        match self {
            Solver::Jacobi => "jacobi",
            Solver::RedBlackGaussSeidel => "rbgs",
            Solver::ConjugateGradient => "cg",
            Solver::Sor { .. } => "sor",
        }
    }
}

/// Convergence report from a solve.
#[derive(Debug, Clone, Copy)]
pub struct SolveStats {
    /// Sweeps (Jacobi/RBGS) or CG iterations performed.
    pub iterations: u32,
    /// Final max-norm Laplace residual over free cells.
    pub residual: f64,
    /// Did the residual reach the requested tolerance?
    pub converged: bool,
    /// Estimated floating-point operations performed (for cost models).
    pub ops: u64,
}

/// The discretized reconstruction problem.
#[derive(Debug, Clone)]
pub struct Problem {
    field: Field3,
    fixed: Vec<bool>,
    /// The `boundary_value` the box was built with: every solver's first
    /// iterate holds it on every free cell.
    wall: f64,
    origin: Point,
    spacing: f64,
    constraints: usize,
}

/// Flat index of the `x = 0` cell of every interior x-line, in storage
/// order; the free cells are the unpinned cells `1..nx−1` of these lines.
fn interior_lines(nx: usize, ny: usize, nz: usize) -> impl Iterator<Item = usize> + Clone {
    (1..nz - 1).flat_map(move |z| (1..ny - 1).map(move |y| nx * (y + ny * z)))
}

impl Problem {
    /// A `nx × ny × nz` box whose outer shell is held at `boundary_value`
    /// (the building walls at ambient). `origin` is the physical position of
    /// cell `(0,0,0)` and `spacing` the cell pitch in metres.
    ///
    /// # Panics
    /// Panics when any dimension is < 3 (no interior) or spacing is not
    /// positive.
    pub fn new(
        nx: usize,
        ny: usize,
        nz: usize,
        origin: Point,
        spacing: f64,
        boundary_value: f64,
    ) -> Self {
        assert!(nx >= 3 && ny >= 3 && nz >= 3, "no interior cells");
        assert!(spacing > 0.0, "spacing must be positive");
        let field = Field3::new(nx, ny, nz, boundary_value);
        let mut fixed = vec![true; field.len()];
        for line in interior_lines(nx, ny, nz) {
            fixed[line + 1..line + nx - 1].fill(false);
        }
        Problem {
            field,
            fixed,
            wall: boundary_value,
            origin,
            spacing,
            constraints: 0,
        }
    }

    /// Number of free (unknown) cells: the interior less the cells a
    /// counted constraint has pinned.
    pub fn free_cells(&self) -> usize {
        let (nx, ny, nz) = self.field.shape();
        (nx - 2) * (ny - 2) * (nz - 2) - self.constraints
    }

    /// Map a physical point to the nearest grid cell (clamped to the box).
    pub fn cell_of(&self, p: &Point) -> (usize, usize, usize) {
        let (nx, ny, nz) = self.field.shape();
        let clamp = |v: f64, n: usize| -> usize {
            let i = ((v).max(0.0) / self.spacing).round() as usize;
            i.min(n - 1)
        };
        (
            clamp(p.x - self.origin.x, nx),
            clamp(p.y - self.origin.y, ny),
            clamp(p.z - self.origin.z, nz),
        )
    }

    /// Physical position of a cell centre.
    pub fn position_of(&self, x: usize, y: usize, z: usize) -> Point {
        Point::new(
            self.origin.x + x as f64 * self.spacing,
            self.origin.y + y as f64 * self.spacing,
            self.origin.z + z as f64 * self.spacing,
        )
    }

    /// Pin the cell nearest to `p` at `value` (a sensor reading). Pinning
    /// the same cell twice keeps the latest value; pinning a boundary cell
    /// overrides the wall value there.
    pub fn add_constraint(&mut self, p: &Point, value: f64) {
        let (x, y, z) = self.cell_of(p);
        let i = self.field.idx(x, y, z);
        if !self.fixed[i] {
            self.constraints += 1;
        }
        self.fixed[i] = true;
        self.field.set(x, y, z, value);
    }

    /// Estimated FLOPs for `iters` sweeps/iterations of `solver` — the
    /// quantity §4 calls "the amount of computation required for a
    /// particular query".
    pub fn estimate_ops(&self, solver: Solver, iters: u32) -> u64 {
        let free = self.free_cells() as u64;
        let per_cell = match solver {
            Solver::Jacobi | Solver::RedBlackGaussSeidel => 8,
            Solver::Sor { .. } => 10,        // stencil + relaxation blend
            Solver::ConjugateGradient => 22, // stencil + 2 dots + 3 axpys
        };
        free * per_cell * iters as u64
    }

    /// Solve to max-norm residual `tol` or at most `max_iters`, returning
    /// the reconstructed field and convergence stats.
    pub fn solve(&self, solver: Solver, tol: f64, max_iters: u32) -> (Field3, SolveStats) {
        match solver {
            Solver::Jacobi => {
                let mut next = self.field.clone();
                self.relax(solver, tol, max_iters, 16, |cur| {
                    self.jacobi_sweep(cur.raw(), next.raw_mut());
                    std::mem::swap(cur, &mut next);
                })
            }
            Solver::RedBlackGaussSeidel => {
                self.relax(solver, tol, max_iters, 8, |x| self.colored_sweep(x, 1.0))
            }
            Solver::Sor { omega_x100 } => {
                let omega = f64::from(omega_x100) / 100.0;
                assert!(omega > 0.0 && omega < 2.0, "SOR requires 0 < omega < 2");
                self.relax(solver, tol, max_iters, 8, |x| self.colored_sweep(x, omega))
            }
            Solver::ConjugateGradient => self.solve_cg(tol, max_iters),
        }
    }

    /// The relaxation loop Jacobi, RBGS and SOR share: from the wall-filled
    /// field, `sweep` the iterate up to `max_iters` times, checking the
    /// residual after every `check_every`-th sweep and after the last, and
    /// stop at the first check within `tol`.
    fn relax(
        &self,
        solver: Solver,
        tol: f64,
        max_iters: u32,
        check_every: u32,
        mut sweep: impl FnMut(&mut Field3),
    ) -> (Field3, SolveStats) {
        let mut x = self.field.clone();
        let mut iters = 0;
        loop {
            let at_cap = iters == max_iters;
            if at_cap || (iters > 0 && iters % check_every == 0) {
                let r = self.residual(&x);
                if at_cap || r <= tol {
                    return self.finish(solver, x, iters, r, tol);
                }
            }
            sweep(&mut x);
            iters += 1;
        }
    }

    /// The result of a solve that stopped after `iterations` with
    /// `residual`: the one place every solver's [`SolveStats`] is built.
    fn finish(
        &self,
        solver: Solver,
        x: Field3,
        iterations: u32,
        residual: f64,
        tol: f64,
    ) -> (Field3, SolveStats) {
        let stats = SolveStats {
            iterations,
            residual,
            converged: residual <= tol,
            ops: self.estimate_ops(solver, iterations),
        };
        (x, stats)
    }

    /// Run `body(z, slab)` over every interior z-slab of `buf`, in z order —
    /// boundary slabs hold no free cells, so they are never visited.
    fn for_interior_slabs(&self, buf: &mut [f64], body: impl Fn(usize, &mut [f64])) {
        let (nx, ny, nz) = self.field.shape();
        for (z, slab) in buf.chunks_mut(nx * ny).enumerate().skip(1).take(nz - 2) {
            body(z, slab);
        }
    }

    /// Max-norm Laplace residual over free cells of candidate solution `x`.
    pub fn residual(&self, x: &Field3) -> f64 {
        let (nx, ny, nz) = self.field.shape();
        let data = x.raw();
        let fixed = &self.fixed;
        let plane = nx * ny;
        let slab_worst = |z: usize| {
            let mut worst = 0.0f64;
            for y in 1..ny - 1 {
                for xx in 1..nx - 1 {
                    let i = xx + nx * (y + ny * z);
                    if fixed[i] {
                        continue;
                    }
                    let s = data[i - 1]
                        + data[i + 1]
                        + data[i - nx]
                        + data[i + nx]
                        + data[i - plane]
                        + data[i + plane];
                    worst = worst.max((s - 6.0 * data[i]).abs());
                }
            }
            worst
        };
        (1..nz - 1).map(slab_worst).fold(0.0, f64::max)
    }

    /// One Jacobi sweep: read `src`, write updated free cells into `dst`.
    /// Fixed cells are never written — `dst` starts as a clone of the
    /// constrained field, so they already hold their pinned values.
    fn jacobi_sweep(&self, src: &[f64], dst: &mut [f64]) {
        let (nx, ny, _) = self.field.shape();
        let plane = nx * ny;
        let fixed = &self.fixed;
        self.for_interior_slabs(dst, |z, slab| {
            let base = z * plane;
            for y in 1..ny - 1 {
                let row = nx * y;
                for xx in 1..nx - 1 {
                    let off = row + xx;
                    let i = base + off;
                    if fixed[i] {
                        continue;
                    }
                    let s = src[i - 1]
                        + src[i + 1]
                        + src[i - nx]
                        + src[i + nx]
                        + src[i - plane]
                        + src[i + plane];
                    slab[off] = s / 6.0;
                }
            }
        });
    }

    /// One red/black sweep in place: every free cell of one colour, then
    /// of the other, relaxed by `omega` (plain Gauss–Seidel at 1).
    fn colored_sweep(&self, x: &mut Field3, omega: f64) {
        let (nx, ny, nz) = self.field.shape();
        for color in 0..2usize {
            for z in 1..nz - 1 {
                for y in 1..ny - 1 {
                    self.colored_line(x.raw_mut(), nx * (y + ny * z), (y + z + color) % 2, omega);
                }
            }
        }
    }

    /// Relax every other free cell of the x-line starting at flat index
    /// `line`, from `x = 1 + parity`. The line and its four neighbour lines
    /// are split out of `d` once, so the inner loop indexes within
    /// length-`nx` slices; the six addends keep the order x−1, x+1, y−1,
    /// y+1, z−1, z+1.
    fn colored_line(&self, d: &mut [f64], line: usize, parity: usize, omega: f64) {
        let (nx, ny, _) = self.field.shape();
        let plane = nx * ny;
        let fixed = &self.fixed[line..line + nx];
        let (below, rest) = d.split_at_mut(line);
        let (row, above) = rest.split_at_mut(nx);
        let z_lo = &below[line - plane..][..nx];
        let y_lo = &below[line - nx..][..nx];
        let y_hi = &above[..nx];
        let z_hi = &above[plane - nx..][..nx];
        let mut xx = 1 + parity;
        while xx < nx - 1 {
            if !fixed[xx] {
                let s = row[xx - 1] + row[xx + 1] + y_lo[xx] + y_hi[xx] + z_lo[xx] + z_hi[xx];
                let old = row[xx];
                row[xx] = old + omega * (s / 6.0 - old);
            }
            xx += 2;
        }
    }

    /// CG on the free-cell system for the deviation `x` from the wall value,
    /// `6x_i − Σ_{free nbr} x_j = b_i` with `b_i = Σ_{fixed nbr} (v_j − wall)`;
    /// the field is `wall + x`, so `x = 0` is the wall-filled first iterate
    /// the other three solvers start from. The recursive residual `r` tracks
    /// that field's Laplace residual, and the loop stops at the first iterate
    /// with `‖r‖∞ ≤ tol`. Since `‖r‖∞ ≥ ‖r‖₂/√N`, `r` is scanned only once
    /// `‖r‖₂ ≤ tol·√N`; the true residual of the assembled field decides
    /// `converged`.
    fn solve_cg(&self, tol: f64, max_iters: u32) -> (Field3, SolveStats) {
        let n = self.field.len();
        let (nx, ny, nz) = self.field.shape();
        let plane = nx * ny;
        let fixed = &self.fixed;
        let vals = self.field.raw();
        let wall = self.wall;
        let lines = interior_lines(nx, ny, nz);
        let interior = |line: usize| line + 1..line + nx - 1;

        // b_i = Σ_{fixed nbr} (value_j − wall) on free cells; `pinned` lists
        // the others.
        let mut b = vec![0.0f64; n];
        let mut pinned = Vec::new();
        for i in lines.clone().flat_map(interior) {
            if fixed[i] {
                pinned.push(i);
                continue;
            }
            b[i] = [i - 1, i + 1, i - nx, i + nx, i - plane, i + plane]
                .into_iter()
                .filter(|&j| fixed[j])
                .fold(0.0, |s, j| s + (vals[j] - wall));
        }

        // x = 0, r = b − A·0, p = r.
        let mut x = vec![0.0f64; n];
        let mut r = b;
        let mut p = r.clone();
        let mut ax = vec![0.0f64; n];
        let mut rs_old = 0.0;
        for ri in lines.clone().flat_map(|line| &r[interior(line)]) {
            rs_old += ri * ri;
        }
        let mut iters = 0;
        let scan_below = tol * (self.free_cells() as f64).sqrt();
        let above_tol = |r: &[f64]| {
            lines
                .clone()
                .flat_map(|line| &r[interior(line)])
                .any(|ri| ri.abs() > tol)
        };

        while iters < max_iters && (rs_old.sqrt() > scan_below || above_tol(&r)) {
            // Pass A: ax = A·p, zero on the sensor cells, and pap = p·ax.
            let mut pap = 0.0;
            let mut pins = pinned.iter().peekable();
            for line in lines.clone() {
                let z_lo = &p[line - plane..][..nx];
                let y_lo = &p[line - nx..][..nx];
                let c = &p[line..][..nx];
                let y_hi = &p[line + nx..][..nx];
                let z_hi = &p[line + plane..][..nx];
                let out = &mut ax[line..][..nx];
                for k in 1..nx - 1 {
                    out[k] =
                        6.0 * c[k] - c[k - 1] - c[k + 1] - y_lo[k] - y_hi[k] - z_lo[k] - z_hi[k];
                }
                while let Some(&i) = pins.next_if(|&&i| i < line + nx) {
                    out[i - line] = 0.0;
                }
                for k in 1..nx - 1 {
                    pap += c[k] * out[k];
                }
            }
            if pap <= 0.0 {
                break; // numerical breakdown; bail with what we have
            }
            // Pass B: step x and r along p, and rs_new = r·r.
            let alpha = rs_old / pap;
            let mut rs_new = 0.0;
            for span in lines.clone().map(interior) {
                for (xi, pi) in x[span.clone()].iter_mut().zip(&p[span.clone()]) {
                    *xi += alpha * pi;
                }
                for (ri, ai) in r[span.clone()].iter_mut().zip(&ax[span.clone()]) {
                    *ri -= alpha * ai;
                }
                for ri in &r[span] {
                    rs_new += ri * ri;
                }
            }
            // Pass C: the next search direction.
            let beta = rs_new / rs_old;
            for span in lines.clone().map(interior) {
                for (pi, ri) in p[span.clone()].iter_mut().zip(&r[span]) {
                    *pi = *ri + beta * *pi;
                }
            }
            rs_old = rs_new;
            iters += 1;
        }

        // Assemble: fixed cells keep their pinned values.
        let mut out = self.field.clone();
        for (i, v) in out.raw_mut().iter_mut().enumerate() {
            if !fixed[i] {
                *v = wall + x[i];
            }
        }
        let res = self.residual(&out);
        self.finish(Solver::ConjugateGradient, out, iters, res, tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform boundary, no sensors: the harmonic solution is constant.
    #[test]
    fn constant_boundary_gives_constant_field() {
        let p = Problem::new(10, 10, 10, Point::flat(0.0, 0.0), 1.0, 21.0);
        for solver in [
            Solver::Jacobi,
            Solver::RedBlackGaussSeidel,
            Solver::ConjugateGradient,
        ] {
            let (f, stats) = p.solve(solver, 1e-8, 2_000);
            assert!(stats.converged, "{} did not converge", solver.name());
            let exact = Field3::new(10, 10, 10, 21.0);
            assert!(
                f.max_abs_diff(&exact) < 1e-5,
                "{}: max diff {}",
                solver.name(),
                f.max_abs_diff(&exact)
            );
        }
    }

    /// A linear profile x/(n-1) between two opposite walls is harmonic and
    /// must be reproduced exactly (up to tolerance) by all solvers.
    #[test]
    fn linear_profile_is_reproduced() {
        let n = 12;
        let mut p = Problem::new(n, n, n, Point::flat(0.0, 0.0), 1.0, 0.0);
        // Pin the two x-walls at 0 and 100 by constraining boundary cells.
        for y in 0..n {
            for z in 0..n {
                p.add_constraint(&Point::new(0.0, y as f64, z as f64), 0.0);
                p.add_constraint(&Point::new((n - 1) as f64, y as f64, z as f64), 100.0);
                // Side walls follow the linear profile so the exact solution
                // is globally linear.
            }
        }
        for x in 0..n {
            let v = 100.0 * x as f64 / (n - 1) as f64;
            for other in 0..n {
                p.add_constraint(&Point::new(x as f64, other as f64, 0.0), v);
                p.add_constraint(&Point::new(x as f64, other as f64, (n - 1) as f64), v);
                p.add_constraint(&Point::new(x as f64, 0.0, other as f64), v);
                p.add_constraint(&Point::new(x as f64, (n - 1) as f64, other as f64), v);
            }
        }
        for solver in [
            Solver::Jacobi,
            Solver::RedBlackGaussSeidel,
            Solver::ConjugateGradient,
        ] {
            let (f, stats) = p.solve(solver, 1e-7, 4_000);
            assert!(stats.converged, "{} did not converge", solver.name());
            for x in 0..n {
                let want = 100.0 * x as f64 / (n - 1) as f64;
                let got = f.get(x, n / 2, n / 2);
                assert!(
                    (got - want).abs() < 1e-3,
                    "{}: x={x} got {got} want {want}",
                    solver.name()
                );
            }
        }
    }

    #[test]
    fn solvers_agree_with_interior_sensor() {
        let mut p = Problem::new(14, 14, 14, Point::flat(0.0, 0.0), 1.0, 20.0);
        p.add_constraint(&Point::new(6.0, 6.0, 6.0), 300.0); // a hot spot
        assert_eq!(p.free_cells(), 12 * 12 * 12 - 1);
        let (fj, _) = p.solve(Solver::Jacobi, 1e-7, 6_000);
        let (fg, _) = p.solve(Solver::RedBlackGaussSeidel, 1e-7, 6_000);
        let (fc, _) = p.solve(Solver::ConjugateGradient, 1e-7, 6_000);
        assert!(
            fj.max_abs_diff(&fg) < 1e-3,
            "J vs RBGS: {}",
            fj.max_abs_diff(&fg)
        );
        assert!(
            fj.max_abs_diff(&fc) < 1e-3,
            "J vs CG: {}",
            fj.max_abs_diff(&fc)
        );
        // Maximum principle: hottest point is the pinned sensor cell.
        assert_eq!(fc.get(6, 6, 6), 300.0);
        assert!(fc.get(7, 6, 6) < 300.0 && fc.get(7, 6, 6) > 20.0);
    }

    #[test]
    fn maximum_principle_holds() {
        let mut p = Problem::new(10, 10, 10, Point::flat(0.0, 0.0), 1.0, 15.0);
        p.add_constraint(&Point::new(4.0, 4.0, 4.0), 99.0);
        let (f, _) = p.solve(Solver::ConjugateGradient, 1e-8, 4_000);
        for v in f.raw() {
            assert!(
                (15.0 - 1e-6..=99.0 + 1e-6).contains(v),
                "harmonic value {v} escapes [15, 99]"
            );
        }
    }

    #[test]
    fn cg_converges_fastest() {
        let mut p = Problem::new(16, 16, 16, Point::flat(0.0, 0.0), 1.0, 20.0);
        p.add_constraint(&Point::new(8.0, 8.0, 8.0), 200.0);
        let (_, j) = p.solve(Solver::Jacobi, 1e-6, 10_000);
        let (_, c) = p.solve(Solver::ConjugateGradient, 1e-6, 10_000);
        assert!(j.converged && c.converged);
        assert!(
            c.iterations < j.iterations,
            "CG {} iters vs Jacobi {}",
            c.iterations,
            j.iterations
        );
    }

    #[test]
    fn sor_converges_much_faster_than_rbgs() {
        let mut p = Problem::new(20, 20, 20, Point::flat(0.0, 0.0), 1.0, 20.0);
        p.add_constraint(&Point::new(10.0, 10.0, 10.0), 250.0);
        let (_, gs) = p.solve(Solver::RedBlackGaussSeidel, 1e-6, 20_000);
        let (_, sor) = p.solve(Solver::Sor { omega_x100: 185 }, 1e-6, 20_000);
        assert!(gs.converged && sor.converged);
        assert!(
            sor.iterations * 3 < gs.iterations,
            "SOR {} iters should be well under a third of RBGS {}",
            sor.iterations,
            gs.iterations
        );
    }

    #[test]
    fn sor_agrees_with_cg() {
        let mut p = Problem::new(14, 14, 14, Point::flat(0.0, 0.0), 1.0, 20.0);
        p.add_constraint(&Point::new(6.0, 6.0, 6.0), 300.0);
        let (fs, ss) = p.solve(Solver::Sor { omega_x100: 185 }, 1e-7, 20_000);
        let (fc, sc) = p.solve(Solver::ConjugateGradient, 1e-7, 20_000);
        assert!(ss.converged && sc.converged);
        assert!(
            fs.max_abs_diff(&fc) < 1e-3,
            "SOR vs CG: {}",
            fs.max_abs_diff(&fc)
        );
    }

    #[test]
    #[should_panic(expected = "SOR requires")]
    fn sor_omega_bounds_enforced() {
        let p = Problem::new(5, 5, 5, Point::flat(0.0, 0.0), 1.0, 0.0);
        let _ = p.solve(Solver::Sor { omega_x100: 200 }, 1e-6, 10);
    }

    #[test]
    fn cell_mapping_clamps_and_rounds() {
        let p = Problem::new(10, 10, 10, Point::flat(0.0, 0.0), 2.0, 0.0);
        assert_eq!(p.cell_of(&Point::new(3.1, 0.0, 0.0)), (2, 0, 0)); // 3.1/2 -> 2
        assert_eq!(p.cell_of(&Point::new(1e9, 0.0, 0.0)), (9, 0, 0)); // clamped
        assert_eq!(p.cell_of(&Point::new(-5.0, 0.0, 0.0)), (0, 0, 0));
        assert_eq!(p.position_of(2, 0, 0), Point::new(4.0, 0.0, 0.0));
    }

    /// The interior-only slab sweep must write bit-identical values to a
    /// naive full-grid scan.
    #[test]
    fn jacobi_sweep_matches_full_scan_reference() {
        for n in [10usize, 20] {
            let mut p = Problem::new(n, n, n, Point::flat(0.0, 0.0), 1.0, 20.0);
            p.add_constraint(&Point::new(3.0, 4.0, 5.0), 250.0);
            let (f, stats) = p.solve(Solver::Jacobi, 0.0, 1); // exactly one sweep
            assert_eq!(stats.iterations, 1);

            let init = p.field.raw();
            let plane = n * n;
            let mut want = p.field.clone();
            for i in 0..p.field.len() {
                if p.fixed[i] {
                    continue;
                }
                let s = init[i - 1]
                    + init[i + 1]
                    + init[i - n]
                    + init[i + n]
                    + init[i - plane]
                    + init[i + plane];
                want.raw_mut()[i] = s / 6.0;
            }
            assert_eq!(f.raw(), want.raw(), "n={n}");
        }
    }

    #[test]
    fn ops_estimate_scales_with_free_cells_and_iters() {
        let p = Problem::new(10, 10, 10, Point::flat(0.0, 0.0), 1.0, 0.0);
        let e1 = p.estimate_ops(Solver::Jacobi, 100);
        let e2 = p.estimate_ops(Solver::Jacobi, 200);
        assert_eq!(e2, 2 * e1);
        assert_eq!(e1, 8 * 8 * 8 * 8 * 100); // 8³ interior cells × 8 flops × 100
    }
}
