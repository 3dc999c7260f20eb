//! `pg-grid` — the wired Grid substrate: heterogeneous compute nodes, a job
//! scheduler, and the numerical kernels the "Complex Queries" of the paper
//! need.
//!
//! §4's motivating complex query: *"finding the temperature distribution
//! inside the building. To answer this query, a 3D partial differential
//! equation needs to be set up, grid points populated by data from the
//! sensors and static data about building material and boundary conditions,
//! and then solved. It is simply not feasible to perform the computation for
//! solving such a query inside the network."*
//!
//! * [`field3`] — flat-indexed 3-D scalar fields.
//! * [`pde`] — the temperature-reconstruction problem (Laplace with sensor
//!   readings as interior Dirichlet constraints) and four matrix-free
//!   solvers: Jacobi, red-black Gauss–Seidel, SOR, and conjugate gradient,
//!   each one single-threaded, bit-reproducible loop.
//! * [`reduction`] — the paper's accuracy/data trade-off: "instead of
//!   sending each sensor reading to the grid, one might only send the
//!   average reading from a region (the size of the region depending on the
//!   level of accuracy needed)".
//! * [`sched`] — heterogeneous grid nodes and an earliest-finish-time job
//!   scheduler, used by `pg-partition` to estimate grid-side compute time.

//! # Example
//!
//! ```
//! use pg_grid::pde::{Problem, Solver};
//! use pg_net::geom::Point;
//!
//! // Reconstruct a field from one hot sensor in a 10 m cube at 20 C walls.
//! let mut p = Problem::new(11, 11, 11, Point::flat(0.0, 0.0), 1.0, 20.0);
//! p.add_constraint(&Point::new(5.0, 5.0, 5.0), 300.0);
//! let (field, stats) = p.solve(Solver::ConjugateGradient, 1e-6, 5_000);
//! assert!(stats.converged);
//! assert_eq!(field.get(5, 5, 5), 300.0);          // pinned reading
//! assert!(field.get(6, 5, 5) > 20.0);             // heat spreads
//! assert!(field.get(6, 5, 5) < 300.0);            // maximum principle
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod field3;
pub mod mining;
pub mod pde;
pub mod reduction;
pub mod sched;

pub use pde::{Problem, Solver};
pub use sched::{GridCluster, GridNode, Job};
