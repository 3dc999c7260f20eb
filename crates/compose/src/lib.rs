//! `pg-compose` — service composition for the pervasive grid.
//!
//! §3 of the paper: "Given an efficient semantic level discovery
//! infrastructure, the next task is to use it to compose services and
//! components." Its running example is stream analysis: "First the system
//! needs to figure out that this task has several components — generating
//! decision trees, computing their Fourier spectra, choosing the dominant
//! components, and combining them to create a single tree. … in the more
//! general case, this requires the use of a planner."
//!
//! * [`plan`] — composition plans as DAGs of *roles* (semantic service
//!   requirements) with required/optional steps for graceful degradation.
//! * [`htn`] — an HTN-style method library and decomposer ("we feel that
//!   existing planning techniques are adequate for our purposes").
//! * [`manager`] — the two composition architectures §3 contrasts: the
//!   **centralized broker** (binds every step up-front, coordinates from
//!   one point, suffers stale bindings under churn) and the **distributed
//!   reactive** manager (binds late, re-discovers on failure — the
//!   architecture of the authors' PWC'02 prototype \[5\]).
//! * [`proactive`] — proactive vs. reactive composition: "We might want to
//!   pro-actively compute some generic information about services required
//!   to execute a query which is requested with a high frequency."

//! # Example
//!
//! ```
//! use pg_compose::htn::MethodLibrary;
//!
//! // The paper's stream-analysis decomposition, via the HTN planner.
//! let plan = MethodLibrary::pervasive_grid()
//!     .decompose("stream-ensemble-analysis")
//!     .unwrap();
//! assert_eq!(plan.len(), 4);
//! assert_eq!(plan.steps[0].role.name, "generate-trees");
//! assert_eq!(plan.critical_path_len(), 4); // a pure pipeline
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod htn;
pub mod manager;
pub mod plan;
pub mod proactive;

pub use htn::MethodLibrary;
pub use manager::{ExecutionReport, ManagerKind, ServiceWorld};
pub use plan::{Plan, Role};
