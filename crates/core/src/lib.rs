//! `pg-core` — the Pervasive Grid runtime environment.
//!
//! "We propose a runtime environment for the Pervasive Grid that utilizes a
//! multi agent framework, and provides for discovery of services being
//! offered by sensors, embedded and mobile devices, and their composition.
//! The computation in this environment needs to be dynamically partitioned
//! between the traditional Grid and elements that constitute the pervasive
//! environment." (Abstract)
//!
//! [`runtime::PervasiveGrid`] is that runtime: it owns the sensor network,
//! the wired grid, the named regions, and the adaptive decision maker, and
//! drives the full Figure-1 pipeline for each submitted query string —
//! parse → classify → extract features → choose a solution model (COST
//! bounds enforced) → execute on the substrates → feed actuals back to the
//! learner.
//!
//! [`agents`] exposes the runtime through the Ronin-style middleware (a
//! handheld client agent talks to a query-processor agent over envelopes),
//! and [`scenario`] builds the paper's burning-building scenario end to
//! end, including the service-composition front half.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod agents;
pub mod broker_agent;
pub mod error;
pub mod multiquery;
pub mod runtime;
pub mod scenario;

pub use error::PgError;
pub use multiquery::GridRuntime;
pub use pg_partition::decide::{DecisionConfig, DecisionMaker, Policy};
pub use pg_partition::learn::Reward;
pub use pg_sensornet::shared::{SharedTreeSession, TreeMaintenance};
pub use runtime::{
    CrossCellHandoff, DegradationReport, GridBuilder, PervasiveGrid, Provenance, QueryResponse,
};
pub use scenario::FireScenario;
