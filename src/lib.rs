//! `pervasive-grid` — a Rust reproduction of *Towards a Pervasive Grid*
//! (Hingne, Joshi, Finin, Kargupta, Houstis — IPDPS/IPPS 2003).
//!
//! This facade re-exports the workspace crates under stable module names so
//! downstream users depend on one crate:
//!
//! * [`sim`] — deterministic discrete-event kernel (clock, queue, RNG
//!   streams, metrics).
//! * [`net`] — wireless substrate (radio energy model, links, topologies,
//!   routing, mobility, churn).
//! * [`sensornet`] — sensor layer (field, aggregation, clustering,
//!   collection strategies, lifetime).
//! * [`grid`] — wired grid (job scheduler, 3-D PDE solvers,
//!   region-averaging reduction).
//! * [`agent`] — Ronin-style multi-agent middleware (agents, deputies,
//!   envelopes).
//! * [`discovery`] — semantic service discovery (ontology, fuzzy ranked
//!   matcher, Jini/SDP baselines, broker federation).
//! * [`compose`] — service composition (HTN planner, centralized vs
//!   distributed-reactive managers, proactive plan cache).
//! * [`query`] — the `SELECT … WHERE … COST … EPOCH` query language.
//! * [`partition`] — dynamic partition of computation (solution models,
//!   estimators, adaptive k-NN decision maker).
//! * [`runtime`] — multi-query scheduler (admission control, epoch
//!   scheduling policies, per-query attribution, open-loop streaming
//!   arrivals with handle-based poll/cancel) over any
//!   [`runtime::QueryEngine`].
//! * [`core`] — the runtime tying it all together, plus the Figure-1
//!   fire scenario.
//!
//! # Quickstart
//!
//! ```
//! use pervasive_grid::core::PervasiveGrid;
//!
//! // A one-floor building of 5x5 sensors, base station at a corner.
//! let mut pg = PervasiveGrid::building(1, 5, 42).build();
//! let r = pg.submit("SELECT AVG(temp) FROM sensors").unwrap();
//! assert!((r.value.unwrap() - 21.0).abs() < 3.0); // calm building
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

// The one name a root test spells without its module path.
pub use pg_core::TreeMaintenance;

pub use pg_agent as agent;
pub use pg_compose as compose;
pub use pg_core as core;
pub use pg_discovery as discovery;
pub use pg_federation as federation;
pub use pg_grid as grid;
pub use pg_net as net;
pub use pg_partition as partition;
pub use pg_query as query;
pub use pg_runtime as runtime;
pub use pg_sensornet as sensornet;
pub use pg_sim as sim;
