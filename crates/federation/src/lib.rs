//! `pg-federation` — multi-cell federation for the pervasive grid.
//!
//! The paper's Figure 1 shows one base station fronting one sensor field;
//! a *pervasive* grid is many of those cells stitched together so mobile
//! users get seamless access as they roam. This crate runs N cells — each
//! owning its own [`MultiQueryRuntime`](pg_runtime::MultiQueryRuntime)
//! over its own [`PervasiveGrid`](pg_core::PervasiveGrid) — connected by
//! a seeded deterministic gossip layer, with no central orchestrator:
//!
//! * [`gossip`] — anti-entropy membership with heartbeat suspicion and
//!   eviction (introducer bootstrap, volunteer churn tolerated), load
//!   digests piggybacked on every exchange;
//! * [`handoff`] — replicated handoff records, D-GRID style:
//!   pending / in-progress / completed, merged phase-dominantly;
//! * [`roaming`] — mobility traces over cells plus a next-cell Markov
//!   predictor that pre-warms plan caches at the predicted destination;
//! * [`cell`] — one base-station cell: runtime, plan cache, membership
//!   replica, handoff ledger, inter-cell agent address;
//! * [`federation`] — the driver: routes roaming users' arrivals, runs
//!   gossip rounds, migrates in-flight queries (or forwards results home)
//!   over the reliable agent bus, and redirects admissions away from dead
//!   or shedding cells into neighbors that honor their own overload
//!   watermarks.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cell;
pub mod federation;
pub mod gossip;
pub mod handoff;
pub mod roaming;

pub use cell::Cell;
pub use federation::{quantile, Federation, FederationConfig};
pub use gossip::{gossip_round, CellId, GossipConfig, LoadDigest, Membership};
pub use handoff::{HandoffRecord, HandoffStore};
pub use roaming::{commute_traces, RoamingConfig, Trace};
