//! `pgbench` — the pervasive-grid workspace's end-to-end benchmark.
//!
//! Two ledgers, kept apart: *host* cost (what the simulator takes to run
//! on this machine) and *simulated* cost (what the handheld user waits
//! for and the sensors spend). See `README.md` beside this crate.

pub mod compare;
pub mod ledger;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod suite;
pub mod timed;
pub mod trace;
pub mod workloads;
