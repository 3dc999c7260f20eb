//! `pg-partition` — dynamic partition of computation between the sensor
//! network, the base station/handheld, and the wired Grid.
//!
//! §4 is the paper's concrete technical proposal: "The problem that we
//! intend to solve is to dynamically partition the computation needed for
//! the execution of the query", with three placements —
//!
//! 1. "The data is moved to the resources on the grid, which do the
//!    computation" ([`model::SolutionModel::GridOffload`]),
//! 2. "The computation is done in the sensor network"
//!    ([`model::SolutionModel::InNetworkTree`] /
//!    [`model::SolutionModel::InNetworkCluster`]),
//! 3. "The data is delivered to the base station/PDA, which perform the
//!    computation" ([`model::SolutionModel::BaseStation`]),
//!
//! — selected per query by a decision maker fed with *estimates* of
//! computation, data transfer, energy, and response time, and made
//! *adaptive* "by comparing the estimates … with the actual values …
//! during the execution of the query" using "standard machine learning
//! techniques": a k-NN cost regressor after Pythia \[14\], or a contextual
//! LinUCB bandit that also learns from observed degradation ([`learn`]).
//!
//! The three components the paper names map to: Query Processor =
//! `pg-query`, Decision Maker = [`decide`], Simulator = [`exec`] over
//! `pg-sensornet`/`pg-grid`.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod decide;
pub mod estimate;
pub mod exec;
pub mod features;
pub mod knn;
pub mod learn;
pub mod model;

pub use decide::{DecisionConfig, DecisionMaker, Policy};
pub use exec::{execute_once, ExecContext, ExecError, Outcome};
pub use features::QueryFeatures;
pub use learn::{bandit_candidates, Reward};
pub use model::{CostVector, CostWeights, SolutionModel};
