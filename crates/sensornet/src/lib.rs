//! `pg-sensornet` — the sensor-network layer of the pervasive grid.
//!
//! This crate implements the data side of the paper's §4 scenario: "a
//! building with temperature sensors embedded at various locations … They
//! generate streams of temperature data" and the three in-network solution
//! models it enumerates:
//!
//! * **direct collection** — "all sensors would send their data to the base
//!   station" ([`collect::direct_collection`]),
//! * **cluster-based** — "Sensors are divided into clusters and each cluster
//!   has a cluster head … aggregate information … and send it to the base
//!   station" ([`cluster`]),
//! * **aggregation trees** — "Data centric routing techniques can be used to
//!   form aggregation trees" ([`collect::tree_aggregation`], TAG-style
//!   partial-state merging).
//!
//! [`field`] models the physical phenomenon (ambient temperature plus
//! spreading fires), [`aggregate`] the decomposable aggregate functions with
//! mergeable partial state, and [`region`] the spatial predicates used by
//! `WHERE` clauses ("room #210").
//!
//! All five epoch bodies (direct, tree, cluster, summaries, [`shared`]) bill
//! through the crate-private meter in [`collect`]: the one place a sample,
//! a radio hop and an epoch's energy are priced.

//! # Example
//!
//! ```
//! use pg_sensornet::aggregate::{AggFn, Partial};
//!
//! // TAG's partial-state algebra: merge equals flat computation.
//! let mut left = Partial::from_readings(&[20.0, 22.0]);
//! let right = Partial::from_readings(&[24.0]);
//! left.merge(&right);
//! assert_eq!(left.finalize(AggFn::Avg), Some(22.0));
//! assert_eq!(left.finalize(AggFn::Max), Some(24.0));
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod arena;
pub mod cluster;
pub mod collect;
pub mod field;
pub mod network;
pub mod proxy;
pub mod region;
pub mod shared;
pub mod stream;

pub use aggregate::{AggFn, Partial};
pub use collect::CollectionReport;
pub use field::TemperatureField;
pub use network::SensorNetwork;
pub use region::Region;
pub use shared::{SharedQuery, SharedTreeSession, TreeMaintenance};
