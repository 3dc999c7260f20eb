//! `pg-discovery` — semantic service discovery for the pervasive grid.
//!
//! §3 of the paper argues that syntactic discovery (Jini interface lookup,
//! Bluetooth SDP's 128-bit UUIDs) "not only limits interoperability, but
//! forces a client to know a-priori how to describe a service it needs in
//! terms of an interface. Moreover, they return 'exact' matches and can only
//! handle equality constraints." Its canonical example: Jini can find a
//! printer that implements `printIt()`, but not "a printer service that has
//! the shortest print queue, that is geographically the closest, or that
//! will print in color but only within a prespecified cost constraint."
//!
//! This crate implements the semantic alternative the paper proposes
//! (DAML/DAML-S stands in for [`ontology`] + [`description`]):
//!
//! * [`ontology`] — a class DAG with subsumption queries.
//! * [`description`] — service capabilities/constraints as typed properties
//!   over ontology classes.
//! * [`matcher`] — fuzzy subsumption matching with non-equality constraints
//!   and preference-based ranking ("this matching is fuzzy, and often
//!   recommends a ranked list of matches").
//! * [`baselines`] — the Jini-interface and Bluetooth-SDP-UUID comparators.
//! * [`registry`] / [`broker`] — a single registry and the distributed
//!   broker federation ("a distributed set of brokers could be created").
//! * [`corpus`] — deterministic service corpora for the T4 experiments.

//! # Example
//!
//! ```
//! use pg_discovery::description::{Preference, ServiceDescription, ServiceRequest, Value};
//! use pg_discovery::matcher;
//! use pg_discovery::ontology::Ontology;
//!
//! let onto = Ontology::pervasive_grid();
//! let printer = onto.class("PrinterService").unwrap();
//! let color = onto.class("ColorPrinterService").unwrap();
//! let services = vec![
//!     ServiceDescription::new("lobby", color).with_prop("queue_length", Value::Num(4.0)),
//!     ServiceDescription::new("lab", color).with_prop("queue_length", Value::Num(0.0)),
//! ];
//! // "a printer service that has the shortest print queue" (the paper's
//! // own example Jini cannot express):
//! let req = ServiceRequest::for_class(printer)
//!     .with_preference(Preference::Minimize("queue_length".into()));
//! let ranked = matcher::rank(&onto, &req, &services);
//! assert_eq!(ranked[0].index, 1); // the empty-queue lab printer wins
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod baselines;
pub mod broker;
pub mod corpus;
pub mod description;
pub mod matcher;
pub mod ontology;
pub mod registry;

pub use description::{Constraint, Preference, ServiceDescription, ServiceRequest, Value};
pub use matcher::MatchGrade;
pub use ontology::{ClassId, Ontology};
pub use registry::{Registry, ServiceId};
