//! `pg-agent` — the multi-agent middleware of the pervasive grid.
//!
//! §2 of the paper describes the Ronin Agent Framework: services are
//! modelled as agents, each split into an **Agent** (the service proper)
//! and an **Agent Deputy** (its front-end, which "must implement a deliver
//! method" and can provide "transcoding or disconnection management").
//! Messages travel inside **Envelope** objects carrying "the type of content
//! message and the ontology identifier of the content message", and each
//! agent carries two attribute sets: framework-defined **Agent Attributes**
//! and domain-specific **Domain Attributes**.
//!
//! This crate is that contract in Rust:
//!
//! * [`envelope`] — typed envelopes with content-type + ontology id.
//! * [`profile`] — agent vs. domain attribute split.
//! * [`deputy`] — the `deliver` abstraction, with direct,
//!   disconnection-managing, and transcoding deputies.
//! * [`system`] — a deterministic message bus on the `pg-sim` kernel that
//!   routes envelopes through deputies into agent handlers.

//! # Example
//!
//! ```
//! use pg_agent::envelope::{AgentId, Envelope, Payload};
//!
//! // The Ronin envelope: arbitrary content under a uniform wrapper.
//! let e = Envelope::new(
//!     AgentId(1),
//!     AgentId(2),
//!     "acl/request",
//!     "pg:sensor-services",
//!     Payload::Text("find temperature sensors".into()),
//! );
//! let reply = e.reply("acl/inform", Payload::Number(21.5));
//! assert_eq!(reply.to, AgentId(1));
//! assert_eq!(reply.ontology, "pg:sensor-services");
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod deputy;
pub mod envelope;
pub mod negotiate;
pub mod profile;
pub mod system;

pub use deputy::{DirectDeputy, TranscodingDeputy};
pub use envelope::{AgentId, Envelope, Payload};
pub use profile::{AgentAttribute, AgentProfile};
pub use system::{Agent, AgentSystem, ReliableConfig};
