//! Envelopes: the meta-level message wrapper of the Ronin design.
//!
//! "The messages that are interchanged between Ronin Agents are embedded
//! within Envelope objects during the delivery process. This meta-level
//! approach allows Ronin Agents to interchange messages with arbitrary
//! content message types under a uniform communication infrastructure.
//! Within each Envelope object, the type of content message and the
//! ontology identifier of the content message are also stored." (§2)

use pg_sim::SimTime;
use std::fmt;
use std::sync::Arc;

/// Globally unique agent identity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(pub u64);

impl fmt::Debug for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent#{}", self.0)
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent#{}", self.0)
    }
}

/// Message body: arbitrary content under a uniform wrapper.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// UTF-8 text (ACL performatives, query strings, DAML-ish descriptions).
    Text(String),
    /// Raw bytes (serialized readings, partial aggregates, model blobs);
    /// shared, so cloning an envelope does not copy the body.
    Binary(Arc<[u8]>),
    /// A bare numeric result.
    Number(f64),
}

impl Payload {
    /// Size on the wire, bytes (what deputies and links charge for).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Payload::Text(s) => s.len() as u64,
            Payload::Binary(b) => b.len() as u64,
            Payload::Number(_) => 8,
        }
    }

    /// Borrow text content if this is a text payload.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Payload::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content if this is a number payload.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Payload::Number(x) => Some(*x),
            _ => None,
        }
    }
}

/// The uniform message wrapper.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sending agent.
    pub from: AgentId,
    /// Receiving agent.
    pub to: AgentId,
    /// Content message type (e.g. `"acl/request"`, `"data/partial"`).
    pub content_type: String,
    /// Ontology identifier the content is expressed in
    /// (e.g. `"pg:sensor-services"`).
    pub ontology: String,
    /// The content itself.
    pub payload: Payload,
    /// When the envelope was handed to the infrastructure.
    pub sent_at: SimTime,
    /// Reliable-delivery sequence number, stamped by the system when
    /// reliability is enabled; `0` means fire-and-forget (the default).
    /// Receivers use it to detect retransmitted duplicates.
    pub seq: u64,
}

impl Envelope {
    /// Convenience constructor; `sent_at` is stamped by the system at
    /// scheduling time, so it starts at zero here.
    pub fn new(
        from: AgentId,
        to: AgentId,
        content_type: impl Into<String>,
        ontology: impl Into<String>,
        payload: Payload,
    ) -> Self {
        Envelope {
            from,
            to,
            content_type: content_type.into(),
            ontology: ontology.into(),
            payload,
            sent_at: SimTime::ZERO,
            seq: 0,
        }
    }

    /// A text message with the default agent-communication ontology.
    pub fn text(from: AgentId, to: AgentId, content_type: &str, body: impl Into<String>) -> Self {
        Envelope::new(from, to, content_type, "pg:acl", Payload::Text(body.into()))
    }

    /// Shorthand for a binary envelope on the default ontology — the
    /// shape cross-cell handoffs use to carry partial results and
    /// forwarded answers, where only the byte count matters to the wire.
    pub fn binary(
        from: AgentId,
        to: AgentId,
        content_type: &str,
        body: impl Into<Arc<[u8]>>,
    ) -> Self {
        Envelope::new(
            from,
            to,
            content_type,
            "pg:acl",
            Payload::Binary(body.into()),
        )
    }

    /// Total wire size: payload plus a fixed 64-byte envelope header
    /// (addresses, type and ontology tags).
    pub fn wire_bytes(&self) -> u64 {
        64 + self.payload.wire_bytes()
    }

    /// Build the conventional reply envelope (swapped endpoints, same
    /// ontology).
    pub fn reply(&self, content_type: &str, payload: Payload) -> Envelope {
        Envelope::new(
            self.to,
            self.from,
            content_type,
            self.ontology.clone(),
            payload,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::Text("hello".into()).wire_bytes(), 5);
        assert_eq!(Payload::Binary([0; 40].into()).wire_bytes(), 40);
        assert_eq!(Payload::Number(1.5).wire_bytes(), 8);
    }

    #[test]
    fn envelope_wire_size_includes_header() {
        let e = Envelope::text(AgentId(1), AgentId(2), "acl/request", "ping");
        assert_eq!(e.wire_bytes(), 64 + 4);
    }

    #[test]
    fn reply_swaps_endpoints_and_keeps_ontology() {
        let e = Envelope::new(
            AgentId(1),
            AgentId(2),
            "acl/request",
            "pg:sensors",
            Payload::Number(3.0),
        );
        let r = e.reply("acl/inform", Payload::Number(4.0));
        assert_eq!(r.from, AgentId(2));
        assert_eq!(r.to, AgentId(1));
        assert_eq!(r.ontology, "pg:sensors");
        assert_eq!(r.content_type, "acl/inform");
    }

    #[test]
    fn payload_accessors() {
        assert_eq!(Payload::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Payload::Number(2.0).as_number(), Some(2.0));
        assert_eq!(Payload::Number(2.0).as_text(), None);
    }
}
