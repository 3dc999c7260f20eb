//! Determinism properties of the chaos harness: the reliable-messaging
//! retry count is a pure function of the seed — and does vary with it —
//! exercised through the full agent stack under 30 % message loss.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_agent::deputy::DirectDeputy;
use pg_agent::envelope::Payload;
use pg_agent::profile::{AgentAttribute, AgentProfile};
use pg_agent::{Agent, AgentSystem, Envelope, ReliableConfig};
use pg_bench::sweep;
use pg_net::link::LinkModel;
use pg_sim::fault::FaultPlan;
use pg_sim::SimTime;

struct Echo {
    profile: AgentProfile,
}

impl Agent for Echo {
    fn profile(&self) -> &AgentProfile {
        &self.profile
    }
    fn handle(&mut self, _now: SimTime, env: Envelope) -> Vec<Envelope> {
        if env.content_type == "acl/ping" {
            vec![env.reply("acl/pong", Payload::Text("pong".into()))]
        } else {
            Vec::new()
        }
    }
}

struct Sink {
    profile: AgentProfile,
}

impl Agent for Sink {
    fn profile(&self) -> &AgentProfile {
        &self.profile
    }
    fn handle(&mut self, _now: SimTime, _env: Envelope) -> Vec<Envelope> {
        Vec::new()
    }
}

/// Total reliable-delivery retries for one seeded lossy ping run.
fn retries_for_seed(seed: u64) -> f64 {
    let mut sys = AgentSystem::new();
    sys.enable_reliability(ReliableConfig::default(), seed);
    sys.set_fault_plan(
        FaultPlan::builder(seed)
            .message_loss(0.3)
            .build()
            .expect("valid plan"),
    );
    let client = sys.register(
        Box::new(Sink {
            profile: AgentProfile::new().with_attr(AgentAttribute::Client),
        }),
        Box::new(DirectDeputy::new(LinkModel::wifi())),
    );
    let server = sys.register(
        Box::new(Echo {
            profile: AgentProfile::new(),
        }),
        Box::new(DirectDeputy::new(LinkModel::wifi())),
    );
    for _ in 0..12 {
        sys.send(Envelope::text(client, server, "acl/ping", "ping"));
    }
    sys.run_to_quiescence();
    // Lossy runs must actually complete: retries absorb the loss.
    assert_eq!(sys.metrics().counter("reliable.dead_letter"), 0);
    sys.metrics().counter("reliable.retries") as f64
}

#[test]
fn identical_seeds_identical_retry_totals() {
    assert_eq!(retries_for_seed(3), retries_for_seed(3));
    assert_eq!(retries_for_seed(9), retries_for_seed(9));
    // And the per-seed function really is seed-sensitive, not constant
    // (every run above and below also asserts it left no dead letter).
    let [retries] = sweep(8, |seed| [retries_for_seed(seed)]);
    assert!(
        retries.max() > retries.min(),
        "retries should vary with seed"
    );
}
