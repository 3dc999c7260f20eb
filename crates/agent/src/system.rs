//! The deterministic message bus: agents + deputies on the `pg-sim` kernel.
//!
//! An [`AgentSystem`] owns a set of agents, each fronted by a [`Deputy`].
//! Envelopes are simulation events: when one fires, it is handed to the
//! destination's deputy; if delivered, the agent handler runs and its
//! outgoing envelopes are scheduled after the transport delay the deputy
//! reported. Queued envelopes are re-examined whenever the system polls
//! deputies (a periodic flush tick), reproducing disconnection tolerance.
//!
//! ## Reliable delivery
//!
//! With [`AgentSystem::enable_reliability`] every envelope gets a sequence
//! number, an ack timer and bounded retransmissions with exponential
//! backoff plus deterministic jitter (derived by hashing, not by a shared
//! RNG, so identical seeds replay identically). Receivers acknowledge and
//! deduplicate by sequence number; a message that exhausts its retries is
//! counted as a dead letter. Combined with an installed [`FaultPlan`]
//! (see [`AgentSystem::set_fault_plan`]) this is the paper's §3 requirement
//! made concrete: the agent platform "degrades gracefully" — lossy
//! transport costs latency and energy, not answers, until loss exceeds the
//! retry budget.

use crate::deputy::{DeliveryOutcome, Deputy};
use crate::envelope::{AgentId, Envelope};
use crate::profile::{AgentAttribute, AgentProfile};
use pg_sim::fault::{FaultInjector, FaultPlan, MessageFate};
use pg_sim::metrics::Metrics;
use pg_sim::rng::mix;
use pg_sim::{Duration, Model, Scheduler, SimTime, Simulation};
use std::collections::{BTreeMap, BTreeSet};

/// Multiplier applied to the ack timeout per retry (exponential backoff).
const BACKOFF: f64 = 2.0;
/// Uniform jitter fraction added to each backoff delay (up to +10 %),
/// de-synchronizing retry bursts deterministically.
const JITTER_FRAC: f64 = 0.1;
/// Receiver-side processing delay before the ack is considered sent.
const ACK_DELAY: Duration = Duration::from_millis(10);
/// How long to wait for an ack before the first retransmission.
const ACK_TIMEOUT: Duration = Duration::from_secs(5);
/// Retransmissions after the initial send before dead-lettering.
const MAX_RETRIES: u32 = 5;
/// How long an open breaker short-circuits before probing again. A
/// half-open probe still burns a full retry budget, so a cooldown shorter
/// than the typical gap between sends would turn every suppressed send
/// into a probe and cap nothing.
const BREAKER_OPEN_FOR: Duration = Duration::from_secs(600);

/// Tuning for per-envelope ack/retry semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReliableConfig {
    /// Per-peer circuit breaker over dead-letter outcomes. Off (the
    /// default) keeps the classic behavior: every send to a dead peer
    /// burns its full retry budget.
    ///
    /// The breaker sits between `dispatch` and the wire, one instance per
    /// destination. **Closed** passes everything through; the first
    /// envelope toward the peer that dead-letters trips it **open**: sends
    /// short-circuit immediately (counted `breaker.short_circuit`),
    /// spending zero wire attempts on a peer that is demonstrably
    /// unreachable. After a 600 s cooldown the first send transitions to
    /// **half-open** and goes through as a probe; its ack closes the
    /// breaker (normal service resumes), its dead-letter re-opens for
    /// another cooldown.
    pub breaker: bool,
}

/// One peer's breaker position.
#[derive(Debug, Clone, Copy)]
enum BreakerState {
    /// Traffic flows.
    Closed,
    /// Short-circuiting until the cooldown elapses.
    Open { until: SimTime },
    /// One probe is in flight; everything else short-circuits.
    HalfOpen,
}

/// What the breaker says about one send.
enum BreakerGate {
    /// Closed (or no breaker configured): send normally.
    Admit,
    /// Cooldown elapsed: this send is the half-open probe.
    Probe,
    /// Open (or probe already in flight): drop without touching the wire.
    ShortCircuit,
}

/// One reliably-sent envelope awaiting its ack.
struct PendingSend {
    env: Envelope,
    /// Retransmissions performed so far.
    attempt: u32,
}

/// Reliable-delivery state: sequence numbering, pending table, dedup set.
struct Reliable {
    cfg: ReliableConfig,
    next_seq: u64,
    jitter_seed: u64,
    jitter_counter: u64,
    pending: BTreeMap<u64, PendingSend>,
    delivered: BTreeSet<u64>,
    breakers: BTreeMap<AgentId, BreakerState>,
}

impl Reliable {
    fn new(cfg: ReliableConfig, seed: u64) -> Self {
        Reliable {
            cfg,
            next_seq: 1,
            // Domain-separate the jitter stream from every other use of the
            // seed (the constant is ASCII "retry").
            jitter_seed: mix(seed, 0x0072_6574_7279),
            jitter_counter: 0,
            pending: BTreeMap::new(),
            delivered: BTreeSet::new(),
            breakers: BTreeMap::new(),
        }
    }

    /// May this send toward `to` touch the wire at `now`?
    fn breaker_gate(&mut self, to: AgentId, now: SimTime) -> BreakerGate {
        if !self.cfg.breaker {
            return BreakerGate::Admit;
        }
        match self.breakers.get_mut(&to) {
            None => BreakerGate::Admit,
            Some(st) => match *st {
                BreakerState::Closed => BreakerGate::Admit,
                BreakerState::Open { until } if now >= until => {
                    *st = BreakerState::HalfOpen;
                    BreakerGate::Probe
                }
                BreakerState::Open { .. } | BreakerState::HalfOpen => BreakerGate::ShortCircuit,
            },
        }
    }

    /// An envelope toward `to` dead-lettered; returns true when the
    /// breaker (re)opened.
    fn breaker_trip(&mut self, to: AgentId, now: SimTime) -> bool {
        if !self.cfg.breaker {
            return false;
        }
        let st = self.breakers.entry(to).or_insert(BreakerState::Closed);
        match st {
            // A closed breaker trips on its first dead letter; a dead
            // half-open probe sends it back to cooldown.
            BreakerState::Closed | BreakerState::HalfOpen => {
                *st = BreakerState::Open {
                    until: now + BREAKER_OPEN_FOR,
                };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// An ack from `to` arrived; returns true when a tripped breaker
    /// closed (half-open probe succeeded, or a straggler ack landed).
    fn breaker_reset(&mut self, to: AgentId) -> bool {
        match self.breakers.get_mut(&to) {
            Some(st) => {
                let was_tripped = !matches!(st, BreakerState::Closed);
                *st = BreakerState::Closed;
                was_tripped
            }
            None => false,
        }
    }

    /// Backoff delay before retry number `attempt` (0 = first ack wait),
    /// with deterministic multiplicative jitter from the hash stream.
    fn retry_delay(&mut self, attempt: u32) -> Duration {
        let base = ACK_TIMEOUT.as_secs_f64() * BACKOFF.powi(attempt as i32);
        // 53 explicitly-placed mantissa bits -> uniform in [0, 1).
        let u = (mix(self.jitter_seed, self.jitter_counter) >> 11) as f64 / (1u64 << 53) as f64;
        self.jitter_counter = self.jitter_counter.wrapping_add(1);
        Duration::from_secs_f64(base * (1.0 + JITTER_FRAC * u))
    }
}

/// Upcast helper so concrete agents can be recovered from the registry
/// (e.g. to read results out after a run). Blanket-implemented for every
/// `'static` type.
pub trait AsAny {
    /// View as `Any` for downcasting.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable view as `Any`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<T: std::any::Any> AsAny for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// An agent: a service with a profile and a message handler.
pub trait Agent: AsAny {
    /// The agent's self-description.
    fn profile(&self) -> &AgentProfile;

    /// Handle one delivered envelope, returning any envelopes to send.
    fn handle(&mut self, now: SimTime, env: Envelope) -> Vec<Envelope>;
}

impl dyn Agent {
    /// Downcast to a concrete agent type.
    pub fn downcast_ref<T: Agent + 'static>(&self) -> Option<&T> {
        self.as_any().downcast_ref::<T>()
    }

    /// Mutable downcast to a concrete agent type.
    pub fn downcast_mut<T: Agent + 'static>(&mut self) -> Option<&mut T> {
        self.as_any_mut().downcast_mut::<T>()
    }
}

/// Events inside the agent world.
enum Ev {
    /// An envelope in flight toward its destination deputy.
    Inbound(Envelope),
    /// Periodic deputy flush (releases disconnection queues).
    FlushTick,
    /// Ack timer for a reliably-sent envelope expired.
    RetryTimer(u64),
    /// The receiver's ack for sequence number `seq` reaches the sender.
    AckArrives(u64),
}

/// Dynamic wire predicate: `filter(from, to, now)` == false severs the
/// link for that frame (network partition / one-way cut).
type LinkFilter = Box<dyn Fn(AgentId, AgentId, SimTime) -> bool>;

struct World {
    agents: BTreeMap<AgentId, Box<dyn Agent>>,
    deputies: BTreeMap<AgentId, Box<dyn Deputy>>,
    metrics: Metrics,
    flush_every: Duration,
    injector: FaultInjector,
    reliable: Option<Reliable>,
    link_filter: Option<LinkFilter>,
}

impl Model for World {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Inbound(env) => self.route(now, env, sched),
            Ev::RetryTimer(seq) => self.retry(now, seq, sched),
            Ev::AckArrives(seq) => {
                if let Some(r) = self.reliable.as_mut() {
                    if let Some(p) = r.pending.remove(&seq) {
                        let closed = r.breaker_reset(p.env.to);
                        self.metrics.count("reliable.acked", 1);
                        if closed {
                            self.metrics.count("breaker.closed", 1);
                        }
                    }
                }
            }
            Ev::FlushTick => {
                let mut released = Vec::new();
                for (&id, deputy) in self.deputies.iter_mut() {
                    for (env, delay) in deputy.flush(now) {
                        released.push((id, env, delay));
                    }
                }
                for (_, env, delay) in released {
                    self.metrics.count("deputy.flushed", 1);
                    self.arrive(now + delay, env, sched);
                }
                // Keep ticking while anything might still be queued.
                let queued: usize = self.deputies.values().map(|d| d.queued()).sum();
                if queued > 0 {
                    sched.schedule_in(self.flush_every, Ev::FlushTick);
                }
            }
        }
    }
}

impl World {
    /// Hand an envelope to the infrastructure at `at`: stamp it, register
    /// it for reliable delivery when enabled, and put it in flight. The
    /// single entry point for both API sends and handler responses, so
    /// sequence numbering is uniform.
    fn dispatch(&mut self, at: SimTime, mut env: Envelope, sched: &mut Scheduler<Ev>) {
        env.sent_at = at;
        if let Some(r) = self.reliable.as_mut() {
            match r.breaker_gate(env.to, at) {
                BreakerGate::Admit => {}
                BreakerGate::Probe => self.metrics.count("breaker.probe", 1),
                BreakerGate::ShortCircuit => {
                    // Fail fast: no pending entry, no retry timers, no wire
                    // bytes — the peer was unreachable moments ago and the
                    // cooldown has not elapsed.
                    self.metrics.count("breaker.short_circuit", 1);
                    return;
                }
            }
            if env.seq == 0 {
                env.seq = r.next_seq;
                r.next_seq += 1;
            }
            self.metrics.count("reliable.sent", 1);
            let delay = r.retry_delay(0);
            r.pending.insert(
                env.seq,
                PendingSend {
                    env: env.clone(),
                    attempt: 0,
                },
            );
            sched.schedule_at(at + delay, Ev::RetryTimer(env.seq));
        }
        sched.schedule_at(at, Ev::Inbound(env));
    }

    /// An ack timer fired: retransmit (with backoff) or dead-letter.
    fn retry(&mut self, now: SimTime, seq: u64, sched: &mut Scheduler<Ev>) {
        let Some(r) = self.reliable.as_mut() else {
            return;
        };
        let Some(p) = r.pending.get_mut(&seq) else {
            return; // acked in the meantime
        };
        if p.attempt >= MAX_RETRIES {
            let to = p.env.to;
            r.pending.remove(&seq);
            let opened = r.breaker_trip(to, now);
            self.metrics.count("reliable.dead_letter", 1);
            if opened {
                self.metrics.count("breaker.opened", 1);
            }
            return;
        }
        p.attempt += 1;
        let attempt = p.attempt;
        let env = p.env.clone();
        let delay = r.retry_delay(attempt);
        self.metrics.count("reliable.retries", 1);
        sched.schedule_at(now + delay, Ev::RetryTimer(seq));
        self.route(now, env, sched);
    }

    // The early return above guarantees the destination deputy exists.
    #[allow(clippy::expect_used)]
    fn route(&mut self, now: SimTime, env: Envelope, sched: &mut Scheduler<Ev>) {
        if !self.deputies.contains_key(&env.to) {
            self.metrics.count("route.unknown_agent", 1);
            return;
        }
        self.metrics.count("route.sent", 1);
        self.metrics.count("route.bytes", env.wire_bytes());
        // A severed link (partition window, one-way cut) eats the frame on
        // the wire; reliable retries keep the envelope pending, so a cut
        // that heals within the retry budget costs latency, not the
        // message.
        if let Some(filter) = &self.link_filter {
            if !filter(env.from, env.to, now) {
                self.metrics.count("fault.link_cut", 1);
                return;
            }
        }
        // Injected faults act on the wire, before the deputy sees the
        // frame. A reliably-sent envelope that is killed here stays in the
        // pending table; its retry timer recovers it.
        let mut extra_delay = Duration::ZERO;
        if self.injector.plan().is_active() {
            match self.injector.next_fate(now) {
                MessageFate::Deliver => {}
                MessageFate::Drop => {
                    self.metrics.count("fault.dropped", 1);
                    return;
                }
                MessageFate::Corrupt => {
                    // The envelope header checksum fails at the receiver:
                    // indistinguishable from a drop at this layer.
                    self.metrics.count("fault.corrupted", 1);
                    return;
                }
                MessageFate::Delay(d) => {
                    self.metrics.count("fault.delayed", 1);
                    extra_delay = d;
                }
            }
        }
        let deputy = self
            .deputies
            .get_mut(&env.to)
            .expect("destination existence checked above");
        match deputy.deliver(env.clone(), now) {
            DeliveryOutcome::Delivered(delay) => {
                self.arrive(now + delay + extra_delay, env, sched);
            }
            DeliveryOutcome::Queued => {
                self.metrics.count("deputy.queued", 1);
                sched.schedule_in(self.flush_every, Ev::FlushTick);
            }
            DeliveryOutcome::Dropped(_) => {
                self.metrics.count("deputy.dropped", 1);
            }
        }
    }

    /// The envelope physically arrives: run the agent handler and schedule
    /// its responses.
    fn arrive(&mut self, at: SimTime, env: Envelope, sched: &mut Scheduler<Ev>) {
        let to = env.to;
        if env.seq != 0 {
            if let Some(r) = self.reliable.as_mut() {
                // Ack every copy (the first ack may race a retransmission),
                // but run the handler exactly once per sequence number.
                sched.schedule_at(at + ACK_DELAY, Ev::AckArrives(env.seq));
                if !r.delivered.insert(env.seq) {
                    self.metrics.count("reliable.duplicate", 1);
                    return;
                }
            }
        }
        let Some(agent) = self.agents.get_mut(&to) else {
            return;
        };
        self.metrics.count("route.delivered", 1);
        // Deliver as its own event so the handler runs at arrival time.
        struct Pending(Vec<Envelope>);
        let latency = at.since(env.sent_at);
        self.metrics
            .observe("route.latency_s", latency.as_secs_f64());
        let outs = Pending(agent.handle(at, env));
        for out in outs.0 {
            self.dispatch(at, out, sched);
        }
    }
}

/// A running multi-agent world.
pub struct AgentSystem {
    sim: Simulation<World>,
    next_id: u64,
}

impl Default for AgentSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl AgentSystem {
    /// An empty system with a 1-second deputy flush tick.
    pub fn new() -> Self {
        AgentSystem {
            sim: Simulation::new(World {
                agents: BTreeMap::new(),
                deputies: BTreeMap::new(),
                metrics: Metrics::new(),
                flush_every: Duration::from_secs(1),
                injector: FaultInjector::new(FaultPlan::none()),
                reliable: None,
                link_filter: None,
            }),
            next_id: 1,
        }
    }

    /// Turn on per-envelope ack/retry semantics for everything sent from
    /// now on. `seed` fixes the deterministic jitter stream; two systems
    /// with identical seeds, agents and fault plans replay identically.
    pub fn enable_reliability(&mut self, cfg: ReliableConfig, seed: u64) {
        self.sim.model.reliable = Some(Reliable::new(cfg, seed));
    }

    /// Install a fault plan acting on the agent wire: per-message drop,
    /// corruption and delay plus link-blackout windows. The empty plan
    /// (the default) changes nothing.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.sim.model.injector = FaultInjector::new(plan);
    }

    /// Install a dynamic wire predicate: a frame from `from` to `to` at
    /// `now` for which the filter returns false is dropped on the wire
    /// (counted `fault.link_cut`). Models network partitions and
    /// asymmetric one-way cuts; with reliability on, the envelope stays
    /// pending and its retries go through once the filter heals — or
    /// dead-letter (tripping the per-peer breaker) if it does not.
    pub fn set_link_filter(
        &mut self,
        filter: impl Fn(AgentId, AgentId, SimTime) -> bool + 'static,
    ) {
        self.sim.model.link_filter = Some(Box::new(filter));
    }

    /// Advance the bus clock to `t`, processing everything due before it.
    /// No-op when the clock is already at or past `t`. Federated drivers
    /// with time-windowed link faults call this at each window boundary so
    /// in-flight retries experience cut and heal at the right instants.
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.sim.now() {
            return;
        }
        // A flush tick at exactly `t` is both harmless and useful (it
        // releases any reconnected deputy queues) and pins the clock to
        // `t` once processed.
        self.sim.sched.schedule_at(t, Ev::FlushTick);
        self.sim.run_until(t);
    }

    /// Register an agent behind a deputy; returns its fresh id.
    pub fn register(&mut self, agent: Box<dyn Agent>, deputy: Box<dyn Deputy>) -> AgentId {
        let id = AgentId(self.next_id);
        self.next_id += 1;
        self.sim.model.agents.insert(id, agent);
        self.sim.model.deputies.insert(id, deputy);
        id
    }

    /// Ids of all agents whose profile carries `attr` — the bootstrapping
    /// lookup the paper's agent attributes exist for.
    pub fn find_by_attr(&self, attr: AgentAttribute) -> Vec<AgentId> {
        self.sim
            .model
            .agents
            .iter()
            .filter(|(_, a)| a.profile().has(attr))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Inject an envelope into the system at the current simulation time.
    pub fn send(&mut self, env: Envelope) {
        let now = self.sim.sched.now();
        self.sim.model.dispatch(now, env, &mut self.sim.sched);
    }

    /// Run until the event queue drains (all conversations finished).
    pub fn run_to_quiescence(&mut self) {
        self.sim.run();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.sim.model.metrics
    }

    /// Borrow an agent for inspection (tests, result extraction).
    pub fn agent(&self, id: AgentId) -> Option<&(dyn Agent + 'static)> {
        self.sim.model.agents.get(&id).map(|b| b.as_ref())
    }

    /// Run `f` with mutable access to an agent (post-registration wiring,
    /// e.g. telling an initiator its own id).
    pub fn with_agent_mut<R>(
        &mut self,
        id: AgentId,
        f: impl FnOnce(&mut (dyn Agent + 'static)) -> R,
    ) -> Option<R> {
        self.sim.model.agents.get_mut(&id).map(|b| f(b.as_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deputy::{DirectDeputy, DisconnectionDeputy};
    use crate::envelope::Payload;
    use pg_net::churn::ChurnSchedule;
    use pg_net::link::LinkModel;

    /// Replies to "acl/ping" with "acl/pong"; counts what it saw.
    struct Ponger {
        profile: AgentProfile,
        pings: u32,
    }

    impl Ponger {
        fn new() -> Self {
            Ponger {
                profile: AgentProfile::new().with_attr(AgentAttribute::ServiceProvider),
                pings: 0,
            }
        }
    }

    impl Agent for Ponger {
        fn profile(&self) -> &AgentProfile {
            &self.profile
        }
        fn handle(&mut self, _now: SimTime, env: Envelope) -> Vec<Envelope> {
            if env.content_type == "acl/ping" {
                self.pings += 1;
                vec![env.reply("acl/pong", Payload::Text("pong".into()))]
            } else {
                Vec::new()
            }
        }
    }

    /// Sends pings and counts pongs.
    struct Pinger {
        profile: AgentProfile,
        pongs: u32,
    }

    impl Pinger {
        fn new() -> Self {
            Pinger {
                profile: AgentProfile::new().with_attr(AgentAttribute::Client),
                pongs: 0,
            }
        }
    }

    impl Agent for Pinger {
        fn profile(&self) -> &AgentProfile {
            &self.profile
        }
        fn handle(&mut self, _now: SimTime, env: Envelope) -> Vec<Envelope> {
            if env.content_type == "acl/pong" {
                self.pongs += 1;
            }
            Vec::new()
        }
    }

    fn direct() -> Box<DirectDeputy> {
        Box::new(DirectDeputy::new(LinkModel::wifi()))
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sys = AgentSystem::new();
        let pinger = sys.register(Box::new(Pinger::new()), direct());
        let ponger = sys.register(Box::new(Ponger::new()), direct());
        sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
        sys.run_to_quiescence();
        assert_eq!(sys.metrics().counter("route.delivered"), 2); // ping + pong
        assert!(sys.now() > SimTime::ZERO, "transport must take time");
        let m = sys.metrics().summary("route.latency_s");
        assert_eq!(m.count(), 2);
        assert!(m.mean() > 0.0);
    }

    #[test]
    fn attribute_lookup_finds_providers() {
        let mut sys = AgentSystem::new();
        let _c = sys.register(Box::new(Pinger::new()), direct());
        let p1 = sys.register(Box::new(Ponger::new()), direct());
        let p2 = sys.register(Box::new(Ponger::new()), direct());
        let found = sys.find_by_attr(AgentAttribute::ServiceProvider);
        assert_eq!(found, vec![p1, p2]);
        assert_eq!(sys.find_by_attr(AgentAttribute::Broker), vec![]);
    }

    #[test]
    fn unknown_destination_is_counted_not_fatal() {
        let mut sys = AgentSystem::new();
        let a = sys.register(Box::new(Pinger::new()), direct());
        sys.send(Envelope::text(a, AgentId(999), "acl/ping", "?"));
        sys.run_to_quiescence();
        assert_eq!(sys.metrics().counter("route.unknown_agent"), 1);
    }

    #[test]
    fn reliability_survives_heavy_message_loss() {
        // 40 % of frames die on the wire; with acks and 5 retries every
        // ping and pong still lands exactly once.
        let mut sys = AgentSystem::new();
        sys.enable_reliability(ReliableConfig::default(), 42);
        sys.set_fault_plan(FaultPlan::builder(42).message_loss(0.4).build().unwrap());
        let pinger = sys.register(Box::new(Pinger::new()), direct());
        let ponger = sys.register(Box::new(Ponger::new()), direct());
        for _ in 0..20 {
            sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
        }
        sys.run_to_quiescence();
        let m = sys.metrics();
        assert!(m.counter("fault.dropped") > 0, "loss must actually bite");
        assert!(m.counter("reliable.retries") > 0);
        assert_eq!(m.counter("reliable.dead_letter"), 0);
        let ponger_saw = sys
            .agent(ponger)
            .and_then(|a| a.downcast_ref::<Ponger>())
            .map(|p| p.pings)
            .unwrap();
        assert_eq!(ponger_saw, 20, "every ping processed exactly once");
        let pongs = sys
            .agent(pinger)
            .and_then(|a| a.downcast_ref::<Pinger>())
            .map(|p| p.pongs)
            .unwrap();
        assert_eq!(pongs, 20, "every pong processed exactly once");
    }

    #[test]
    fn total_loss_dead_letters_after_bounded_retries() {
        let mut sys = AgentSystem::new();
        sys.enable_reliability(ReliableConfig::default(), 7);
        sys.set_fault_plan(FaultPlan::builder(7).message_loss(1.0).build().unwrap());
        let pinger = sys.register(Box::new(Pinger::new()), direct());
        let ponger = sys.register(Box::new(Ponger::new()), direct());
        sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
        sys.run_to_quiescence();
        let m = sys.metrics();
        assert_eq!(m.counter("reliable.retries"), 5);
        assert_eq!(m.counter("route.sent"), 6, "the send plus five retries");
        assert_eq!(m.counter("reliable.dead_letter"), 1);
        assert_eq!(m.counter("route.delivered"), 0);
    }

    #[test]
    fn identical_seeds_replay_identical_retry_totals() {
        let run = |seed: u64| {
            let mut sys = AgentSystem::new();
            sys.enable_reliability(ReliableConfig::default(), seed);
            sys.set_fault_plan(
                FaultPlan::builder(seed)
                    .message_loss(0.3)
                    .message_delay(0.2, Duration::from_millis(250))
                    .build()
                    .unwrap(),
            );
            let pinger = sys.register(Box::new(Pinger::new()), direct());
            let ponger = sys.register(Box::new(Ponger::new()), direct());
            for _ in 0..10 {
                sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
            }
            sys.run_to_quiescence();
            (
                sys.metrics().counter("reliable.retries"),
                sys.metrics().counter("reliable.acked"),
                sys.metrics().counter("fault.dropped"),
                sys.metrics().counter("fault.delayed"),
                sys.now(),
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds see different faults");
    }

    #[test]
    fn breaker_caps_wasted_attempts_toward_a_dead_peer() {
        // 20 sends into total loss. Without the breaker every one burns
        // its full retry budget; with it, only the first does.
        let run = |breaker: bool| {
            let mut sys = AgentSystem::new();
            sys.enable_reliability(ReliableConfig { breaker }, 11);
            sys.set_fault_plan(FaultPlan::builder(11).message_loss(1.0).build().unwrap());
            let pinger = sys.register(Box::new(Pinger::new()), direct());
            let ponger = sys.register(Box::new(Ponger::new()), direct());
            // One send per "window", each given time to resolve — the
            // shape a federated driver produces, and the one a breaker can
            // actually help with (a burst dispatched before the first
            // dead-letter is already on the wire).
            for _ in 0..20 {
                sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
                sys.run_to_quiescence();
            }
            (
                sys.metrics().counter("route.sent"),
                sys.metrics().counter("reliable.dead_letter"),
                sys.metrics().counter("breaker.short_circuit"),
                sys.metrics().counter("breaker.opened"),
            )
        };
        let (sent_off, dead_off, sc_off, opened_off) = run(false);
        let (sent_on, dead_on, sc_on, opened_on) = run(true);
        assert_eq!(sc_off, 0);
        assert_eq!(opened_off, 0);
        assert_eq!(dead_off, 20, "every send dead-letters without a breaker");
        assert_eq!(opened_on, 1, "breaker trips exactly once");
        assert_eq!(dead_on, 1, "only the tripping send burns a retry budget");
        assert_eq!(sc_on + dead_on, 20, "every send accounted for");
        assert!(
            sent_on * 4 < sent_off,
            "breaker must cap wire attempts: {sent_on} vs {sent_off}"
        );
    }

    #[test]
    fn breaker_half_open_probe_recloses_after_heal() {
        // The link to the ponger is physically cut for the first 400 s,
        // then heals. The breaker opens during the cut, short-circuits the
        // traffic offered meanwhile, probes after its cooldown, and closes
        // — after which delivery resumes end-to-end.
        let mut sys = AgentSystem::new();
        sys.enable_reliability(ReliableConfig { breaker: true }, 13);
        let pinger = sys.register(Box::new(Pinger::new()), direct());
        let ponger = sys.register(Box::new(Ponger::new()), direct());
        // Five retries backing off from 5 s give up after 315–347 s, so
        // the cut outlasts every attempt of a send made at t = 0.
        let cut_until = SimTime::from_secs(400);
        sys.set_link_filter(move |_, to, now| !(to == ponger && now < cut_until));
        // Phase 1: the cut is active. Two sends go on the wire together
        // and both dead-letter; the first trips the breaker, the second
        // finds it already open. Two more are short-circuited without
        // touching the wire.
        for _ in 0..2 {
            sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
        }
        sys.run_to_quiescence();
        assert!(sys.now() < cut_until, "the retries outlived the cut");
        assert_eq!(sys.metrics().counter("reliable.dead_letter"), 2);
        assert_eq!(sys.metrics().counter("breaker.opened"), 1);
        for _ in 0..2 {
            sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
        }
        sys.run_to_quiescence();
        assert_eq!(sys.metrics().counter("breaker.short_circuit"), 2);
        assert!(sys.metrics().counter("fault.link_cut") > 0);
        // Phase 2: past the heal and past the 600 s cooldown, the next
        // send is the half-open probe; its ack closes the breaker and
        // everything after it flows normally.
        sys.advance_to(SimTime::from_secs(1_000));
        for _ in 0..3 {
            sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
        }
        sys.run_to_quiescence();
        assert_eq!(sys.metrics().counter("breaker.probe"), 1);
        assert_eq!(sys.metrics().counter("breaker.closed"), 1);
        let pongs = sys
            .agent(pinger)
            .and_then(|a| a.downcast_ref::<Pinger>())
            .map(|p| p.pongs)
            .unwrap();
        // The probe went through while the rest of its batch was still
        // short-circuited; the breaker then closed for the remainder.
        assert!(pongs >= 1, "no delivery after heal");
        assert_eq!(
            sys.metrics().counter("reliable.dead_letter"),
            2,
            "no new dead letters after the heal"
        );
    }

    #[test]
    fn one_way_link_cut_is_directional() {
        // Frames toward the ponger pass; the ponger's replies (and acks'
        // underlying frames travel as normal envelopes only one way here)
        // are cut. The ping is delivered, the pong never comes back.
        let mut sys = AgentSystem::new();
        let pinger = sys.register(Box::new(Pinger::new()), direct());
        let ponger = sys.register(Box::new(Ponger::new()), direct());
        sys.set_link_filter(move |from, _, _| from != ponger);
        sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
        sys.run_to_quiescence();
        let pings = sys
            .agent(ponger)
            .and_then(|a| a.downcast_ref::<Ponger>())
            .map(|p| p.pings)
            .unwrap();
        let pongs = sys
            .agent(pinger)
            .and_then(|a| a.downcast_ref::<Pinger>())
            .map(|p| p.pongs)
            .unwrap();
        assert_eq!(pings, 1, "forward direction must deliver");
        assert_eq!(pongs, 0, "reverse direction must be cut");
        assert_eq!(sys.metrics().counter("fault.link_cut"), 1);
    }

    #[test]
    fn advance_to_moves_the_idle_clock_monotonically() {
        let mut sys = AgentSystem::new();
        sys.advance_to(SimTime::from_secs(40));
        assert_eq!(sys.now(), SimTime::from_secs(40));
        // Backwards is a no-op.
        sys.advance_to(SimTime::from_secs(10));
        assert_eq!(sys.now(), SimTime::from_secs(40));
        // Sends after the jump are stamped at the advanced clock.
        let pinger = sys.register(Box::new(Pinger::new()), direct());
        let ponger = sys.register(Box::new(Ponger::new()), direct());
        sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
        sys.run_to_quiescence();
        assert!(sys.now() > SimTime::from_secs(40));
        assert_eq!(sys.metrics().counter("route.delivered"), 2);
    }

    #[test]
    fn disconnection_deputy_delays_delivery_until_reconnect() {
        let mut sys = AgentSystem::new();
        let pinger = sys.register(Box::new(Pinger::new()), direct());
        // Ponger offline from t=0, back at t=30.
        let schedule = ChurnSchedule::from_toggles(false, vec![SimTime::from_secs(30)]).unwrap();
        let ponger = sys.register(
            Box::new(Ponger::new()),
            Box::new(DisconnectionDeputy::new(LinkModel::wifi(), schedule, 16)),
        );
        sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
        sys.run_to_quiescence();
        assert_eq!(sys.metrics().counter("deputy.queued"), 1);
        assert_eq!(sys.metrics().counter("deputy.flushed"), 1);
        assert_eq!(sys.metrics().counter("route.delivered"), 2);
        assert!(
            sys.now() >= SimTime::from_secs(30),
            "delivery waited for reconnection: now={}",
            sys.now()
        );
    }
}
