//! **T15** — chaos: graceful end-to-end degradation under the unified
//! fault-injection harness (§3: the system must be "tolerant to failures"
//! — sensors die, the center goes dark, links black out — and degrade
//! gracefully rather than fail).
//!
//! T15a sweeps fault intensity × decision policy through the full runtime:
//! every query must come back `Ok` with a populated `DegradationReport`,
//! never an error, and the sweep records what the chaos cost (success,
//! delivered fraction, response time, retries, energy). T15b puts the
//! reliable agent messaging layer under rising message loss: ack/retry
//! keeps delivery total until the wire is fully cut, at which point
//! bounded retries dead-letter instead of spinning.
//!
//! ```sh
//! cargo run --release -p pg-bench --bin exp_t15_chaos [-- --chaos]
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_agent::deputy::DirectDeputy;
use pg_agent::profile::AgentAttribute;
use pg_agent::{Agent, AgentProfile, AgentSystem, Envelope, Payload, ReliableConfig};
use pg_bench::{key_part, Cell, Experiment};
use pg_core::PervasiveGrid;
use pg_net::link::LinkModel;
use pg_partition::decide::Policy;
use pg_partition::model::SolutionModel;
use pg_sim::fault::FaultPlan;
use pg_sim::{Duration, SimTime};
use std::process::ExitCode;

/// The four chaos intensities of the sweep. Level 0 is the control (the
/// empty plan — byte-identical behaviour to a faultless build); each later
/// level layers on more of §3's failure modes.
fn chaos_plan(level: usize, seed: u64) -> FaultPlan {
    let b = FaultPlan::builder(seed);
    let plan = match level {
        0 => return FaultPlan::none(),
        1 => b.message_loss(0.1).build(),
        2 => b
            .message_loss(0.3)
            .base_outage(SimTime::from_secs(60), SimTime::from_secs(120))
            .random_node_crashes(25, 0.1, SimTime::from_secs(600), Duration::from_secs(120))
            .build(),
        _ => b
            .message_loss(0.5)
            .base_outage(SimTime::from_secs(60), SimTime::from_secs(150))
            .link_blackout(SimTime::from_secs(200), SimTime::from_secs(210))
            .random_node_crashes(25, 0.2, SimTime::from_secs(600), Duration::from_secs(180))
            .worker_outage(0, SimTime::ZERO, SimTime::from_secs(600))
            .build(),
    };
    plan.expect("static chaos parameters are valid")
}

fn level_name(level: usize) -> &'static str {
    ["none", "mild", "heavy", "extreme"][level]
}

/// Per-cell accumulator, folded across seeds in seed order.
#[derive(Default)]
struct CellStats {
    answered: u64,
    errors: u64,
    total: u64,
    delivered: f64,
    time_s: f64,
    retries: u64,
    outage_wait_s: f64,
    fallbacks: u64,
    energy_j: f64,
}

impl CellStats {
    fn fold(mut self, o: &CellStats) -> CellStats {
        self.answered += o.answered;
        self.errors += o.errors;
        self.total += o.total;
        self.delivered += o.delivered;
        self.time_s += o.time_s;
        self.retries += o.retries;
        self.outage_wait_s += o.outage_wait_s;
        self.fallbacks += o.fallbacks;
        self.energy_j += o.energy_j;
        self
    }
}

/// One seeded run of the query batch against a faulted runtime.
fn run_cell(level: usize, policy: Policy, seed: u64) -> CellStats {
    let mut pg = PervasiveGrid::building(1, 5, seed)
        .policy(policy)
        .faults(chaos_plan(level, seed ^ 0xC0A5))
        .deadline(Duration::from_secs(600))
        .build();
    let queries = [
        "SELECT temp FROM sensors WHERE sensor_id = 7",
        "SELECT AVG(temp) FROM sensors",
        "SELECT MAX(temp) FROM sensors",
        "SELECT AVG(temp) FROM sensors COST time 120",
    ];
    let mut st = CellStats::default();
    for q in queries {
        match pg.submit(q) {
            Ok(r) => {
                if r.value.is_some() {
                    st.answered += 1;
                }
                st.delivered += r.delivered_frac;
                st.time_s += r.cost.time_s;
                st.retries += r.degradation.retries;
                st.outage_wait_s += r.degradation.base_outage_wait_s;
                st.fallbacks += u64::from(r.degradation.fallback_model);
            }
            Err(_) => st.errors += 1,
        }
        st.total += 1;
        // Spread the batch across the outage windows.
        pg.advance(Duration::from_secs(45));
    }
    st.energy_j = pg.energy_consumed();
    st
}

fn policy_key(policy: &Policy) -> String {
    match policy {
        Policy::Adaptive => "adaptive".into(),
        Policy::Bandit => "bandit".into(),
        Policy::Random => "random".into(),
        Policy::Static(m) => key_part(&format!("static_{}", m.name())),
    }
}

fn main() -> ExitCode {
    let mut exp = Experiment::from_args("exp_t15_chaos");
    let reps: u64 = exp.scale(12, 32);
    exp.set_meta("reps", reps.to_string());

    // --- T15a: fault intensity × policy through the full runtime. ---
    println!("T15a: end-to-end degradation, {reps} seeds x 4 queries per cell (25 sensors)");
    exp.table("success = answered queries / submitted; errors must stay 0");
    let policies = [
        Policy::Adaptive,
        Policy::Static(SolutionModel::BaseStation),
        Policy::Static(SolutionModel::InNetworkTree),
    ];
    for level in 0..4 {
        for policy in policies {
            let st = (0..reps)
                .map(|seed| run_cell(level, policy, seed))
                .fold(CellStats::default(), |acc, c| acc.fold(&c));
            let n = st.total as f64;
            let cell = format!("{}.{}", level_name(level), policy_key(&policy));
            exp.set_scalar(
                format!("{cell}.fallbacks"),
                st.fallbacks as f64 / reps as f64,
            );
            exp.row(
                &cell,
                &[
                    Cell::text("chaos", 8, level_name(level)),
                    Cell::text("policy", 22, policy_key(&policy)),
                    Cell::fixed("success", 8, 2, st.answered as f64 / n).key("success"),
                    Cell::int("errors", 7, st.errors).key("errors"),
                    Cell::fixed("deliv", 7, 2, st.delivered / n).key("delivered"),
                    Cell::fixed("time s", 9, 2, st.time_s / n).key("time_s"),
                    Cell::fixed("retries", 8, 1, st.retries as f64 / reps as f64).key("retries"),
                    Cell::fixed("wait s", 7, 1, st.outage_wait_s / reps as f64)
                        .key("outage_wait_s"),
                    Cell::eng("energy J", 9, st.energy_j / reps as f64).key("energy_j"),
                ],
            );
        }
        println!();
    }
    println!(
        "shape to check: errors stay 0 at every intensity (degrade, never \
         fail); delivered falls and retries/wait climb with intensity; the \
         base-outage wait shows up in response time, not in success."
    );

    // --- T15b: reliable agent messaging under rising loss. ---
    let pings: u32 = exp.scale(40, 120);
    println!("\nT15b: ack/retry agent messaging, {pings} request/reply pairs per cell");
    exp.table("reliable delivery vs wire loss (5 retries, exp. backoff)");
    for loss in [0.0f64, 0.1, 0.3, 0.5, 1.0] {
        let mut sys = AgentSystem::new();
        sys.enable_reliability(ReliableConfig::default(), 7);
        if loss > 0.0 {
            sys.set_fault_plan(
                FaultPlan::builder(7)
                    .message_loss(loss)
                    .build()
                    .expect("valid loss"),
            );
        }
        let pinger = sys.register(Box::new(Pinger::default()), direct());
        let ponger = sys.register(Box::new(Ponger::default()), direct());
        for _ in 0..pings {
            sys.send(Envelope::text(pinger, ponger, "acl/ping", "ping"));
        }
        sys.run_to_quiescence();
        let got = sys
            .agent(pinger)
            .and_then(|a| a.downcast_ref::<Pinger>())
            .map_or(0, |p| p.pongs);
        let m = sys.metrics();
        // The table shows the reply count; the report gates its share.
        let cell = format!("loss{loss}");
        exp.set_scalar(
            format!("{cell}.got_frac"),
            f64::from(got) / f64::from(pings),
        );
        exp.row(
            &cell,
            &[
                Cell::fixed("loss", 6, 1, loss),
                Cell::int("got", 6, got),
                Cell::int("acked", 7, m.counter("reliable.acked")).key("acked"),
                Cell::int("retries", 8, m.counter("reliable.retries")).key("retries"),
                Cell::int("dead", 6, m.counter("reliable.dead_letter")).key("dead_letter"),
                Cell::int("dup", 6, m.counter("reliable.duplicate")).key("duplicate"),
            ],
        );
    }
    println!(
        "shape to check: replies stay complete through 50 % loss (retries \
         absorb it); total loss dead-letters after the bounded retry budget \
         instead of retrying forever."
    );

    exp.finish()
}

fn direct() -> Box<DirectDeputy> {
    Box::new(DirectDeputy::new(LinkModel::wifi()))
}

/// Replies to every ping with a pong.
#[derive(Default)]
struct Ponger {
    profile: AgentProfile,
}

impl Agent for Ponger {
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

/// Counts the pongs that make it back.
struct Pinger {
    profile: AgentProfile,
    pongs: u32,
}

impl Default for Pinger {
    fn default() -> Self {
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
