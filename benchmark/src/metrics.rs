//! The metric tables: every name the benchmark prints, with its unit,
//! direction and ledger. `BENCHMARK.json` at the repository root lists the
//! same names (a test holds the two together).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Host cost of the simulator, or simulated cost seen by the handheld.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerKind {
    /// Measured on this machine; noisy; compared within a bound.
    Host,
    /// Computed by the simulation; repeats exactly for a seed.
    Sim,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub ledger: LedgerKind,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (0 for per-layer
    /// metrics, which carry no bound).
    pub bound: f64,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        ledger: LedgerKind::Host,
        bound: 0.0,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        ledger: LedgerKind::Sim,
        bound: 0.0,
    }
}

const fn bounded(def: Def, bound: f64) -> Def {
    Def { bound, ..def }
}

/// Two runs of one seed must agree on a simulated metric to this relative
/// tolerance: any worsening at all is a regression.
pub const SIM_EXACT: f64 = 1e-9;

use Better::{Higher, Lower};

/// What a user of the system sees. Defined on every workload, never 0.
///
/// Bounds come from measurement (see `README.md`): two sets of ten seeds
/// per workload, the widest quartile distance as a share of the median,
/// tripled and rounded up, at most 0.25. Host time on this box is the
/// noisy ledger and takes the largest bound.
pub const END_TO_END: [Def; 11] = [
    bounded(host("wall_s", "s", Lower), 0.25),
    bounded(host("answers_per_host_s", "1/s", Higher), 0.25),
    bounded(host("setup_s", "s", Lower), 0.25),
    bounded(host("peak_rss_mb", "MiB", Lower), 0.25),
    bounded(sim("sim_answered_frac", "ratio", Higher), 0.2),
    bounded(sim("sim_deadline_met_frac", "ratio", Higher), 0.2),
    bounded(sim("sim_resp_p50_s", "s", Lower), 0.15),
    bounded(sim("sim_resp_p95_s", "s", Lower), 0.25),
    bounded(sim("sim_energy_mj_per_answer", "mJ", Lower), 0.1),
    bounded(sim("sim_wire_bytes_per_answer", "B", Lower), 0.1),
    bounded(sim("sim_compute_ops_per_answer", "ops", Lower), 0.1),
];

/// Single layers, from the traced run. `busy_s` is host time inside the
/// layer's spans or probe, `calls` the span count; a layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: [Def; 87] = [
    // pg-runtime
    host("runtime.arrivals.calls", "count", Lower),
    host("runtime.arrivals.busy_s", "s", Lower),
    sim("runtime.arrivals.max_late_s", "s", Lower),
    sim("runtime.sched.rounds", "count", Lower),
    host("runtime.sched.self_s", "s", Lower),
    sim("runtime.admitted", "count", Higher),
    sim("runtime.rejected", "count", Lower),
    sim("runtime.shed", "count", Lower),
    sim("runtime.browned_out", "count", Lower),
    sim("runtime.retries", "count", Lower),
    sim("runtime.gave_up", "count", Lower),
    sim("runtime.useful_frac", "ratio", Higher),
    sim("runtime.resp_p99_s", "s", Lower),
    sim("runtime.journal.records", "count", Lower),
    host("runtime.journal.append_busy_s", "s", Lower),
    host("runtime.journal.replay_busy_s", "s", Lower),
    sim("runtime.journal.recovered", "count", Higher),
    // pg-core
    sim("core.engine.batches", "count", Lower),
    host("core.engine.busy_s", "s", Lower),
    host("core.engine.estimate_busy_s", "s", Lower),
    sim("core.submit.simple.calls", "count", Lower),
    host("core.submit.simple.busy_s", "s", Lower),
    sim("core.submit.aggregate.calls", "count", Lower),
    host("core.submit.aggregate.busy_s", "s", Lower),
    sim("core.submit.complex.calls", "count", Lower),
    host("core.submit.complex.busy_s", "s", Lower),
    sim("core.submit.continuous.calls", "count", Lower),
    host("core.submit.continuous.busy_s", "s", Lower),
    host("core.respond.p50_ms", "ms", Lower),
    host("core.respond.p95_ms", "ms", Lower),
    sim("core.shared_frac", "ratio", Higher),
    // pg-query
    sim("query.parse.calls", "count", Lower),
    host("query.parse.busy_s", "s", Lower),
    // pg-partition
    host("partition.features.busy_s", "s", Lower),
    sim("partition.choose.calls", "count", Lower),
    host("partition.choose.busy_s", "s", Lower),
    sim("partition.observe.calls", "count", Lower),
    host("partition.observe.busy_s", "s", Lower),
    host("partition.choose.growth", "ratio", Lower),
    sim("partition.explore_frac", "ratio", Lower),
    // pg-sensornet
    sim("sensornet.collect.calls", "count", Lower),
    host("sensornet.collect.busy_s", "s", Lower),
    sim("sensornet.collect.waves", "count", Lower),
    sim("sensornet.collect.delivery_frac", "ratio", Higher),
    sim("sensornet.tree.rebuilds", "count", Lower),
    sim("sensornet.tree.repairs", "count", Lower),
    sim("sensornet.tree.control_bytes", "B", Lower),
    // pg-net
    host("net.topology_build.busy_s", "s", Lower),
    sim("net.repair.calls", "count", Lower),
    host("net.repair.busy_s", "s", Lower),
    sim("net.repair.reparented", "count", Lower),
    // pg-grid
    sim("grid.pde.solves", "count", Lower),
    host("grid.pde.busy_s", "s", Lower),
    sim("grid.pde.iters", "count", Lower),
    host("grid.sched.busy_s", "s", Lower),
    // pg-compose
    sim("compose.execute.calls", "count", Lower),
    host("compose.execute.busy_s", "s", Lower),
    sim("compose.execute.success_frac", "ratio", Higher),
    sim("compose.rebinds", "count", Lower),
    // pg-discovery
    sim("discovery.match.calls", "count", Lower),
    host("discovery.match.busy_s", "s", Lower),
    sim("discovery.match.consulted_frac", "ratio", Lower),
    // pg-federation
    sim("federation.gossip.rounds", "count", Lower),
    host("federation.gossip.busy_s", "s", Lower),
    host("federation.gossip.busy_per_round_us", "us", Lower),
    sim("federation.handoff.records", "count", Lower),
    host("federation.handoff.merge_busy_s", "s", Lower),
    sim("federation.migrations.completed", "count", Higher),
    sim("federation.migrations.rejected", "count", Lower),
    sim("federation.migrations.lost", "count", Lower),
    sim("federation.forwards.completed", "count", Higher),
    sim("federation.absorbed", "count", Lower),
    sim("federation.resurrections", "count", Lower),
    sim("federation.windows", "count", Lower),
    // pg-agent
    sim("agent.bus.sent", "count", Lower),
    sim("agent.bus.acked", "count", Higher),
    sim("agent.bus.retries", "count", Lower),
    sim("agent.bus.dead_letter", "count", Lower),
    host("agent.bus.busy_s", "s", Lower),
    sim("agent.bus.wasted_frac", "ratio", Lower),
    // pg-sim
    sim("sim.events.processed", "count", Lower),
    host("sim.events.busy_s", "s", Lower),
    host("sim.report.busy_s", "s", Lower),
    // the tracer itself
    host("trace.overhead_frac", "ratio", Lower),
    host("trace.unattributed_s", "s", Lower),
    host("trace.spans", "count", Lower),
    // digest agreement between the traced and untraced runs
    sim("trace.digest_match", "0/1", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }
}
