//! `fire_response`: the paper's Figure 1, closed loop, one fire-fighter.
//!
//! Each incident is a fresh burning building; each round composes the
//! `temperature-distribution` service chain under service churn and then
//! asks the four §4 query archetypes, the next round starting only when
//! the previous one has answered. This is the only workload that runs
//! `pg-compose`, `pg-discovery`, the PDE solver and the single-shot
//! `PervasiveGrid::submit` path, and the only one with no queue.

use super::{FireReplay, Once, Replay};
use crate::ledger::Ledger;
use crate::timed::{spanned, SharedCapture};
use pg_compose::manager::{execute, ManagerKind};
use pg_core::scenario::ScenarioReport;
use pg_core::FireScenario;
use pg_sim::Duration;
use std::time::Instant;

/// Span names of the four archetype submits, in `archetype_queries` order.
pub const SUBMIT_SPANS: [&str; 4] = [
    "core.submit.simple",
    "core.submit.aggregate",
    "core.submit.complex",
    "core.submit.continuous",
];

/// Frozen input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub floors: usize,
    pub side: usize,
    pub incidents: u64,
    /// Rounds per incident. 400 keeps the batteries alive at a 2 s
    /// cadence; by 1 500 every sensor is dead.
    pub rounds: u64,
    /// Simulated seconds between rounds.
    pub step_s: u64,
}

impl Size {
    pub fn new(smoke: bool) -> Size {
        Size {
            floors: 2,
            side: if smoke { 6 } else { 12 },
            incidents: 2,
            rounds: if smoke { 130 } else { 200 },
            step_s: 2,
        }
    }

    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("sensors", (self.floors * self.side * self.side).to_string()),
            ("incidents", self.incidents.to_string()),
            ("rounds_per_incident", self.rounds.to_string()),
            ("step_s", self.step_s.to_string()),
            ("clients", "1".into()),
        ]
    }
}

/// Set-up: one scenario per incident, seeds `seed + i`.
pub fn build(size: &Size, seed: u64) -> Vec<FireScenario> {
    (0..size.incidents)
        .map(|i| FireScenario::new(size.floors, size.side, seed.wrapping_add(i)))
        .collect()
}

/// `FireScenario::respond`, rebuilt from the same public pieces with a
/// span around each layer call. The untraced run calls `respond` itself;
/// equal digests show the two are the same computation.
fn respond_spanned(s: &mut FireScenario, cap: &SharedCapture, op: u64) -> ScenarioReport {
    let composition = spanned(cap, "compose.execute", op, || {
        execute(
            &s.world,
            &s.onto,
            &s.plan,
            ManagerKind::DistributedReactive,
            s.runtime.now,
        )
    });
    let before = s.runtime.energy_consumed();
    let queries = s
        .archetype_queries()
        .into_iter()
        .zip(SUBMIT_SPANS)
        .map(|(q, span)| {
            cap.borrow_mut().offer(&q);
            let r = spanned(cap, span, op, || s.runtime.submit(&q));
            (q, r)
        })
        .collect();
    ScenarioReport {
        composition,
        queries,
        energy_j: s.runtime.energy_consumed() - before,
        alive: s.runtime.alive_sensors(),
    }
}

pub fn run_once(size: &Size, seed: u64, cap: Option<&SharedCapture>) -> Once {
    let start = Instant::now();
    let mut incidents = build(size, seed);
    let setup_s = start.elapsed().as_secs_f64();

    let mut ledger = Ledger::new(cap.is_some());
    let mut reports = Vec::with_capacity((size.incidents * size.rounds) as usize);
    let step = Duration::from_secs(size.step_s);
    let root = cap.map(|c| c.borrow_mut().tracer.enter("run", 0));
    let start = Instant::now();
    for (i, s) in incidents.iter_mut().enumerate() {
        for round in 0..size.rounds {
            let op = i as u64 * size.rounds + round;
            reports.push(match cap {
                None => s.respond(),
                Some(cap) => spanned(cap, "core.respond", op, || respond_spanned(s, cap, op)),
            });
            s.runtime.advance(step);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    if let (Some(cap), Some(root)) = (cap, root) {
        cap.borrow_mut().tracer.exit(root);
    }

    let (mut composed, mut rebinds) = (0u64, 0u64);
    for (n, r) in reports.iter().enumerate() {
        composed += u64::from(r.composition.success);
        rebinds += u64::from(r.composition.rebinds);
        ledger.energy_j += r.energy_j;
        for (k, (text, response)) in r.queries.iter().enumerate() {
            let bytes = response.as_ref().map_or(0.0, |x| x.cost.bytes);
            let late = response
                .as_ref()
                .is_ok_and(|x| x.degradation.deadline_exceeded);
            ledger.offered += 1;
            let incident = (n as u64 / size.rounds) as u32;
            let id = (n * 4 + k) as u64;
            ledger.absorb(incident, id, text, response, 0.0, late, bytes, false);
        }
        if (n as u64).is_multiple_of(size.rounds) {
            // The fire must be visible in each incident's first answer.
            let peak = r.queries[2].1.as_ref().ok().and_then(|x| x.value);
            ledger.check(peak.is_some_and(|p| p > 100.0), || {
                format!(
                    "incident {}: first Complex peak {peak:?} <= 100",
                    n as u64 / size.rounds
                )
            });
        }
    }
    let compositions = reports.len() as u64;
    let success_frac = composed as f64 / compositions as f64;
    ledger.check(success_frac >= 0.99, || {
        format!("composition success {success_frac:.4} < 0.99")
    });
    ledger.set("compose.execute.calls", compositions as f64);
    ledger.set("compose.execute.success_frac", success_frac);
    ledger.set("compose.rebinds", rebinds as f64);
    Once {
        setup_s,
        wall_s,
        ledger,
        replay: Replay {
            fire: Some(FireReplay {
                compositions,
                incidents,
            }),
            ..Replay::default()
        },
    }
}
