//! Composition execution: centralized broker vs. distributed reactive.
//!
//! §3 requirements this module realizes and measures:
//!
//! * "The composition architecture needs to ensure that the composite
//!   service is tolerant to failures, available and efficient" — bound
//!   services fail mid-execution (churn schedules); managers rebind.
//! * "Most service composition platforms follow a centralized architecture"
//!   vs. "centralized architectures are often not the most appropriate" —
//!   [`ManagerKind::Centralized`] binds every step from a snapshot taken at
//!   submission time (its candidate lists go stale under churn, and every
//!   rebind pays a round trip to the central broker);
//!   [`ManagerKind::DistributedReactive`] discovers late, at each step's
//!   start, against the live registry (the authors' PWC'02 prototype \[5\]).
//! * "The composition platform should degrade gracefully as more and more
//!   services become unavailable" — optional steps that cannot be filled
//!   reduce utility instead of failing the composition.

use crate::plan::Plan;
use pg_discovery::description::{ServiceDescription, ServiceRequest};
use pg_discovery::ontology::Ontology;
use pg_discovery::registry::{Registry, ServiceId};
use pg_net::churn::ChurnSchedule;
use pg_sim::{Duration, SimTime};
use std::collections::BTreeMap;

/// Which composition architecture coordinates the execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerKind {
    /// One broker binds everything up-front and coordinates centrally.
    Centralized,
    /// Each step discovers and binds at execution time, locally.
    DistributedReactive,
}

impl ManagerKind {
    /// Table-friendly name.
    pub fn name(&self) -> &'static str {
        match self {
            ManagerKind::Centralized => "centralized",
            ManagerKind::DistributedReactive => "distributed-reactive",
        }
    }
}

/// The service environment a composition executes in: a live registry plus
/// per-service availability schedules.
#[derive(Debug)]
pub struct ServiceWorld {
    /// The (single, shared) registry services advertise in.
    pub registry: Registry,
    /// Availability schedule per service (absent = always up).
    pub churn: BTreeMap<ServiceId, ChurnSchedule>,
    /// Availability of the central manager itself (its single point of
    /// failure). Ignored by the distributed architecture.
    pub center_churn: ChurnSchedule,
}

impl Default for ServiceWorld {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceWorld {
    /// An empty world with an always-up central manager.
    pub fn new() -> Self {
        ServiceWorld {
            registry: Registry::new(),
            churn: BTreeMap::new(),
            center_churn: ChurnSchedule::always_up(),
        }
    }

    /// Register a service with an availability schedule.
    pub fn add_service(&mut self, desc: ServiceDescription, schedule: ChurnSchedule) -> ServiceId {
        let id = self.registry.register(desc);
        self.churn.insert(id, schedule);
        id
    }

    /// Does `id` stay up throughout `[t, t + span]`?
    pub fn up_throughout(&self, id: ServiceId, t: SimTime, span: Duration) -> bool {
        self.churn.get(&id).is_none_or(|s| s.up_throughout(t, span))
    }

    /// Ranked candidate ids for a role request (ignoring availability —
    /// the registry does not know who is up; that is discovered by trying).
    fn candidates(&self, onto: &Ontology, req: &ServiceRequest) -> Vec<ServiceId> {
        self.registry
            .query(onto, req)
            .into_iter()
            .map(|h| h.id)
            .collect()
    }
}

/// What happened to one step.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// Step ran to completion on this service.
    Completed(ServiceId),
    /// No live candidate could be found within the rebind budget.
    Failed,
    /// Skipped because a required dependency failed.
    Skipped,
}

/// Full execution report for one composite request.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Did every *required* step complete?
    pub success: bool,
    /// Utility in `[0, 1]`: weighted completion of required (70 %) and
    /// optional (30 %) steps — the graceful-degradation metric.
    pub utility: f64,
    /// Per-step outcomes.
    pub outcomes: Vec<StepOutcome>,
    /// End-to-end latency from submission to last completed step.
    pub latency: Duration,
    /// Total rebind attempts across all steps.
    pub rebinds: u32,
    /// Discovery/coordination messages exchanged.
    pub messages: u64,
}

/// Maximum binding attempts per step (initial + rebinds).
const MAX_BINDS_PER_STEP: u32 = 4;
/// Wall time one step's service invocation takes (typical of the
/// wireless era, as are the two latencies below).
const STEP_TIME: Duration = Duration::from_secs(2);
/// Latency of one discovery round trip against the registry.
const DISCOVERY_TIME: Duration = Duration::from_millis(50);
/// Round trip to the central manager (paid per step and per rebind by
/// the centralized architecture — the center is across the wireless/
/// wired boundary, hence dearer than vicinity discovery).
const CENTRAL_RTT: Duration = Duration::from_millis(80);

/// Execute `plan` starting at `start`, under the given architecture.
pub fn execute(
    world: &ServiceWorld,
    onto: &Ontology,
    plan: &Plan,
    kind: ManagerKind,
    start: SimTime,
) -> ExecutionReport {
    let n = plan.len();
    let mut outcomes = vec![StepOutcome::Skipped; n];
    let mut finish = vec![start; n];
    let mut rebinds = 0u32;
    let mut messages = 0u64;
    let mut latest = start;

    // Centralized: snapshot candidate lists for every step at submission.
    let mut snapshot: Vec<Vec<ServiceId>> = Vec::new();
    let mut clock = start;
    if kind == ManagerKind::Centralized {
        for step in &plan.steps {
            let req = role_request(onto, step);
            snapshot.push(world.candidates(onto, &req));
            messages += 1;
        }
        // One discovery pass for the whole plan, paid up-front.
        clock += DISCOVERY_TIME;
    }

    for (i, step) in plan.steps.iter().enumerate() {
        // Wait for dependencies; a failed/skipped required dep skips us.
        let mut ready = clock.max(start);
        let mut dep_failed = false;
        for &d in &step.deps {
            match &outcomes[d] {
                StepOutcome::Completed(_) if finish[d] > ready => ready = finish[d],
                StepOutcome::Completed(_) => {} // finished before we were ready
                _ if !plan.steps[d].role.optional => dep_failed = true,
                _ => {} // failed optional dependency: proceed without it
            }
        }
        if dep_failed {
            outcomes[i] = StepOutcome::Skipped;
            continue;
        }

        let mut t = ready;
        let candidates: Vec<ServiceId> = match kind {
            ManagerKind::Centralized => {
                // Every step is coordinated through the central manager: if
                // the center is down, the step stalls until it returns (the
                // single-point-of-failure cost §3 warns about). A center
                // that never returns fails the step outright.
                match world.center_churn.next_up_at(t) {
                    Some(up) => t = up + CENTRAL_RTT,
                    None => {
                        outcomes[i] = StepOutcome::Failed;
                        continue;
                    }
                }
                messages += 1;
                snapshot[i].clone()
            }
            ManagerKind::DistributedReactive => {
                // Fresh local discovery at step start.
                t += DISCOVERY_TIME;
                messages += 1;
                let req = role_request(onto, step);
                world.candidates(onto, &req)
            }
        };

        let mut done = false;
        for (attempt, &cand) in candidates.iter().enumerate() {
            if attempt as u32 >= MAX_BINDS_PER_STEP {
                break;
            }
            if attempt > 0 {
                rebinds += 1;
                messages += 1;
                // A rebind costs a vicinity discovery (reactive) or another
                // round trip through the (possibly down) center.
                match kind {
                    ManagerKind::Centralized => match world.center_churn.next_up_at(t) {
                        Some(up) => t = up + CENTRAL_RTT,
                        None => break,
                    },
                    ManagerKind::DistributedReactive => t += DISCOVERY_TIME,
                }
            }
            if world.up_throughout(cand, t, STEP_TIME) {
                t += STEP_TIME;
                outcomes[i] = StepOutcome::Completed(cand);
                finish[i] = t;
                if t > latest {
                    latest = t;
                }
                done = true;
                break;
            }
            // Invocation attempt against a down service costs a timeout.
            t += STEP_TIME;
            messages += 1;
        }
        if !done {
            outcomes[i] = StepOutcome::Failed;
        }
    }

    let required = plan.required();
    let optional = plan.optional();
    let req_done = required
        .iter()
        .filter(|&&i| matches!(outcomes[i], StepOutcome::Completed(_)))
        .count();
    let opt_done = optional
        .iter()
        .filter(|&&i| matches!(outcomes[i], StepOutcome::Completed(_)))
        .count();
    let success = req_done == required.len();
    let req_frac = if required.is_empty() {
        1.0
    } else {
        req_done as f64 / required.len() as f64
    };
    let opt_frac = if optional.is_empty() {
        1.0
    } else {
        opt_done as f64 / optional.len() as f64
    };
    ExecutionReport {
        success,
        utility: 0.7 * req_frac + 0.3 * opt_frac,
        outcomes,
        latency: latest.since(start),
        rebinds,
        messages,
    }
}

/// Build the discovery request for one plan step.
fn role_request(onto: &Ontology, step: &crate::plan::PlanStep) -> ServiceRequest {
    let class = onto
        .class(&step.role.class)
        .unwrap_or_else(|| panic!("unknown ontology class '{}'", step.role.class));
    let mut req = ServiceRequest::for_class(class);
    for c in &step.role.constraints {
        req = req.with_constraint(c.clone());
    }
    req
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::htn::MethodLibrary;
    use pg_net::churn::ChurnSchedule;
    use pg_sim::SimTime;

    fn onto() -> Ontology {
        Ontology::pervasive_grid()
    }

    /// A world with one always-up provider per class used by the
    /// temperature-distribution plan.
    fn healthy_world(onto: &Ontology) -> ServiceWorld {
        let mut w = ServiceWorld::new();
        for class in [
            "TemperatureSensor",
            "MapService",
            "WeatherService",
            "PdeSolverService",
            "DisplayService",
        ] {
            w.add_service(
                ServiceDescription::new(format!("{class}-1"), onto.class(class).unwrap()),
                ChurnSchedule::always_up(),
            );
        }
        w
    }

    fn plan() -> Plan {
        MethodLibrary::pervasive_grid()
            .decompose("temperature-distribution")
            .unwrap()
    }

    #[test]
    fn healthy_world_completes_fully_under_both_managers() {
        let o = onto();
        let w = healthy_world(&o);
        for kind in [ManagerKind::Centralized, ManagerKind::DistributedReactive] {
            let r = execute(&w, &o, &plan(), kind, SimTime::ZERO);
            assert!(r.success, "{}", kind.name());
            assert_eq!(r.utility, 1.0);
            assert_eq!(r.rebinds, 0);
            assert!(r.latency > Duration::ZERO);
        }
    }

    #[test]
    fn latency_respects_critical_path_not_step_count() {
        let o = onto();
        let w = healthy_world(&o);
        let p = plan(); // critical path 3 of 5 steps
        let r = execute(&w, &o, &p, ManagerKind::DistributedReactive, SimTime::ZERO);
        let serial = STEP_TIME.mul(p.len() as u64);
        assert!(
            r.latency < serial,
            "parallel branches should beat serial: {} vs {serial}",
            r.latency
        );
    }

    #[test]
    fn missing_optional_service_degrades_gracefully() {
        let o = onto();
        let mut w = ServiceWorld::new();
        for class in [
            "TemperatureSensor",
            "MapService",
            // no WeatherService at all
            "PdeSolverService",
            "DisplayService",
        ] {
            w.add_service(
                ServiceDescription::new(format!("{class}-1"), o.class(class).unwrap()),
                ChurnSchedule::always_up(),
            );
        }
        let r = execute(
            &w,
            &o,
            &plan(),
            ManagerKind::DistributedReactive,
            SimTime::ZERO,
        );
        assert!(r.success, "optional failure must not fail the composite");
        assert!((r.utility - 0.7).abs() < 1e-12);
    }

    #[test]
    fn missing_required_service_fails_and_skips_dependents() {
        let o = onto();
        let mut w = ServiceWorld::new();
        for class in [
            "TemperatureSensor",
            "MapService",
            "WeatherService",
            "DisplayService",
        ] {
            // no PdeSolverService
            w.add_service(
                ServiceDescription::new(format!("{class}-1"), o.class(class).unwrap()),
                ChurnSchedule::always_up(),
            );
        }
        let r = execute(
            &w,
            &o,
            &plan(),
            ManagerKind::DistributedReactive,
            SimTime::ZERO,
        );
        assert!(!r.success);
        let solve = plan()
            .steps
            .iter()
            .position(|s| s.role.name == "solve-pde")
            .unwrap();
        let render = plan()
            .steps
            .iter()
            .position(|s| s.role.name == "render")
            .unwrap();
        assert_eq!(r.outcomes[solve], StepOutcome::Failed);
        assert_eq!(r.outcomes[render], StepOutcome::Skipped);
        assert!(r.utility < 1.0);
    }

    #[test]
    fn reactive_rebinds_around_a_dead_primary() {
        let o = onto();
        let mut w = healthy_world(&o);
        // Add a *better-ranked* sensor that is down forever. The semantic
        // scores tie, so ranking falls back to registration order — make the
        // dead one first by registering a fresh world in order.
        let mut w2 = ServiceWorld::new();
        let dead = w2.add_service(
            ServiceDescription::new("dead-sensor", o.class("TemperatureSensor").unwrap()),
            ChurnSchedule::from_toggles(false, vec![]).unwrap(),
        );
        // Then copy over the healthy services.
        for (_, d) in w.registry.iter() {
            w2.add_service(d.clone(), ChurnSchedule::always_up());
        }
        let r = execute(
            &w2,
            &o,
            &plan(),
            ManagerKind::DistributedReactive,
            SimTime::ZERO,
        );
        assert!(r.success);
        assert!(r.rebinds >= 1, "must have rebound past the dead sensor");
        let collect = plan()
            .steps
            .iter()
            .position(|s| s.role.name == "collect-readings")
            .unwrap();
        assert_ne!(r.outcomes[collect], StepOutcome::Completed(dead));
        let _ = &mut w;
    }

    #[test]
    fn centralized_coordination_is_dearer_per_step() {
        let o = onto();
        let w = healthy_world(&o);
        let c = execute(&w, &o, &plan(), ManagerKind::Centralized, SimTime::ZERO);
        let d = execute(
            &w,
            &o,
            &plan(),
            ManagerKind::DistributedReactive,
            SimTime::ZERO,
        );
        assert!(c.success && d.success);
        // CENTRAL_RTT (80 ms) > DISCOVERY_TIME (50 ms) per step on the
        // critical path, so the centralized run is slower even when
        // nothing fails.
        assert!(c.latency > d.latency, "{} !> {}", c.latency, d.latency);
    }

    #[test]
    fn center_outage_stalls_centralized_only() {
        let o = onto();
        let mut w = healthy_world(&o);
        // The central manager is down until t = 30 s.
        w.center_churn = ChurnSchedule::from_toggles(false, vec![SimTime::from_secs(30)]).unwrap();
        let c = execute(&w, &o, &plan(), ManagerKind::Centralized, SimTime::ZERO);
        let d = execute(
            &w,
            &o,
            &plan(),
            ManagerKind::DistributedReactive,
            SimTime::ZERO,
        );
        assert!(c.success && d.success);
        assert!(
            c.latency >= Duration::from_secs(30),
            "centralized must wait out the center outage: {}",
            c.latency
        );
        assert!(
            d.latency < Duration::from_secs(30),
            "distributed unaffected"
        );
    }

    #[test]
    fn dead_center_fails_centralized_composition_entirely() {
        let o = onto();
        let mut w = healthy_world(&o);
        w.center_churn = ChurnSchedule::from_toggles(false, vec![]).unwrap();
        let c = execute(&w, &o, &plan(), ManagerKind::Centralized, SimTime::ZERO);
        assert!(!c.success);
        assert_eq!(c.utility, 0.0);
        let d = execute(
            &w,
            &o,
            &plan(),
            ManagerKind::DistributedReactive,
            SimTime::ZERO,
        );
        assert!(
            d.success,
            "no single point of failure in the distributed case"
        );
    }
}
