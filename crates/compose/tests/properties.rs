//! Property-based tests for composition invariants.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_compose::htn::{Method, MethodLibrary, TaskNode};
use pg_compose::manager::{execute, ManagerKind, ServiceWorld, StepOutcome};
use pg_compose::plan::Role;
use pg_discovery::description::ServiceDescription;
use pg_discovery::ontology::Ontology;
use pg_net::churn::{ChurnProcess, ChurnSchedule};
use pg_sim::SimTime;
use propcheck::{check, Gen};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One service of each class the temperature-distribution plan binds.
const SERVICE_CLASSES: [&str; 5] = [
    "TemperatureSensor",
    "MapService",
    "WeatherService",
    "PdeSolverService",
    "DisplayService",
];

/// Random method library over a fixed class set; decomposition must always
/// yield a structurally valid plan (back-edges only) or a clean error.
fn library(g: &mut Gen) -> MethodLibrary {
    let classes = ["TemperatureSensor", "MapService", "PdeSolverService"];
    let methods = g.vec(1..4, |g| g.vec(1..5, |g| (g.range(0usize..3), g.bool())));
    let mut lib = MethodLibrary::new();
    for (mi, nodes) in methods.iter().enumerate() {
        let task = if mi == 0 {
            "root".to_string()
        } else {
            format!("t{mi}")
        };
        let nodes: Vec<TaskNode> = nodes
            .iter()
            .enumerate()
            .map(|(ni, &(ci, compound))| {
                // Only reference later tasks to keep libraries acyclic.
                if compound && mi + 1 < methods.len() {
                    TaskNode::Compound(format!("t{}", mi + 1))
                } else {
                    let role = if ni % 2 == 0 {
                        Role::required(format!("r{mi}-{ni}"), classes[ci])
                    } else {
                        Role::optional(format!("r{mi}-{ni}"), classes[ci])
                    };
                    TaskNode::Primitive(role)
                }
            })
            .collect();
        lib.add_method(task, Method::sequence(nodes));
    }
    lib
}

/// Decomposition always yields a valid DAG: every dependency points to
/// an earlier step (acyclicity by construction) — `Plan::new` would
/// panic otherwise, so reaching the assertions proves it.
#[test]
fn decomposition_yields_valid_dags() {
    check("decomposition_yields_valid_dags", 64, |g| {
        let lib = library(g);
        if let Ok(plan) = lib.decompose("root") {
            for (i, s) in plan.steps.iter().enumerate() {
                for &d in &s.deps {
                    assert!(d < i);
                }
            }
            assert!(plan.critical_path_len() <= plan.len());
            let req = plan.required().len();
            let opt = plan.optional().len();
            assert_eq!(req + opt, plan.len());
        }
    });
}

/// Execution invariants hold under arbitrary churn: utility in [0,1],
/// success iff all required steps completed, skipped steps only behind
/// failed/skipped required dependencies.
#[test]
fn execution_invariants() {
    check("execution_invariants", 64, |g| {
        let avail = g.range(0.05f64..1.0);
        let replicas = g.range(1usize..4);
        let seed = g.u64();
        let onto = Ontology::pervasive_grid();
        let mut w = ServiceWorld::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = SimTime::from_secs(100_000);
        for class in SERVICE_CLASSES {
            for i in 0..replicas {
                let sched = if avail >= 0.999 {
                    ChurnSchedule::always_up()
                } else {
                    let up = (60.0 * avail).max(0.5);
                    let down = (60.0 * (1.0 - avail)).max(0.5);
                    ChurnProcess::new(up, down)
                        .unwrap()
                        .schedule(horizon, &mut rng)
                };
                w.add_service(
                    ServiceDescription::new(format!("{class}-{i}"), onto.class(class).unwrap()),
                    sched,
                );
            }
        }
        let plan = MethodLibrary::pervasive_grid()
            .decompose("temperature-distribution")
            .unwrap();
        let r = execute(
            &w,
            &onto,
            &plan,
            ManagerKind::DistributedReactive,
            SimTime::from_secs(seed % 50_000),
        );
        assert!((0.0..=1.0).contains(&r.utility));
        let all_required_done = plan
            .required()
            .iter()
            .all(|&i| matches!(r.outcomes[i], StepOutcome::Completed(_)));
        assert_eq!(r.success, all_required_done);
        // A skipped step must have some failed/skipped *required* dep.
        for (i, o) in r.outcomes.iter().enumerate() {
            if *o == StepOutcome::Skipped {
                let has_bad_dep = plan.steps[i].deps.iter().any(|&d| {
                    !plan.steps[d].role.optional
                        && !matches!(r.outcomes[d], StepOutcome::Completed(_))
                });
                assert!(
                    has_bad_dep,
                    "step {i} skipped without a failed required dep"
                );
            }
        }
        // Utility formula cross-check.
        let req = plan.required();
        let opt = plan.optional();
        let req_done = req
            .iter()
            .filter(|&&i| matches!(r.outcomes[i], StepOutcome::Completed(_)))
            .count();
        let opt_done = opt
            .iter()
            .filter(|&&i| matches!(r.outcomes[i], StepOutcome::Completed(_)))
            .count();
        let expect = 0.7 * req_done as f64 / req.len() as f64
            + 0.3
                * if opt.is_empty() {
                    1.0
                } else {
                    opt_done as f64 / opt.len() as f64
                };
        assert!((r.utility - expect).abs() < 1e-9);
    });
}

/// Full availability always yields full success under both managers.
#[test]
fn healthy_worlds_always_succeed() {
    check("healthy_worlds_always_succeed", 64, |g| {
        let seed = g.u64();
        let replicas = g.range(1usize..3);
        let onto = Ontology::pervasive_grid();
        let mut w = ServiceWorld::new();
        for class in SERVICE_CLASSES {
            for i in 0..replicas {
                w.add_service(
                    ServiceDescription::new(format!("{class}-{i}"), onto.class(class).unwrap()),
                    ChurnSchedule::always_up(),
                );
            }
        }
        let plan = MethodLibrary::pervasive_grid()
            .decompose("temperature-distribution")
            .unwrap();
        for kind in [ManagerKind::Centralized, ManagerKind::DistributedReactive] {
            let r = execute(&w, &onto, &plan, kind, SimTime::from_secs(seed % 10_000));
            assert!(r.success);
            assert_eq!(r.utility, 1.0);
            assert_eq!(r.rebinds, 0);
        }
    });
}
