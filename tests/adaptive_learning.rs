//! Integration: the adaptive loop of §4 actually learns.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pervasive_grid::core::{PervasiveGrid, PgError};
use pervasive_grid::net::geom::Point;
use pervasive_grid::partition::decide::Policy;
use pervasive_grid::sensornet::region::Region;
use pervasive_grid::sim::Duration;

fn stream() -> Vec<&'static str> {
    vec![
        "SELECT AVG(temp) FROM sensors",
        "SELECT temp FROM sensors WHERE sensor_id = 11",
        "SELECT MAX(temp) FROM sensors WHERE region(wing)",
        "SELECT temperature_distribution() FROM sensors WHERE region(wing)",
    ]
}

fn total_scalar_cost(policy: Policy, seed: u64, rounds: usize) -> f64 {
    let mut pg = PervasiveGrid::building(1, 7, seed)
        .policy(policy)
        .region("wing", Region::room(0.0, 0.0, 20.0, 20.0))
        .build();
    pg.ignite(Point::flat(20.0, 20.0), 300.0);
    pg.advance(Duration::from_secs(400));
    let weights = pervasive_grid::partition::model::CostWeights::default();
    let mut total = 0.0;
    for _ in 0..rounds {
        for q in stream() {
            if let Ok(r) = pg.submit(q) {
                total += weights.scalar(&r.cost);
            }
        }
    }
    total
}

#[test]
fn adaptive_beats_random_decisively() {
    let adaptive = total_scalar_cost(Policy::Adaptive, 10, 15);
    let random = total_scalar_cost(Policy::Random, 10, 15);
    assert!(
        adaptive < random * 0.5,
        "adaptive {adaptive:.2} should be well under random {random:.2}"
    );
}

#[test]
fn adaptive_is_competitive_with_every_static_policy() {
    use pervasive_grid::partition::model::SolutionModel;
    let adaptive = total_scalar_cost(Policy::Adaptive, 11, 15);
    for model in SolutionModel::candidates(48) {
        let fixed = total_scalar_cost(Policy::Static(model), 11, 15);
        assert!(
            adaptive <= fixed * 1.15,
            "adaptive {adaptive:.2} should be within 15% of static {} ({fixed:.2})",
            model.name()
        );
    }
}

#[test]
fn calibration_error_improves_with_experience() {
    // Per-seed early-vs-late comparisons are noise: with only 2 early and 4
    // late samples on a lossy channel, roughly half of all seeds show a
    // small uptick even though the learner is working. Average both phases
    // over a fixed seed set instead — deterministic, and the mean isolates
    // the learning signal from per-seed jitter.
    let seeds = 1..=8u64;
    let n = 8.0;
    let (mut early_mean, mut late_mean) = (0.0, 0.0);
    for seed in seeds {
        let mut pg = PervasiveGrid::building(1, 6, seed)
            .policy(Policy::Adaptive)
            .build();
        // Warm-up phase: first few executions are predicted by the coarse
        // analytic estimator.
        for _ in 0..2 {
            pg.submit("SELECT AVG(temp) FROM sensors").unwrap();
        }
        early_mean += pg.decision.calibration_error(2) / n;
        for _ in 0..12 {
            pg.submit("SELECT AVG(temp) FROM sensors").unwrap();
        }
        late_mean += pg.decision.calibration_error(4) / n;
    }
    assert!(
        late_mean <= early_mean,
        "mean calibration error should not get worse: {early_mean:.4} -> {late_mean:.4}"
    );
    assert!(
        late_mean < 0.5,
        "late calibration error {late_mean:.4} should be small"
    );
}

#[test]
fn learner_history_grows_with_answered_queries_only() {
    let mut pg = PervasiveGrid::building(1, 5, 13).build();
    pg.submit("SELECT AVG(temp) FROM sensors").unwrap();
    let parse = pg.submit("SELECT banana FROM");
    let rejected = pg.submit("SELECT AVG(temp) FROM sensors COST energy 0.000000001");
    assert!(matches!(parse, Err(PgError::Parse(_))), "{parse:?}");
    assert_eq!(rejected, Err(PgError::CostBoundsUnsatisfiable));
    assert_eq!(pg.decision.history_len(), 1);
}
