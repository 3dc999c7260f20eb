//! Microbenchmark: decision-maker inference (k-NN prediction + choice)
//! and the query front end (parse + classify).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_bench::standard_world;
use pg_partition::decide::{DecisionConfig, DecisionMaker, Policy};
use pg_partition::exec::ExecContext;
use pg_partition::features::QueryFeatures;
use pg_partition::learn::{CandidateArm, LearnContext, Learner, LinUcbLearner, Reward};
use pg_partition::model::{CostVector, CostWeights, SolutionModel};

fn bench_parse_classify(c: &mut Criterion) {
    let text = "SELECT {MAX(temp), temp} from sensors WHERE {region(floor2) AND temp > 40} \
                COST {energy <= 0.5, time <= 2} EPOCH DURATION 500 ms";
    c.bench_function("query_parse_classify", |b| {
        b.iter(|| {
            let q = pg_query::parse(text).unwrap();
            pg_query::classify(&q)
        });
    });
}

fn bench_choose(c: &mut Criterion) {
    let mut w = standard_world(100, 4);
    let query = pg_query::parse("SELECT AVG(temp) FROM sensors").unwrap();
    let features = {
        let ctx = ExecContext {
            net: &mut w.net,
            grid: &w.grid,
            field: &w.field,
            regions: &w.regions,
            now: w.now,
        };
        QueryFeatures::extract(&ctx, &query).unwrap()
    };
    let actual = |i: usize| CostVector {
        energy_j: 0.001 * (i as f64 + 1.0),
        time_s: 0.1,
        bytes: 100.0,
        ops: 100.0,
    };
    // Pure exploitation: no rng draw decides what a sample measures.
    let exploit_only = || {
        DecisionMaker::with_config(
            Policy::Adaptive,
            5,
            DecisionConfig::builder().epsilon(0.0).build(),
        )
    };
    let mut g = c.benchmark_group("decision_maker");
    // Worst case for the case memory: almost every case its own feature
    // point (90 member counts × 4 families, ~3 cases per point).
    for &history in &[0usize, 100, 1_000] {
        let mut dm = exploit_only();
        for i in 0..history {
            let mut f = features;
            f.members = 10 + (i % 90);
            let model = SolutionModel::candidates(f.members)[i % 4];
            dm.observe(&w.net, &w.grid, f, model, Reward::from_cost(actual(i)));
        }
        g.bench_with_input(
            BenchmarkId::new("choose_with_history", history),
            &history,
            |b, _| {
                b.iter(|| dm.choose(&w.net, &w.grid, &query, &features).unwrap());
            },
        );
    }
    // The measured metro shape: a long history over a handful of feature
    // points (10 000 answers, 10 points, every family at every point).
    let repeated = 10_000usize;
    let point = |i: usize| {
        let mut f = features;
        f.members = 10 + 7 * (i % 10);
        f
    };
    let mut dm = exploit_only();
    for i in 0..repeated {
        let f = point(i);
        let model = SolutionModel::candidates(f.members)[(i / 10) % 5];
        dm.observe(&w.net, &w.grid, f, model, Reward::from_cost(actual(i)));
    }
    g.bench_with_input(
        BenchmarkId::new("choose_repeated", repeated),
        &repeated,
        |b, _| {
            b.iter(|| dm.choose(&w.net, &w.grid, &query, &point(3)).unwrap());
        },
    );
    g.bench_with_input(
        BenchmarkId::new("observe_repeated", repeated),
        &repeated,
        |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let (tree, reward) = (SolutionModel::InNetworkTree, Reward::from_cost(actual(i)));
                dm.observe(&w.net, &w.grid, point(i), tree, reward);
                i += 1;
            });
        },
    );
    g.finish();
}

fn bench_bandit(c: &mut Criterion) {
    let mut w = standard_world(100, 4);
    let query = pg_query::parse("SELECT AVG(temp) FROM sensors").unwrap();
    let features = {
        let ctx = ExecContext {
            net: &mut w.net,
            grid: &w.grid,
            field: &w.field,
            regions: &w.regions,
            now: w.now,
        };
        QueryFeatures::extract(&ctx, &query).unwrap()
    };
    let ctx = LearnContext {
        features,
        health: Default::default(),
        energy_bound: None,
        time_bound: None,
    };
    let arm = |key: usize| {
        let cost = CostVector {
            energy_j: 0.001 * (key as f64 + 1.0),
            time_s: 0.1 * (key as f64 + 1.0),
            bytes: 100.0,
            ops: 100.0,
        };
        CandidateArm {
            key,
            model: SolutionModel::candidates(features.members)[key % 5],
            analytic: cost,
            predicted: cost,
            score: key as f64 + 1.0,
        }
    };
    let mut g = c.benchmark_group("decision_maker");
    for &n in &[8usize, 64] {
        let arms: Vec<CandidateArm> = (0..n).map(arm).collect();
        // Warm every arm so select pays the full per-arm UCB cost.
        let mut learner = LinUcbLearner::new(CostWeights::default(), 5);
        for a in &arms {
            learner.observe(&ctx, a, &Reward::from_cost(a.analytic));
        }
        g.bench_with_input(BenchmarkId::new("bandit_select", n), &n, |b, _| {
            b.iter(|| learner.select(&ctx, &arms).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("bandit_observe", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let a = &arms[i % n];
                learner.observe(&ctx, a, &Reward::from_cost(a.analytic));
                i += 1;
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parse_classify, bench_choose, bench_bandit);
criterion_main!(benches);
