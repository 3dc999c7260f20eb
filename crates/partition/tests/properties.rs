//! Property-based tests for the partition layer: estimator sanity, k-NN
//! envelope bounds, bound filtering, and executor conservation.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_grid::sched::GridCluster;
use pg_net::energy::RadioModel;
use pg_net::link::LinkModel;
use pg_net::topology::{NodeId, Topology};
use pg_partition::estimate::estimate;
use pg_partition::exec::{execute_once, ExecContext};
use pg_partition::features::QueryFeatures;
use pg_partition::knn::KnnRegressor;
use pg_partition::model::{within_bounds, CostVector, SolutionModel};
use pg_query::classify::QueryKind;
use pg_sensornet::field::TemperatureField;
use pg_sensornet::network::SensorNetwork;
use pg_sim::{Duration, SimTime};
use propcheck::check;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn features(kind: QueryKind, members: usize, hops: f64, n: usize) -> QueryFeatures {
    QueryFeatures {
        kind,
        continuous: false,
        members,
        mean_hops: hops,
        network_size: n,
        epoch_s: 0.0,
    }
}

/// Analytic estimates are finite and positive for every model over a
/// wide feature range, and monotone in member count for transport-bound
/// placements.
#[test]
fn estimates_sane() {
    check("estimates_sane", 64, |g| {
        let members = g.range(1usize..500);
        let hops = g.range(1.0f64..15.0);
        let kind =
            [QueryKind::Simple, QueryKind::Aggregate, QueryKind::Complex][g.range(0..3usize)];
        let net = SensorNetwork::new(
            Topology::grid(10, 10, 10.0, 11.0),
            NodeId(0),
            RadioModel::mote(),
            LinkModel::sensor_radio(),
            50.0,
        );
        let grid = GridCluster::campus();
        for model in SolutionModel::candidates(members) {
            let c = estimate(&net, &grid, &features(kind, members, hops, 500), &model);
            assert!(c.energy_j.is_finite() && c.energy_j > 0.0);
            assert!(c.time_s.is_finite() && c.time_s > 0.0);
            assert!(c.bytes > 0.0 && c.ops > 0.0);
            // Doubling members never reduces transport cost.
            let c2 = estimate(&net, &grid, &features(kind, members * 2, hops, 500), &model);
            assert!(c2.bytes >= c.bytes);
        }
    });
}

/// k-NN predictions stay within the envelope of recorded costs for the
/// same family (interpolation, never extrapolation beyond data).
#[test]
fn knn_prediction_within_envelope() {
    check("knn_prediction_within_envelope", 64, |g| {
        let costs = g.vec(1..20, |g| g.range(0.001f64..10.0));
        let members = g.range(1usize..200);
        let mut knn = KnnRegressor::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, &e) in costs.iter().enumerate() {
            lo = lo.min(e);
            hi = hi.max(e);
            knn.record(
                features(QueryKind::Aggregate, 10 + i * 3, 3.0, 100),
                SolutionModel::BaseStation,
                CostVector {
                    energy_j: e,
                    time_s: e,
                    bytes: e,
                    ops: e,
                },
            );
        }
        let p = knn
            .predict(
                &features(QueryKind::Aggregate, members, 3.0, 100),
                &SolutionModel::BaseStation,
            )
            .expect("history exists");
        assert!(
            p.energy_j >= lo - 1e-9 && p.energy_j <= hi + 1e-9,
            "{} outside [{lo}, {hi}]",
            p.energy_j
        );
    });
}

/// `within_bounds` is monotone: relaxing any bound never turns an
/// accepted cost into a rejected one.
#[test]
fn bounds_monotone() {
    check("bounds_monotone", 64, |g| {
        let e = g.range(0.0f64..10.0);
        let t = g.range(0.0f64..100.0);
        let be = g.range(0.001f64..10.0);
        let bt = g.range(0.001f64..100.0);
        let slack = g.range(0.0f64..5.0);
        let q_tight = pg_query::parse(&format!(
            "SELECT AVG(temp) FROM sensors COST energy {be}, time {bt}"
        ))
        .unwrap();
        let q_loose = pg_query::parse(&format!(
            "SELECT AVG(temp) FROM sensors COST energy {}, time {}",
            be + slack,
            bt + slack
        ))
        .unwrap();
        let c = CostVector {
            energy_j: e,
            time_s: t,
            bytes: 0.0,
            ops: 0.0,
        };
        if within_bounds(&q_tight, &c, None) {
            assert!(within_bounds(&q_loose, &c, None));
        }
    });
}

/// Executor conservation across random small worlds: reported energy
/// equals battery drain; delivery fraction bounded; value present when
/// delivery is non-zero (aggregate queries).
#[test]
fn executor_conservation() {
    check("executor_conservation", 64, |g| {
        let side = g.range(3usize..6);
        let loss = g.range(0.0f64..0.4);
        let seed = g.u64();
        let topo = Topology::grid(side, side, 10.0, 11.0);
        let mut net = SensorNetwork::new(
            topo,
            NodeId(0),
            RadioModel::mote(),
            LinkModel::new(250e3, Duration::from_millis(5), loss).unwrap(),
            100.0,
        );
        net.noise_sd = 0.0;
        let grid = GridCluster::campus();
        let field = TemperatureField::calm(20.0);
        let regions = BTreeMap::new();
        let query = pg_query::parse("SELECT AVG(temp) FROM sensors").unwrap();
        for model in SolutionModel::candidates(side * side - 1) {
            let before = net.total_consumed();
            let mut ctx = ExecContext {
                net: &mut net,
                grid: &grid,
                field: &field,
                regions: &regions,
                now: SimTime::ZERO,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let out = execute_once(&mut ctx, &query, model, &mut rng).expect("valid query");
            assert!((out.cost.energy_j - (net.total_consumed() - before)).abs() < 1e-9);
            assert!((0.0..=1.0).contains(&out.delivered_frac));
            if out.delivered_frac > 0.0 {
                assert!(out.value.is_some());
                let v = out.value.unwrap();
                assert!(
                    (v - 20.0).abs() < 1e-6,
                    "noise-free calm avg must be 20: {v}"
                );
            }
        }
    });
}
