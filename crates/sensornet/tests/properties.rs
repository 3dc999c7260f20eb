//! Property-based tests for the sensor-network layer invariants.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_net::energy::RadioModel;
use pg_net::geom::Point;
use pg_net::link::LinkModel;
use pg_net::topology::{NodeId, Topology};
use pg_sensornet::aggregate::{AggFn, Partial, ValueFilter};
use pg_sensornet::collect::{direct_collection, tree_aggregation};
use pg_sensornet::field::TemperatureField;
use pg_sensornet::network::SensorNetwork;
use pg_sensornet::region::Region;
use pg_sim::{Duration, SimTime};
use propcheck::check;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A `side` × `side` grid of noise-free sensors with 1 kJ batteries, the
/// base at node 0, on links that lose `loss` of their frames.
fn noise_free_grid(side: usize, loss: f64) -> SensorNetwork {
    let mut net = SensorNetwork::new(
        Topology::grid(side, side, 10.0, 11.0),
        NodeId(0),
        RadioModel::mote(),
        LinkModel::new(250e3, Duration::from_millis(5), loss).unwrap(),
        1_000.0,
    );
    net.noise_sd = 0.0;
    net
}

/// Partial-state merging is associative and commutative, with empty as
/// identity — the algebra TAG aggregation rests on.
#[test]
fn partial_merge_algebra() {
    check("partial_merge_algebra", 64, |g| {
        let xs = g.vec(0..50, |g| g.range(-1e4f64..1e4));
        let ys = g.vec(0..50, |g| g.range(-1e4f64..1e4));
        let zs = g.vec(0..50, |g| g.range(-1e4f64..1e4));
        let p = Partial::from_readings(&xs);
        let q = Partial::from_readings(&ys);
        let r = Partial::from_readings(&zs);
        // Commutativity.
        let mut pq = p;
        pq.merge(&q);
        let mut qp = q;
        qp.merge(&p);
        assert_eq!(pq, qp);
        // Associativity.
        let mut pq_r = pq;
        pq_r.merge(&r);
        let mut qr = q;
        qr.merge(&r);
        let mut p_qr = p;
        p_qr.merge(&qr);
        assert!((pq_r.sum - p_qr.sum).abs() < 1e-6);
        assert_eq!(pq_r.count, p_qr.count);
        assert_eq!(pq_r.min, p_qr.min);
        assert_eq!(pq_r.max, p_qr.max);
        // Identity.
        let mut pe = p;
        pe.merge(&Partial::empty());
        assert_eq!(pe, p);
    });
}

/// Finalized aggregates lie within their mathematical bounds.
#[test]
fn finalize_bounds() {
    check("finalize_bounds", 64, |g| {
        let xs = g.vec(1..100, |g| g.range(-1e4f64..1e4));
        let p = Partial::from_readings(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let avg = p.finalize(AggFn::Avg).unwrap();
        assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
        assert_eq!(p.finalize(AggFn::Min), Some(lo));
        assert_eq!(p.finalize(AggFn::Max), Some(hi));
        assert!(p.finalize(AggFn::StdDev).unwrap() >= 0.0);
    });
}

/// On lossless links, tree aggregation and direct collection compute
/// the same aggregate over the same membership (the in-network
/// correctness claim).
#[test]
fn tree_equals_direct_losslessly() {
    check("tree_equals_direct_losslessly", 64, |g| {
        let side = g.range(3usize..7);
        let seed = g.u64();
        let ambient = g.range(-10.0f64..40.0);
        let field = TemperatureField::calm(ambient);
        let mut n1 = noise_free_grid(side, 0.0);
        let mut n2 = noise_free_grid(side, 0.0);
        let members: Vec<NodeId> = n1.topology().nodes().filter(|&x| x != NodeId(0)).collect();
        let d = direct_collection(
            &mut n1,
            &members,
            &field,
            SimTime::ZERO,
            AggFn::Avg,
            &ValueFilter::all(),
            &mut StdRng::seed_from_u64(seed),
        )
        .0;
        let t = tree_aggregation(
            &mut n2,
            &members,
            &field,
            SimTime::ZERO,
            AggFn::Avg,
            &ValueFilter::all(),
            &mut StdRng::seed_from_u64(seed),
        );
        assert_eq!(d.delivered, members.len());
        assert_eq!(t.delivered, members.len());
        assert!((d.value.unwrap() - t.value.unwrap()).abs() < 1e-9);
    });
}

/// Delivered counts never exceed membership, and energy is always
/// non-negative and consistent with battery drain — under any loss rate.
#[test]
fn collection_conservation() {
    check("collection_conservation", 64, |g| {
        let side = g.range(3usize..7);
        let loss = g.range(0.0f64..0.6);
        let seed = g.u64();
        let mut net = noise_free_grid(side, loss);
        let members: Vec<NodeId> = net.topology().nodes().filter(|&x| x != NodeId(0)).collect();
        let before = net.total_consumed();
        let r = direct_collection(
            &mut net,
            &members,
            &TemperatureField::calm(20.0),
            SimTime::ZERO,
            AggFn::Count,
            &ValueFilter::all(),
            &mut StdRng::seed_from_u64(seed),
        )
        .0;
        assert!(r.delivered <= r.participating);
        assert!(r.delivery_ratio() >= 0.0 && r.delivery_ratio() <= 1.0);
        assert!(r.energy_j >= 0.0);
        assert!((r.energy_j - (net.total_consumed() - before)).abs() < 1e-9);
        assert!(r.bytes_to_base <= r.total_bytes);
        if let Some(v) = r.value {
            assert_eq!(v as usize, r.delivered);
        }
    });
}

/// Region membership is exactly the set of nodes whose positions the
/// region contains.
#[test]
fn region_membership_exact() {
    check("region_membership_exact", 64, |g| {
        let x0 = g.range(0.0f64..50.0);
        let y0 = g.range(0.0f64..50.0);
        let w = g.range(1.0f64..50.0);
        let h = g.range(1.0f64..50.0);
        let topo = Topology::grid(6, 6, 10.0, 11.0);
        let region = Region::room(x0, y0, x0 + w, y0 + h);
        let members = region.members(&topo);
        for n in topo.nodes() {
            let inside = region.contains(&topo.position(n));
            assert_eq!(members.contains(&n), inside);
        }
    });
}

/// The analytic field is bounded by ambient and ambient + sum of peaks,
/// everywhere and at all times.
#[test]
fn field_bounded() {
    check("field_bounded", 64, |g| {
        let x = g.range(-50.0f64..150.0);
        let y = g.range(-50.0f64..150.0);
        let t = g.range(0u64..100_000);
        let field =
            TemperatureField::building_fire(Point::flat(50.0, 50.0), SimTime::from_secs(60), 400.0);
        let v = field.temperature(&Point::flat(x, y), SimTime::from_secs(t));
        assert!(v >= field.ambient - 1e-9);
        assert!(v <= field.ambient + 400.0 + 1e-9);
    });
}
