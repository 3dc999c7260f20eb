//! Property-based tests for the wireless substrate invariants.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_net::churn::ChurnProcess;
use pg_net::energy::{Battery, RadioModel};
use pg_net::geom::Point;
use pg_net::link::LinkModel;
use pg_net::routing::{flood, gossip};
use pg_net::topology::{NodeId, RoutingTree, Topology};
use pg_sim::{Duration, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `node` and every ancestor up to the root, by following parents.
fn root_path(tree: &RoutingTree, node: NodeId) -> Vec<NodeId> {
    let mut path = vec![node];
    while let Some(p) = tree.parent[path[path.len() - 1].idx()] {
        path.push(p);
    }
    path
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..200.0, 0.0f64..200.0), 1..max)
}

proptest! {
    /// Adjacency is symmetric and irreflexive for any placement.
    #[test]
    fn adjacency_symmetric(pts in arb_points(40), range in 5.0f64..80.0) {
        let topo = Topology::from_positions(
            pts.iter().map(|&(x, y)| Point::flat(x, y)).collect(),
            range,
        );
        for a in topo.nodes() {
            prop_assert!(!topo.neighbors(a).contains(&a));
            for &b in topo.neighbors(a) {
                prop_assert!(topo.neighbors(b).contains(&a));
                prop_assert!(topo.distance(a, b) <= range + 1e-9);
            }
        }
    }

    /// BFS hop counts satisfy the triangle property along edges: adjacent
    /// nodes differ by at most one hop from any root.
    #[test]
    fn hops_lipschitz_along_edges(pts in arb_points(40), range in 10.0f64..80.0) {
        let topo = Topology::from_positions(
            pts.iter().map(|&(x, y)| Point::flat(x, y)).collect(),
            range,
        );
        let hops = topo.hops_from(NodeId(0));
        for a in topo.nodes() {
            for &b in topo.neighbors(a) {
                if let (Some(ha), Some(hb)) = (hops[a.idx()], hops[b.idx()]) {
                    prop_assert!(ha.abs_diff(hb) <= 1, "hops {ha} vs {hb} across an edge");
                }
            }
        }
    }

    /// Spanning-tree parents are exactly one hop shallower; paths to root
    /// have length depth+1.
    #[test]
    fn spanning_tree_depths_consistent(pts in arb_points(40), range in 10.0f64..80.0) {
        let topo = Topology::from_positions(
            pts.iter().map(|&(x, y)| Point::flat(x, y)).collect(),
            range,
        );
        let tree = topo.spanning_tree(NodeId(0));
        for n in topo.nodes() {
            if let Some(d) = tree.depth[n.idx()] {
                if let Some(p) = tree.parent[n.idx()] {
                    prop_assert_eq!(tree.depth[p.idx()], Some(d - 1));
                }
                let path = root_path(&tree, n);
                prop_assert_eq!(path.len() as u32, d + 1);
                prop_assert_eq!(*path.last().unwrap(), NodeId(0));
            }
        }
    }

    /// Early-stop marking of any member list (duplicates and unreachable
    /// nodes included) marks exactly the union of the members' root paths.
    #[test]
    fn early_stop_marking_is_the_union_of_root_paths(
        pts in arb_points(60),
        range in 8.0f64..40.0,
        picks in prop::collection::vec(0usize..60, 0..80),
    ) {
        let topo = Topology::from_positions(
            pts.iter().map(|&(x, y)| Point::flat(x, y)).collect(),
            range,
        );
        let tree = topo.spanning_tree(NodeId(0));
        let mut got = vec![false; topo.len()];
        let mut want = vec![false; topo.len()];
        for pick in picks {
            let m = NodeId((pick % topo.len()) as u32);
            tree.mark_path_to_root(m, &mut got);
            if tree.depth[m.idx()].is_some() {
                for p in root_path(&tree, m) {
                    want[p.idx()] = true;
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    /// TX energy is monotone in both bits and distance, and RX is linear.
    #[test]
    fn radio_energy_monotone(bits in 1u64..100_000, d1 in 0.0f64..500.0, d2 in 0.0f64..500.0) {
        let m = RadioModel::mote();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.tx_energy(bits, lo) <= m.tx_energy(bits, hi) + 1e-18);
        prop_assert!(m.tx_energy(bits, lo) <= m.tx_energy(bits + 1, lo));
        prop_assert!((m.rx_energy(2 * bits) - 2.0 * m.rx_energy(bits)).abs() < 1e-15);
    }

    /// Batteries never go negative and total drain accounting holds.
    #[test]
    fn battery_conservation(draws in prop::collection::vec(0.0f64..0.4, 0..30)) {
        let mut b = Battery::new(1.0);
        for d in &draws {
            b.drain(*d);
            prop_assert!(b.remaining() >= 0.0);
            prop_assert!(b.used() <= b.capacity() + 1e-12);
            prop_assert!((b.remaining() + b.used() - b.capacity()).abs() < 1e-9);
        }
        let total: f64 = draws.iter().sum();
        prop_assert_eq!(b.is_dead(), total >= 1.0);
    }

    /// Lossless flooding reaches exactly the connected component of the
    /// source, with one transmission per reached node.
    #[test]
    fn flood_reaches_component(pts in arb_points(30), range in 10.0f64..60.0, seed in any::<u64>()) {
        let topo = Topology::from_positions(
            pts.iter().map(|&(x, y)| Point::flat(x, y)).collect(),
            range,
        );
        let link = LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let d = flood(&topo, NodeId(0), &link, &mut rng);
        let hops = topo.hops_from(NodeId(0));
        for n in topo.nodes() {
            prop_assert_eq!(d.reached[n.idx()], hops[n.idx()].is_some());
        }
        let reached = d.reached.iter().filter(|&&r| r).count() as u64;
        prop_assert_eq!(d.transmissions, reached);
    }

    /// Gossip never reaches more nodes than flooding from the same state.
    #[test]
    fn gossip_bounded_by_flood(pts in arb_points(30), p in 0.05f64..1.0, seed in any::<u64>()) {
        let topo = Topology::from_positions(
            pts.iter().map(|&(x, y)| Point::flat(x, y)).collect(),
            30.0,
        );
        let link = LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap();
        let flood_cov = flood(&topo, NodeId(0), &link, &mut StdRng::seed_from_u64(seed)).coverage();
        let gossip_cov = gossip(&topo, NodeId(0), p, &link, &mut StdRng::seed_from_u64(seed)).coverage();
        prop_assert!(gossip_cov <= flood_cov + 1e-12);
    }

    /// Churn schedules alternate: is_up flips at every toggle, and the
    /// sampled uptime lies in [0, 1].
    #[test]
    fn churn_schedule_well_formed(up in 1.0f64..500.0, down in 1.0f64..500.0, seed in any::<u64>()) {
        let proc_ = ChurnProcess::new(up, down).unwrap();
        let horizon = SimTime::from_secs(10_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = proc_.schedule(horizon, &mut rng);
        for w in s.toggles().windows(2) {
            prop_assert!(w[0] < w[1], "toggles strictly ascending");
        }
        for &t in s.toggles() {
            let before = SimTime::from_nanos(t.as_nanos().saturating_sub(1));
            prop_assert_ne!(s.is_up(before), s.is_up(t), "state flips at toggle");
        }
        let f = s.uptime_fraction(horizon);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
    }

    /// Long-run sampled up-fraction converges to the analytic availability:
    /// over a horizon of ~1000 mean up/down cycles, the renewal-process
    /// deviation is O(1/sqrt(cycles)), comfortably inside 5 %.
    #[test]
    fn churn_uptime_converges_to_availability(
        up in 10.0f64..200.0,
        down in 10.0f64..200.0,
        seed in any::<u64>(),
    ) {
        let proc_ = ChurnProcess::new(up, down).unwrap();
        let horizon = SimTime::from_secs_f64(1_000.0 * (up + down));
        let mut rng = StdRng::seed_from_u64(seed);
        let f = proc_.schedule(horizon, &mut rng).uptime_fraction(horizon);
        let a = proc_.availability();
        prop_assert!(
            (f - a).abs() < 0.05,
            "sampled up-fraction {f} vs availability {a}"
        );
    }

    /// `next_up_at` returns an instant at which the service is indeed up,
    /// and never skips an earlier up instant among the toggles.
    #[test]
    fn next_up_at_is_correct(up in 1.0f64..100.0, down in 1.0f64..100.0, t in 0u64..5_000, seed in any::<u64>()) {
        let proc_ = ChurnProcess::new(up, down).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = proc_.schedule(SimTime::from_secs(10_000), &mut rng);
        let at = SimTime::from_secs(t);
        if let Some(u) = s.next_up_at(at) {
            prop_assert!(u >= at);
            prop_assert!(s.is_up(u));
            // No toggle strictly between `at` and `u` yields an up state.
            for &tog in s.toggles() {
                if tog > at && tog < u {
                    prop_assert!(!s.is_up(tog));
                }
            }
        } else {
            prop_assert!(!s.is_up(at));
        }
    }
}
