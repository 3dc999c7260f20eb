//! Property-based tests for the wireless substrate invariants.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_net::churn::ChurnProcess;
use pg_net::energy::{Battery, RadioModel};
use pg_net::geom::Point;
use pg_net::link::LinkModel;
use pg_net::routing::{flood, gossip};
use pg_net::topology::{NodeId, RoutingTree, Topology};
use pg_sim::{Duration, SimTime};
use propcheck::{check, Gen};
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

fn points(g: &mut Gen, max: usize) -> Vec<Point> {
    g.vec(1..max, |g| {
        Point::flat(g.range(0.0..200.0), g.range(0.0..200.0))
    })
}

/// Adjacency is symmetric and irreflexive for any placement.
#[test]
fn adjacency_symmetric() {
    check("adjacency_symmetric", 64, |g| {
        let pts = points(g, 40);
        let range = g.range(5.0f64..80.0);
        let topo = Topology::from_positions(pts, range);
        for a in topo.nodes() {
            assert!(!topo.neighbors(a).contains(&a));
            for &b in topo.neighbors(a) {
                assert!(topo.neighbors(b).contains(&a));
                assert!(topo.distance(a, b) <= range + 1e-9);
            }
        }
    });
}

/// BFS hop counts satisfy the triangle property along edges: adjacent
/// nodes differ by at most one hop from any root.
#[test]
fn hops_lipschitz_along_edges() {
    check("hops_lipschitz_along_edges", 64, |g| {
        let pts = points(g, 40);
        let range = g.range(10.0f64..80.0);
        let topo = Topology::from_positions(pts, range);
        let hops = topo.hops_from(NodeId(0));
        for a in topo.nodes() {
            for &b in topo.neighbors(a) {
                if let (Some(ha), Some(hb)) = (hops[a.idx()], hops[b.idx()]) {
                    assert!(ha.abs_diff(hb) <= 1, "hops {ha} vs {hb} across an edge");
                }
            }
        }
    });
}

/// Spanning-tree parents are exactly one hop shallower; paths to root
/// have length depth+1.
#[test]
fn spanning_tree_depths_consistent() {
    check("spanning_tree_depths_consistent", 64, |g| {
        let pts = points(g, 40);
        let range = g.range(10.0f64..80.0);
        let topo = Topology::from_positions(pts, range);
        let tree = topo.spanning_tree(NodeId(0));
        for n in topo.nodes() {
            if let Some(d) = tree.depth[n.idx()] {
                if let Some(p) = tree.parent[n.idx()] {
                    assert_eq!(tree.depth[p.idx()], Some(d - 1));
                }
                let path = root_path(&tree, n);
                assert_eq!(path.len() as u32, d + 1);
                assert_eq!(*path.last().unwrap(), NodeId(0));
            }
        }
    });
}

/// Early-stop marking of any member list (duplicates and unreachable
/// nodes included) marks exactly the union of the members' root paths.
#[test]
fn early_stop_marking_is_the_union_of_root_paths() {
    check("early_stop_marking_is_the_union_of_root_paths", 64, |g| {
        let pts = points(g, 60);
        let range = g.range(8.0f64..40.0);
        let picks = g.vec(0..80, |g| g.range(0usize..60));
        let topo = Topology::from_positions(pts, range);
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
        assert_eq!(got, want);
    });
}

/// TX energy is monotone in both bits and distance, and RX is linear.
#[test]
fn radio_energy_monotone() {
    check("radio_energy_monotone", 64, |g| {
        let bits = g.range(1u64..100_000);
        let d1 = g.range(0.0f64..500.0);
        let d2 = g.range(0.0f64..500.0);
        let m = RadioModel::mote();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        assert!(m.tx_energy(bits, lo) <= m.tx_energy(bits, hi) + 1e-18);
        assert!(m.tx_energy(bits, lo) <= m.tx_energy(bits + 1, lo));
        assert!((m.rx_energy(2 * bits) - 2.0 * m.rx_energy(bits)).abs() < 1e-15);
    });
}

/// Batteries never go negative and total drain accounting holds.
#[test]
fn battery_conservation() {
    check("battery_conservation", 64, |g| {
        let draws = g.vec(0..30, |g| g.range(0.0f64..0.4));
        let mut b = Battery::new(1.0);
        for d in &draws {
            b.drain(*d);
            assert!(b.remaining() >= 0.0);
            assert!(b.used() <= b.capacity() + 1e-12);
            assert!((b.remaining() + b.used() - b.capacity()).abs() < 1e-9);
        }
        let total: f64 = draws.iter().sum();
        assert_eq!(b.is_dead(), total >= 1.0);
    });
}

/// Lossless flooding reaches exactly the connected component of the
/// source, with one transmission per reached node.
#[test]
fn flood_reaches_component() {
    check("flood_reaches_component", 64, |g| {
        let pts = points(g, 30);
        let range = g.range(10.0f64..60.0);
        let seed = g.u64();
        let topo = Topology::from_positions(pts, range);
        let link = LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let d = flood(&topo, NodeId(0), &link, &mut rng);
        let hops = topo.hops_from(NodeId(0));
        for n in topo.nodes() {
            assert_eq!(d.reached[n.idx()], hops[n.idx()].is_some());
        }
        let reached = d.reached.iter().filter(|&&r| r).count() as u64;
        assert_eq!(d.transmissions, reached);
    });
}

/// Gossip never reaches more nodes than flooding from the same state.
#[test]
fn gossip_bounded_by_flood() {
    check("gossip_bounded_by_flood", 64, |g| {
        let pts = points(g, 30);
        let p = g.range(0.05f64..1.0);
        let seed = g.u64();
        let topo = Topology::from_positions(pts, 30.0);
        let link = LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap();
        let flood_cov = flood(&topo, NodeId(0), &link, &mut StdRng::seed_from_u64(seed)).coverage();
        let gossip_cov =
            gossip(&topo, NodeId(0), p, &link, &mut StdRng::seed_from_u64(seed)).coverage();
        assert!(gossip_cov <= flood_cov + 1e-12);
    });
}

/// Churn schedules alternate: is_up flips at every toggle, and the
/// sampled uptime lies in [0, 1].
#[test]
fn churn_schedule_well_formed() {
    check("churn_schedule_well_formed", 64, |g| {
        let up = g.range(1.0f64..500.0);
        let down = g.range(1.0f64..500.0);
        let seed = g.u64();
        let proc_ = ChurnProcess::new(up, down).unwrap();
        let horizon = SimTime::from_secs(10_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = proc_.schedule(horizon, &mut rng);
        for w in s.toggles().windows(2) {
            assert!(w[0] < w[1], "toggles strictly ascending");
        }
        for &t in s.toggles() {
            let before = SimTime::from_nanos(t.as_nanos().saturating_sub(1));
            assert_ne!(s.is_up(before), s.is_up(t), "state flips at toggle");
        }
        let f = s.uptime_fraction(horizon);
        assert!((0.0..=1.0 + 1e-12).contains(&f));
    });
}

/// Long-run sampled up-fraction converges to the analytic availability:
/// over a horizon of ~1000 mean up/down cycles, the renewal-process
/// deviation is O(1/sqrt(cycles)), comfortably inside 5 %.
#[test]
fn churn_uptime_converges_to_availability() {
    check("churn_uptime_converges_to_availability", 64, |g| {
        let up = g.range(10.0f64..200.0);
        let down = g.range(10.0f64..200.0);
        let seed = g.u64();
        let proc_ = ChurnProcess::new(up, down).unwrap();
        let horizon = SimTime::from_secs_f64(1_000.0 * (up + down));
        let mut rng = StdRng::seed_from_u64(seed);
        let f = proc_.schedule(horizon, &mut rng).uptime_fraction(horizon);
        let a = proc_.availability();
        assert!(
            (f - a).abs() < 0.05,
            "sampled up-fraction {f} vs availability {a}"
        );
    });
}

/// `next_up_at` returns an instant at which the service is indeed up,
/// and never skips an earlier up instant among the toggles.
#[test]
fn next_up_at_is_correct() {
    check("next_up_at_is_correct", 64, |g| {
        let up = g.range(1.0f64..100.0);
        let down = g.range(1.0f64..100.0);
        let t = g.range(0u64..5_000);
        let seed = g.u64();
        let proc_ = ChurnProcess::new(up, down).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = proc_.schedule(SimTime::from_secs(10_000), &mut rng);
        let at = SimTime::from_secs(t);
        if let Some(u) = s.next_up_at(at) {
            assert!(u >= at);
            assert!(s.is_up(u));
            // No toggle strictly between `at` and `u` yields an up state.
            for &tog in s.toggles() {
                if tog > at && tog < u {
                    assert!(!s.is_up(tog));
                }
            }
        } else {
            assert!(!s.is_up(at));
        }
    });
}
