//! Property tests: incremental tree repair converges to the same parent
//! assignment as a from-scratch canonical rebuild over the survivors — for
//! random topologies up to 1k nodes, single death batches and sequential
//! churn alike.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_net::repair::repair_after_deaths;
use pg_net::topology::{NodeId, Topology};
use propcheck::check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random geometric placement from a seed; density tuned so mid-size fields
/// are mostly connected but still shed fragments (both cases matter).
fn topo_from_seed(seed: u64, n: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (n as f64).sqrt() * 12.0;
    Topology::random_geometric(n, side, side, 25.0, &mut rng)
}

/// Pick `k` distinct non-root victims from the currently-alive set.
fn pick_victims(alive: &[bool], k: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut pool: Vec<u32> = (1..alive.len() as u32)
        .filter(|&i| alive[i as usize])
        .collect();
    let mut victims = Vec::new();
    for _ in 0..k.min(pool.len()) {
        let i = rng.gen_range(0..pool.len());
        victims.push(NodeId(pool.swap_remove(i)));
    }
    victims
}

fn assert_trees_equal(got: &pg_net::topology::RoutingTree, want: &pg_net::topology::RoutingTree) {
    assert_eq!(got.depth, want.depth, "depth mismatch");
    assert_eq!(got.parent, want.parent, "parent mismatch");
    assert_eq!(got.children, want.children, "children mismatch");
    // The order a repaired tree carries is the stable deepest-first sort
    // of its attached nodes, recomputed from scratch here.
    let mut order: Vec<NodeId> = (0..got.depth.len() as u32)
        .map(NodeId)
        .filter(|n| got.depth[n.idx()].is_some())
        .collect();
    order.sort_by_key(|n| std::cmp::Reverse(got.depth[n.idx()]));
    assert_eq!(
        got.bottom_up_order(),
        &order[..],
        "bottom-up order mismatch"
    );
    assert_eq!(got.covered(), order.len(), "covered mismatch");
    let deepest = got.depth.iter().flatten().copied().max().unwrap_or(0);
    assert_eq!(got.height(), deepest, "height mismatch");
}

/// One batch of deaths: repair == rebuild, and its stats add up.
#[test]
fn single_batch_matches_rebuild() {
    check("single_batch_matches_rebuild", 64, |g| {
        let seed = g.range(0u64..1_000_000);
        let n = g.range(2usize..300);
        let kill_frac = g.range(0.0f64..0.3);
        let topo = topo_from_seed(seed, n);
        let root = NodeId(0);
        let mut tree = topo.canonical_tree(root);
        let mut alive = vec![true; n];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let k = ((n - 1) as f64 * kill_frac) as usize;
        let victims = pick_victims(&alive, k, &mut rng);
        for v in &victims {
            alive[v.idx()] = false;
        }
        let stats = repair_after_deaths(&topo, &mut tree, &victims, |v| alive[v.idx()]);
        let want = topo.canonical_tree_filtered(root, |v| alive[v.idx()]);
        assert_trees_equal(&tree, &want);
        // Only victims attached to the tree count as detached deaths.
        assert!(stats.dead <= victims.len());
        assert!(stats.touched() <= n);
    });
}

/// Sequential churn: several successive death batches, each repaired
/// incrementally, never diverge from the from-scratch canonical tree.
#[test]
fn sequential_churn_matches_rebuild() {
    check("sequential_churn_matches_rebuild", 64, |g| {
        let seed = g.range(0u64..1_000_000);
        let n = g.range(10usize..200);
        let rounds = g.range(1usize..6);
        let topo = topo_from_seed(seed, n);
        let root = NodeId(0);
        let mut tree = topo.canonical_tree(root);
        let mut alive = vec![true; n];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
        for _ in 0..rounds {
            let k = 1 + rng.gen_range(0..(n / 20).max(1));
            let victims = pick_victims(&alive, k, &mut rng);
            if victims.is_empty() {
                break;
            }
            for v in &victims {
                alive[v.idx()] = false;
            }
            repair_after_deaths(&topo, &mut tree, &victims, |v| alive[v.idx()]);
            let want = topo.canonical_tree_filtered(root, |v| alive[v.idx()]);
            assert_trees_equal(&tree, &want);
        }
    });
}

/// Repair latency never exceeds the full-rebuild flood: the wavefront
/// touches at most the depth range it recomputes.
#[test]
fn waves_bounded_by_rebuild() {
    check("waves_bounded_by_rebuild", 64, |g| {
        let seed = g.range(0u64..1_000_000);
        let n = g.range(10usize..200);
        let topo = topo_from_seed(seed, n);
        let root = NodeId(0);
        let mut tree = topo.canonical_tree(root);
        let pre_height = tree.height();
        let mut alive = vec![true; n];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let victims = pick_victims(&alive, 2, &mut rng);
        for v in &victims {
            alive[v.idx()] = false;
        }
        let stats = repair_after_deaths(&topo, &mut tree, &victims, |v| alive[v.idx()]);
        // New depths only grow; waves span [first recomputed level, new
        // height], so they cannot exceed the post-repair flood depth + 1,
        // and re-anchoring adds at most one more exchange.
        let rebuild_waves = tree.height().max(pre_height) + 1;
        assert!(
            stats.waves <= rebuild_waves + 1,
            "waves {} vs rebuild {}",
            stats.waves,
            rebuild_waves,
        );
    });
}

/// Deterministic heavyweight case (not a property, so it always runs at
/// full size): a 1k-node field, repeated churn, exact convergence.
#[test]
fn thousand_node_churn_converges() {
    let n = 1000;
    let topo = topo_from_seed(77, n);
    let root = NodeId(0);
    let mut tree = topo.canonical_tree(root);
    let mut alive = vec![true; n];
    let mut rng = StdRng::seed_from_u64(77);
    for round in 0..8 {
        let victims = pick_victims(&alive, 10, &mut rng);
        for v in &victims {
            alive[v.idx()] = false;
        }
        let stats = repair_after_deaths(&topo, &mut tree, &victims, |v| alive[v.idx()]);
        let want = topo.canonical_tree_filtered(root, |v| alive[v.idx()]);
        assert_trees_equal(&tree, &want);
        // Incremental repair must touch far fewer nodes than a rebuild.
        assert!(stats.touched() < n / 2, "round {round}: {stats:?}");
    }
}
