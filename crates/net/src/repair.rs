//! Incremental repair of canonical aggregation trees after node deaths.
//!
//! §4's churn model kills sensors as their batteries drain; PR 4 priced the
//! full-rebuild response (flood a build beacon through every operational
//! node). At 10k+ nodes that is the wrong answer for a handful of deaths:
//! almost the whole tree is still valid. This module implements the
//! delete-only case of Ramalingam–Reps-style dynamic shortest paths over a
//! [`Topology`]'s unit-weight graph:
//!
//! 1. **Orphan seeding** — alive children of dead nodes enter a work queue.
//! 2. **Re-anchoring sweep** (ascending old depth) — a node that still has
//!    an alive neighbour one hop closer to the root just switches parent to
//!    the lowest-id such neighbour; its depth, and therefore its entire
//!    subtree, is untouched.
//! 3. **Wavefront recompute** — nodes with no remaining support lose their
//!    depth; a unit-weight Dijkstra (bucket queue) re-grows them from the
//!    unaffected boundary, one hop-wave at a time.
//!
//! Because the tree being repaired is *canonical* (parent = lowest-id
//! neighbour at depth − 1, see [`Topology::canonical_tree`]), the repaired
//! tree is bit-identical to a from-scratch
//! [`Topology::canonical_tree_filtered`] over the surviving nodes — the
//! property test in `tests/tree_repair.rs` holds this invariant for random
//! topologies. [`RepairStats`] exposes the two quantities the control plane
//! pays for: how many nodes changed state (beacon transmissions) and how
//! many hop-waves the repair took (latency), both of which a full rebuild
//! pays at O(network).

use crate::topology::{NodeId, RoutingTree, Topology};

/// What one [`repair_after_deaths`] call did, in control-plane terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Newly dead nodes actually detached from the tree this call.
    pub dead: usize,
    /// Alive nodes whose parent died (the repair seeds).
    pub orphans: usize,
    /// Nodes that kept their depth and switched to a new parent.
    pub reanchored: usize,
    /// Nodes whose depth was recomputed by the wavefront phase.
    pub recomputed: usize,
    /// Nodes left unattached (no surviving path to the root).
    pub unreachable: usize,
    /// Hop-waves of control traffic: 1 for the re-anchoring exchange (if
    /// any node changed) plus one per distinct recomputed depth level. A
    /// full rebuild costs `height + 1` waves.
    pub waves: u32,
    /// Alive nodes that announced a new parent or depth — the nodes that
    /// transmit a repair beacon (`reanchored` + `recomputed`; detached
    /// nodes have nobody in range to tell).
    pub changed: Vec<NodeId>,
}

impl RepairStats {
    /// Nodes that transmitted a repair beacon (changed parent, depth, or
    /// attachment). Multiply by the beacon size for wire bytes.
    pub fn touched(&self) -> usize {
        self.reanchored + self.recomputed + self.unreachable
    }
}

/// Remove `v` from `p`'s (ascending-sorted) child list, if present.
fn remove_child(tree: &mut RoutingTree, p: NodeId, v: NodeId) {
    if let Ok(pos) = tree.children[p.idx()].binary_search(&v) {
        tree.children[p.idx()].remove(pos);
    }
}

/// Insert `v` into `p`'s child list, keeping it ascending-sorted.
fn insert_child(tree: &mut RoutingTree, p: NodeId, v: NodeId) {
    if let Err(pos) = tree.children[p.idx()].binary_search(&v) {
        tree.children[p.idx()].insert(pos, v);
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Untouched,
    /// Kept its depth (parent possibly switched) — final.
    Settled,
    /// Lost all depth − 1 support; depth pending recompute.
    Affected,
}

/// Repair the canonical tree `tree` in place after the nodes in `dead`
/// stopped operating. `alive` must describe the *post*-death alive set
/// (every node in `dead` reports false). `tree` must be the canonical tree
/// over the pre-death alive set — the invariant this function preserves.
///
/// # Panics
/// Panics if the tree root is listed dead: the sink has no parent to repair
/// toward, callers must rebuild (or give up) instead.
pub fn repair_after_deaths<F: Fn(NodeId) -> bool>(
    topo: &Topology,
    tree: &mut RoutingTree,
    dead: &[NodeId],
    alive: F,
) -> RepairStats {
    let n = topo.len();
    let mut stats = RepairStats::default();
    let mut state = vec![State::Untouched; n];

    // Detach every newly dead node (skip ones already off the tree).
    for &d in dead {
        assert!(d != tree.root, "cannot repair around a dead root");
        if tree.depth[d.idx()].is_none() {
            continue;
        }
        if let Some(p) = tree.parent[d.idx()] {
            remove_child(tree, p, d);
        }
        tree.parent[d.idx()] = None;
        tree.depth[d.idx()] = None;
        stats.dead += 1;
    }

    // Seed the sweep with the orphaned children. Dead children already
    // detached themselves above, so these are all alive and attached.
    // Bucket the work queue by *old* depth: by the time a node at depth d
    // is examined, every depth d − 1 node's fate is final, so "has an
    // unaffected alive neighbour at d − 1" is a sound re-anchor test.
    let mut buckets: Vec<Vec<NodeId>> = Vec::new();
    let push = |buckets: &mut Vec<Vec<NodeId>>, d: u32, v: NodeId| {
        let d = d as usize;
        if buckets.len() <= d {
            buckets.resize(d + 1, Vec::new());
        }
        buckets[d].push(v);
    };
    for &d in dead {
        for c in std::mem::take(&mut tree.children[d.idx()]) {
            if let Some(cd) = tree.depth[c.idx()] {
                push(&mut buckets, cd, c);
                stats.orphans += 1;
            }
        }
    }

    // Phase 2: re-anchoring sweep in ascending old-depth order.
    let mut affected: Vec<(NodeId, u32)> = Vec::new();
    let mut depth_idx = 0;
    while depth_idx < buckets.len() {
        let mut i = 0;
        while i < buckets[depth_idx].len() {
            let v = buckets[depth_idx][i];
            i += 1;
            if state[v.idx()] != State::Untouched || !alive(v) {
                continue;
            }
            // Stale queue entry: v already lost its depth this round.
            let Some(d) = tree.depth[v.idx()] else {
                continue;
            };
            debug_assert_eq!(d as usize, depth_idx);
            let support = topo
                .neighbors(v)
                .iter()
                .copied()
                .find(|&u| alive(u) && tree.depth[u.idx()] == Some(d - 1));
            if let Some(p_new) = support {
                state[v.idx()] = State::Settled;
                if tree.parent[v.idx()] != Some(p_new) {
                    if let Some(p_old) = tree.parent[v.idx()] {
                        remove_child(tree, p_old, v);
                    }
                    tree.parent[v.idx()] = Some(p_new);
                    insert_child(tree, p_new, v);
                    stats.reanchored += 1;
                    stats.changed.push(v);
                }
            } else {
                state[v.idx()] = State::Affected;
                affected.push((v, d));
                if let Some(p_old) = tree.parent[v.idx()] {
                    remove_child(tree, p_old, v);
                }
                tree.parent[v.idx()] = None;
                tree.depth[v.idx()] = None;
                // Everything v was supporting must now re-examine itself.
                for &w in topo.neighbors(v) {
                    if alive(w) && tree.depth[w.idx()] == Some(d + 1) {
                        push(&mut buckets, d + 1, w);
                    }
                }
            }
        }
        depth_idx += 1;
    }
    if stats.reanchored > 0 {
        stats.waves = 1;
    }

    // Phase 3: wavefront recompute of the affected set — unit-weight
    // Dijkstra seeded from the unaffected boundary, one bucket per new
    // depth. Delete-only updates never decrease a depth, so unaffected
    // depths are already final and affected nodes re-grow monotonically.
    let mut cand: Vec<Option<u32>> = vec![None; n];
    let mut wave_buckets: Vec<Vec<NodeId>> = Vec::new();
    for &(v, _) in &affected {
        let best = topo
            .neighbors(v)
            .iter()
            .filter(|&&u| alive(u))
            .filter_map(|&u| tree.depth[u.idx()])
            .min()
            .map(|d| d + 1);
        if let Some(c) = best {
            cand[v.idx()] = Some(c);
            push(&mut wave_buckets, c, v);
        }
    }
    let mut new_depth = 0;
    while new_depth < wave_buckets.len() {
        let mut wave_active = false;
        let mut i = 0;
        while i < wave_buckets[new_depth].len() {
            let v = wave_buckets[new_depth][i];
            i += 1;
            let nd = new_depth as u32;
            if tree.depth[v.idx()].is_some() || cand[v.idx()] != Some(nd) {
                continue; // finalized earlier, or superseded entry
            }
            tree.depth[v.idx()] = Some(nd);
            // Canonical parent: lowest-id alive neighbour one hop up. All
            // depth nd − 1 nodes (affected or not) are final by now.
            let p = topo
                .neighbors(v)
                .iter()
                .copied()
                .find(|&u| alive(u) && tree.depth[u.idx()] == Some(nd - 1));
            debug_assert!(p.is_some(), "finalized node must have support");
            if let Some(p) = p {
                tree.parent[v.idx()] = Some(p);
                insert_child(tree, p, v);
            }
            stats.recomputed += 1;
            stats.changed.push(v);
            wave_active = true;
            for &w in topo.neighbors(v) {
                if state[w.idx()] == State::Affected
                    && tree.depth[w.idx()].is_none()
                    && alive(w)
                    && cand[w.idx()].is_none_or(|c| nd + 1 < c)
                {
                    cand[w.idx()] = Some(nd + 1);
                    push(&mut wave_buckets, nd + 1, w);
                }
            }
        }
        if wave_active {
            stats.waves += 1;
        }
        new_depth += 1;
    }
    stats.unreachable = affected
        .iter()
        .filter(|(v, _)| tree.depth[v.idx()].is_none())
        .count();
    // Depths only move when an attached node died; re-anchoring alone
    // leaves the bottom-up order as it was.
    if stats.dead > 0 {
        tree.refresh_order();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point::flat(i as f64 * 10.0, 0.0)).collect();
        Topology::from_positions(pts, 15.0)
    }

    /// 0 at the hub; 1..=k spokes; 5 and 6 hang off spokes 1 and 2.
    fn diamond() -> Topology {
        // 0-1, 0-2, 1-3, 2-3: two routes from 3 back to root 0.
        let pts = vec![
            Point::flat(0.0, 0.0),
            Point::flat(10.0, 5.0),
            Point::flat(10.0, -5.0),
            Point::flat(20.0, 0.0),
        ];
        Topology::from_positions(pts, 12.0)
    }

    #[test]
    fn leaf_death_touches_nothing() {
        let t = line(5);
        let mut tree = t.canonical_tree(NodeId(0));
        let dead = [NodeId(4)];
        let stats = repair_after_deaths(&t, &mut tree, &dead, |v| v != NodeId(4));
        assert_eq!(stats.dead, 1);
        assert_eq!(stats.orphans, 0);
        assert_eq!(stats.touched(), 0);
        assert_eq!(stats.waves, 0);
        let want = t.canonical_tree_filtered(NodeId(0), |v| v != NodeId(4));
        assert_eq!(tree.parent, want.parent);
        assert_eq!(tree.depth, want.depth);
    }

    #[test]
    fn reanchor_keeps_depth_when_alternate_support_exists() {
        let t = diamond();
        let mut tree = t.canonical_tree(NodeId(0));
        assert_eq!(tree.parent[3], Some(NodeId(1)));
        let stats = repair_after_deaths(&t, &mut tree, &[NodeId(1)], |v| v != NodeId(1));
        assert_eq!(stats.orphans, 1);
        assert_eq!(stats.reanchored, 1);
        assert_eq!(stats.recomputed, 0);
        assert_eq!(stats.waves, 1);
        assert_eq!(tree.parent[3], Some(NodeId(2)));
        assert_eq!(tree.depth[3], Some(2));
        let want = t.canonical_tree_filtered(NodeId(0), |v| v != NodeId(1));
        assert_eq!(tree.parent, want.parent);
        assert_eq!(tree.depth, want.depth);
        assert_eq!(tree.children, want.children);
    }

    #[test]
    fn mid_line_death_disconnects_tail() {
        let t = line(6);
        let mut tree = t.canonical_tree(NodeId(0));
        let stats = repair_after_deaths(&t, &mut tree, &[NodeId(2)], |v| v != NodeId(2));
        assert_eq!(stats.orphans, 1);
        assert_eq!(stats.unreachable, 3);
        for i in 3..6 {
            assert_eq!(tree.depth[i], None);
            assert_eq!(tree.parent[i], None);
        }
        let want = t.canonical_tree_filtered(NodeId(0), |v| v != NodeId(2));
        assert_eq!(tree.parent, want.parent);
        assert_eq!(tree.depth, want.depth);
        assert_eq!(tree.children, want.children);
    }

    #[test]
    #[should_panic(expected = "dead root")]
    fn dead_root_rejected() {
        let t = line(3);
        let mut tree = t.canonical_tree(NodeId(0));
        repair_after_deaths(&t, &mut tree, &[NodeId(0)], |v| v != NodeId(0));
    }
}
