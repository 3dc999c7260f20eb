//! Node placements and range-based connectivity graphs.
//!
//! §4: "All networks may not be of the same size … Different networks would
//! have different network topology." A [`Topology`] is an immutable set of
//! node positions plus a communication range; adjacency is derived. Upper
//! layers (clustering, aggregation trees, composition) are built on the
//! graph queries here. Hop counts, shortest paths and both tree builders
//! run one breadth-first search, which records each node's depth and the
//! node that discovered it; [`Topology::spanning_tree`] keeps that
//! discoverer as the parent, [`Topology::canonical_tree`] the lowest-id
//! neighbour one hop closer.

use crate::geom::Point;
use rand::Rng;
use std::collections::VecDeque;
use std::fmt;

/// Index of a node within one [`Topology`]. Dense `u32` indices keep
/// adjacency lists compact (per the type-size guidance in the perf guides).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize` for slice access.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An immutable node placement with range-derived adjacency, built once
/// by [`Topology::from_positions`].
///
/// Adjacency is stored in CSR (compressed sparse row) form — one flat
/// `targets` array plus per-node offsets — instead of a `Vec<Vec<NodeId>>`.
/// At 10k–100k nodes the per-node allocations of the nested form dominate
/// build time and scatter neighbour lists across the heap; the flat form is
/// one allocation and every `neighbors()` call is a contiguous slice.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Point>,
    range: f64,
    /// CSR offsets: node `i`'s neighbours live at
    /// `adj_targets[adj_offsets[i]..adj_offsets[i + 1]]`.
    adj_offsets: Vec<usize>,
    /// CSR targets, ascending by id within each node's slice.
    adj_targets: Vec<NodeId>,
}

impl Topology {
    /// Build a topology from explicit positions and a communication range.
    ///
    /// Two nodes are adjacent when their squared distance is at most
    /// `range²`, both in f64. Candidate pairs come from a dense grid of
    /// cells at least `range` wide, so every in-range pair lies in the same
    /// or adjacent cells and a node scans at most 9 contiguous x-runs of ids
    /// rather than all n: O(n + m) for bounded-density placements. Each
    /// pair is tested once, from its lower id, and every neighbour list
    /// fills ascending by id, the order the all-pairs build produced, so
    /// every tree shape and baseline derived from adjacency is unchanged.
    /// A node with a NaN or infinite coordinate is within range of no other
    /// node, and is binned like the rest.
    ///
    /// # Panics
    /// Panics on an empty placement, a range that is not positive and
    /// finite, or one whose square is not a normal f64 (below about
    /// 1.5e-154 m range² underflows, so pairs far out of range would count
    /// as adjacent; above about 1.3e154 m it overflows, and an infinite
    /// coordinate would be in range of every node).
    pub fn from_positions(positions: Vec<Point>, range: f64) -> Self {
        assert!(!positions.is_empty(), "topology needs at least one node");
        assert!(range > 0.0, "communication range must be positive");
        assert!(range.is_finite(), "communication range must be finite");
        assert!(
            (range * range).is_normal(),
            "communication range squared must be a normal f64"
        );
        let n = positions.len();
        let range_sq = range * range;
        let grid = CellGrid::new(&positions, range);

        // Each node's higher-id neighbours, node after node; the offsets
        // count every node's degree, shifted one slot up for the prefix sum.
        let mut higher: Vec<u32> = Vec::new();
        let mut higher_end = Vec::with_capacity(n);
        let mut adj_offsets = vec![0usize; n + 1];
        for (i, p) in positions.iter().enumerate() {
            let before = higher.len();
            for run in grid.around(p) {
                for &j in run {
                    if j as usize > i && p.distance_sq(&positions[j as usize]) <= range_sq {
                        higher.push(j);
                        adj_offsets[j as usize + 1] += 1;
                    }
                }
            }
            adj_offsets[i + 1] += higher.len() - before;
            higher_end.push(higher.len());
        }
        for i in 0..n {
            adj_offsets[i + 1] += adj_offsets[i];
        }

        // Fill the lists in one pass over v ascending. On its turn v joins
        // the list of each higher neighbour, so every list starts with its
        // lower neighbours in ascending order. v's own lower neighbours are
        // then all in, and v joins each of their lists in turn, so their
        // higher neighbours follow, ascending too.
        let mut adj_targets = vec![NodeId(0); 2 * higher.len()];
        let mut next = adj_offsets[..n].to_vec();
        let mut from = 0;
        for (v, &to) in higher_end.iter().enumerate() {
            for &j in &higher[from..to] {
                adj_targets[next[j as usize]] = NodeId(v as u32);
                next[j as usize] += 1;
            }
            from = to;
            for k in adj_offsets[v]..next[v] {
                let u = adj_targets[k].idx();
                adj_targets[next[u]] = NodeId(v as u32);
                next[u] += 1;
            }
        }
        Topology {
            positions,
            range,
            adj_offsets,
            adj_targets,
        }
    }

    /// `n` nodes placed uniformly at random in a `width × height` metre
    /// rectangle (the classic random geometric graph).
    pub fn random_geometric<R: Rng>(
        n: usize,
        width: f64,
        height: f64,
        range: f64,
        rng: &mut R,
    ) -> Self {
        let positions = (0..n)
            .map(|_| Point::flat(rng.gen::<f64>() * width, rng.gen::<f64>() * height))
            .collect();
        Topology::from_positions(positions, range)
    }

    /// A regular `cols × rows` grid with `spacing` metres between neighbours.
    pub fn grid(cols: usize, rows: usize, spacing: f64, range: f64) -> Self {
        let positions = (0..rows)
            .flat_map(|r| {
                (0..cols).map(move |c| Point::flat(c as f64 * spacing, r as f64 * spacing))
            })
            .collect();
        Topology::from_positions(positions, range)
    }

    /// The paper's building scenario: `floors` floors of `cols × rows`
    /// sensors, `spacing` metres apart in-plane, `floor_height` metres
    /// between floors.
    pub fn building(
        floors: usize,
        cols: usize,
        rows: usize,
        spacing: f64,
        floor_height: f64,
        range: f64,
    ) -> Self {
        let positions = (0..floors)
            .flat_map(|f| {
                (0..rows).flat_map(move |r| {
                    (0..cols).map(move |c| {
                        Point::new(
                            c as f64 * spacing,
                            r as f64 * spacing,
                            f as f64 * floor_height,
                        )
                    })
                })
            })
            .collect();
        Topology::from_positions(positions, range)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Always false — construction rejects empty placements.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// The communication range, metres.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Position of `id`.
    pub fn position(&self, id: NodeId) -> Point {
        self.positions[id.idx()]
    }

    /// In-range neighbours of `id`, ascending by id.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.adj_targets[self.adj_offsets[id.idx()]..self.adj_offsets[id.idx() + 1]]
    }

    /// Number of in-range neighbours of `id`.
    pub fn degree(&self, id: NodeId) -> usize {
        self.adj_offsets[id.idx() + 1] - self.adj_offsets[id.idx()]
    }

    /// Euclidean distance between two nodes, metres.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.idx()].distance(&self.positions[b.idx()])
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj_targets.len() / 2
    }

    /// The node closest to `p` (ties broken by lowest id).
    pub fn nearest_to(&self, p: Point) -> NodeId {
        let mut best = NodeId(0);
        let mut best_d = f64::INFINITY;
        for (i, pos) in self.positions.iter().enumerate() {
            let d = pos.distance_sq(&p);
            if d < best_d {
                best_d = d;
                best = NodeId(i as u32);
            }
        }
        best
    }

    /// Breadth-first search from `root` over the nodes where `alive` holds,
    /// each neighbour list in ascending order: every reached node's hop
    /// depth, and the node whose list reached it first (`None` for the root
    /// and for nodes not reached). The one BFS every query below runs.
    fn bfs(
        &self,
        root: NodeId,
        alive: impl Fn(NodeId) -> bool,
    ) -> (Vec<Option<u32>>, Vec<Option<NodeId>>) {
        let mut depth = vec![None; self.len()];
        let mut found_by = vec![None; self.len()];
        depth[root.idx()] = Some(0);
        let mut q = VecDeque::from([(root, 0)]);
        while let Some((u, d)) = q.pop_front() {
            for &v in self.neighbors(u) {
                if depth[v.idx()].is_none() && alive(v) {
                    depth[v.idx()] = Some(d + 1);
                    found_by[v.idx()] = Some(u);
                    q.push_back((v, d + 1));
                }
            }
        }
        (depth, found_by)
    }

    /// Hop counts from `root` to every node by BFS (`None` = unreachable).
    pub fn hops_from(&self, root: NodeId) -> Vec<Option<u32>> {
        self.bfs(root, |_| true).0
    }

    /// True when every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.hops_from(NodeId(0)).iter().all(Option::is_some)
    }

    /// Shortest hop path from `from` to `to` (inclusive of both endpoints),
    /// or `None` when disconnected. Ties broken deterministically by
    /// adjacency order: the path [`Self::spanning_tree`] rooted at `from`
    /// holds.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let (_, found_by) = self.bfs(from, |_| true);
        let mut path: Vec<NodeId> =
            std::iter::successors(Some(to), |v| found_by[v.idx()]).collect();
        path.reverse();
        (path[0] == from).then_some(path)
    }

    /// Build the BFS shortest-path tree rooted at `root` (the structure TAG
    /// imposes on the network): each node's parent is the node whose
    /// neighbour list discovered it first. Unreachable nodes have no parent
    /// and depth `None`.
    pub fn spanning_tree(&self, root: NodeId) -> RoutingTree {
        let (depth, parent) = self.bfs(root, |_| true);
        RoutingTree::assemble(root, parent, depth)
    }

    /// Build the *canonical* shortest-path tree rooted at `root`: every
    /// node's depth is its BFS distance and its parent is the lowest-id
    /// neighbour one hop closer to the root. Unlike [`Self::spanning_tree`]
    /// (whose parent choice depends on BFS discovery order), the canonical
    /// parent is a pure local function of the depth field — which is what
    /// lets incremental repair after node deaths provably converge to the
    /// same tree a from-scratch rebuild would produce.
    pub fn canonical_tree(&self, root: NodeId) -> RoutingTree {
        self.canonical_tree_filtered(root, |_| true)
    }

    /// [`Self::canonical_tree`] restricted to nodes where `alive` holds.
    /// Dead nodes get no depth and no parent; alive nodes only reachable
    /// through dead ones are likewise left unattached.
    ///
    /// # Panics
    /// Panics if `root` itself is not alive.
    pub fn canonical_tree_filtered<F: Fn(NodeId) -> bool>(
        &self,
        root: NodeId,
        alive: F,
    ) -> RoutingTree {
        assert!(alive(root), "canonical tree root must be alive");
        let (depth, _) = self.bfs(root, alive);
        let parent = self.canonical_parents(&depth);
        RoutingTree::assemble(root, parent, depth)
    }

    /// Each node's canonical parent under the BFS `depth` of some root:
    /// its lowest-id neighbour one hop closer (`None` for the root and
    /// nodes without a depth). Following it from `s` walks the
    /// lexicographically smallest shortest path to the root, which is
    /// the path a BFS from `s` over ascending neighbour lists returns.
    pub fn canonical_parents(&self, depth: &[Option<u32>]) -> Vec<Option<NodeId>> {
        self.nodes()
            .map(|v| {
                let d = depth[v.idx()].filter(|&d| d > 0)?;
                // Neighbour lists are ascending, so the first hit is lowest-id.
                self.neighbors(v)
                    .iter()
                    .copied()
                    .find(|u| depth[u.idx()] == Some(d - 1))
            })
            .collect()
    }
}

/// Nodes binned by counting sort into one dense grid of cubic cells, x
/// varying fastest, so the 3 × 3 × 3 cells around a node are at most 9
/// contiguous x-runs of ids.
///
/// A cell is at least as wide as an in-range pair can be apart (`range`:
/// `from_positions` takes only ranges whose square is a normal f64), so
/// such a pair lies in the same or adjacent cells. Where such a grid would hold more than 2n cells, the
/// edge doubles until it does not. A coordinate outside the grid, which
/// only a non-finite one can be, clamps into an edge cell. Doubling and
/// clamping only ever merge cells, so no in-range pair is split.
struct CellGrid {
    /// The grid's corner: the least finite coordinate on each axis.
    lo: [f64; 3],
    edge: f64,
    /// Cells along x, y and z.
    dims: [usize; 3],
    /// Cell `c` holds `ids[start[c]..start[c + 1]]`, ascending.
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl CellGrid {
    fn new(positions: &[Point], range: f64) -> Self {
        let n = positions.len();
        // An axis without a finite coordinate keeps lo = +inf, hi = -inf:
        // its spread is -inf and every coordinate maps to cell 0.
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in positions {
            for (a, v) in [p.x, p.y, p.z].into_iter().enumerate() {
                if v.is_finite() {
                    lo[a] = lo[a].min(v);
                    hi[a] = hi[a].max(v);
                }
            }
        }
        // A hair more than `range`, so rounding in the cell arithmetic
        // cannot put an in-range pair two cells apart.
        let mut edge = range * (1.0 + 1e-6);
        let dims = loop {
            // `as usize` saturates: +inf (an overflowed spread) is
            // usize::MAX, and -inf or NaN (edge = inf) is 0.
            let dims = [0, 1, 2].map(|a| (((hi[a] - lo[a]) / edge) as usize).saturating_add(1));
            let cells = dims.iter().try_fold(1usize, |c, &d| c.checked_mul(d));
            if cells.is_some_and(|c| c <= 2 * n) {
                break dims;
            }
            edge *= 2.0;
        };
        let mut grid = CellGrid {
            lo,
            edge,
            dims,
            start: vec![0; dims[0] * dims[1] * dims[2] + 1],
            ids: vec![0; n],
        };
        // Counting sort: count, take inclusive prefix sums (each cell's
        // end), then place ids from the highest down, so each cell's run
        // is ascending and `start` is left holding each cell's beginning.
        let [nx, ny, _] = dims;
        let cell: Vec<usize> = positions
            .iter()
            .map(|p| {
                let [x, y, z] = grid.coords(p);
                (z * ny + y) * nx + x
            })
            .collect();
        for &c in &cell {
            grid.start[c] += 1;
        }
        let mut total = 0;
        for s in &mut grid.start {
            total += *s;
            *s = total;
        }
        for (i, &c) in cell.iter().enumerate().rev() {
            grid.start[c] -= 1;
            grid.ids[grid.start[c] as usize] = i as u32;
        }
        grid
    }

    /// The cell coordinates of `p`; NaN and -inf map to 0, +inf to the
    /// last cell.
    fn coords(&self, p: &Point) -> [usize; 3] {
        let axis =
            |a: usize, v: f64| (((v - self.lo[a]) / self.edge) as usize).min(self.dims[a] - 1);
        [axis(0, p.x), axis(1, p.y), axis(2, p.z)]
    }

    /// The ids in the cells adjacent to `p`'s cell and in that cell: one
    /// x-run per (y, z) row, at most 9.
    fn around(&self, p: &Point) -> impl Iterator<Item = &[u32]> + '_ {
        let [x, y, z] = self.coords(p);
        let [nx, ny, nz] = self.dims;
        let near = |c: usize, dim: usize| c.saturating_sub(1)..=(c + 1).min(dim - 1);
        let (x0, x1) = (x.saturating_sub(1), (x + 1).min(nx - 1));
        near(z, nz).flat_map(move |z| {
            near(y, ny).map(move |y| {
                let row = (z * ny + y) * nx;
                &self.ids[self.start[row + x0] as usize..self.start[row + x1 + 1] as usize]
            })
        })
    }
}

/// A rooted spanning tree over a [`Topology`] (aggregation/collection tree).
///
/// Built by [`Topology::spanning_tree`] / [`Topology::canonical_tree`] and
/// reshaped only by [`repair_after_deaths`](crate::repair::repair_after_deaths),
/// which keep the carried bottom-up order in step with `depth`.
#[derive(Debug, Clone)]
pub struct RoutingTree {
    /// The sink/base-station node.
    pub root: NodeId,
    /// Parent of each node (`None` for the root and unreachable nodes).
    pub parent: Vec<Option<NodeId>>,
    /// Children of each node.
    pub children: Vec<Vec<NodeId>>,
    /// Hop depth of each node (`None` = unreachable).
    pub depth: Vec<Option<u32>>,
    /// Attached nodes, depth descending then id ascending.
    order: Vec<NodeId>,
}

impl RoutingTree {
    /// A tree from its parent and depth fields: `children` lists each
    /// node's children ascending by id, and the bottom-up order is sorted.
    fn assemble(root: NodeId, parent: Vec<Option<NodeId>>, depth: Vec<Option<u32>>) -> Self {
        let mut children = vec![Vec::new(); parent.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p.idx()].push(NodeId(i as u32));
            }
        }
        let mut tree = RoutingTree {
            root,
            parent,
            children,
            depth,
            order: Vec::new(),
        };
        tree.refresh_order();
        tree
    }

    /// Recompute the carried bottom-up order from `depth`: a counting sort,
    /// O(nodes + height). Called when the tree is built and after a repair
    /// detached a dead node.
    pub(crate) fn refresh_order(&mut self) {
        // starts[d] = how many attached nodes are deeper than d, i.e. where
        // depth d's run begins in a deepest-first listing.
        let mut starts: Vec<usize> = Vec::new();
        for d in self.depth.iter().flatten() {
            let d = *d as usize;
            if starts.len() <= d {
                starts.resize(d + 1, 0);
            }
            starts[d] += 1;
        }
        let mut attached = 0;
        for slot in starts.iter_mut().rev() {
            let at_this_depth = *slot;
            *slot = attached;
            attached += at_this_depth;
        }
        self.order.clear();
        self.order.resize(attached, self.root);
        // Ascending id within each depth, as a stable sort on depth gives.
        for (i, d) in self.depth.iter().enumerate() {
            if let Some(d) = d {
                let at = &mut starts[*d as usize];
                self.order[*at] = NodeId(i as u32);
                *at += 1;
            }
        }
    }

    /// Number of nodes actually attached to the tree (root included).
    pub fn covered(&self) -> usize {
        self.order.len()
    }

    /// Maximum depth over attached nodes: the depth of the first node in
    /// the deepest-first order.
    pub fn height(&self) -> u32 {
        self.order
            .first()
            .and_then(|n| self.depth[n.idx()])
            .unwrap_or(0)
    }

    /// Attached nodes in leaves-first order (depth descending, id ascending
    /// within a depth) — the order in which epoch-based in-network
    /// aggregation proceeds up the tree.
    pub fn bottom_up_order(&self) -> &[NodeId] {
        &self.order
    }

    /// Mark `node` and its ancestors in `marked`, stopping at the first one
    /// already marked: a marked node's ancestors are marked, so marking
    /// many nodes costs O(nodes) in total rather than one root walk each.
    /// Unattached nodes are left alone.
    pub fn mark_path_to_root(&self, node: NodeId, marked: &mut [bool]) {
        if self.depth[node.idx()].is_none() {
            return;
        }
        let mut cur = Some(node);
        while let Some(u) = cur {
            if std::mem::replace(&mut marked[u.idx()], true) {
                break;
            }
            cur = self.parent[u.idx()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propcheck::{check, Gen};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line(n: usize) -> Topology {
        // Nodes at x = 0, 10, 20, ... with range 15: a path graph.
        let pts = (0..n).map(|i| Point::flat(i as f64 * 10.0, 0.0)).collect();
        Topology::from_positions(pts, 15.0)
    }

    #[test]
    fn adjacency_is_range_based_and_symmetric() {
        let t = line(5);
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.neighbors(NodeId(2)), &[NodeId(1), NodeId(3)]);
        for a in t.nodes() {
            for &b in t.neighbors(a) {
                assert!(t.neighbors(b).contains(&a), "asymmetric edge {a}-{b}");
            }
        }
        assert_eq!(t.edge_count(), 4);
    }

    #[test]
    fn grid_topology_shape() {
        let t = Topology::grid(4, 3, 10.0, 10.5);
        assert_eq!(t.len(), 12);
        // Inner nodes of a 4-wide grid have 4 neighbours at this range.
        assert_eq!(t.neighbors(NodeId(5)).len(), 4);
        assert!(t.is_connected());
    }

    #[test]
    fn building_spans_floors() {
        let t = Topology::building(3, 2, 2, 5.0, 4.0, 6.0);
        assert_eq!(t.len(), 12);
        assert!(t.is_connected());
        // A node on floor 0 reaches its counterpart on floor 1 (4 m < 6 m).
        assert!(t.neighbors(NodeId(0)).contains(&NodeId(4)));
    }

    #[test]
    fn hops_and_paths_on_a_line() {
        let t = line(6);
        let hops = t.hops_from(NodeId(0));
        assert_eq!(hops, (0..6).map(|i| Some(i as u32)).collect::<Vec<_>>());
        let p = t.shortest_path(NodeId(0), NodeId(5)).unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p[0], NodeId(0));
        assert_eq!(p[5], NodeId(5));
        assert_eq!(t.shortest_path(NodeId(3), NodeId(3)), Some(vec![NodeId(3)]));
    }

    #[test]
    fn disconnected_components_detected() {
        let pts = vec![
            Point::flat(0.0, 0.0),
            Point::flat(10.0, 0.0),
            Point::flat(100.0, 0.0),
        ];
        let t = Topology::from_positions(pts, 15.0);
        assert!(!t.is_connected());
        assert_eq!(t.shortest_path(NodeId(0), NodeId(2)), None);
        assert_eq!(t.hops_from(NodeId(0))[2], None);
    }

    #[test]
    fn spanning_tree_structure() {
        let t = line(5);
        let tree = t.spanning_tree(NodeId(2));
        assert_eq!(tree.covered(), 5);
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.parent[0], Some(NodeId(1)));
        assert_eq!(tree.parent[1], Some(NodeId(2)));
        assert_eq!(tree.parent[2], None);
        assert_eq!(tree.children[2], vec![NodeId(1), NodeId(3)]);
        let order = tree.bottom_up_order();
        // Deepest nodes (0 and 4, depth 2) come before depth-1 before root.
        assert_eq!(tree.depth[order[0].idx()], Some(2));
        assert_eq!(*order.last().unwrap(), NodeId(2));
    }

    #[test]
    fn marking_follows_parents_and_stops_at_marked_ancestors() {
        let t = line(6);
        let tree = t.spanning_tree(NodeId(0));
        let mut marked = vec![false; 6];
        tree.mark_path_to_root(NodeId(3), &mut marked);
        assert_eq!(marked, [true, true, true, true, false, false]);
        // Walking up from 5 stops at 3; clearing 1 by hand shows it did.
        marked[1] = false;
        tree.mark_path_to_root(NodeId(5), &mut marked);
        assert_eq!(marked, [true, false, true, true, true, true]);
    }

    #[test]
    fn marking_skips_unattached_nodes() {
        let pts = vec![
            Point::flat(0.0, 0.0),
            Point::flat(10.0, 0.0),
            Point::flat(100.0, 0.0),
        ];
        let tree = Topology::from_positions(pts, 15.0).spanning_tree(NodeId(0));
        let mut marked = vec![false; 3];
        tree.mark_path_to_root(NodeId(2), &mut marked);
        assert_eq!(marked, [false, false, false]);
    }

    #[test]
    fn nearest_to_picks_closest() {
        let t = line(5);
        assert_eq!(t.nearest_to(Point::flat(21.0, 3.0)), NodeId(2));
        assert_eq!(t.nearest_to(Point::flat(-50.0, 0.0)), NodeId(0));
    }

    #[test]
    fn random_geometric_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = Topology::random_geometric(50, 100.0, 100.0, 20.0, &mut r1);
        let b = Topology::random_geometric(50, 100.0, 100.0, 20.0, &mut r2);
        for n in a.nodes() {
            assert_eq!(a.position(n), b.position(n));
        }
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_topology_rejected() {
        Topology::from_positions(vec![], 10.0);
    }

    /// The definition the grid must reproduce: every other node whose
    /// squared distance is at most `range²`, in f64, ascending by id.
    fn all_pairs(pts: &[Point], range: f64) -> Vec<Vec<NodeId>> {
        let range_sq = range * range;
        (0..pts.len())
            .map(|i| {
                (0..pts.len())
                    .filter(|&j| j != i && pts[i].distance_sq(&pts[j]) <= range_sq)
                    .map(|j| NodeId(j as u32))
                    .collect()
            })
            .collect()
    }

    fn assert_matches_all_pairs(pts: Vec<Point>, range: f64) {
        let want = all_pairs(&pts, range);
        let t = Topology::from_positions(pts, range);
        for (i, want) in want.iter().enumerate() {
            let id = NodeId(i as u32);
            assert_eq!(t.neighbors(id), &want[..], "node {i} at range {range}");
            assert_eq!(t.degree(id), want.len(), "node {i}");
        }
        let ends: usize = want.iter().map(Vec::len).sum();
        assert_eq!(t.edge_count() * 2, ends);
    }

    /// A placement of one of five shapes at some pitch, and a range from
    /// well below to well above the pitch; one case in four puts a NaN or
    /// an infinity into one coordinate.
    fn placement(g: &mut Gen) -> (Vec<Point>, f64) {
        let pitch = g.range(0.5..20.0);
        let range = pitch * g.range(0.2..3.5);
        let mut pts = match g.range(0..5u32) {
            // A uniform box, flat or deep.
            0 => {
                let w = pitch * g.range(1.0..30.0);
                let h = pitch * g.range(1.0..30.0);
                let d = if g.bool() {
                    0.0
                } else {
                    pitch * g.range(1.0..8.0)
                };
                g.vec(1..200, |g| {
                    Point::new(g.range(0.0..w), g.range(0.0..h), g.range(0.0..=d))
                })
            }
            // A few sites, each repeated.
            1 => {
                let sites = g.vec(1..8, |g| {
                    let mut at = |span: f64| pitch * g.range(0.0..span);
                    Point::new(at(5.0), at(5.0), at(2.0))
                });
                g.vec(1..80, |g| sites[g.range(0..sites.len())])
            }
            // Collinear rows at the pitch, some rows far apart.
            2 => {
                let gap = pitch * g.range(0.5..4.0);
                let (rows, cols) = (g.range(1..5usize), g.range(1..50usize));
                (0..rows)
                    .flat_map(|r| {
                        (0..cols).map(move |c| Point::flat(c as f64 * pitch, r as f64 * gap))
                    })
                    .collect()
            }
            // A building: floors of pitch-spaced sensors.
            3 => {
                let floor_height = pitch * g.range(0.3..2.5);
                let (floors, cols, rows) =
                    (g.range(1..5usize), g.range(1..9usize), g.range(1..9usize));
                (0..floors)
                    .flat_map(|f| {
                        (0..rows).flat_map(move |r| {
                            (0..cols).map(move |c| {
                                let (x, y) = (c as f64 * pitch, r as f64 * pitch);
                                Point::new(x, y, f as f64 * floor_height)
                            })
                        })
                    })
                    .collect()
            }
            // Clusters up to a million ranges apart: a range-wide grid
            // would need far more than 2n cells, so it coarsens.
            _ => {
                let centres = g.vec(1..6, |g| {
                    let far = range * 1e6;
                    Point::new(
                        g.range(0.0..far),
                        g.range(0.0..far),
                        g.range(0.0..far / 1e3),
                    )
                });
                g.vec(1..100, |g| {
                    let c = centres[g.range(0..centres.len())];
                    let near = 2.0 * range;
                    Point::new(
                        c.x + g.range(0.0..near),
                        c.y + g.range(0.0..near),
                        c.z + g.range(0.0..near),
                    )
                })
            }
        };
        if g.range(0..4u32) == 0 {
            let i = g.range(0..pts.len());
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][g.range(0..3usize)];
            match g.range(0..3u32) {
                0 => pts[i].x = bad,
                1 => pts[i].y = bad,
                _ => pts[i].z = bad,
            }
        }
        (pts, range)
    }

    /// Neighbour sets, their ascending order, `degree` and `edge_count`
    /// equal the all-pairs definition. Skipping the z ± 1 layers of the
    /// scan fails it (the deep boxes and the buildings).
    #[test]
    fn cell_binned_adjacency_matches_all_pairs() {
        check("cell_binned_adjacency_matches_all_pairs", 256, |g| {
            let (pts, range) = placement(g);
            assert_matches_all_pairs(pts, range);
        });
    }

    /// The BFS tree as it was first written: a node's parent is the node
    /// whose neighbour list discovered it first.
    fn discovery_order_tree(t: &Topology, root: NodeId) -> (Vec<Option<NodeId>>, Vec<Option<u32>>) {
        let mut parent = vec![None; t.len()];
        let mut depth = vec![None; t.len()];
        depth[root.idx()] = Some(0);
        let mut q = VecDeque::from([(root, 0)]);
        while let Some((u, d)) = q.pop_front() {
            for &v in t.neighbors(u) {
                if depth[v.idx()].is_none() {
                    depth[v.idx()] = Some(d + 1);
                    parent[v.idx()] = Some(u);
                    q.push_back((v, d + 1));
                }
            }
        }
        (parent, depth)
    }

    /// `spanning_tree` keeps the discovery-order parent, not merely some
    /// closer neighbour: every tree the collection baselines read is this
    /// one, node for node.
    #[test]
    fn spanning_tree_parents_are_discovery_order() {
        check("spanning_tree_parents_are_discovery_order", 256, |g| {
            let (pts, range) = placement(g);
            let root = NodeId(g.range(0..pts.len()) as u32);
            let t = Topology::from_positions(pts, range);
            let tree = t.spanning_tree(root);
            let (parent, depth) = discovery_order_tree(&t, root);
            assert_eq!(tree.parent, parent, "parents from {root}");
            assert_eq!(tree.depth, depth, "depths from {root}");
            for v in t.nodes() {
                let kids: Vec<NodeId> = t.nodes().filter(|&c| parent[c.idx()] == Some(v)).collect();
                assert_eq!(tree.children[v.idx()], kids, "children of {v}");
            }
        });
    }

    #[test]
    fn a_coordinate_at_infinity_has_no_neighbours() {
        // An infinity has no finite cell: it clamps into an edge cell,
        // whose neighbouring cells are formed like any other's.
        let pts = vec![
            Point::flat(0.0, 0.0),
            Point::flat(10.0, 0.0),
            Point::new(f64::INFINITY, 0.0, 0.0),
            Point::new(5.0, f64::NEG_INFINITY, 0.0),
        ];
        let t = Topology::from_positions(pts, 15.0);
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.neighbors(NodeId(1)), &[NodeId(0)]);
        assert_eq!(t.degree(NodeId(2)), 0);
        assert_eq!(t.degree(NodeId(3)), 0);
    }

    #[test]
    fn a_nan_coordinate_has_no_neighbours() {
        let pts = vec![
            Point::new(f64::NAN, 0.0, 0.0),
            Point::flat(0.0, 0.0),
            Point::flat(10.0, 0.0),
            Point::new(0.0, 0.0, f64::NAN),
        ];
        let t = Topology::from_positions(pts, 15.0);
        assert_eq!(t.degree(NodeId(0)), 0);
        assert_eq!(t.neighbors(NodeId(1)), &[NodeId(2)]);
        assert_eq!(t.degree(NodeId(3)), 0);
    }

    #[test]
    fn a_spread_far_wider_than_the_range_builds() {
        // End to end, 1e19 ranges: more range-wide cells than i64::MAX.
        let pts = vec![
            Point::flat(0.0, 0.0),
            Point::flat(0.5, 0.0),
            Point::flat(1e19, 0.0),
            Point::flat(3e19, 0.0),
        ];
        assert_matches_all_pairs(pts, 1.0);
    }

    #[test]
    #[should_panic(expected = "squared must be a normal f64")]
    fn a_range_whose_square_underflows_is_rejected() {
        Topology::from_positions(
            vec![Point::flat(0.0, 0.0), Point::flat(1e-163, 0.0)],
            1e-200,
        );
    }

    #[test]
    #[should_panic(expected = "squared must be a normal f64")]
    fn a_range_whose_square_overflows_is_rejected() {
        Topology::from_positions(
            vec![Point::flat(0.0, 0.0), Point::flat(f64::INFINITY, 0.0)],
            1e160,
        );
    }

    #[test]
    fn canonical_tree_depths_match_bfs_and_parents_are_min_id() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Topology::random_geometric(120, 100.0, 100.0, 18.0, &mut rng);
        let root = NodeId(0);
        let canon = t.canonical_tree(root);
        let bfs = t.spanning_tree(root);
        assert_eq!(canon.depth, bfs.depth, "canonical depths are BFS depths");
        for v in t.nodes() {
            let Some(d) = canon.depth[v.idx()] else {
                assert_eq!(canon.parent[v.idx()], None);
                continue;
            };
            if d == 0 {
                assert_eq!(canon.parent[v.idx()], None);
                continue;
            }
            let min_up = t
                .neighbors(v)
                .iter()
                .copied()
                .find(|u| canon.depth[u.idx()] == Some(d - 1));
            assert_eq!(canon.parent[v.idx()], min_up, "node {v}");
        }
    }

    #[test]
    fn canonical_tree_filtered_skips_dead_nodes() {
        // Line 0-1-2-3-4 with node 2 dead: 3 and 4 become unreachable.
        let t = line(5);
        let tree = t.canonical_tree_filtered(NodeId(0), |n| n != NodeId(2));
        assert_eq!(tree.depth[1], Some(1));
        assert_eq!(tree.depth[2], None);
        assert_eq!(tree.depth[3], None);
        assert_eq!(tree.parent[3], None);
        assert_eq!(tree.covered(), 2);
    }
}
