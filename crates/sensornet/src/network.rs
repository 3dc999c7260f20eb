//! The deployed sensor network: topology + per-node batteries + base station.

use crate::aggregate::Partial;
use crate::arena::NodeArena;
use crate::field::FrozenField;
use pg_net::energy::RadioModel;
use pg_net::link::LinkModel;
use pg_net::topology::{NodeId, RoutingTree, Topology};
use pg_sim::fault::FaultPlan;
use pg_sim::SimTime;
use rand::Rng;
use std::sync::Arc;

/// CPU operations one sample costs: ADC read + calibration math.
pub(crate) const SAMPLE_OPS: u64 = 50;

/// What a network keeps between collection epochs so that a steady-state
/// epoch allocates nothing per node: working memory whose capacity is
/// reused, and a table that fills on first use — the amplifier price of
/// each tree edge. None of it is state: a clone starts empty and computes
/// the same bits. Routes to the base need no table here: the network
/// builds its next-hop table with the base tree.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Query-membership bitmask per node (shared epoch).
    pub(crate) member_mask: Vec<u64>,
    /// On some member→root path this epoch (shared epoch).
    pub(crate) involved: Vec<bool>,
    /// Per-node stratum lists, sorted by mask (shared epoch). A node that
    /// fires hands its emptied list back to its slot.
    pub(crate) strata: Vec<Vec<(u64, Partial)>>,
    /// Per child, `(parent, radio.amp_per_bit(distance(child, parent)))`
    /// for the tree edge it last sent over. Self-validating: an entry whose
    /// parent is not the one in hand (a repaired edge, another tree) is
    /// recomputed, so nothing has to tell this table that a tree changed.
    pub(crate) edge_price: Vec<(Option<NodeId>, f64)>,
}

impl Scratch {
    /// Size the shared epoch's per-node tables for `n` nodes and blank
    /// them, keeping every capacity.
    pub(crate) fn start_epoch(&mut self, n: usize) {
        self.member_mask.clear();
        self.member_mask.resize(n, 0);
        self.involved.clear();
        self.involved.resize(n, false);
        // A node that died holding merged strata never fired.
        self.strata.iter_mut().for_each(Vec::clear);
        self.strata.resize_with(n, Vec::new);
        self.edge_price.resize(n, (None, 0.0));
    }
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

/// A deployed network of battery-powered sensors with one base station.
///
/// The base station is a distinguished topology node assumed mains-powered
/// (its battery is never drained) and wired into the grid backhaul — the
/// role it plays in Figure 1 of the paper.
#[derive(Debug, Clone)]
pub struct SensorNetwork {
    topo: Topology,
    base: NodeId,
    /// The BFS spanning tree rooted at the base: a pure function of the
    /// immutable topology, so it is built once here. Its `depth` is the
    /// hop table from the base. Shared so collection can read the tree
    /// while it drains batteries through `&mut self`.
    base_tree: Arc<RoutingTree>,
    /// Per node, its canonical parent toward the base
    /// ([`Topology::canonical_parents`]): following it walks the path a
    /// BFS from the node returns.
    next_hop: Arc<[Option<NodeId>]>,
    radio: RadioModel,
    link: LinkModel,
    batteries: NodeArena,
    faults: FaultPlan,
    pub(crate) scratch: Scratch,
    /// Gaussian sensing noise applied to every sample, °C.
    pub noise_sd: f64,
}

impl SensorNetwork {
    /// Deploy sensors on `topo` with the base station at `base`, each sensor
    /// holding `battery_j` joules.
    pub fn new(
        topo: Topology,
        base: NodeId,
        radio: RadioModel,
        link: LinkModel,
        battery_j: f64,
    ) -> Self {
        let batteries = NodeArena::new(topo.len(), battery_j);
        let base_tree = Arc::new(topo.spanning_tree(base));
        let next_hop = topo.canonical_parents(&base_tree.depth).into();
        SensorNetwork {
            topo,
            base,
            base_tree,
            next_hop,
            radio,
            link,
            batteries,
            faults: FaultPlan::none(),
            scratch: Scratch::default(),
            noise_sd: 0.5,
        }
    }

    /// Install a fault plan; the empty plan (the default) injects nothing.
    /// Node ids in the plan map to [`NodeId`] indices; base-outage windows
    /// make the base station unreachable while they last.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The installed fault plan (the empty plan when none was set).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The base-station node.
    pub fn base(&self) -> NodeId {
        self.base
    }

    /// The BFS spanning tree rooted at the base station — the tree TAG
    /// imposes on the network, identical every epoch because the topology
    /// never changes (deaths degrade delivery, not shape). The handle is
    /// shared, not copied.
    pub fn base_tree(&self) -> Arc<RoutingTree> {
        Arc::clone(&self.base_tree)
    }

    /// Hop count from the base station to every node (`None` =
    /// unreachable): the base tree's depths.
    pub fn hops_from_base(&self) -> &[Option<u32>] {
        &self.base_tree.depth
    }

    /// The next node on `node`'s shortest path to the base station: its
    /// lowest-id neighbour one hop closer. `None` for the base itself and
    /// for nodes the base cannot reach.
    pub(crate) fn next_hop(&self, node: NodeId) -> Option<NodeId> {
        self.next_hop[node.idx()]
    }

    /// The radio energy model shared by all sensors.
    pub fn radio(&self) -> &RadioModel {
        &self.radio
    }

    /// The link model of the sensor radio channel.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Number of sensors (base station included in the count).
    pub fn len(&self) -> usize {
        self.topo.len()
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Is `node` still powered? (The base station always is.)
    pub fn is_alive(&self, node: NodeId) -> bool {
        node == self.base || !self.batteries.is_dead(node.idx())
    }

    /// Is `node` powered *and* not inside an injected crash window at `t`?
    /// Unlike battery death this is transient: the node participates again
    /// once its window ends. The base station obeys base-outage windows.
    pub fn is_operational(&self, node: NodeId, t: SimTime) -> bool {
        if node == self.base {
            return !self.faults.is_base_down(t);
        }
        self.is_alive(node) && !self.faults.is_node_down(node.idx() as u64, t)
    }

    /// Number of live sensors (excluding the base station) — O(1), the
    /// arena maintains the count at the drain sites.
    pub fn alive_sensors(&self) -> usize {
        // The base station's battery is never drained, so it is always in
        // the arena's alive count; subtract it.
        self.batteries.alive_count() - 1
    }

    /// Remaining energy at `node`, joules.
    pub fn remaining_energy(&self, node: NodeId) -> f64 {
        self.batteries.remaining(node.idx())
    }

    /// Total energy consumed across all sensors so far, joules.
    pub fn total_consumed(&self) -> f64 {
        self.topo
            .nodes()
            .filter(|&n| n != self.base)
            .map(|n| self.batteries.used(n.idx()))
            .sum()
    }

    /// Drain `joules` from `node`'s battery (no-op for the base station).
    /// Returns `true` if the node is still alive afterwards.
    pub fn drain(&mut self, node: NodeId, joules: f64) -> bool {
        if node == self.base {
            return true;
        }
        self.batteries.drain(node.idx(), joules)
    }

    /// Idle-listen for `secs` seconds: every alive sensor, in id order,
    /// drains the radio's idle energy (the mains-powered base is exempt).
    pub fn idle_listen(&mut self, secs: f64) {
        let idle = self.radio.idle_energy(secs);
        for n in self.topo.nodes() {
            if n != self.base && self.is_alive(n) {
                self.drain(n, idle);
            }
        }
    }

    /// Sample the field, as it stands at the epoch's instant, at `node`'s
    /// position; the node pays the CPU energy of the ADC read and
    /// calibration math (50 ops).
    pub fn sample<R: Rng>(&mut self, node: NodeId, field: &FrozenField, rng: &mut R) -> f64 {
        let e = self.radio.cpu_energy(SAMPLE_OPS);
        self.drain(node, e);
        let pos = self.topo.position(node);
        field.sample(&pos, self.noise_sd, rng)
    }

    /// Exact (noise-free) field value at a node — ground truth for accuracy
    /// metrics; costs nothing.
    pub fn ground_truth(&self, node: NodeId, field: &FrozenField) -> f64 {
        field.temperature(&self.topo.position(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::TemperatureField;
    use pg_net::geom::Point;
    use propcheck::check;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;

    fn net() -> SensorNetwork {
        let topo = Topology::grid(3, 3, 10.0, 11.0);
        SensorNetwork::new(
            topo,
            NodeId(0),
            RadioModel::mote(),
            LinkModel::sensor_radio(),
            2.0,
        )
    }

    #[test]
    fn base_rooted_tables_match_a_fresh_bfs() {
        let n = net();
        let fresh = n.topology().spanning_tree(n.base());
        let cached = n.base_tree();
        assert_eq!(cached.parent, fresh.parent);
        assert_eq!(cached.depth, fresh.depth);
        assert_eq!(cached.children, fresh.children);
        assert_eq!(cached.bottom_up_order(), fresh.bottom_up_order());
        assert_eq!(n.hops_from_base(), &n.topology().hops_from(n.base())[..]);
    }

    /// `node`'s route to the base along the next-hop table, both ends
    /// included; `None` when the base cannot reach it.
    fn walk(n: &SensorNetwork, node: NodeId) -> Option<Vec<NodeId>> {
        if node != n.base() {
            n.next_hop(node)?; // unreachable
        }
        let mut path = vec![node];
        while let Some(next) = n.next_hop(path[path.len() - 1]) {
            path.push(next);
        }
        Some(path)
    }

    /// Walking the next-hop table is the topology's BFS shortest path, on
    /// random geometric placements sparse enough to leave nodes cut off.
    #[test]
    fn next_hops_walk_the_topologys_shortest_paths() {
        let unreachable = Cell::new(0);
        check("next_hops_walk_the_topologys_shortest_paths", 96, |g| {
            let len = g.range(2usize..=200);
            let side = g.range(10.0..200.0);
            let positions = g.vec(len..=len, |g| {
                Point::flat(g.range(0.0..side), g.range(0.0..side))
            });
            let base = NodeId(g.range(0..len as u32));
            let topo = Topology::from_positions(positions, g.range(5.0..40.0));
            let n = SensorNetwork::new(
                topo,
                base,
                RadioModel::mote(),
                LinkModel::sensor_radio(),
                2.0,
            );
            for id in n.topology().nodes() {
                let bfs = n.topology().shortest_path(id, base);
                unreachable.set(unreachable.get() + usize::from(bfs.is_none()));
                assert_eq!(walk(&n, id), bfs, "{id} to base {base}");
            }
        });
        assert!(unreachable.get() > 0, "no case left a node cut off");
    }

    #[test]
    fn base_station_is_immortal() {
        let mut n = net();
        assert!(n.drain(NodeId(0), 1e9));
        assert!(n.is_alive(NodeId(0)));
        assert_eq!(n.remaining_energy(NodeId(0)), 2.0); // untouched
    }

    #[test]
    fn sensors_die_when_drained() {
        let mut n = net();
        assert!(n.drain(NodeId(4), 1.5));
        assert!(n.is_alive(NodeId(4)));
        assert!(!n.drain(NodeId(4), 1.0));
        assert!(!n.is_alive(NodeId(4)));
        assert_eq!(n.alive_sensors(), 7); // 9 nodes - base - 1 dead
    }

    #[test]
    fn total_consumed_sums_sensor_draws() {
        let mut n = net();
        n.drain(NodeId(1), 0.25);
        n.drain(NodeId(2), 0.5);
        n.drain(NodeId(0), 7.0); // base, ignored
        assert!((n.total_consumed() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sampling_costs_energy_and_returns_field_value() {
        let mut n = net();
        n.noise_sd = 0.0;
        let field = TemperatureField::building_fire(Point::flat(10.0, 10.0), SimTime::ZERO, 300.0)
            .at(SimTime::from_secs(600));
        let before = n.remaining_energy(NodeId(4));
        let mut rng = StdRng::seed_from_u64(3);
        let v = n.sample(NodeId(4), &field, &mut rng);
        assert!(n.remaining_energy(NodeId(4)) < before);
        assert_eq!(v, n.ground_truth(NodeId(4), &field));
        assert!(v > 100.0, "node 4 sits on the fire: {v}");
    }
}
