//! Shared aggregation-tree collection for concurrent queries.
//!
//! The paper's scenario (§2, Figure 1) is *many* handheld users querying
//! one sensor fabric at once. Running each aggregate query as its own TAG
//! epoch wastes the radio: overlapping member sets sample the same sensors
//! and ship near-identical partial states over the same tree edges. This
//! module executes up to [`MAX_SHARED_QUERIES`] aggregate queries in **one**
//! collection epoch over **one** BFS spanning tree:
//!
//! * every sensor that any query selects samples **once**;
//! * readings are bucketed into *strata* — one [`Partial`] per distinct
//!   query-membership bitmask (a node whose reading passes queries 0 and 3
//!   contributes to the `0b1001` stratum);
//! * each tree edge carries one packet with one `(mask, partial)` entry per
//!   live stratum in the subtree, instead of one full partial per query;
//! * at the base, query `q`'s answer is the merge of every stratum whose
//!   mask has bit `q` — the same partial state serves every [`AggFn`].
//!
//! Costs are attributed back to the individual queries so the multi-query
//! runtime can report per-query energy/bytes/latency: each packet entry's
//! bytes are split evenly across the queries in its mask, and the epoch's
//! total energy is divided in proportion to attributed bytes. Attributed
//! totals sum to the measured totals (up to float rounding), so fleet-level
//! accounting stays exact.

use crate::aggregate::{AggFn, Partial, ValueFilter, PARTIAL_WIRE_BYTES};
use crate::collect::{Meter, MERGE_OPS};
use crate::field::TemperatureField;
use crate::network::{Scratch, SensorNetwork, SAMPLE_OPS};
use pg_net::repair::repair_after_deaths;
use pg_net::topology::{NodeId, RoutingTree};
use pg_sim::{Duration, SimTime};
use rand::Rng;

/// Hard cap on queries per shared epoch: the stratum key is a `u64` bitmask.
pub const MAX_SHARED_QUERIES: usize = 64;

/// Wire size of one stratum key (the query-membership bitmask), bytes.
pub const STRATUM_KEY_WIRE_BYTES: u64 = 8;

/// Control-plane beacon each node broadcasts when a collection tree is
/// (re)built, bytes. Tree construction is a neighbourhood flood: parent
/// selection beacons at full communication range, once per operational
/// sensor.
pub const TREE_BEACON_BYTES: u64 = 16;

/// One query's slice of a shared collection epoch.
#[derive(Debug, Clone)]
pub struct SharedQuery {
    /// Sensors this query selects (the base station is ignored).
    pub members: Vec<NodeId>,
    /// Source-side value predicate (TAG push-down).
    pub filter: ValueFilter,
    /// The aggregate to finalize for this query.
    pub agg: AggFn,
}

/// Per-query attribution out of one shared epoch.
#[derive(Debug, Clone)]
pub struct SharedPerQuery {
    /// Finalized aggregate (`None` if nothing of this query's arrived).
    pub value: Option<f64>,
    /// The merged partial state that reached the base for this query.
    pub partial: Partial,
    /// Energy attributed to this query, joules (proportional to bytes).
    pub energy_j: f64,
    /// Radio bytes attributed to this query (packet entries split evenly
    /// across the queries in their stratum mask; retries included).
    pub bytes: f64,
    /// CPU operations attributed to this query (sampling + merging shares).
    pub ops: f64,
    /// Retransmissions on edges that carried this query's data.
    pub retries: u64,
    /// Sensors this query asked to contribute (base excluded).
    pub participating: usize,
    /// Readings represented in this query's answer.
    pub delivered: usize,
}

impl SharedPerQuery {
    /// Fraction of requested readings represented in the answer.
    pub fn delivery_ratio(&self) -> f64 {
        if self.participating == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.participating as f64
    }
}

/// Everything measured about one shared collection epoch.
#[derive(Debug, Clone)]
pub struct SharedReport {
    /// Per-query attribution, in the order the queries were passed.
    pub per_query: Vec<SharedPerQuery>,
    /// Total sensor energy consumed this epoch, joules.
    pub energy_j: f64,
    /// Largest single-node energy draw this epoch, joules.
    pub max_node_energy_j: f64,
    /// Bytes transmitted network-wide (including retries).
    pub total_bytes: u64,
    /// Bytes delivered into the base station.
    pub bytes_to_base: u64,
    /// Time from epoch start until the base holds every answer.
    pub latency: Duration,
    /// CPU operations spent in the network (sampling + merging).
    pub cpu_ops: u64,
    /// Link-layer retransmissions beyond first attempts.
    pub retries: u64,
    /// Distinct strata observed at sampling time.
    pub strata: usize,
    /// Packets sent up the tree (first attempts, not retries).
    pub packets: u64,
    /// Control-plane bytes spent on tree construction beacons this epoch
    /// (zero unless a [`SharedTreeSession`] rebuilt its tree).
    pub control_bytes: u64,
    /// Energy spent on tree construction beacons this epoch, joules
    /// (control plane; *not* included in `energy_j`, which stays the
    /// data-plane collection cost).
    pub control_energy_j: f64,
    /// The collection tree was (re)built for this epoch.
    pub tree_rebuilt: bool,
    /// The collection tree was incrementally repaired this epoch (only
    /// [`TreeMaintenance::Incremental`] sessions set this).
    pub tree_repaired: bool,
    /// Hop-waves of control traffic this epoch: a full (re)build floods
    /// `height + 1` waves from the root; an incremental repair pays only
    /// the waves its wavefront recompute actually ran. Zero when the tree
    /// was reused untouched. Multiply by the per-hop slot time for the
    /// control-plane latency.
    pub control_waves: u32,
}

/// Size on the radio of one packet carrying `entries` strata.
fn packet_bytes(entries: usize) -> u64 {
    entries as u64 * (STRATUM_KEY_WIRE_BYTES + PARTIAL_WIRE_BYTES)
}

/// Every query index set in `mask`, ascending.
fn queries_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let qi = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            qi
        })
    })
}

/// The partial for `mask` in a mask-sorted stratum list, inserted empty if
/// absent. Lists stay short (one entry per distinct membership bitmask in
/// a subtree) and iterate in ascending mask order — the merge order every
/// baseline pins.
fn stratum_mut(strata: &mut Vec<(u64, Partial)>, mask: u64) -> &mut Partial {
    let at = match strata.binary_search_by_key(&mask, |&(m, _)| m) {
        Ok(at) => at,
        Err(at) => {
            strata.insert(at, (mask, Partial::empty()));
            at
        }
    };
    &mut strata[at].1
}

/// The twin classes of one epoch's queries. Two queries with equal
/// `members` and `filter` are twins: they sample, filter, ship and merge
/// the same readings, so they sit in exactly the same stratum masks and
/// every addend one's books receive, the other's receive too, in the same
/// order. The epoch keeps books for the first query of each class only and
/// copies them to the twins at the end; `agg` may differ, since one partial
/// state finalises to any aggregate.
struct Classes {
    /// The first query of each class: the only queries the epoch books.
    firsts: u64,
    /// At a class's first query, the bits of the whole class.
    bits: [u64; MAX_SHARED_QUERIES],
    /// One entry per distinct member list: its first query and the bits of
    /// every query that selects it.
    lists: Vec<(usize, u64)>,
}

impl Classes {
    /// Queries are compared by content — callers build each member list
    /// afresh — lengths first, then slices, then filters within a list.
    fn of(queries: &[SharedQuery]) -> Classes {
        let mut classes = Classes {
            firsts: 0,
            bits: [0; MAX_SHARED_QUERIES],
            lists: Vec::new(),
        };
        for (qi, q) in queries.iter().enumerate() {
            let bit = 1u64 << qi;
            let list = classes.lists.iter_mut().find(|(first, _)| {
                let m = &queries[*first].members;
                m.len() == q.members.len() && *m == q.members
            });
            let twin = match list {
                Some((_, list_bits)) => {
                    let twin = queries_in(*list_bits & classes.firsts)
                        .find(|&first| queries[first].filter == q.filter);
                    *list_bits |= bit;
                    twin
                }
                None => {
                    classes.lists.push((qi, bit));
                    None
                }
            };
            let first = twin.unwrap_or_else(|| {
                classes.firsts |= bit;
                qi
            });
            classes.bits[first] |= bit;
        }
        classes
    }
}

/// The amplifier price of the tree edge `child -> parent`, J/bit, out of the
/// kept table. An entry priced for another parent (a repaired edge, a
/// session that switched trees) is worked out again — the only
/// invalidation the table needs, since neither end of an edge ever moves.
fn kept_edge_price(
    prices: &mut [(Option<NodeId>, f64)],
    net: &SensorNetwork,
    child: NodeId,
    parent: NodeId,
) -> f64 {
    let kept = &mut prices[child.idx()];
    if kept.0 != Some(parent) {
        let d = net.topology().distance(child, parent);
        *kept = (Some(parent), net.radio().amp_per_bit(d));
    }
    kept.1
}

/// The shared collection epoch proper, over a caller-provided tree.
///
/// Host cost is O(nodes + Σ distinct member lists + packet entries):
/// involvement marking stops at the first already-marked ancestor, the
/// bottom-up order is the one the tree carries, and attribution walks the
/// set mask bits of each twin class's first query (see [`Classes`]). Shares
/// still divide by the popcount of the full query mask, and strata stay
/// keyed by query masks, so twins' books come out bit-identical to what
/// booking every query would give. What is paid
/// per reading is the sample and its noise draw; per hop, the drains and
/// the loss draws. The rest is kept from the last epoch in the network's
/// `Scratch` (taken here, put back at the end): the per-node tables and
/// stratum lists keep their capacity, a tree edge's amplifier price is
/// worked out the first time a child sends to that parent, and the fault
/// plan is asked once, by [`Meter::open`].
fn collect_over_tree<R: Rng>(
    net: &mut SensorNetwork,
    tree: &RoutingTree,
    queries: &[SharedQuery],
    field: &TemperatureField,
    t: SimTime,
    rng: &mut R,
) -> SharedReport {
    assert!(
        queries.len() <= MAX_SHARED_QUERIES,
        "shared epoch limited to {MAX_SHARED_QUERIES} queries, got {}",
        queries.len()
    );
    let mut meter = Meter::open(net, t);
    let base = net.base();
    let n = net.len();
    let nq = queries.len();
    let mut scratch = std::mem::take(&mut net.scratch);
    scratch.start_epoch(n);
    let Scratch {
        member_mask,
        involved,
        strata,
        edge_price,
        ..
    } = &mut scratch;

    let classes = Classes::of(queries);
    let mut per_query: Vec<SharedPerQuery> = queries
        .iter()
        .map(|_| SharedPerQuery {
            value: None,
            partial: Partial::empty(),
            energy_j: 0.0,
            bytes: 0.0,
            ops: 0.0,
            retries: 0,
            participating: 0,
            delivered: 0,
        })
        .collect();

    // Membership bitmask per node, and tree involvement: a node is on the
    // tree iff it lies on some member->root path of some query. Each
    // distinct member list is walked once, for every query that selects it.
    for &(first, bits) in &classes.lists {
        let mut participating = 0;
        for &m in &queries[first].members {
            if m == base {
                continue;
            }
            participating += 1;
            member_mask[m.idx()] |= bits;
            tree.mark_path_to_root(m, involved);
        }
        for qi in queries_in(bits) {
            per_query[qi].participating = participating;
        }
    }

    // Per-node `strata`: one mergeable partial per effective bitmask, sorted
    // by mask. Only involved nodes ever hold any.
    let mut seen_masks: Vec<u64> = Vec::new();

    // Sampling phase: every node any query selects samples exactly once.
    // The effective mask keeps only queries whose filter the reading passes.
    for id in net.topology().nodes() {
        let mm = member_mask[id.idx()];
        if mm == 0 || !meter.is_up(net, id) {
            continue;
        }
        let reading = meter.sample(net, id, field, t, rng);
        // One physical sample serves every selecting query: split its cost.
        let share = SAMPLE_OPS as f64 / mm.count_ones() as f64;
        let mut effective = 0u64;
        for qi in queries_in(mm & classes.firsts) {
            per_query[qi].ops += share;
            if queries[qi].filter.matches(reading) {
                effective |= classes.bits[qi];
            }
        }
        if effective != 0 {
            stratum_mut(&mut strata[id.idx()], effective).add(reading);
            seen_masks.push(effective);
        }
    }
    seen_masks.sort_unstable();
    seen_masks.dedup();

    // Bottom-up phase: each involved non-root node forwards its strata
    // (own reading plus already-merged children) to its parent in one
    // packet. Per-level slot lengths follow the biggest packet attempted at
    // that level — the TAG epoch discipline with variable frames.
    let mut packets = 0u64;
    let mut level_slot: Vec<u64> = Vec::new();

    for &u in tree.bottom_up_order() {
        if !involved[u.idx()] || u == base {
            continue;
        }
        if !meter.is_up(net, u) {
            continue; // subtree contribution dies here
        }
        if strata[u.idx()].is_empty() {
            continue; // nothing to report upward
        }
        let (Some(parent), Some(depth)) = (tree.parent[u.idx()], tree.depth[u.idx()]) else {
            continue; // root-adjacent anomaly: nothing to forward to
        };
        // A node fires once, so its strata can move into the packet.
        let mut entries = std::mem::take(&mut strata[u.idx()]);
        let bytes = packet_bytes(entries.len());
        let amp = kept_edge_price(edge_price, net, u, parent);
        let (ok, attempts) = meter.hop_priced(net, u, parent, amp, bytes, rng);
        let extra_attempts = u64::from(attempts.saturating_sub(1));
        packets += 1;
        let depth = depth as usize;
        if level_slot.len() <= depth {
            level_slot.resize(depth + 1, 0);
        }
        level_slot[depth] = level_slot[depth].max(bytes);
        // Attribute this packet's airtime to the queries it carried: each
        // entry's bytes split evenly across the queries in its mask.
        for &(mask, _) in &entries {
            let share = ((STRATUM_KEY_WIRE_BYTES + PARTIAL_WIRE_BYTES) * attempts as u64) as f64
                / mask.count_ones() as f64;
            for qi in queries_in(mask & classes.firsts) {
                per_query[qi].bytes += share;
                per_query[qi].retries += extra_attempts;
            }
        }
        if ok {
            let parent_strata = &mut strata[parent.idx()];
            for &(mask, ref p) in &entries {
                stratum_mut(parent_strata, mask).merge(p);
                meter.cpu_ops += MERGE_OPS;
                let share = MERGE_OPS as f64 / mask.count_ones() as f64;
                for qi in queries_in(mask & classes.firsts) {
                    per_query[qi].ops += share;
                }
            }
        }
        // The emptied list goes back to its slot for the next epoch.
        entries.clear();
        strata[u.idx()] = entries;
    }

    // Finalize: query q's answer merges every stratum whose mask covers q,
    // in ascending mask order.
    for &(mask, ref p) in &strata[base.idx()] {
        for qi in queries_in(mask & classes.firsts) {
            per_query[qi].partial.merge(p);
        }
    }
    // Twins take their class's books; each finalises its own aggregate.
    for first in queries_in(classes.firsts) {
        let f = &per_query[first];
        let books = (f.ops, f.bytes, f.retries, f.partial);
        for twin in queries_in(classes.bits[first] & !(1 << first)) {
            let pq = &mut per_query[twin];
            (pq.ops, pq.bytes, pq.retries, pq.partial) = books;
        }
    }
    for (pq, q) in per_query.iter_mut().zip(queries) {
        pq.delivered = pq.partial.count as usize;
        pq.value = pq.partial.finalize(q.agg);
    }
    net.scratch = scratch;

    // Energy attribution: the epoch's total, split in proportion to
    // attributed bytes (equal split when nothing flew).
    let (energy_j, max_node_energy_j) = meter.energy(net);
    let attributed: f64 = per_query.iter().map(|p| p.bytes).sum();
    for pq in &mut per_query {
        pq.energy_j = if attributed > 0.0 {
            energy_j * (pq.bytes / attributed)
        } else if nq > 0 {
            energy_j / nq as f64
        } else {
            0.0
        };
    }

    // Epoch latency: one slot per tree level that fired, sized to the
    // biggest frame attempted at that level.
    let latency = level_slot
        .iter()
        .filter(|&&b| b > 0)
        .map(|&b| net.link().tx_time(b))
        .sum::<Duration>();

    SharedReport {
        per_query,
        energy_j,
        max_node_energy_j,
        total_bytes: meter.total_bytes,
        bytes_to_base: meter.bytes_to_base,
        latency,
        cpu_ops: meter.cpu_ops,
        retries: meter.retries,
        strata: seen_masks.len(),
        packets,
        control_bytes: 0,
        control_energy_j: 0.0,
        tree_rebuilt: false,
        tree_repaired: false,
        control_waves: 0,
    }
}

/// How a [`SharedTreeSession`] maintains its collection tree across epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeMaintenance {
    /// v1 semantics: the tree materializes fresh each epoch at no modelled
    /// cost. Every committed baseline pins this mode.
    #[default]
    Free,
    /// Build the tree once, charging each battery-alive sensor one
    /// [`TREE_BEACON_BYTES`] construction beacon, and keep it across
    /// epochs. A battery death triggers an *incremental repair*, never a
    /// rebuild: only the orphaned region re-parents (see
    /// [`pg_net::repair`]), each changed node pays one beacon, and the
    /// control latency is the repair's wavefront count instead of a
    /// whole-network flood. The tree is the *canonical* shortest-path tree
    /// (lowest-id parent at each depth), which repairs to exactly what a
    /// rebuild would produce. Transient fault windows do not reshape the
    /// tree — they only degrade delivery, as under `Free`.
    Incremental,
}

/// A multi-epoch shared-collection session that owns the collection tree's
/// lifetime.
///
/// The paper's Continuous queries re-run every epoch; rebuilding the
/// aggregation tree for each of them wastes control-plane traffic the same
/// way per-query trees waste data-plane traffic. A session holds the tree
/// across [`collect`](SharedTreeSession::collect) calls according to its
/// [`TreeMaintenance`] mode, charges construction beacons when the tree is
/// built and repair beacons when a node that carried it dies. Dead nodes
/// degrade delivery identically in both modes (their subtree contributions
/// are dropped in-network).
#[derive(Debug)]
pub struct SharedTreeSession {
    maintenance: TreeMaintenance,
    /// Incremental mode: the canonical tree this session repairs in place.
    canonical: Option<RoutingTree>,
    /// Sensors that paid for the tree in use; any of them dying triggers an
    /// incremental repair.
    alive_at_build: Vec<NodeId>,
    /// Times the tree has been built: at most once, since deaths repair it.
    pub rebuilds: u64,
    /// Times the tree has been incrementally repaired (Incremental mode).
    pub repairs: u64,
    /// Construction beacon bytes charged across the session's lifetime.
    pub control_bytes_total: u64,
}

impl SharedTreeSession {
    /// A session with no tree yet, under the given maintenance mode.
    pub fn new(maintenance: TreeMaintenance) -> Self {
        SharedTreeSession {
            maintenance,
            canonical: None,
            alive_at_build: Vec::new(),
            rebuilds: 0,
            repairs: 0,
            control_bytes_total: 0,
        }
    }

    /// Build the *canonical* tree over the battery-alive nodes and charge
    /// every battery-alive sensor (the mains-powered base is exempt) one
    /// construction beacon. Later deaths repair this tree instead of
    /// rebuilding it; `alive_at_build` tracks the battery-alive set
    /// (transient fault windows never reshape the tree).
    fn build_canonical_tree(&mut self, net: &mut SensorNetwork) -> TreeControl {
        let base = net.base();
        let tree = net
            .topology()
            .canonical_tree_filtered(base, |id| id == base || net.is_alive(id));
        let payers: Vec<NodeId> = net
            .topology()
            .nodes()
            .filter(|&id| id != base && net.is_alive(id))
            .collect();
        let (bytes, energy_j) = charge_beacons(net, &payers);
        self.alive_at_build = payers;
        self.rebuilds += 1;
        self.control_bytes_total += bytes;
        let waves = tree.height() + 1;
        self.canonical = Some(tree);
        TreeControl {
            bytes,
            energy_j,
            waves,
            rebuilt: true,
            repaired: false,
        }
    }

    /// Build the canonical tree on first use; afterwards, permanent battery
    /// deaths since the last epoch trigger a localized repair, never a
    /// flood.
    fn update_canonical_tree(&mut self, net: &mut SensorNetwork) -> TreeControl {
        let Some(tree) = self.canonical.as_mut() else {
            return self.build_canonical_tree(net);
        };
        let base = net.base();
        let dead: Vec<NodeId> = self
            .alive_at_build
            .iter()
            .copied()
            .filter(|&id| !net.is_alive(id))
            .collect();
        if dead.is_empty() {
            return TreeControl::default();
        }
        let stats = repair_after_deaths(net.topology(), tree, &dead, |id| {
            id == base || net.is_alive(id)
        });
        let (bytes, energy_j) = charge_beacons(net, &stats.changed);
        self.alive_at_build.retain(|&id| net.is_alive(id));
        self.repairs += 1;
        self.control_bytes_total += bytes;
        TreeControl {
            bytes,
            energy_j,
            waves: stats.waves,
            rebuilt: false,
            repaired: true,
        }
    }

    /// The control plane of one epoch: bring the session's tree up to date
    /// under its lifetime policy, charging whatever beacons that takes.
    fn maintain(&mut self, net: &mut SensorNetwork) -> TreeControl {
        match self.maintenance {
            TreeMaintenance::Free => TreeControl::default(),
            TreeMaintenance::Incremental => self.update_canonical_tree(net),
        }
    }

    /// Run one shared collection epoch for `queries` under the session's
    /// tree-lifetime policy. Control-plane charges (if the tree was built or
    /// repaired this epoch) land in the report's `control_bytes`/
    /// `control_energy_j`/`tree_rebuilt`/`tree_repaired` fields.
    ///
    /// # Panics
    /// Panics when more than [`MAX_SHARED_QUERIES`] queries are passed;
    /// callers batch larger workloads into multiple epochs.
    pub fn collect<R: Rng>(
        &mut self,
        net: &mut SensorNetwork,
        queries: &[SharedQuery],
        field: &TemperatureField,
        t: SimTime,
        rng: &mut R,
    ) -> SharedReport {
        let control = self.maintain(net);
        // Only Incremental sessions own a tree; a Free session rides the
        // network's BFS base tree, built implicitly and for free.
        let mut report = match &self.canonical {
            Some(tree) => collect_over_tree(net, tree, queries, field, t, rng),
            None => {
                let tree = net.base_tree();
                collect_over_tree(net, &tree, queries, field, t, rng)
            }
        };
        report.control_bytes = control.bytes;
        report.control_energy_j = control.energy_j;
        report.tree_rebuilt = control.rebuilt;
        report.tree_repaired = control.repaired;
        report.control_waves = control.waves;
        report
    }
}

/// What the control plane did to the collection tree before an epoch.
#[derive(Debug, Default)]
struct TreeControl {
    /// Beacon bytes put on the air.
    bytes: u64,
    /// Beacon energy drained, joules.
    energy_j: f64,
    /// Hop-waves of control traffic.
    waves: u32,
    /// The tree was built by a full flood.
    rebuilt: bool,
    /// The tree was incrementally repaired.
    repaired: bool,
}

/// Drain one full-range [`TREE_BEACON_BYTES`] broadcast from each of
/// `payers`; a sensor the beacon kills does not get it out. Returns
/// `(bytes, joules)` actually put on the air.
fn charge_beacons(net: &mut SensorNetwork, payers: &[NodeId]) -> (u64, f64) {
    let range = net.topology().range();
    let beacon_j = net.radio().tx_energy(TREE_BEACON_BYTES * 8, range);
    let mut bytes = 0u64;
    let mut energy_j = 0.0;
    for &id in payers {
        if net.drain(id, beacon_j) {
            bytes += TREE_BEACON_BYTES;
            energy_j += beacon_j;
        }
    }
    (bytes, energy_j)
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::ValueOp;
    use crate::collect::tree_aggregation;
    use pg_net::energy::RadioModel;
    use pg_net::link::LinkModel;
    use pg_net::topology::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lossless_net(n_side: usize) -> SensorNetwork {
        let topo = Topology::grid(n_side, n_side, 10.0, 11.0);
        let mut net = SensorNetwork::new(
            topo,
            NodeId(0),
            RadioModel::mote(),
            LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap(),
            50.0,
        );
        net.noise_sd = 0.0;
        net
    }

    fn field() -> TemperatureField {
        TemperatureField::calm(25.0)
    }

    fn all_members(net: &SensorNetwork) -> Vec<NodeId> {
        net.topology()
            .nodes()
            .filter(|&n| n != net.base())
            .collect()
    }

    /// One shared epoch at t = 0 on the network's own base tree: what a
    /// `Free` session runs.
    fn free_epoch(
        net: &mut SensorNetwork,
        queries: &[SharedQuery],
        rng: &mut StdRng,
    ) -> SharedReport {
        SharedTreeSession::new(TreeMaintenance::Free).collect(
            net,
            queries,
            &field(),
            SimTime::ZERO,
            rng,
        )
    }

    fn avg_query(members: Vec<NodeId>) -> SharedQuery {
        SharedQuery {
            members,
            filter: ValueFilter::all(),
            agg: AggFn::Avg,
        }
    }

    #[test]
    fn one_query_matches_the_dedicated_tree_path_valuewise() {
        let members = all_members(&lossless_net(4));
        let mut net_a = lossless_net(4);
        let mut rng_a = StdRng::seed_from_u64(1);
        let solo = tree_aggregation(
            &mut net_a,
            &members,
            &field(),
            SimTime::ZERO,
            AggFn::Avg,
            &ValueFilter::all(),
            &mut rng_a,
        );
        let mut net_b = lossless_net(4);
        let mut rng_b = StdRng::seed_from_u64(1);
        let shared = free_epoch(&mut net_b, &[avg_query(members)], &mut rng_b);
        assert_eq!(shared.per_query[0].value, solo.value);
        assert_eq!(shared.per_query[0].delivered, solo.delivered);
        assert_eq!(shared.strata, 1);
        // A Free session's tree materializes at no modelled cost.
        assert_eq!((shared.control_bytes, shared.control_waves), (0, 0));
        assert!(!shared.tree_rebuilt && !shared.tree_repaired);
    }

    #[test]
    fn identical_queries_share_nearly_all_radio_traffic() {
        const K: usize = 16;
        let members = all_members(&lossless_net(5));

        // K serial dedicated tree epochs.
        let mut serial_bytes = 0u64;
        let mut net_a = lossless_net(5);
        let mut rng_a = StdRng::seed_from_u64(2);
        for _ in 0..K {
            let r = tree_aggregation(
                &mut net_a,
                &members,
                &field(),
                SimTime::ZERO,
                AggFn::Avg,
                &ValueFilter::all(),
                &mut rng_a,
            );
            serial_bytes += r.total_bytes;
        }

        // One shared epoch with the same K queries.
        let queries: Vec<SharedQuery> = (0..K).map(|_| avg_query(members.clone())).collect();
        let mut net_b = lossless_net(5);
        let mut rng_b = StdRng::seed_from_u64(2);
        let shared = free_epoch(&mut net_b, &queries, &mut rng_b);

        // Identical member sets collapse to a single stratum: the whole
        // workload rides one 48-byte entry per edge instead of K*40 bytes.
        assert_eq!(shared.strata, 1);
        assert!(
            (shared.total_bytes as f64) < serial_bytes as f64 / 8.0,
            "shared {} bytes vs serial {} bytes",
            shared.total_bytes,
            serial_bytes
        );
        for pq in &shared.per_query {
            assert_eq!(pq.value, Some(25.0));
            assert_eq!(pq.delivered, members.len());
        }
    }

    #[test]
    fn overlapping_regions_answer_exactly_on_lossless_links() {
        let net0 = lossless_net(5);
        let all = all_members(&net0);
        // Three overlapping slices of the deployment.
        let qs = vec![
            avg_query(all.clone()),
            avg_query(all.iter().copied().take(12).collect()),
            SharedQuery {
                members: all.iter().copied().skip(6).collect(),
                filter: ValueFilter::all(),
                agg: AggFn::Count,
            },
        ];
        let mut net = lossless_net(5);
        let mut rng = StdRng::seed_from_u64(3);
        let shared = free_epoch(&mut net, &qs, &mut rng);
        assert_eq!(shared.per_query[0].value, Some(25.0));
        assert_eq!(shared.per_query[1].value, Some(25.0));
        assert_eq!(shared.per_query[1].delivered, 12);
        assert_eq!(shared.per_query[2].value, Some((all.len() - 6) as f64));
        assert!(shared.strata > 1, "overlap must create multiple strata");
    }

    #[test]
    fn filters_apply_per_query_at_the_source() {
        let members = all_members(&lossless_net(4));
        let qs = vec![
            SharedQuery {
                members: members.clone(),
                filter: ValueFilter::all().and(ValueOp::Gt, 100.0),
                agg: AggFn::Count,
            },
            avg_query(members.clone()),
        ];
        let mut net = lossless_net(4);
        let mut rng = StdRng::seed_from_u64(4);
        let shared = free_epoch(&mut net, &qs, &mut rng);
        // A calm 25° field never exceeds 100°: query 0 counts zero readings
        // while query 1 still sees everything.
        assert_eq!(shared.per_query[0].value, Some(0.0));
        assert_eq!(shared.per_query[1].value, Some(25.0));
        assert_eq!(shared.per_query[1].delivered, members.len());
    }

    #[test]
    fn attribution_sums_to_the_measured_totals() {
        let net0 = lossless_net(5);
        let all = all_members(&net0);
        let qs = vec![
            avg_query(all.clone()),
            avg_query(all.iter().copied().take(9).collect()),
            avg_query(all.iter().copied().skip(15).collect()),
        ];
        let mut net = lossless_net(5);
        let mut rng = StdRng::seed_from_u64(5);
        let shared = free_epoch(&mut net, &qs, &mut rng);
        let bytes: f64 = shared.per_query.iter().map(|p| p.bytes).sum();
        let energy: f64 = shared.per_query.iter().map(|p| p.energy_j).sum();
        assert!(
            (bytes - shared.total_bytes as f64).abs() < 1e-6,
            "attributed {bytes} vs total {}",
            shared.total_bytes
        );
        assert!((energy - shared.energy_j).abs() < 1e-9);
        assert!(shared.energy_j > 0.0);
        assert!(shared.latency > Duration::ZERO);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let net0 = lossless_net(4);
            let all = all_members(&net0);
            let mut net = lossless_net(4);
            net.noise_sd = 0.5;
            let mut rng = StdRng::seed_from_u64(6);
            let r = free_epoch(
                &mut net,
                &[
                    avg_query(all.clone()),
                    avg_query(all.iter().copied().take(7).collect()),
                ],
                &mut rng,
            );
            (
                r.per_query[0].value,
                r.per_query[1].value,
                r.total_bytes,
                r.energy_j.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn incremental_repair_beats_full_rebuild_on_death() {
        let all = all_members(&lossless_net(5));
        let queries = [avg_query(all.clone())];
        let mut net = lossless_net(5);
        let mut rng = StdRng::seed_from_u64(11);
        let mut kept = SharedTreeSession::new(TreeMaintenance::Incremental);
        let first = kept.collect(&mut net, &queries, &field(), SimTime::ZERO, &mut rng);
        assert!(first.tree_rebuilt);
        // Kill one non-cut sensor. The kept session repairs around it; a
        // fresh session on the same world pays a full rebuild.
        net.drain(*all.last().unwrap(), 1e9);
        let t = SimTime::from_secs(30);
        let full = SharedTreeSession::new(TreeMaintenance::Incremental).collect(
            &mut net.clone(),
            &queries,
            &field(),
            t,
            &mut rng.clone(),
        );
        let incr = kept.collect(&mut net, &queries, &field(), t, &mut rng);
        assert!(full.tree_rebuilt, "a fresh session floods");
        // The dead node no longer beacons.
        assert!(full.control_bytes < first.control_bytes);
        assert!(!incr.tree_rebuilt, "incremental never rebuilds on death");
        assert!(incr.tree_repaired);
        assert!(
            incr.control_bytes < full.control_bytes,
            "repair {} bytes vs rebuild {} bytes",
            incr.control_bytes,
            full.control_bytes
        );
        assert!(
            incr.control_waves < full.control_waves,
            "repair {} waves vs rebuild {} waves",
            incr.control_waves,
            full.control_waves
        );
    }

    #[test]
    fn incremental_tree_matches_canonical_rebuild_after_churn() {
        let all = all_members(&lossless_net(5));
        let mut net = lossless_net(5);
        let mut rng = StdRng::seed_from_u64(12);
        let mut session = SharedTreeSession::new(TreeMaintenance::Incremental);
        let _ = session.collect(
            &mut net,
            &[avg_query(all.clone())],
            &field(),
            SimTime::ZERO,
            &mut rng,
        );
        for (round, victim) in [all[3], all[10], all[17]].into_iter().enumerate() {
            net.drain(victim, 1e9);
            let r = session.collect(
                &mut net,
                &[avg_query(all.clone())],
                &field(),
                SimTime::from_secs(30 * (round as u64 + 1)),
                &mut rng,
            );
            assert!(r.tree_repaired && !r.tree_rebuilt);
            let base = net.base();
            let want = net
                .topology()
                .canonical_tree_filtered(base, |id| id == base || net.is_alive(id));
            let got = session.canonical.as_ref().unwrap();
            assert_eq!(got.parent, want.parent, "round {round}");
            assert_eq!(got.depth, want.depth, "round {round}");
        }
        assert_eq!(session.rebuilds, 1);
        assert_eq!(session.repairs, 3);
    }

    #[test]
    fn incremental_healthy_epochs_pay_no_control() {
        let all = all_members(&lossless_net(4));
        let mut net = lossless_net(4);
        let mut rng = StdRng::seed_from_u64(13);
        let mut session = SharedTreeSession::new(TreeMaintenance::Incremental);
        let first = session.collect(
            &mut net,
            &[avg_query(all.clone())],
            &field(),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(first.tree_rebuilt);
        assert!(first.control_bytes > 0);
        let steady = session.collect(
            &mut net,
            &[avg_query(all.clone())],
            &field(),
            SimTime::from_secs(30),
            &mut rng,
        );
        assert!(!steady.tree_rebuilt && !steady.tree_repaired);
        assert_eq!(steady.control_bytes, 0);
        assert_eq!(steady.control_waves, 0);
        // Answers still flow over the canonical tree.
        assert_eq!(steady.per_query[0].value, Some(25.0));
    }

    #[test]
    #[should_panic(expected = "shared epoch limited")]
    fn more_than_64_queries_panic() {
        let mut net = lossless_net(3);
        let members = all_members(&net);
        let qs: Vec<SharedQuery> = (0..65).map(|_| avg_query(members.clone())).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let _ = free_epoch(&mut net, &qs, &mut rng);
    }
}
