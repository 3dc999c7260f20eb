//! Reference oracle for the shared collection epoch.
//!
//! [`collect_over_tree`] here is the epoch as it stood before collection
//! went linear-time: one full root walk (and one `Vec`) per member per
//! query, a fresh stable sort for the visiting order, a `BTreeMap` of
//! strata at every node, and a `0..nq` scan per packet entry. It is slow
//! and obviously right; the tests below hold the production path to it bit
//! for bit.
//!
//! It shares no hop with what it checks: [`try_hop`] is the hop as it stood
//! before the meter kept anything — the distance, the transmit energy and
//! the fault plan's answer worked out again on every attempt.

use super::*;
use crate::collect::MAX_ATTEMPTS;
use std::collections::{BTreeMap, BTreeSet};

/// Attempt to deliver one `bytes`-sized message over the `from -> to` hop,
/// draining energy for every attempt (sender) and for the successful
/// reception (receiver). Returns `(delivered, attempts)`.
fn try_hop<R: Rng>(
    net: &mut SensorNetwork,
    from: NodeId,
    to: NodeId,
    bytes: u64,
    t: SimTime,
    rng: &mut R,
) -> (bool, u32) {
    let bits = bytes * 8;
    let d = net.topology().distance(from, to);
    for attempt in 1..=MAX_ATTEMPTS {
        let tx = net.radio().tx_energy(bits, d);
        if !net.drain(from, tx) {
            return (false, attempt); // sender died mid-send
        }
        // Stochastic plan loss draws first (and only when configured), so
        // empty plans leave existing random streams untouched.
        let fault_dropped = net.fault_plan().message_dropped(rng)
            || net.fault_plan().is_link_blacked_out(t)
            || !net.is_operational(to, t);
        if !fault_dropped && net.link().delivered(rng) {
            let rx = net.radio().rx_energy(bits);
            if !net.drain(to, rx) && to != net.base() {
                return (false, attempt); // receiver died on reception
            }
            return (true, attempt);
        }
    }
    (false, MAX_ATTEMPTS)
}

/// Path from `node` up to the root (inclusive). `None` if unattached.
fn path_to_root(tree: &RoutingTree, node: NodeId) -> Option<Vec<NodeId>> {
    tree.depth[node.idx()]?;
    let mut path = vec![node];
    let mut cur = node;
    while let Some(p) = tree.parent[cur.idx()] {
        path.push(p);
        cur = p;
    }
    Some(path)
}

/// Attached nodes, deepest first, by a stable sort on depth.
fn bottom_up_order(tree: &RoutingTree) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = (0..tree.parent.len() as u32)
        .map(NodeId)
        .filter(|n| tree.depth[n.idx()].is_some())
        .collect();
    ids.sort_by_key(|n| std::cmp::Reverse(tree.depth[n.idx()]));
    ids
}

/// The pre-change epoch body, verbatim except that the two tree helpers it
/// called (`path_to_root`, the sorting `bottom_up_order`) are inlined above.
pub(super) fn collect_over_tree<R: Rng>(
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
    let meter = Meter::open(net, field, t);
    let base = net.base();
    let n = net.len();
    let nq = queries.len();

    // Membership bitmask per node, and tree involvement: a node is on the
    // tree iff it lies on some member->root path of some query.
    let mut member_mask = vec![0u64; n];
    let mut involved = vec![false; n];
    for (qi, q) in queries.iter().enumerate() {
        for &m in &q.members {
            if m == base {
                continue;
            }
            member_mask[m.idx()] |= 1u64 << qi;
            if let Some(path) = path_to_root(tree, m) {
                for p in path {
                    involved[p.idx()] = true;
                }
            }
        }
    }
    involved[base.idx()] = true;

    let mut per_query: Vec<SharedPerQuery> = queries
        .iter()
        .map(|q| SharedPerQuery {
            value: None,
            partial: Partial::empty(),
            energy_j: 0.0,
            bytes: 0.0,
            ops: 0.0,
            retries: 0,
            participating: q.members.iter().filter(|&&m| m != base).count(),
            delivered: 0,
        })
        .collect();

    // Per-node strata: one mergeable partial per effective bitmask. BTreeMap
    // keeps merge order deterministic.
    let mut strata: Vec<BTreeMap<u64, Partial>> = vec![BTreeMap::new(); n];
    let mut seen_masks: BTreeSet<u64> = BTreeSet::new();
    let mut cpu_ops = 0u64;

    // Sampling phase: every node any query selects samples exactly once.
    // The effective mask keeps only queries whose filter the reading passes.
    let field = field.at(t);
    for id in net.topology().nodes() {
        let mm = member_mask[id.idx()];
        if mm == 0 || !net.is_operational(id, t) {
            continue;
        }
        let reading = net.sample(id, &field, rng);
        cpu_ops += 50;
        // One physical sample serves every selecting query: split its cost.
        let share = 50.0 / mm.count_ones() as f64;
        let mut effective = 0u64;
        for qi in 0..nq {
            if mm & (1 << qi) != 0 {
                per_query[qi].ops += share;
                if queries[qi].filter.matches(reading) {
                    effective |= 1 << qi;
                }
            }
        }
        if effective != 0 {
            strata[id.idx()]
                .entry(effective)
                .or_insert_with(Partial::empty)
                .add(reading);
            seen_masks.insert(effective);
        }
    }

    // Bottom-up phase: each involved non-root node forwards its strata map
    // (own reading plus already-merged children) to its parent in one
    // packet. Per-level slot lengths follow the biggest packet attempted at
    // that level — the TAG epoch discipline with variable frames.
    let mut total_bytes = 0u64;
    let mut bytes_to_base = 0u64;
    let mut retries = 0u64;
    let mut packets = 0u64;
    let mut level_slot: BTreeMap<u32, u64> = BTreeMap::new();

    for u in bottom_up_order(tree) {
        if !involved[u.idx()] || u == base {
            continue;
        }
        if !net.is_operational(u, t) {
            strata[u.idx()].clear(); // subtree contribution dies here
            continue;
        }
        if strata[u.idx()].is_empty() {
            continue; // nothing to report upward
        }
        let Some(parent) = tree.parent[u.idx()] else {
            continue; // root-adjacent anomaly: nothing to forward to
        };
        let entries: Vec<(u64, Partial)> = strata[u.idx()].iter().map(|(&m, &p)| (m, p)).collect();
        let bytes = packet_bytes(entries.len());
        let (ok, attempts) = try_hop(net, u, parent, bytes, t, rng);
        packets += 1;
        total_bytes += bytes * attempts as u64;
        retries += u64::from(attempts.saturating_sub(1));
        if let Some(depth) = tree.depth[u.idx()] {
            let slot = level_slot.entry(depth).or_insert(0);
            *slot = (*slot).max(bytes);
        }
        // Attribute this packet's airtime to the queries it carried: each
        // entry's bytes split evenly across the queries in its mask.
        for &(mask, _) in &entries {
            let share = ((STRATUM_KEY_WIRE_BYTES + PARTIAL_WIRE_BYTES) * attempts as u64) as f64
                / mask.count_ones() as f64;
            for (qi, pq) in per_query.iter_mut().enumerate().take(nq) {
                if mask & (1 << qi) != 0 {
                    pq.bytes += share;
                    pq.retries += u64::from(attempts.saturating_sub(1));
                }
            }
        }
        if ok {
            let parent_strata = &mut strata[parent.idx()];
            for (mask, p) in entries {
                parent_strata
                    .entry(mask)
                    .or_insert_with(Partial::empty)
                    .merge(&p);
                cpu_ops += MERGE_OPS;
                let share = MERGE_OPS as f64 / mask.count_ones() as f64;
                for (qi, pq) in per_query.iter_mut().enumerate().take(nq) {
                    if mask & (1 << qi) != 0 {
                        pq.ops += share;
                    }
                }
            }
            if parent == base {
                bytes_to_base += bytes;
            }
        }
    }

    // Finalize: query q's answer merges every stratum whose mask covers q.
    for (qi, (pq, q)) in per_query.iter_mut().zip(queries).enumerate() {
        for (&mask, p) in &strata[base.idx()] {
            if mask & (1 << qi) != 0 {
                pq.partial.merge(p);
            }
        }
        pq.delivered = pq.partial.count as usize;
        pq.value = pq.partial.finalize(q.agg);
    }

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
        .values()
        .map(|&b| net.link().tx_time(b))
        .sum::<Duration>();

    SharedReport {
        per_query,
        energy_j,
        max_node_energy_j,
        total_bytes,
        bytes_to_base,
        latency,
        cpu_ops,
        retries,
        strata: seen_masks.len(),
        packets,
        control_bytes: 0,
        control_energy_j: 0.0,
        tree_rebuilt: false,
        tree_repaired: false,
        control_waves: 0,
    }
}

mod tests {
    use super::*;
    use crate::aggregate::ValueOp;
    use pg_net::energy::RadioModel;
    use pg_net::geom::Point;
    use pg_net::link::LinkModel;
    use pg_net::topology::Topology;
    use pg_sim::fault::FaultPlan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const MODES: [TreeMaintenance; 2] = [TreeMaintenance::Free, TreeMaintenance::Incremental];
    const AGGS: [AggFn; 6] = [
        AggFn::Count,
        AggFn::Sum,
        AggFn::Avg,
        AggFn::Min,
        AggFn::Max,
        AggFn::StdDev,
    ];

    /// A seeded world: a random geometric field dense enough to be mostly
    /// connected yet shedding fragments (unreachable members matter), lossy
    /// links, one sensor inside a crash window for the middle epochs.
    fn world(seed: u64) -> (SensorNetwork, TemperatureField) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(12..160);
        let side = (n as f64).sqrt() * 11.0;
        let topo = Topology::random_geometric(n, side, side, 20.0, &mut rng);
        let loss = [0.0, 0.05, 0.3][rng.gen_range(0..3usize)];
        let link = LinkModel::new(250e3, Duration::from_millis(5), loss).unwrap();
        let mut net = SensorNetwork::new(topo, NodeId(0), RadioModel::mote(), link, 50.0);
        let plan = FaultPlan::builder(seed)
            .message_loss(0.04)
            .node_crash(
                rng.gen_range(1..n as u64),
                SimTime::from_secs(30),
                SimTime::from_secs(75),
            )
            .build()
            .unwrap();
        net.set_fault_plan(plan);
        let fire = Point::flat(side * 0.4, side * 0.6);
        (
            net,
            TemperatureField::building_fire(fire, SimTime::ZERO, 300.0),
        )
    }

    /// One query over a disc of the field; the base, repeated members and
    /// unreachable members all occur.
    fn disc(net: &SensorNetwork, rng: &mut StdRng) -> SharedQuery {
        let topo = net.topology();
        let center = topo.position(NodeId(rng.gen_range(0..topo.len() as u32)));
        let radius = rng.gen_range(10.0..60.0);
        let mut members: Vec<NodeId> = topo
            .nodes()
            .filter(|&id| topo.position(id).distance(&center) <= radius)
            .collect();
        if rng.gen_bool(0.2) {
            members.push(members[0]);
        }
        let filter = match rng.gen_range(0..3) {
            0 => ValueFilter::all(),
            1 => ValueFilter::all().and(ValueOp::Gt, rng.gen_range(15.0..60.0)),
            _ => ValueFilter::all().and(ValueOp::Lt, rng.gen_range(20.0..120.0)),
        };
        SharedQuery {
            members,
            filter,
            agg: AGGS[rng.gen_range(0..AGGS.len())],
        }
    }

    /// `q`'s twin: its members and filter, another aggregate.
    fn twin_of(q: &SharedQuery, rng: &mut StdRng) -> SharedQuery {
        let at = AGGS.iter().position(|&a| a == q.agg).unwrap_or(0);
        SharedQuery {
            agg: AGGS[(at + rng.gen_range(1..AGGS.len())) % AGGS.len()],
            ..q.clone()
        }
    }

    /// 1–64 queries over overlapping discs; about a third of them twin an
    /// earlier query, and one case in five is 64 twins of one disc.
    fn queries(net: &SensorNetwork, rng: &mut StdRng) -> Vec<SharedQuery> {
        let nq = match rng.gen_range(0..5u32) {
            0 => 1,
            1 => MAX_SHARED_QUERIES,
            2 => {
                let q = disc(net, rng);
                let mut qs = vec![q.clone()];
                qs.extend((1..MAX_SHARED_QUERIES).map(|_| twin_of(&q, rng)));
                return qs;
            }
            _ => rng.gen_range(1..=MAX_SHARED_QUERIES),
        };
        let mut qs: Vec<SharedQuery> = Vec::with_capacity(nq);
        for _ in 0..nq {
            let q = if !qs.is_empty() && rng.gen_bool(1.0 / 3.0) {
                twin_of(&qs[rng.gen_range(0..qs.len())], rng)
            } else {
                disc(net, rng)
            };
            qs.push(q);
        }
        qs
    }

    fn assert_partials_equal(a: &Partial, b: &Partial, what: &str) {
        assert_eq!(a.count, b.count, "{what}: partial.count");
        assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{what}: partial.sum");
        assert_eq!(
            a.sum_sq.to_bits(),
            b.sum_sq.to_bits(),
            "{what}: partial.sum_sq"
        );
        assert_eq!(a.min.to_bits(), b.min.to_bits(), "{what}: partial.min");
        assert_eq!(a.max.to_bits(), b.max.to_bits(), "{what}: partial.max");
    }

    fn assert_reports_equal(a: &SharedReport, b: &SharedReport, what: &str) {
        assert_eq!(a.per_query.len(), b.per_query.len(), "{what}: queries");
        for (qi, (x, y)) in a.per_query.iter().zip(&b.per_query).enumerate() {
            let what = format!("{what} query {qi}");
            assert_eq!(
                x.value.map(f64::to_bits),
                y.value.map(f64::to_bits),
                "{what}: value"
            );
            assert_partials_equal(&x.partial, &y.partial, &what);
            assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits(), "{what}: energy");
            assert_eq!(x.bytes.to_bits(), y.bytes.to_bits(), "{what}: bytes");
            assert_eq!(x.ops.to_bits(), y.ops.to_bits(), "{what}: ops");
            assert_eq!(x.retries, y.retries, "{what}: retries");
            assert_eq!(x.participating, y.participating, "{what}: participating");
            assert_eq!(x.delivered, y.delivered, "{what}: delivered");
        }
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "{what}: energy");
        assert_eq!(
            a.max_node_energy_j.to_bits(),
            b.max_node_energy_j.to_bits(),
            "{what}: max node energy"
        );
        assert_eq!(a.total_bytes, b.total_bytes, "{what}: total_bytes");
        assert_eq!(a.bytes_to_base, b.bytes_to_base, "{what}: bytes_to_base");
        assert_eq!(a.latency, b.latency, "{what}: latency");
        assert_eq!(a.cpu_ops, b.cpu_ops, "{what}: cpu_ops");
        assert_eq!(a.retries, b.retries, "{what}: retries");
        assert_eq!(a.strata, b.strata, "{what}: strata");
        assert_eq!(a.packets, b.packets, "{what}: packets");
        assert_eq!(a.control_bytes, b.control_bytes, "{what}: control_bytes");
        assert_eq!(
            a.control_energy_j.to_bits(),
            b.control_energy_j.to_bits(),
            "{what}: control energy"
        );
        assert_eq!(a.tree_rebuilt, b.tree_rebuilt, "{what}: tree_rebuilt");
        assert_eq!(a.tree_repaired, b.tree_repaired, "{what}: tree_repaired");
        assert_eq!(a.control_waves, b.control_waves, "{what}: control_waves");
    }

    /// Every battery and the next rng draw agree.
    fn assert_worlds_equal(
        net_a: &SensorNetwork,
        net_b: &SensorNetwork,
        rng_a: &mut StdRng,
        rng_b: &mut StdRng,
        what: &str,
    ) {
        for id in net_a.topology().nodes() {
            assert_eq!(
                net_a.remaining_energy(id).to_bits(),
                net_b.remaining_energy(id).to_bits(),
                "{what}: battery of {id}"
            );
        }
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "{what}: rng stream");
    }

    /// The production session against the same session logic collecting
    /// through the oracle: every report field, every battery and the rng
    /// stream must agree after every epoch.
    #[test]
    fn production_epochs_equal_the_oracle_bit_for_bit() {
        for seed in 0..48u64 {
            for mode in MODES {
                let (mut net_a, field) = world(seed);
                let mut net_b = net_a.clone();
                let mut session_a = SharedTreeSession::new(mode);
                let mut session_b = SharedTreeSession::new(mode);
                let mut rng_a = StdRng::seed_from_u64(seed ^ 0xC011);
                let mut rng_b = rng_a.clone();
                let mut script = StdRng::seed_from_u64(seed ^ 0x5C21);
                let n = net_a.len() as u32;
                for epoch in 0..4u64 {
                    let what = format!("seed {seed} {mode:?} epoch {epoch}");
                    let t = SimTime::from_secs(30 * epoch);
                    // Battery deaths between epochs (never the base).
                    for _ in 0..script.gen_range(0..3) {
                        let victim = NodeId(script.gen_range(1..n));
                        net_a.drain(victim, f64::INFINITY);
                        net_b.drain(victim, f64::INFINITY);
                    }
                    let qs = queries(&net_a, &mut script);

                    let got = session_a.collect(&mut net_a, &qs, &field, t, &mut rng_a);

                    let control = session_b.maintain(&mut net_b);
                    let tree = match &session_b.canonical {
                        Some(tree) => tree.clone(),
                        None => net_b.topology().spanning_tree(net_b.base()),
                    };
                    let mut want = collect_over_tree(&mut net_b, &tree, &qs, &field, t, &mut rng_b);
                    want.control_bytes = control.bytes;
                    want.control_energy_j = control.energy_j;
                    want.tree_rebuilt = control.rebuilt;
                    want.tree_repaired = control.repaired;
                    want.control_waves = control.waves;

                    assert_reports_equal(&got, &want, &what);
                    assert_worlds_equal(&net_a, &net_b, &mut rng_a, &mut rng_b, &what);
                }
                assert_eq!(session_a.rebuilds, session_b.rebuilds);
                assert_eq!(session_a.repairs, session_b.repairs);
                assert_eq!(session_a.control_bytes_total, session_b.control_bytes_total);
            }
        }
    }

    /// One epoch on `warm` and on its clone (empty scratch, cloned rng), each
    /// under its own session of a pair kept in lockstep — the two only ever
    /// see equal worlds. Equal reports, batteries and rng position, or panic.
    fn warm_and_cold_epoch(
        sessions: &mut [SharedTreeSession; 2],
        warm: &mut SensorNetwork,
        qs: &[SharedQuery],
        field: &TemperatureField,
        t: SimTime,
        rng: &mut StdRng,
        what: &str,
    ) {
        let mut cold = warm.clone();
        let mut rng_c = rng.clone();
        assert!(cold.scratch.strata.is_empty(), "{what}");
        let [session_w, session_c] = sessions;
        let got = session_w.collect(warm, qs, field, t, rng);
        let want = session_c.collect(&mut cold, qs, field, t, &mut rng_c);
        assert_reports_equal(&got, &want, what);
        assert_worlds_equal(warm, &cold, rng, &mut rng_c, what);
    }

    /// What a network keeps between epochs is not state: after every epoch
    /// of the oracle's world, the next epoch on the warm network and on its
    /// clone (empty scratch, cloned rng) give the same report, batteries and
    /// rng position.
    #[test]
    fn a_warm_network_equals_its_cold_clone() {
        for seed in 0..48u64 {
            for mode in MODES {
                let (mut warm, field) = world(seed);
                let mut sessions = [mode, mode].map(SharedTreeSession::new);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC011);
                let mut script = StdRng::seed_from_u64(seed ^ 0x5C21);
                let n = warm.len() as u32;
                for epoch in 0..4u64 {
                    let what = format!("seed {seed} {mode:?} epoch {epoch}");
                    let t = SimTime::from_secs(30 * epoch);
                    for _ in 0..script.gen_range(0..3) {
                        warm.drain(NodeId(script.gen_range(1..n)), f64::INFINITY);
                    }
                    let qs = queries(&warm, &mut script);
                    assert_eq!(warm.scratch.strata.is_empty(), epoch == 0, "{what}");
                    warm_and_cold_epoch(&mut sessions, &mut warm, &qs, &field, t, &mut rng, &what);
                }
            }
        }
    }

    /// A lossless, fault-free random field where every sensor reports.
    fn quiet_world(seed: u64) -> (SensorNetwork, Vec<SharedQuery>, TemperatureField) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = Topology::random_geometric(60, 85.0, 85.0, 20.0, &mut rng);
        let link = LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap();
        let net = SensorNetwork::new(topo, NodeId(0), RadioModel::mote(), link, 50.0);
        let query = SharedQuery {
            members: net.topology().nodes().collect(),
            filter: ValueFilter::all(),
            agg: AggFn::Avg,
        };
        (net, vec![query], TemperatureField::calm(25.0))
    }

    /// Every live sensor attached to `tree` sent to its parent this epoch:
    /// the price kept for it is that edge's, whatever edge it held before.
    fn assert_kept_prices_are_the_trees(net: &SensorNetwork, tree: &RoutingTree, what: &str) {
        let mut checked = 0;
        for child in net.topology().nodes().filter(|&id| net.is_alive(id)) {
            let Some(parent) = tree.parent[child.idx()] else {
                continue;
            };
            let d = net.topology().distance(child, parent);
            let want = (Some(parent), net.radio().amp_per_bit(d));
            assert_eq!(net.scratch.edge_price[child.idx()], want, "{what}: {child}");
            checked += 1;
        }
        assert!(checked > 30, "{what}: only {checked} edges checked");
    }

    #[test]
    fn a_repaired_edge_is_repriced() {
        let (mut net, qs, field) = quiet_world(7);
        let mut sessions = [TreeMaintenance::Incremental; 2].map(SharedTreeSession::new);
        let mut rng = StdRng::seed_from_u64(7);
        let t = SimTime::ZERO;
        warm_and_cold_epoch(&mut sessions, &mut net, &qs, &field, t, &mut rng, "built");
        let before = sessions[0].canonical.clone().unwrap();
        assert_kept_prices_are_the_trees(&net, &before, "built");

        // Kill the busiest forwarder below the base's own children.
        let victim = net
            .topology()
            .nodes()
            .filter(|&id| before.depth[id.idx()].is_some_and(|d| d >= 1))
            .max_by_key(|&id| before.children[id.idx()].len())
            .unwrap();
        net.drain(victim, f64::INFINITY);
        let t = SimTime::from_secs(30);
        warm_and_cold_epoch(
            &mut sessions,
            &mut net,
            &qs,
            &field,
            t,
            &mut rng,
            "repaired",
        );
        let after = sessions[0].canonical.as_ref().unwrap();
        assert_eq!(sessions[0].repairs, 1);
        let reparented = before.children[victim.idx()]
            .iter()
            .filter(|c| after.parent[c.idx()].is_some_and(|p| p != victim))
            .count();
        assert!(reparented > 0, "no orphan of {victim} found a new parent");
        assert_kept_prices_are_the_trees(&net, after, "repaired");
    }

    #[test]
    fn a_switch_between_the_base_tree_and_the_canonical_tree_is_repriced() {
        let (mut net, qs, field) = quiet_world(7);
        // One Free and one Incremental session (each a lockstep pair) take
        // turns on one network.
        let mut pairs = MODES.map(|mode| [mode; 2].map(SharedTreeSession::new));
        let mut rng = StdRng::seed_from_u64(7);
        let base_tree = net.base_tree();
        for (epoch, turn) in [0, 1, 0].into_iter().enumerate() {
            let mode = MODES[turn];
            let what = format!("epoch {epoch} {mode:?}");
            let t = SimTime::from_secs(30 * epoch as u64);
            let sessions = &mut pairs[turn];
            warm_and_cold_epoch(sessions, &mut net, &qs, &field, t, &mut rng, &what);
            let canonical = sessions[0].canonical.as_ref();
            assert_eq!(
                canonical.is_some(),
                mode == TreeMaintenance::Incremental,
                "{what}"
            );
            if let Some(canonical) = canonical {
                assert_ne!(canonical.parent, base_tree.parent, "the trees must differ");
            }
            assert_kept_prices_are_the_trees(&net, canonical.unwrap_or(&base_tree), &what);
        }
    }
}
