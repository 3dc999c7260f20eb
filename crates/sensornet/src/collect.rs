//! In-network collection strategies and their full cost accounting.
//!
//! §4 lists the candidate solution models: "all sensors would send their
//! data to the base station" (direct), "cluster based models", and
//! "aggregation trees". Each strategy here executes one epoch of an
//! aggregate query over a member set and returns a [`CollectionReport`]
//! with the four quantities the paper says the decision maker needs:
//! **amount of computation, data transfer, energy consumption, response
//! time** — plus accuracy bookkeeping.
//!
//! ## Timing model
//!
//! Sensors share the channel TDMA-style within interference range (the TAG
//! epoch/slot discipline). For tree aggregation the epoch is divided into
//! per-level slots, so latency is `height × slot`. For direct collection the
//! base station's neighbourhood is the bottleneck: all `m` readings must
//! cross the final hop in sequence, so latency is the longest path time plus
//! the serialization backlog at the sink.

use crate::aggregate::{AggFn, Partial, ValueFilter, PARTIAL_WIRE_BYTES, READING_WIRE_BYTES};
use crate::field::{FrozenField, TemperatureField};
use crate::network::{SensorNetwork, SAMPLE_OPS};
use pg_net::topology::NodeId;
use pg_sim::{Duration, SimTime};
use rand::Rng;

/// Give up on a hop after this many attempts (TAG-like bounded retries).
pub const MAX_ATTEMPTS: u32 = 8;

/// CPU operations to merge one partial state into another.
pub const MERGE_OPS: u64 = 20;

/// Everything measured about one epoch of one collection strategy.
#[derive(Debug, Clone)]
pub struct CollectionReport {
    /// Finalized aggregate at the base station (None if nothing arrived).
    pub value: Option<f64>,
    /// The merged partial state that reached the base.
    pub partial: Partial,
    /// Total sensor energy consumed this epoch, joules.
    pub energy_j: f64,
    /// Largest single-node energy draw this epoch, joules (drives lifetime).
    pub max_node_energy_j: f64,
    /// Bytes delivered into the base station.
    pub bytes_to_base: u64,
    /// Bytes transmitted network-wide (including retries).
    pub total_bytes: u64,
    /// Time from epoch start until the base holds the answer.
    pub latency: Duration,
    /// CPU operations spent in the network (sampling + merging).
    pub cpu_ops: u64,
    /// Sensors asked to contribute, the denominator of
    /// [`delivery_ratio`](Self::delivery_ratio). Direct and tree epochs (and
    /// each query of a shared epoch) count every non-base member, dead or
    /// crashed ones included; cluster epochs count only members operational
    /// at the epoch's instant, so once sensors die they report a higher
    /// ratio than a tree epoch that delivered the same readings.
    pub participating: usize,
    /// Readings actually represented in the result.
    pub delivered: usize,
    /// Link-layer retransmissions beyond each hop's first attempt.
    pub retries: u64,
}

impl CollectionReport {
    /// Fraction of requested readings represented in the answer.
    pub fn delivery_ratio(&self) -> f64 {
        if self.participating == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.participating as f64
    }
}

/// The bill of one collection epoch, and the one place a sample, a radio hop
/// and an epoch's energy are priced: every strategy (direct, tree, cluster,
/// summaries, the shared epoch) opens a meter, samples and hops through it,
/// and reads its totals back.
///
/// An epoch happens at one instant, so the meter asks the fault plan what
/// holds at that instant once, and freezes the field at it once, when it
/// opens; every sample and hop reads the answer. Batteries are not in that
/// answer: a drain can kill a node in the middle of an epoch, so
/// [`is_up`](Self::is_up) and [`hop`](Self::hop) read them live.
pub(crate) struct Meter {
    /// The field every sample of the epoch reads.
    field: FrozenField,
    /// Every battery as the epoch found it.
    start_remaining: Vec<f64>,
    /// The shared channel is jammed for the whole epoch.
    link_blacked_out: bool,
    /// The base station is inside an outage window.
    base_down: bool,
    /// Sensors inside a crash window, ascending.
    crashed: Vec<u64>,
    /// Bytes put on the air, every attempt counted.
    pub(crate) total_bytes: u64,
    /// Bytes of the hops the base station received.
    pub(crate) bytes_to_base: u64,
    /// Attempts beyond each hop's first.
    pub(crate) retries: u64,
    /// Sampling plus whatever merges the strategy adds.
    pub(crate) cpu_ops: u64,
}

impl Meter {
    /// Open the bill of an epoch at instant `t`, sampling `field` as it
    /// stands then.
    pub(crate) fn open(net: &SensorNetwork, field: &TemperatureField, t: SimTime) -> Self {
        let plan = net.fault_plan();
        Meter {
            field: field.at(t),
            start_remaining: net
                .topology()
                .nodes()
                .map(|n| net.remaining_energy(n))
                .collect(),
            link_blacked_out: plan.is_link_blacked_out(t),
            base_down: plan.is_base_down(t),
            crashed: plan
                .crashing_nodes()
                .filter(|&id| plan.is_node_down(id, t))
                .collect(),
            total_bytes: 0,
            bytes_to_base: 0,
            retries: 0,
            cpu_ops: 0,
        }
    }

    /// Is `node` inside an injected outage for this epoch? (The base obeys
    /// base-outage windows, a sensor its crash windows.)
    fn in_outage(&self, net: &SensorNetwork, node: NodeId) -> bool {
        if node == net.base() {
            return self.base_down;
        }
        self.crashed.binary_search(&(node.idx() as u64)).is_ok()
    }

    /// [`SensorNetwork::is_operational`] at the epoch's instant: powered
    /// right now, and not inside an outage.
    pub(crate) fn is_up(&self, net: &SensorNetwork, node: NodeId) -> bool {
        net.is_alive(node) && !self.in_outage(net, node)
    }

    /// `node` reads the field once.
    pub(crate) fn sample<R: Rng>(
        &mut self,
        net: &mut SensorNetwork,
        node: NodeId,
        rng: &mut R,
    ) -> f64 {
        self.cpu_ops += SAMPLE_OPS;
        net.sample(node, &self.field, rng)
    }

    /// One hop over an edge nobody keeps a price for — member to head, head
    /// to base, a leg of a direct route: price its distance now, then
    /// [`hop_priced`](Self::hop_priced).
    pub(crate) fn hop<R: Rng>(
        &mut self,
        net: &mut SensorNetwork,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        rng: &mut R,
    ) -> (bool, u32) {
        let amp = net.radio().amp_per_bit(net.topology().distance(from, to));
        self.hop_priced(net, from, to, amp, bytes, rng)
    }

    /// Attempt to deliver one `bytes`-sized message over the `from -> to`
    /// hop, whose amplifier costs `amp_per_bit` J/bit, draining energy for
    /// every attempt (sender) and for the successful reception (receiver),
    /// at most [`MAX_ATTEMPTS`] times. Every attempt's bytes are on the air,
    /// and only a hop the base received counts as bytes into the base.
    /// Returns `(delivered, attempts)`.
    ///
    /// Injected faults (the network's [`FaultPlan`][pg_sim::fault::FaultPlan])
    /// kill attempts *after* the sender has spent the transmit energy: a link
    /// blackout jams the channel, a crashed receiver cannot acknowledge, and
    /// plan-level message loss compounds the link's own loss process.
    pub(crate) fn hop_priced<R: Rng>(
        &mut self,
        net: &mut SensorNetwork,
        from: NodeId,
        to: NodeId,
        amp_per_bit: f64,
        bytes: u64,
        rng: &mut R,
    ) -> (bool, u32) {
        let bits = bytes * 8;
        // `RadioModel::tx_energy`, term for term: the electronics term
        // `E_elec·k` is the receive energy.
        let rx = net.radio().rx_energy(bits);
        let tx = rx + amp_per_bit * bits as f64;
        let jammed = self.link_blacked_out || self.in_outage(net, to);
        let (delivered, attempts) = 'hop: {
            for attempt in 1..=MAX_ATTEMPTS {
                if !net.drain(from, tx) {
                    break 'hop (false, attempt); // sender died mid-send
                }
                // Stochastic plan loss draws first (and only when configured),
                // so empty plans leave existing random streams untouched.
                let fault_dropped =
                    net.fault_plan().message_dropped(rng) || jammed || !net.is_alive(to);
                if !fault_dropped && net.link().delivered(rng) {
                    // A receiver that dies on reception takes the frame along.
                    break 'hop (net.drain(to, rx) || to == net.base(), attempt);
                }
            }
            (false, MAX_ATTEMPTS)
        };
        self.total_bytes += bytes * u64::from(attempts);
        self.retries += u64::from(attempts.saturating_sub(1));
        if delivered && to == net.base() {
            self.bytes_to_base += bytes;
        }
        (delivered, attempts)
    }

    /// `(total, hottest node)` joules spent since the meter opened: the sum
    /// and the maximum of the per-sensor battery differences, in id order.
    pub(crate) fn energy(&self, net: &SensorNetwork) -> (f64, f64) {
        let mut total = 0.0;
        let mut max = 0.0f64;
        for n in net.topology().nodes().filter(|&n| n != net.base()) {
            let spent = (self.start_remaining[n.idx()] - net.remaining_energy(n)).max(0.0);
            total += spent;
            max = max.max(spent);
        }
        (total, max)
    }

    /// The epoch's report: `merged` is what reached the base.
    pub(crate) fn close(
        self,
        net: &SensorNetwork,
        merged: Partial,
        agg: AggFn,
        latency: Duration,
        participating: usize,
    ) -> CollectionReport {
        let (energy_j, max_node_energy_j) = self.energy(net);
        CollectionReport {
            value: merged.finalize(agg),
            partial: merged,
            energy_j,
            max_node_energy_j,
            bytes_to_base: self.bytes_to_base,
            total_bytes: self.total_bytes,
            latency,
            cpu_ops: self.cpu_ops,
            participating,
            delivered: merged.count as usize,
            retries: self.retries,
        }
    }
}

/// **Direct collection**: every member samples and unicasts its raw reading
/// to the base station along the shortest path. No in-network computation.
///
/// TAG-style predicate push-down: a member whose reading fails `filter`
/// never transmits (the `WHERE temp > 40` selection happens at the sensing
/// site, saving the whole route's energy). Returns the report and the raw
/// `(sensor, value)` pairs that reached the base station — what the
/// Complex-query path ships onward to the base-station solver or the grid.
pub fn direct_collection<R: Rng>(
    net: &mut SensorNetwork,
    members: &[NodeId],
    field: &TemperatureField,
    t: SimTime,
    agg: AggFn,
    filter: &ValueFilter,
    rng: &mut R,
) -> (CollectionReport, Vec<(NodeId, f64)>) {
    let mut meter = Meter::open(net, field, t);
    let base = net.base();
    let slot = net.link().tx_time(READING_WIRE_BYTES);

    let mut merged = Partial::empty();
    let mut max_path = Duration::ZERO;
    let mut raw: Vec<(NodeId, f64)> = Vec::new();

    for &m in members {
        if m == base || !meter.is_up(net, m) {
            continue;
        }
        let reading = meter.sample(net, m, rng);
        if !filter.matches(reading) {
            continue; // predicate evaluated at the source: nothing transmits
        }
        if net.next_hop(m).is_none() {
            continue; // unreachable (m is not the base)
        }
        // Hop along the next-hop table: the shortest path a BFS from `m`
        // would return, with no path built.
        let mut path_time = Duration::ZERO;
        let mut u = m;
        let arrived = loop {
            let Some(v) = net.next_hop(u) else {
                break true; // at the base
            };
            // A dead (or crashed) sender silently breaks the route; the
            // member itself counts, as its sample's drain can kill it.
            if !meter.is_up(net, u) {
                break false;
            }
            let (ok, attempts) = meter.hop(net, u, v, READING_WIRE_BYTES, rng);
            path_time += slot.mul(attempts as u64);
            if !ok {
                break false;
            }
            u = v;
        };
        if arrived {
            merged.add(reading);
            raw.push((m, reading));
            meter.cpu_ops += MERGE_OPS; // base-side fold
            max_path = max_path.max(path_time);
        }
    }

    // Sink serialization backlog: all delivered readings cross the final
    // hop in sequence.
    let backlog = slot.mul(merged.count.saturating_sub(1));
    let participating = members.iter().filter(|&&m| m != base).count();
    let report = meter.close(net, merged, agg, max_path + backlog, participating);
    (report, raw)
}

/// **Tree aggregation** (TAG): partial states merge up the BFS spanning
/// tree; every involved node forwards one fixed-size partial per epoch.
///
/// With predicate push-down, readings failing `filter` never enter a
/// partial state (the node still forwards its children's partials — the
/// tree must stay connected).
pub fn tree_aggregation<R: Rng>(
    net: &mut SensorNetwork,
    members: &[NodeId],
    field: &TemperatureField,
    t: SimTime,
    agg: AggFn,
    filter: &ValueFilter,
    rng: &mut R,
) -> CollectionReport {
    let mut meter = Meter::open(net, field, t);
    let base = net.base();
    let tree = net.base_tree();
    let n = net.len();

    // Mark every node on some member->root path as involved.
    let mut involved = vec![false; n];
    let mut is_member = vec![false; n];
    let mut participating = 0usize;
    for &m in members {
        if m == base {
            continue;
        }
        participating += 1;
        is_member[m.idx()] = true;
        tree.mark_path_to_root(m, &mut involved);
    }

    let mut partials: Vec<Partial> = vec![Partial::empty(); n];
    let mut max_level = 0u32;

    // Members sample into their own partial.
    for id in net.topology().nodes() {
        if is_member[id.idx()] && meter.is_up(net, id) {
            let reading = meter.sample(net, id, rng);
            if filter.matches(reading) {
                partials[id.idx()].add(reading);
            }
        }
    }

    // Bottom-up: each involved non-root node merges children (already done
    // by the time it fires, thanks to the ordering) and sends to its parent.
    for &u in tree.bottom_up_order() {
        let state = partials[u.idx()];
        // Nothing to report upward, or a dead node: its subtree's
        // contribution dies here.
        if !involved[u.idx()] || u == base || state.count == 0 || !meter.is_up(net, u) {
            continue;
        }
        let Some(parent) = tree.parent[u.idx()] else {
            continue; // root-adjacent anomaly: nothing to forward to
        };
        let (ok, _) = meter.hop(net, u, parent, PARTIAL_WIRE_BYTES, rng);
        if ok {
            partials[parent.idx()].merge(&state);
            meter.cpu_ops += MERGE_OPS;
            max_level = max_level.max(tree.depth[u.idx()].unwrap_or(0));
        }
    }

    let latency = net.link().tx_time(PARTIAL_WIRE_BYTES).mul(max_level as u64);
    meter.close(net, partials[base.idx()], agg, latency, participating)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn direct_collects_every_reading_losslessly() {
        let mut net = lossless_net(4);
        let members = all_members(&net);
        let mut rng = StdRng::seed_from_u64(1);
        let r = direct_collection(
            &mut net,
            &members,
            &field(),
            SimTime::ZERO,
            AggFn::Avg,
            &ValueFilter::all(),
            &mut rng,
        )
        .0;
        assert_eq!(r.delivered, 15);
        assert_eq!(r.delivery_ratio(), 1.0);
        assert_eq!(r.value, Some(25.0));
        assert_eq!(r.bytes_to_base, 15 * READING_WIRE_BYTES);
        assert!(r.energy_j > 0.0);
        assert!(r.latency > Duration::ZERO);
    }

    #[test]
    fn tree_matches_direct_value_on_lossless_links() {
        let mut net_a = lossless_net(4);
        let mut net_b = lossless_net(4);
        let members = all_members(&net_a);
        let mut rng = StdRng::seed_from_u64(2);
        let d = direct_collection(
            &mut net_a,
            &members,
            &field(),
            SimTime::ZERO,
            AggFn::Avg,
            &ValueFilter::all(),
            &mut rng,
        )
        .0;
        let g = tree_aggregation(
            &mut net_b,
            &members,
            &field(),
            SimTime::ZERO,
            AggFn::Avg,
            &ValueFilter::all(),
            &mut rng,
        );
        // Noise-free calm field: both must compute exactly 25.0 over all 15.
        assert_eq!(d.value, g.value);
        assert_eq!(g.delivered, 15);
    }

    #[test]
    fn tree_ships_fewer_bytes_than_direct_on_large_networks() {
        let mut net_a = lossless_net(7);
        let mut net_b = lossless_net(7);
        let members = all_members(&net_a);
        let mut rng = StdRng::seed_from_u64(3);
        let d = direct_collection(
            &mut net_a,
            &members,
            &field(),
            SimTime::ZERO,
            AggFn::Avg,
            &ValueFilter::all(),
            &mut rng,
        )
        .0;
        let g = tree_aggregation(
            &mut net_b,
            &members,
            &field(),
            SimTime::ZERO,
            AggFn::Avg,
            &ValueFilter::all(),
            &mut rng,
        );
        assert!(
            g.total_bytes < d.total_bytes,
            "tree {} bytes vs direct {} bytes",
            g.total_bytes,
            d.total_bytes
        );
        assert!(g.energy_j < d.energy_j, "tree should save energy");
        // The sink receives one partial per tree child instead of n readings.
        let base_children = net_b.base_tree().children[net_b.base().idx()].len() as u64;
        assert_eq!(g.bytes_to_base, base_children * PARTIAL_WIRE_BYTES);
        assert!(g.bytes_to_base < d.bytes_to_base);
    }

    #[test]
    fn subset_membership_only_counts_members() {
        let mut net = lossless_net(4);
        let members = vec![NodeId(5), NodeId(6), NodeId(9)];
        let mut rng = StdRng::seed_from_u64(4);
        let r = tree_aggregation(
            &mut net,
            &members,
            &field(),
            SimTime::ZERO,
            AggFn::Count,
            &ValueFilter::all(),
            &mut rng,
        );
        assert_eq!(r.value, Some(3.0));
        assert_eq!(r.participating, 3);
    }

    #[test]
    fn lossy_links_lose_some_readings_but_never_inflate() {
        let topo = Topology::grid(5, 5, 10.0, 11.0);
        let mut net = SensorNetwork::new(
            topo,
            NodeId(0),
            RadioModel::mote(),
            LinkModel::new(250e3, Duration::from_millis(5), 0.4).unwrap(),
            50.0,
        );
        net.noise_sd = 0.0;
        let members = all_members(&net);
        let mut rng = StdRng::seed_from_u64(5);
        let r = direct_collection(
            &mut net,
            &members,
            &field(),
            SimTime::ZERO,
            AggFn::Count,
            &ValueFilter::all(),
            &mut rng,
        )
        .0;
        assert!(r.delivered <= 24);
        assert_eq!(r.value, Some(r.delivered as f64));
        // Retries must show up in total bytes.
        assert!(r.total_bytes > r.bytes_to_base);
    }

    #[test]
    fn dead_members_do_not_contribute() {
        let mut net = lossless_net(3);
        // Kill node 8 (corner).
        net.drain(NodeId(8), 1e9);
        let members = all_members(&net);
        let mut rng = StdRng::seed_from_u64(6);
        let r = tree_aggregation(
            &mut net,
            &members,
            &field(),
            SimTime::ZERO,
            AggFn::Count,
            &ValueFilter::all(),
            &mut rng,
        );
        assert_eq!(r.value, Some(7.0)); // 8 members - 1 dead
    }

    /// What the meter asked the fault plan when it opened is what
    /// `is_operational` answers at that instant — on both sides of both
    /// ends of every kind of window (they are half-open), for a sensor
    /// with a flat battery too.
    #[test]
    fn the_meters_view_is_the_fault_plans_answer_at_its_instant() {
        use pg_sim::fault::FaultPlan;
        let windows = [(30u64, 90u64), (40, 80), (50, 70)];
        let [crash, blackout, outage] =
            windows.map(|(s, e)| (SimTime::from_secs(s), SimTime::from_secs(e)));
        let plan = FaultPlan::builder(1)
            .node_crash(4, crash.0, crash.1)
            .node_crash(7, outage.0, outage.1)
            .link_blackout(blackout.0, blackout.1)
            .base_outage(outage.0, outage.1)
            .build()
            .unwrap();
        let mut net = lossless_net(3);
        net.set_fault_plan(plan.clone());
        net.drain(NodeId(2), 1e9);
        let calm = TemperatureField::calm(21.0);
        for edge in windows.iter().flat_map(|&(s, e)| [s, e]) {
            for ns in [edge * 1_000_000_000 - 1, edge * 1_000_000_000] {
                let t = SimTime::from_nanos(ns);
                let meter = Meter::open(&net, &calm, t);
                for id in net.topology().nodes() {
                    assert_eq!(
                        meter.is_up(&net, id),
                        net.is_operational(id, t),
                        "{id} at {t}"
                    );
                }
                assert_eq!(meter.link_blacked_out, plan.is_link_blacked_out(t), "{t}");
            }
        }
        // The windows were really crossed.
        let mid = Meter::open(&net, &calm, SimTime::from_secs(60));
        assert!(mid.link_blacked_out && !mid.is_up(&net, NodeId(0)));
        assert!(!mid.is_up(&net, NodeId(4)) && !mid.is_up(&net, NodeId(7)));
        assert!(!mid.is_up(&net, NodeId(2)) && mid.is_up(&net, NodeId(5)));
    }

    /// Every strategy bills through the one meter: on a lossy link the
    /// reported energy is the battery delta, and retries show up in the
    /// air bytes, not in what the base received.
    #[test]
    fn energy_totals_match_battery_drain() {
        use crate::cluster::{cluster_collection, cluster_summaries};
        for name in ["direct", "tree", "cluster", "summaries"] {
            let mut net = SensorNetwork::new(
                Topology::grid(5, 5, 10.0, 11.0),
                NodeId(0),
                RadioModel::mote(),
                LinkModel::new(250e3, Duration::from_millis(5), 0.3).unwrap(),
                50.0,
            );
            let (ms, f, t) = (all_members(&net), field(), SimTime::ZERO);
            let (n, all) = (&mut net, &ValueFilter::all());
            let rng = &mut StdRng::seed_from_u64(7);
            let before = n.total_consumed();
            let r = match name {
                "direct" => direct_collection(n, &ms, &f, t, AggFn::Sum, all, rng).0,
                "tree" => tree_aggregation(n, &ms, &f, t, AggFn::Sum, all, rng),
                "cluster" => cluster_collection(n, &ms, &f, t, AggFn::Sum, 2, all, rng),
                _ => cluster_summaries(n, &ms, &f, t, 2, rng).0,
            };
            let drained = n.total_consumed() - before;
            assert!((r.energy_j - drained).abs() < 1e-12, "{name}");
            assert!(r.max_node_energy_j > 0.0, "{name}");
            assert!(r.max_node_energy_j <= r.energy_j, "{name}");
            assert!(r.retries > 0, "{name}");
            assert!(r.bytes_to_base < r.total_bytes, "{name}");
        }
    }
}
