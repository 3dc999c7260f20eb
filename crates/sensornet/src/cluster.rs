//! Cluster-based collection (LEACH-style).
//!
//! §4: "Cluster based models can enable the computation to be carried out in
//! the sensor network. Sensors are divided into clusters and each cluster
//! has a cluster head. Cluster heads aggregate information from the sensors
//! in individual clusters and send it to the base station."
//!
//! Head election is energy-aware and deterministic: the `k` live members
//! with the most residual energy become heads (ties broken by node id), the
//! rotation LEACH approximates stochastically. Members transmit their raw
//! reading to the nearest head in a single (possibly long) hop; heads merge
//! and send one partial state directly to the base station using the
//! long-range amplifier — exactly the two-tier pattern of the paper's
//! description.

use crate::aggregate::{AggFn, Partial, ValueFilter, PARTIAL_WIRE_BYTES, READING_WIRE_BYTES};
use crate::collect::{CollectionReport, Meter, MERGE_OPS};
use crate::field::TemperatureField;
use crate::network::SensorNetwork;
use pg_net::geom::Point;
use pg_net::topology::NodeId;
use pg_sim::SimTime;
use rand::Rng;

/// Default head fraction (LEACH's classic 5 %), with a floor of one head.
pub fn default_head_count(members: usize) -> usize {
    ((members as f64 * 0.05).ceil() as usize).max(1)
}

/// Elect `k` cluster heads among the live members: highest residual energy
/// first, node id as the deterministic tie-break.
pub fn elect_heads(net: &SensorNetwork, members: &[NodeId], k: usize) -> Vec<NodeId> {
    let mut live: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|&m| m != net.base() && net.is_alive(m))
        .collect();
    let order = |&a: &NodeId, &b: &NodeId| {
        net.remaining_energy(b)
            .total_cmp(&net.remaining_energy(a))
            .then(a.cmp(&b))
    };
    // Ids make the order total, so the k selected, then sorted, are the
    // first k of the whole sorted list.
    let k = k.max(1);
    if live.len() > k {
        live.select_nth_unstable_by(k - 1, order);
        live.truncate(k);
    }
    live.sort_unstable_by(order);
    live
}

/// One epoch of cluster-based collection with `k` heads, with predicate
/// push-down: members whose readings fail `filter` stay silent in the
/// intra-cluster phase.
#[allow(clippy::too_many_arguments)]
pub fn cluster_collection<R: Rng>(
    net: &mut SensorNetwork,
    members: &[NodeId],
    field: &TemperatureField,
    t: SimTime,
    agg: AggFn,
    k: usize,
    filter: &ValueFilter,
    rng: &mut R,
) -> CollectionReport {
    let uplink = PARTIAL_WIRE_BYTES;
    cluster_epoch(net, members, field, t, agg, k, filter, uplink, rng).0
}

/// Cluster-based collection that additionally returns one spatial summary
/// per cluster head that reached the base: the centroid of the cluster's
/// delivered members and their mean reading.
///
/// This is the in-network half of §4's "combination of the approaches":
/// clusters perform the data reduction ("send the average reading from a
/// region"), and the summaries — not raw readings — travel onward to the
/// grid for the heavy computation.
pub fn cluster_summaries<R: Rng>(
    net: &mut SensorNetwork,
    members: &[NodeId],
    field: &TemperatureField,
    t: SimTime,
    k: usize,
    rng: &mut R,
) -> (CollectionReport, Vec<(Point, f64)>) {
    // Summary record on the wire: centroid (3×8) + mean (8) = 32 bytes.
    const SUMMARY_WIRE_BYTES: u64 = 32;
    let (all, uplink) = (ValueFilter::all(), SUMMARY_WIRE_BYTES);
    cluster_epoch(net, members, field, t, AggFn::Avg, k, &all, uplink, rng)
}

/// The two-tier epoch: members send their reading to the nearest head in
/// one (possibly long) hop, then every head with data sends `uplink_bytes`
/// to the base. Returns the report and one `(centroid, mean)` per cluster
/// that reached the base.
#[allow(clippy::too_many_arguments)]
fn cluster_epoch<R: Rng>(
    net: &mut SensorNetwork,
    members: &[NodeId],
    field: &TemperatureField,
    t: SimTime,
    agg: AggFn,
    k: usize,
    filter: &ValueFilter,
    uplink_bytes: u64,
    rng: &mut R,
) -> (CollectionReport, Vec<(Point, f64)>) {
    let base = net.base();
    let consumed_before = net.total_consumed();
    let mut meter = Meter::open(net, field, t);

    let heads = elect_heads(net, members, k);
    // Per cluster: the partial over delivered readings and the sum of their
    // positions (the partial's count is the cluster's size).
    let mut partials: Vec<Partial> = vec![Partial::empty(); heads.len()];
    let mut position_sums = vec![(0.0, 0.0, 0.0); heads.len()];
    let mut participating = 0usize;

    // Intra-cluster phase: members sample and send to their nearest head.
    for &m in members {
        if m == base || !meter.is_up(net, m) {
            continue;
        }
        participating += 1;
        let reading = meter.sample(net, m, rng);
        if !filter.matches(reading) {
            continue; // predicate evaluated at the source
        }
        let hi = match heads.iter().position(|&h| h == m) {
            Some(hi) => hi, // heads keep their own reading locally
            None => {
                // Nearest head by Euclidean distance, the first of equals
                // (`m` is alive, so there is one). A plain loop: as a
                // `min_by` comparator the search cost 3× whenever the
                // closure was not inlined, which flipped with unrelated
                // edits in the crate instantiating this.
                let (mut hi, mut best) = (0, f64::INFINITY);
                for (i, &head) in heads.iter().enumerate() {
                    let d = net.topology().distance(m, head);
                    if d < best {
                        (hi, best) = (i, d);
                    }
                }
                if !meter.hop(net, m, heads[hi], READING_WIRE_BYTES, rng).0 {
                    continue;
                }
                meter.cpu_ops += MERGE_OPS;
                hi
            }
        };
        partials[hi].add(reading);
        let p = net.topology().position(m);
        position_sums[hi].0 += p.x;
        position_sums[hi].1 += p.y;
        position_sums[hi].2 += p.z;
    }

    // Inter-cluster phase: each head with data sends one record to base.
    let mut merged = Partial::empty();
    let mut summaries = Vec::new();
    for (hi, &h) in heads.iter().enumerate() {
        let sends = partials[hi].count > 0 && meter.is_up(net, h);
        if sends && meter.hop(net, h, base, uplink_bytes, rng).0 {
            merged.merge(&partials[hi]);
            meter.cpu_ops += MERGE_OPS;
            if let Some(mean) = partials[hi].finalize(AggFn::Avg) {
                let (sx, sy, sz) = position_sums[hi];
                let n = partials[hi].count as f64;
                summaries.push((Point::new(sx / n, sy / n, sz / n), mean));
            }
        }
    }

    // TDMA timing: largest cluster serializes member slots, then heads
    // serialize their uplink slots.
    let member_slot = net.link().expected_tx_time(READING_WIRE_BYTES);
    let head_slot = net.link().expected_tx_time(uplink_bytes);
    let biggest = partials.iter().map(|p| p.count).max().unwrap_or(0);
    let latency = member_slot.mul(biggest) + head_slot.mul(heads.len() as u64);

    let mut report = meter.close(net, merged, agg, latency, participating);
    // Cluster epochs have always reported the network-wide difference of
    // sums, not the meter's sum of per-node differences: the two round
    // differently, and T1/T2/T8/T12 and `tests/fire_golden.rs` pin these
    // bits. Only the hottest-node figure is the meter's.
    report.energy_j = (net.total_consumed() - consumed_before).max(0.0);
    (report, summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_net::energy::RadioModel;
    use pg_net::link::LinkModel;
    use pg_net::topology::Topology;
    use pg_sim::Duration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> SensorNetwork {
        let topo = Topology::grid(5, 5, 10.0, 11.0);
        let mut n = SensorNetwork::new(
            topo,
            NodeId(0),
            RadioModel::mote(),
            LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap(),
            50.0,
        );
        n.noise_sd = 0.0;
        n
    }

    fn members(n: &SensorNetwork) -> Vec<NodeId> {
        n.topology().nodes().filter(|&x| x != n.base()).collect()
    }

    #[test]
    fn collects_exact_average_losslessly() {
        let mut n = net();
        let ms = members(&n);
        let mut rng = StdRng::seed_from_u64(1);
        let r = cluster_collection(
            &mut n,
            &ms,
            &TemperatureField::calm(30.0),
            SimTime::ZERO,
            AggFn::Avg,
            3,
            &ValueFilter::all(),
            &mut rng,
        );
        assert_eq!(r.delivered, 24);
        assert_eq!(r.value, Some(30.0));
        assert_eq!(r.bytes_to_base, 3 * PARTIAL_WIRE_BYTES);
    }

    #[test]
    fn head_election_prefers_energy_then_id() {
        let mut n = net();
        n.drain(NodeId(1), 10.0); // node 1 now lower energy
        let ms = members(&n);
        let heads = elect_heads(&n, &ms, 23);
        // All 24 members alive but k=23: the drained node must be excluded.
        assert_eq!(heads.len(), 23);
        assert!(!heads.contains(&NodeId(1)));
        // Full-energy ties break by id: with n1 drained, n2 leads.
        assert_eq!(heads[0], NodeId(2));
    }

    /// Election as it was before it became a selection: stably sort every
    /// live member, then keep the first `k` (at least one).
    fn sort_then_truncate(net: &SensorNetwork, members: &[NodeId], k: usize) -> Vec<NodeId> {
        let mut live: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&m| m != net.base() && net.is_alive(m))
            .collect();
        live.sort_by(|&a, &b| {
            net.remaining_energy(b)
                .total_cmp(&net.remaining_energy(a))
                .then(a.cmp(&b))
        });
        live.truncate(k.max(1));
        live
    }

    #[test]
    fn selected_heads_are_the_sorted_prefix() {
        propcheck::check("selected_heads_are_the_sorted_prefix", 128, |g| {
            let mut n = net();
            // Four drain levels force equal-energy ties; the fifth kills.
            for id in 1..n.len() as u32 {
                let level = g.range(0..5u32);
                n.drain(
                    NodeId(id),
                    [0.0, 1.5, 1.5 + 1e-9, 20.0, 1e9][level as usize],
                );
            }
            // Members in drawn order, the base and repeats allowed.
            let ms = g.vec(0..40, |g| NodeId(g.range(0..n.len() as u32)));
            let live = sort_then_truncate(&n, &ms, usize::MAX).len();
            for k in [0, 1, live.saturating_sub(1), live, live + 5] {
                assert_eq!(
                    elect_heads(&n, &ms, k),
                    sort_then_truncate(&n, &ms, k),
                    "k = {k}"
                );
            }
        });
    }

    #[test]
    fn dead_nodes_cannot_be_heads() {
        let mut n = net();
        n.drain(NodeId(7), 1e9);
        let ms = members(&n);
        let heads = elect_heads(&n, &ms, 24);
        assert_eq!(heads.len(), 23);
        assert!(!heads.contains(&NodeId(7)));
    }

    #[test]
    fn head_count_floor_is_one() {
        assert_eq!(default_head_count(1), 1);
        assert_eq!(default_head_count(24), 2);
        assert_eq!(default_head_count(400), 20);
    }

    #[test]
    fn more_heads_means_shorter_member_phase() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = TemperatureField::calm(20.0);
        let mut n1 = net();
        let ms = members(&n1);
        let r1 = cluster_collection(
            &mut n1,
            &ms,
            &f,
            SimTime::ZERO,
            AggFn::Avg,
            1,
            &ValueFilter::all(),
            &mut rng,
        );
        let mut n8 = net();
        let r8 = cluster_collection(
            &mut n8,
            &ms,
            &f,
            SimTime::ZERO,
            AggFn::Avg,
            8,
            &ValueFilter::all(),
            &mut rng,
        );
        assert!(r8.latency < r1.latency, "{} !< {}", r8.latency, r1.latency);
    }

    #[test]
    fn summaries_cover_all_members_losslessly() {
        let mut n = net();
        let ms = members(&n);
        let mut rng = StdRng::seed_from_u64(9);
        let (report, summaries) = cluster_summaries(
            &mut n,
            &ms,
            &TemperatureField::calm(25.0),
            SimTime::ZERO,
            4,
            &mut rng,
        );
        assert_eq!(report.delivered, 24);
        assert_eq!(summaries.len(), 4);
        // Weighted mean of cluster means equals the global mean; with a
        // calm noise-free field every summary is exactly ambient.
        for (_, mean) in &summaries {
            assert!((mean - 25.0).abs() < 1e-9);
        }
        // Centroids lie inside the deployment hull.
        for (c, _) in &summaries {
            assert!((0.0..=40.0).contains(&c.x) && (0.0..=40.0).contains(&c.y));
        }
        // The uplink ships 32-byte summaries, not 40-byte partials.
        assert_eq!(report.bytes_to_base, 4 * 32);
    }
}
