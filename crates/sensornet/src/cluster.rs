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
use crate::collect::{CollectionReport, MAX_ATTEMPTS, MERGE_OPS};
use crate::field::TemperatureField;
use crate::network::SensorNetwork;
use pg_net::topology::NodeId;
use pg_sim::SimTime;
use rand::Rng;

/// Default head fraction (LEACH's classic 5 %), with a floor of one head.
pub fn default_head_count(members: usize) -> usize {
    ((members as f64 * 0.05).ceil() as usize).max(1)
}

/// Elect `k` cluster heads among the live members: highest residual energy
/// first, node id as the deterministic tie-break.
// Battery energies come from a finite drain model, never NaN.
#[allow(clippy::expect_used)]
pub fn elect_heads(net: &SensorNetwork, members: &[NodeId], k: usize) -> Vec<NodeId> {
    let mut live: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|&m| m != net.base() && net.is_alive(m))
        .collect();
    live.sort_by(|&a, &b| {
        net.remaining_energy(b)
            .partial_cmp(&net.remaining_energy(a))
            .expect("battery energy is never NaN")
            .then(a.cmp(&b))
    });
    live.truncate(k.max(1));
    live
}

/// One epoch of cluster-based collection with `k` heads.
pub fn cluster_collection<R: Rng>(
    net: &mut SensorNetwork,
    members: &[NodeId],
    field: &TemperatureField,
    t: SimTime,
    agg: AggFn,
    k: usize,
    rng: &mut R,
) -> CollectionReport {
    cluster_collection_filtered(net, members, field, t, agg, k, &ValueFilter::all(), rng)
}

/// [`cluster_collection`] with predicate push-down: members whose readings
/// fail `filter` stay silent in the intra-cluster phase.
#[allow(clippy::too_many_arguments)]
pub fn cluster_collection_filtered<R: Rng>(
    net: &mut SensorNetwork,
    members: &[NodeId],
    field: &TemperatureField,
    t: SimTime,
    agg: AggFn,
    k: usize,
    filter: &ValueFilter,
    rng: &mut R,
) -> CollectionReport {
    let base = net.base();
    let start_total = net.total_consumed();
    let start_remaining: Vec<f64> = net
        .topology()
        .nodes()
        .map(|n| net.remaining_energy(n))
        .collect();

    let heads = elect_heads(net, members, k);
    let mut cpu_ops = 0u64;
    let mut total_bytes = 0u64;
    let mut bytes_to_base = 0u64;
    let mut retries = 0u64;
    let mut head_partials: Vec<Partial> = vec![Partial::empty(); heads.len()];
    let mut cluster_sizes = vec![0u64; heads.len()];
    let mut participating = 0usize;

    // Intra-cluster phase: members sample and send to their nearest head.
    for &m in members {
        if m == base || !net.is_operational(m, t) {
            continue;
        }
        participating += 1;
        let reading = net.sample(m, field, t, rng);
        cpu_ops += 50;
        if !filter.matches(reading) {
            continue; // predicate evaluated at the source
        }
        if let Some(hi) = heads.iter().position(|&h| h == m) {
            // Heads keep their own reading locally.
            head_partials[hi].add(reading);
            cluster_sizes[hi] += 1;
            continue;
        }
        // Nearest head by Euclidean distance (deterministic tie by order).
        // A plain loop, one distance per head: as a `min_by` comparator the
        // search cost 3× whenever the closure was not inlined, which
        // flipped with unrelated edits in the crate instantiating this.
        let mut nearest: Option<(usize, NodeId, f64)> = None;
        for (hi, &head) in heads.iter().enumerate() {
            let d = net.topology().distance(m, head);
            if nearest.is_none_or(|(_, _, best)| d < best) {
                nearest = Some((hi, head, d));
            }
        }
        let Some((hi, head, _)) = nearest else {
            continue;
        };
        let (ok, attempts) = try_long_hop(net, m, head, READING_WIRE_BYTES, t, rng);
        total_bytes += READING_WIRE_BYTES * attempts as u64;
        retries += u64::from(attempts.saturating_sub(1));
        if ok {
            head_partials[hi].add(reading);
            cpu_ops += MERGE_OPS;
            cluster_sizes[hi] += 1;
        }
    }

    // Inter-cluster phase: each head with data sends one partial to base.
    let mut merged = Partial::empty();
    for (hi, &h) in heads.iter().enumerate() {
        if head_partials[hi].count == 0 || !net.is_operational(h, t) {
            continue;
        }
        let (ok, attempts) = try_long_hop(net, h, base, PARTIAL_WIRE_BYTES, t, rng);
        total_bytes += PARTIAL_WIRE_BYTES * attempts as u64;
        retries += u64::from(attempts.saturating_sub(1));
        if ok {
            merged.merge(&head_partials[hi]);
            cpu_ops += MERGE_OPS;
            bytes_to_base += PARTIAL_WIRE_BYTES;
        }
    }

    // TDMA timing: largest cluster serializes member slots, then heads
    // serialize their uplink slots.
    let member_slot = net.link().expected_tx_time(READING_WIRE_BYTES);
    let head_slot = net.link().expected_tx_time(PARTIAL_WIRE_BYTES);
    let biggest = cluster_sizes.iter().copied().max().unwrap_or(0);
    let latency = member_slot.mul(biggest) + head_slot.mul(heads.len() as u64);

    let mut energy_j = net.total_consumed() - start_total;
    if energy_j < 0.0 {
        energy_j = 0.0;
    }
    let mut max_node = 0.0f64;
    for n in net.topology().nodes() {
        if n == base {
            continue;
        }
        let spent = (start_remaining[n.idx()] - net.remaining_energy(n)).max(0.0);
        max_node = max_node.max(spent);
    }

    CollectionReport {
        value: merged.finalize(agg),
        partial: merged,
        energy_j,
        max_node_energy_j: max_node,
        bytes_to_base,
        total_bytes,
        latency,
        cpu_ops,
        participating,
        delivered: merged.count as usize,
        retries,
    }
}

/// Cluster-based collection that additionally returns one spatial summary
/// per cluster head that reached the base: the centroid of the cluster's
/// delivered members and their mean reading.
///
/// This is the in-network half of §4's "combination of the approaches":
/// clusters perform the data reduction ("send the average reading from a
/// region"), and the summaries — not raw readings — travel onward to the
/// grid for the heavy computation.
// Distances are never NaN (finite coordinates) and a summary is only
// emitted for clusters whose partial has count > 0.
#[allow(clippy::expect_used)]
pub fn cluster_summaries<R: Rng>(
    net: &mut SensorNetwork,
    members: &[NodeId],
    field: &TemperatureField,
    t: SimTime,
    k: usize,
    rng: &mut R,
) -> (CollectionReport, Vec<(pg_net::geom::Point, f64)>) {
    let base = net.base();
    let start_total = net.total_consumed();
    let start_remaining: Vec<f64> = net
        .topology()
        .nodes()
        .map(|n| net.remaining_energy(n))
        .collect();

    let heads = elect_heads(net, members, k);
    let mut cpu_ops = 0u64;
    let mut total_bytes = 0u64;
    let mut bytes_to_base = 0u64;
    let mut retries = 0u64;
    // Per cluster: partial over values + centroid accumulator (x, y, z, n).
    let mut partials: Vec<Partial> = vec![Partial::empty(); heads.len()];
    let mut centroids: Vec<(f64, f64, f64, u64)> = vec![(0.0, 0.0, 0.0, 0); heads.len()];
    let mut cluster_sizes = vec![0u64; heads.len()];
    let mut participating = 0usize;

    for &m in members {
        if m == base || !net.is_operational(m, t) {
            continue;
        }
        participating += 1;
        let reading = net.sample(m, field, t, rng);
        cpu_ops += 50;
        let hi = if let Some(hi) = heads.iter().position(|&h| h == m) {
            Some(hi) // heads keep their own reading locally
        } else {
            let target = heads.iter().copied().enumerate().min_by(|(_, a), (_, b)| {
                net.topology()
                    .distance(m, *a)
                    .partial_cmp(&net.topology().distance(m, *b))
                    .expect("distances are never NaN")
            });
            match target {
                Some((hi, head)) => {
                    let (ok, attempts) = try_long_hop(net, m, head, READING_WIRE_BYTES, t, rng);
                    total_bytes += READING_WIRE_BYTES * attempts as u64;
                    retries += u64::from(attempts.saturating_sub(1));
                    if ok {
                        cpu_ops += MERGE_OPS;
                        Some(hi)
                    } else {
                        None
                    }
                }
                None => None,
            }
        };
        if let Some(hi) = hi {
            partials[hi].add(reading);
            let p = net.topology().position(m);
            centroids[hi].0 += p.x;
            centroids[hi].1 += p.y;
            centroids[hi].2 += p.z;
            centroids[hi].3 += 1;
            cluster_sizes[hi] += 1;
        }
    }

    // Summary record on the wire: centroid (3×8) + mean (8) = 32 bytes.
    const SUMMARY_WIRE_BYTES: u64 = 32;
    let mut merged = Partial::empty();
    let mut summaries = Vec::new();
    for (hi, &h) in heads.iter().enumerate() {
        if partials[hi].count == 0 || !net.is_operational(h, t) {
            continue;
        }
        let (ok, attempts) = try_long_hop(net, h, base, SUMMARY_WIRE_BYTES, t, rng);
        total_bytes += SUMMARY_WIRE_BYTES * attempts as u64;
        retries += u64::from(attempts.saturating_sub(1));
        if ok {
            merged.merge(&partials[hi]);
            cpu_ops += MERGE_OPS;
            bytes_to_base += SUMMARY_WIRE_BYTES;
            let (sx, sy, sz, n) = centroids[hi];
            let n = n as f64;
            summaries.push((
                pg_net::geom::Point::new(sx / n, sy / n, sz / n),
                partials[hi]
                    .finalize(AggFn::Avg)
                    .expect("non-empty cluster"),
            ));
        }
    }

    let member_slot = net.link().expected_tx_time(READING_WIRE_BYTES);
    let head_slot = net.link().expected_tx_time(SUMMARY_WIRE_BYTES);
    let biggest = cluster_sizes.iter().copied().max().unwrap_or(0);
    let latency = member_slot.mul(biggest) + head_slot.mul(heads.len() as u64);

    let energy_j = (net.total_consumed() - start_total).max(0.0);
    let mut max_node = 0.0f64;
    for n in net.topology().nodes() {
        if n == base {
            continue;
        }
        let spent = (start_remaining[n.idx()] - net.remaining_energy(n)).max(0.0);
        max_node = max_node.max(spent);
    }

    (
        CollectionReport {
            value: merged.finalize(AggFn::Avg),
            partial: merged,
            energy_j,
            max_node_energy_j: max_node,
            bytes_to_base,
            total_bytes,
            latency,
            cpu_ops,
            participating,
            delivered: merged.count as usize,
            retries,
        },
        summaries,
    )
}

/// A single-hop transmission that may exceed the normal radio range (the
/// long-range amplifier pays the d²/d⁴ price); bounded retries.
///
/// Fault semantics mirror [`collect`](crate::collect)'s multi-hop variant:
/// the sender always pays the transmit energy, then injected loss, link
/// blackouts, and a non-operational receiver each kill the attempt.
fn try_long_hop<R: Rng>(
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
            return (false, attempt);
        }
        let fault_dropped = {
            // Plan-level loss draws first (and only when configured), so
            // empty plans leave existing random streams untouched.
            let dropped = net.fault_plan().message_dropped(rng);
            dropped || net.fault_plan().is_link_blacked_out(t) || !net.is_operational(to, t)
        };
        if !fault_dropped && net.link().delivered(rng) {
            let rx = net.radio().rx_energy(bits);
            if !net.drain(to, rx) && to != net.base() {
                return (false, attempt);
            }
            return (true, attempt);
        }
    }
    (false, MAX_ATTEMPTS)
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
        let r1 = cluster_collection(&mut n1, &ms, &f, SimTime::ZERO, AggFn::Avg, 1, &mut rng);
        let mut n8 = net();
        let r8 = cluster_collection(&mut n8, &ms, &f, SimTime::ZERO, AggFn::Avg, 8, &mut rng);
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

    #[test]
    fn energy_matches_battery_accounting() {
        let mut n = net();
        let ms = members(&n);
        let before = n.total_consumed();
        let mut rng = StdRng::seed_from_u64(3);
        let r = cluster_collection(
            &mut n,
            &ms,
            &TemperatureField::calm(20.0),
            SimTime::ZERO,
            AggFn::Sum,
            2,
            &mut rng,
        );
        assert!((r.energy_j - (n.total_consumed() - before)).abs() < 1e-12);
    }
}
