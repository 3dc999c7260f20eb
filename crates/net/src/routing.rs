//! Data routing techniques and their cost accounting.
//!
//! §4: "The data routing technique used in the network would not be the same
//! for all networks. A particular network may use flooding technique to
//! route data, while another may use gossiping." Experiment T11 compares
//! flooding, gossiping, and tree (shortest-path) routing on identical
//! workloads; this module provides the three primitives plus energy/time
//! accounting along routes.

use crate::energy::RadioModel;
use crate::link::LinkModel;
use crate::topology::{NodeId, Topology};
use rand::Rng;

/// Which dissemination/collection technique a network uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Protocol {
    /// Every node rebroadcasts each new packet exactly once.
    Flooding,
    /// Every node rebroadcasts each new packet with probability `p`.
    Gossip {
        /// Forwarding probability in `(0, 1]`.
        p: f64,
    },
    /// Packets follow the BFS spanning tree toward the sink.
    Tree,
}

/// Outcome of disseminating one packet through the network.
#[derive(Debug, Clone)]
pub struct Dissemination {
    /// How many nodes transmitted (≥ 1 when the source transmits).
    pub transmissions: u64,
    /// How many point-to-point receptions occurred (edge activations).
    pub receptions: u64,
    /// Which nodes ended up holding the packet.
    pub reached: Vec<bool>,
}

impl Dissemination {
    /// Fraction of all nodes reached.
    pub fn coverage(&self) -> f64 {
        let n = self.reached.len();
        self.reached.iter().filter(|&&r| r).count() as f64 / n as f64
    }

    /// Radio energy spent network-wide for a `bytes`-sized packet: every
    /// transmission pays `tx` at the full radio range (broadcast), every
    /// reception pays `rx`.
    pub fn energy(&self, bytes: u64, radio: &RadioModel, range: f64) -> f64 {
        let bits = bytes * 8;
        self.transmissions as f64 * radio.tx_energy(bits, range)
            + self.receptions as f64 * radio.rx_energy(bits)
    }
}

/// Flood `packet` from `src`: every node that first receives it rebroadcasts
/// once. Each link crossing is subject to the link's loss probability.
pub fn flood<R: Rng>(topo: &Topology, src: NodeId, link: &LinkModel, rng: &mut R) -> Dissemination {
    disseminate(topo, src, link, rng, |_| true)
}

/// Gossip from `src` with forwarding probability `p`: like flooding but each
/// non-source node rebroadcasts only with probability `p`.
///
/// # Panics
/// Panics when `p` is outside `(0, 1]`.
pub fn gossip<R: Rng>(
    topo: &Topology,
    src: NodeId,
    p: f64,
    link: &LinkModel,
    rng: &mut R,
) -> Dissemination {
    assert!(p > 0.0 && p <= 1.0, "gossip probability out of range: {p}");
    disseminate(topo, src, link, rng, |rng| rng.gen::<f64>() < p)
}

/// Common flood/gossip engine. `forward` decides, per *non-source* node that
/// first receives the packet, whether it rebroadcasts.
fn disseminate<R: Rng>(
    topo: &Topology,
    src: NodeId,
    link: &LinkModel,
    rng: &mut R,
    mut forward: impl FnMut(&mut R) -> bool,
) -> Dissemination {
    let n = topo.len();
    let mut reached = vec![false; n];
    reached[src.idx()] = true;
    let mut transmissions = 0u64;
    let mut receptions = 0u64;
    // Frontier of nodes that decided to (re)broadcast.
    let mut frontier = vec![src];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for u in frontier {
            transmissions += 1;
            for &v in topo.neighbors(u) {
                if link.delivered(rng) {
                    receptions += 1;
                    if !reached[v.idx()] {
                        reached[v.idx()] = true;
                        if forward(rng) {
                            next.push(v);
                        }
                    }
                }
            }
        }
        frontier = next;
    }
    Dissemination {
        transmissions,
        receptions,
        reached,
    }
}

impl Protocol {
    /// Disseminate one packet from `src` under this protocol and return the
    /// outcome. For [`Protocol::Tree`] the packet is unicast hop-by-hop to
    /// every node along the spanning tree from `src` (i.e. a tree-based
    /// broadcast), which keeps the three protocols comparable on the same
    /// "reach the network" task used by experiment T11.
    pub fn disseminate<R: Rng>(
        &self,
        topo: &Topology,
        src: NodeId,
        link: &LinkModel,
        rng: &mut R,
    ) -> Dissemination {
        match *self {
            Protocol::Flooding => flood(topo, src, link, rng),
            Protocol::Gossip { p } => gossip(topo, src, p, link, rng),
            Protocol::Tree => {
                let tree = topo.spanning_tree(src);
                let mut reached = vec![false; topo.len()];
                reached[src.idx()] = true;
                let mut transmissions = 0;
                let mut receptions = 0;
                // Parents forward down the tree; each edge is retried until
                // delivered or a bounded number of attempts fails.
                const MAX_ATTEMPTS: u32 = 8;
                for &u in tree.bottom_up_order().iter().rev() {
                    if !reached[u.idx()] {
                        continue; // subtree cut off by a failed edge
                    }
                    for &c in &tree.children[u.idx()] {
                        for _ in 0..MAX_ATTEMPTS {
                            transmissions += 1;
                            if link.delivered(rng) {
                                receptions += 1;
                                reached[c.idx()] = true;
                                break;
                            }
                        }
                    }
                }
                Dissemination {
                    transmissions,
                    receptions,
                    reached,
                }
            }
        }
    }

    /// Human-readable protocol name for experiment tables.
    pub fn name(&self) -> String {
        match self {
            Protocol::Flooding => "flooding".into(),
            Protocol::Gossip { p } => format!("gossip(p={p})"),
            Protocol::Tree => "tree".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_sim::Duration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lossless() -> LinkModel {
        LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap()
    }

    fn grid_topo() -> Topology {
        Topology::grid(5, 5, 10.0, 10.5)
    }

    #[test]
    fn flood_reaches_whole_connected_network() {
        let t = grid_topo();
        let mut rng = StdRng::seed_from_u64(1);
        let d = flood(&t, NodeId(0), &lossless(), &mut rng);
        assert_eq!(d.coverage(), 1.0);
        // Every node broadcasts exactly once under lossless flooding.
        assert_eq!(d.transmissions, 25);
        // Every directed edge delivers exactly once: 2 * edge_count.
        assert_eq!(d.receptions, 2 * t.edge_count() as u64);
    }

    #[test]
    fn gossip_low_p_reaches_fewer_and_transmits_less() {
        let t = grid_topo();
        let mut rng = StdRng::seed_from_u64(2);
        let mut cov_low = 0.0;
        let mut tx_low = 0u64;
        let mut tx_full = 0u64;
        for _ in 0..50 {
            let g = gossip(&t, NodeId(12), 0.3, &lossless(), &mut rng);
            cov_low += g.coverage();
            tx_low += g.transmissions;
            tx_full += flood(&t, NodeId(12), &lossless(), &mut rng).transmissions;
        }
        assert!(cov_low / 50.0 < 1.0, "p=0.3 should sometimes miss nodes");
        assert!(tx_low < tx_full, "gossip must transmit less than flooding");
    }

    #[test]
    fn gossip_p1_equals_flooding() {
        let t = grid_topo();
        let mut rng = StdRng::seed_from_u64(3);
        let g = gossip(&t, NodeId(0), 1.0, &lossless(), &mut rng);
        assert_eq!(g.coverage(), 1.0);
        assert_eq!(g.transmissions, 25);
    }

    #[test]
    fn tree_broadcast_uses_fewest_receptions() {
        let t = grid_topo();
        let mut rng = StdRng::seed_from_u64(4);
        let d = Protocol::Tree.disseminate(&t, NodeId(0), &lossless(), &mut rng);
        assert_eq!(d.coverage(), 1.0);
        // Tree delivery: exactly n-1 receptions, strictly fewer than flood.
        assert_eq!(d.receptions, 24);
        let f = flood(&t, NodeId(0), &lossless(), &mut rng);
        assert!(d.receptions < f.receptions);
    }

    #[test]
    fn lossy_flood_may_miss_but_never_double_counts() {
        let t = grid_topo();
        let link = LinkModel::new(250e3, Duration::from_millis(5), 0.6).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let d = flood(&t, NodeId(12), &link, &mut rng);
            assert!(d.transmissions <= 25);
            assert!(d.coverage() <= 1.0 && d.coverage() > 0.0);
        }
    }

    #[test]
    fn dissemination_energy_accounting() {
        let d = Dissemination {
            transmissions: 10,
            receptions: 20,
            reached: vec![true; 5],
        };
        let radio = RadioModel::mote();
        let e = d.energy(100, &radio, 30.0);
        let expect = 10.0 * radio.tx_energy(800, 30.0) + 20.0 * radio.rx_energy(800);
        assert!((e - expect).abs() < 1e-15);
    }
}
