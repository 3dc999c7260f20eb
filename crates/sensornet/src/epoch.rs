//! Continuous (EPOCH) query execution and network-lifetime accounting.
//!
//! §4's fourth query class: "Continuous/Windowed Queries: … 'Return
//! temperature at Sensor #10 every 10 seconds'" with the `EPOCH DURATION i`
//! clause. This module repeats a collection strategy once per epoch while
//! batteries drain, recording when the first sensor dies (the standard
//! network-lifetime metric) and how result quality degrades.

use crate::aggregate::AggFn;
use crate::cluster::cluster_collection;
use crate::collect::{direct_collection, tree_aggregation, CollectionReport};
use crate::field::TemperatureField;
use crate::network::SensorNetwork;
use pg_net::topology::NodeId;
use pg_sim::{Duration, SimTime};
use rand::Rng;

/// Which in-network solution model executes each epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Raw readings unicast to the base station.
    Direct,
    /// TAG-style partial-state aggregation up the spanning tree.
    Tree,
    /// LEACH-style two-tier clustering with `heads` cluster heads.
    Cluster {
        /// Number of cluster heads per epoch.
        heads: usize,
    },
}

impl Strategy {
    /// Execute one epoch of this strategy at simulated instant `t`.
    pub fn run_epoch<R: Rng>(
        &self,
        net: &mut SensorNetwork,
        members: &[NodeId],
        field: &TemperatureField,
        t: SimTime,
        agg: AggFn,
        rng: &mut R,
    ) -> CollectionReport {
        match *self {
            Strategy::Direct => direct_collection(net, members, field, t, agg, rng),
            Strategy::Tree => tree_aggregation(net, members, field, t, agg, rng),
            Strategy::Cluster { heads } => {
                cluster_collection(net, members, field, t, agg, heads, rng)
            }
        }
    }

    /// Table-friendly name.
    pub fn name(&self) -> String {
        match self {
            Strategy::Direct => "direct".into(),
            Strategy::Tree => "tree".into(),
            Strategy::Cluster { heads } => format!("cluster(k={heads})"),
        }
    }
}

/// Outcome of a continuous query run to (at most) `max_epochs`.
#[derive(Debug, Clone)]
pub struct LifetimeReport {
    /// Epochs actually executed.
    pub epochs_run: usize,
    /// Epoch index at which the first sensor died, if any.
    pub first_death_epoch: Option<usize>,
    /// Epoch index at which results stopped arriving entirely, if any.
    pub blackout_epoch: Option<usize>,
    /// Total network energy over the run, joules.
    pub total_energy_j: f64,
    /// Mean per-epoch delivery ratio.
    pub mean_delivery: f64,
    /// Mean per-epoch latency.
    pub mean_latency: Duration,
    /// Per-epoch answered values (None where nothing arrived).
    pub values: Vec<Option<f64>>,
}

/// Run a continuous aggregate query: one collection per `epoch` interval,
/// for up to `max_epochs` epochs or until the network blacks out.
#[allow(clippy::too_many_arguments)]
pub fn run_continuous<R: Rng>(
    net: &mut SensorNetwork,
    members: &[NodeId],
    field: &TemperatureField,
    agg: AggFn,
    strategy: Strategy,
    epoch: Duration,
    max_epochs: usize,
    rng: &mut R,
) -> LifetimeReport {
    let mut t = SimTime::ZERO;
    let mut values = Vec::with_capacity(max_epochs);
    let mut first_death = None;
    let mut blackout = None;
    let mut total_energy = 0.0;
    let mut delivery_sum = 0.0;
    let mut latency_sum = Duration::ZERO;

    for e in 0..max_epochs {
        let r = strategy.run_epoch(net, members, field, t, agg, rng);
        total_energy += r.energy_j;
        delivery_sum += r.delivery_ratio();
        latency_sum += r.latency;
        values.push(r.value);

        if first_death.is_none() && net.alive_sensors() < net.len() - 1 {
            first_death = Some(e);
        }
        if r.value.is_none() {
            blackout = Some(e);
            break;
        }
        // Idle-listening cost for the remainder of the epoch.
        net.idle_listen(epoch.as_secs_f64());
        t += epoch;
    }

    let n = values.len().max(1);
    LifetimeReport {
        epochs_run: values.len(),
        first_death_epoch: first_death,
        blackout_epoch: blackout,
        total_energy_j: total_energy,
        mean_delivery: delivery_sum / n as f64,
        mean_latency: Duration::from_nanos(latency_sum.as_nanos() / n as u64),
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_net::energy::RadioModel;
    use pg_net::link::LinkModel;
    use pg_net::topology::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(battery_j: f64) -> SensorNetwork {
        let topo = Topology::grid(4, 4, 10.0, 11.0);
        let mut n = SensorNetwork::new(
            topo,
            NodeId(0),
            RadioModel::mote(),
            LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap(),
            battery_j,
        );
        n.noise_sd = 0.0;
        n
    }

    fn members(n: &SensorNetwork) -> Vec<NodeId> {
        n.topology().nodes().filter(|&x| x != n.base()).collect()
    }

    #[test]
    fn healthy_network_answers_every_epoch() {
        let mut n = small_net(100.0);
        let ms = members(&n);
        let mut rng = StdRng::seed_from_u64(1);
        let r = run_continuous(
            &mut n,
            &ms,
            &TemperatureField::calm(22.0),
            AggFn::Avg,
            Strategy::Tree,
            Duration::from_secs(10),
            20,
            &mut rng,
        );
        assert_eq!(r.epochs_run, 20);
        assert_eq!(r.first_death_epoch, None);
        assert_eq!(r.blackout_epoch, None);
        assert!(r.values.iter().all(|v| v == &Some(22.0)));
        assert_eq!(r.mean_delivery, 1.0);
    }

    #[test]
    fn tiny_batteries_cause_death_and_blackout() {
        // 0.02 J at 1 mW idle = ~20 s of idle alone; epochs of 10 s kill
        // everything within a few epochs.
        let mut n = small_net(0.02);
        let ms = members(&n);
        let mut rng = StdRng::seed_from_u64(2);
        let r = run_continuous(
            &mut n,
            &ms,
            &TemperatureField::calm(22.0),
            AggFn::Avg,
            Strategy::Direct,
            Duration::from_secs(10),
            100,
            &mut rng,
        );
        let death = r.first_death_epoch.expect("sensors must die");
        let blackout = r.blackout_epoch.expect("network must black out");
        assert!(death <= blackout);
        assert!(r.epochs_run < 100, "run should stop at blackout");
    }

    #[test]
    fn tree_never_dies_earlier_than_direct() {
        let run = |strategy| {
            let mut n = small_net(0.05);
            let ms = members(&n);
            let mut rng = StdRng::seed_from_u64(3);
            run_continuous(
                &mut n,
                &ms,
                &TemperatureField::calm(22.0),
                AggFn::Avg,
                strategy,
                Duration::from_secs(1),
                500,
                &mut rng,
            )
        };
        let tree = run(Strategy::Tree);
        let direct = run(Strategy::Direct);
        assert!(
            tree.epochs_run >= direct.epochs_run,
            "tree {} epochs vs direct {}",
            tree.epochs_run,
            direct.epochs_run
        );
    }

    #[test]
    fn tree_spends_less_energy_over_equal_epochs() {
        // Big batteries so nobody dies: idle cost is then identical across
        // strategies and the radio difference decides the comparison. A 7x7
        // grid is comfortably past the partial-vs-reading size crossover
        // (below ~25 nodes the 40-byte partial can lose to 12-byte readings
        // on short paths — the crossover experiment T2 shows exactly this).
        let run = |strategy| {
            let topo = Topology::grid(7, 7, 10.0, 11.0);
            let mut n = SensorNetwork::new(
                topo,
                NodeId(0),
                RadioModel::mote(),
                LinkModel::new(250e3, Duration::from_millis(5), 0.0).unwrap(),
                100.0,
            );
            n.noise_sd = 0.0;
            let ms = members(&n);
            let mut rng = StdRng::seed_from_u64(4);
            run_continuous(
                &mut n,
                &ms,
                &TemperatureField::calm(22.0),
                AggFn::Avg,
                strategy,
                Duration::from_secs(1),
                50,
                &mut rng,
            )
        };
        let tree = run(Strategy::Tree);
        let direct = run(Strategy::Direct);
        assert_eq!(tree.epochs_run, direct.epochs_run);
        assert!(tree.total_energy_j < direct.total_energy_j);
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(Strategy::Direct.name(), "direct");
        assert_eq!(Strategy::Tree.name(), "tree");
        assert_eq!(Strategy::Cluster { heads: 4 }.name(), "cluster(k=4)");
    }
}
