//! Sensor proxies: mediators between queries and physical sensors.
//!
//! Fjords \[20\], which the paper builds on for streaming queries, "propose\[s\]
//! sensor proxies which act as mediators between query processing
//! environment and the physical sensors" — so that many concurrent queries
//! share one physical sample stream instead of each waking the radio.
//!
//! [`SensorProxy`] caches the freshest reading per sensor with a
//! time-to-live. A read within the TTL is served from the cache at zero
//! sensor energy; a stale read pays the full sample-and-transport cost and
//! refreshes the cache. The hit rate is the energy-sharing factor across
//! concurrent queries.

use crate::aggregate::{AggFn, ValueFilter};
use crate::collect::direct_collection;
use crate::field::TemperatureField;
use crate::network::SensorNetwork;
use pg_net::topology::NodeId;
use pg_sim::{Duration, SimTime};
use rand::Rng;
use std::collections::HashMap;

/// One cached reading.
#[derive(Debug, Clone, Copy)]
struct Cached {
    value: f64,
    at: SimTime,
}

/// What a proxy read cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyRead {
    /// The reading returned to the query.
    pub value: f64,
    /// Served from cache?
    pub cache_hit: bool,
    /// Sensor energy spent (zero on hits).
    pub energy_j: f64,
    /// Transport + sampling latency (zero on hits).
    pub latency: Duration,
}

/// A freshness-bounded read-through cache over the sensor network.
#[derive(Debug)]
pub struct SensorProxy {
    ttl: Duration,
    cache: HashMap<NodeId, Cached>,
    /// Reads served from cache.
    pub hits: u64,
    /// Reads that touched the physical sensor.
    pub misses: u64,
}

impl SensorProxy {
    /// A proxy whose readings stay fresh for `ttl`.
    pub fn new(ttl: Duration) -> Self {
        SensorProxy {
            ttl,
            cache: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Fraction of reads served from cache so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Read `sensor` at time `now`: from cache when fresh, else through the
    /// network (draining batteries) with a cache refresh.
    pub fn read<R: Rng>(
        &mut self,
        net: &mut SensorNetwork,
        field: &TemperatureField,
        sensor: NodeId,
        now: SimTime,
        rng: &mut R,
    ) -> Option<ProxyRead> {
        if let Some(c) = self.cache.get(&sensor) {
            if now.since(c.at) <= self.ttl {
                self.hits += 1;
                return Some(ProxyRead {
                    value: c.value,
                    cache_hit: true,
                    energy_j: 0.0,
                    latency: Duration::ZERO,
                });
            }
        }
        self.misses += 1;
        let (report, raw) = direct_collection(
            net,
            &[sensor],
            field,
            now,
            AggFn::Avg,
            &ValueFilter::all(),
            rng,
        );
        let &(_, value) = raw.first()?;
        self.cache.insert(sensor, Cached { value, at: now });
        Some(ProxyRead {
            value,
            cache_hit: false,
            energy_j: report.energy_j,
            latency: report.latency,
        })
    }

    /// Drop every cached reading (e.g. after a field event invalidates
    /// history).
    pub fn invalidate(&mut self) {
        self.cache.clear();
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

    fn net() -> SensorNetwork {
        let topo = Topology::grid(4, 4, 10.0, 11.0);
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

    #[test]
    fn fresh_reads_hit_the_cache_and_cost_nothing() {
        let mut proxy = SensorProxy::new(Duration::from_secs(10));
        let mut n = net();
        let field = TemperatureField::calm(22.0);
        let mut rng = StdRng::seed_from_u64(1);
        let first = proxy
            .read(&mut n, &field, NodeId(9), SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(!first.cache_hit);
        assert!(first.energy_j > 0.0);
        let before = n.total_consumed();
        let second = proxy
            .read(&mut n, &field, NodeId(9), SimTime::from_secs(5), &mut rng)
            .unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.energy_j, 0.0);
        assert_eq!(second.value, first.value);
        assert_eq!(n.total_consumed(), before, "hits must not drain batteries");
        assert_eq!(proxy.hit_rate(), 0.5);
    }

    #[test]
    fn stale_reads_refresh() {
        let mut proxy = SensorProxy::new(Duration::from_secs(10));
        let mut n = net();
        // A heating field so the refreshed value visibly differs.
        let field = TemperatureField::building_fire(
            pg_net::geom::Point::flat(30.0, 30.0),
            SimTime::ZERO,
            300.0,
        );
        let mut rng = StdRng::seed_from_u64(2);
        let first = proxy
            .read(&mut n, &field, NodeId(15), SimTime::from_secs(60), &mut rng)
            .unwrap();
        let later = proxy
            .read(
                &mut n,
                &field,
                NodeId(15),
                SimTime::from_secs(600),
                &mut rng,
            )
            .unwrap();
        assert!(!later.cache_hit, "TTL expired: must re-sample");
        assert!(later.energy_j > 0.0, "a re-sample touches the sensor");
        assert!(
            later.value > first.value + 10.0,
            "fire grew: {} -> {}",
            first.value,
            later.value
        );
    }

    #[test]
    fn concurrent_queries_share_one_sample() {
        let mut proxy = SensorProxy::new(Duration::from_secs(30));
        let mut n = net();
        let field = TemperatureField::calm(20.0);
        let mut rng = StdRng::seed_from_u64(3);
        // Ten "queries" hit the same sensor within the TTL window.
        for i in 0..10 {
            proxy
                .read(&mut n, &field, NodeId(5), SimTime::from_secs(i), &mut rng)
                .unwrap();
        }
        assert_eq!(proxy.misses, 1);
        assert_eq!(proxy.hits, 9);
    }

    #[test]
    fn invalidate_forces_resample() {
        let mut proxy = SensorProxy::new(Duration::from_secs(1_000));
        let mut n = net();
        let field = TemperatureField::calm(20.0);
        let mut rng = StdRng::seed_from_u64(4);
        proxy.read(&mut n, &field, NodeId(5), SimTime::ZERO, &mut rng);
        proxy.invalidate();
        let r = proxy
            .read(&mut n, &field, NodeId(5), SimTime::from_secs(1), &mut rng)
            .unwrap();
        assert!(!r.cache_hit);
    }

    #[test]
    fn distinct_sensors_cache_independently() {
        let mut proxy = SensorProxy::new(Duration::from_secs(100));
        let mut n = net();
        let field = TemperatureField::calm(20.0);
        let mut rng = StdRng::seed_from_u64(5);
        proxy.read(&mut n, &field, NodeId(5), SimTime::ZERO, &mut rng);
        let other = proxy
            .read(&mut n, &field, NodeId(6), SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(!other.cache_hit);
        assert_eq!(proxy.misses, 2);
    }
}
