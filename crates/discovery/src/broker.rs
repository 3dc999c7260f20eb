//! Federated broker discovery.
//!
//! "UDDI's present highly centralized model is not appropriate for our
//! scenario, but more recent developments … seem to indicate that a
//! distributed set of brokers could be created." (§3)
//!
//! A [`BrokerFederation`] is a set of per-locality registries connected by
//! an overlay graph. A query enters at one broker and is forwarded up to a
//! hop budget; results are merged, deduplicated and re-ranked. The
//! federation reports how many broker hops and how much overlay traffic the
//! query cost, which experiment T4 compares against a single centralized
//! registry.

use crate::description::{ServiceDescription, ServiceRequest};
use crate::ontology::Ontology;
use crate::registry::{Registry, ServiceId};
use pg_sim::Duration;
use std::collections::VecDeque;

/// A globally-resolved hit: which broker held the service.
#[derive(Debug, Clone)]
pub struct FederatedHit {
    /// Index of the broker holding the service.
    pub broker: usize,
    /// The broker-local service id.
    pub id: ServiceId,
    /// Combined match score.
    pub score: f64,
}

/// Accounting for one federated query.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Brokers that evaluated the query.
    pub brokers_visited: usize,
    /// Overlay messages exchanged (query forwards + result returns).
    pub messages: u64,
    /// Estimated wall time: one overlay RTT per hop ring.
    pub latency: Duration,
}

/// A set of registries on an overlay graph.
#[derive(Debug, Default)]
pub struct BrokerFederation {
    registries: Vec<Registry>,
    /// Adjacency: overlay links between brokers.
    peers: Vec<Vec<usize>>,
    /// One-way overlay latency per hop.
    hop_latency: Duration,
}

impl BrokerFederation {
    /// `n` empty brokers with no links and 20 ms per overlay hop.
    pub fn new(n: usize) -> Self {
        BrokerFederation {
            registries: (0..n).map(|_| Registry::new()).collect(),
            peers: vec![Vec::new(); n],
            hop_latency: Duration::from_millis(20),
        }
    }

    /// Connect two brokers (undirected, idempotent).
    ///
    /// # Panics
    /// Panics on out-of-range indices or self-links.
    pub fn link(&mut self, a: usize, b: usize) {
        assert!(a < self.registries.len() && b < self.registries.len());
        assert_ne!(a, b, "self-link");
        if !self.peers[a].contains(&b) {
            self.peers[a].push(b);
            self.peers[b].push(a);
        }
    }

    /// Borrow broker `i`'s registry.
    pub fn registry(&self, i: usize) -> &Registry {
        &self.registries[i]
    }

    /// Mutably borrow broker `i`'s registry (registration is local: a
    /// service registers with the broker in its vicinity).
    pub fn registry_mut(&mut self, i: usize) -> &mut Registry {
        &mut self.registries[i]
    }

    /// Register `desc` at broker `broker`.
    pub fn register_at(&mut self, broker: usize, desc: ServiceDescription) -> ServiceId {
        self.registries[broker].register(desc)
    }

    /// Query entering at `origin`, flooding the overlay up to `max_hops`
    /// broker-hops away. Returns merged, deduplicated, score-ranked hits
    /// plus traffic/latency accounting.
    // BFS invariant: a broker is enqueued only after its distance is set.
    #[allow(clippy::expect_used)]
    pub fn query(
        &self,
        onto: &Ontology,
        origin: usize,
        request: &ServiceRequest,
        max_hops: u32,
    ) -> (Vec<FederatedHit>, QueryStats) {
        let n = self.registries.len();
        let mut dist = vec![None::<u32>; n];
        dist[origin] = Some(0);
        let mut q = VecDeque::from([origin]);
        let mut order = vec![origin];
        while let Some(u) = q.pop_front() {
            let d = dist[u].expect("queued broker has distance");
            if d == max_hops {
                continue;
            }
            for &v in &self.peers[u] {
                if dist[v].is_none() {
                    dist[v] = Some(d + 1);
                    q.push_back(v);
                    order.push(v);
                }
            }
        }

        // Gather candidates from every visited broker, then rank ONCE over
        // the merged pool: preference normalization (min-max) is relative,
        // so per-broker ranking would produce incomparable scores.
        let mut owners: Vec<(usize, ServiceId)> = Vec::new();
        let mut pool: Vec<ServiceDescription> = Vec::new();
        for &b in &order {
            for (id, desc) in self.registries[b].iter() {
                owners.push((b, id));
                pool.push(desc.clone());
            }
        }
        let hits: Vec<FederatedHit> = crate::matcher::rank(onto, request, &pool)
            .into_iter()
            .map(|m| FederatedHit {
                broker: owners[m.index].0,
                id: owners[m.index].1,
                score: m.score,
            })
            .collect();

        let visited = order.len();
        let farthest = order.iter().filter_map(|&b| dist[b]).max().unwrap_or(0);
        // Each visited non-origin broker costs a forward + a return message.
        let messages = 2 * (visited as u64 - 1);
        let stats = QueryStats {
            brokers_visited: visited,
            messages,
            latency: self.hop_latency.mul(2 * farthest as u64),
        };
        (hits, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::Value;

    fn setup() -> (Ontology, BrokerFederation) {
        let onto = Ontology::pervasive_grid();
        let temp = onto.class("TemperatureSensor").unwrap();
        // A line of 4 brokers: 0 - 1 - 2 - 3, one sensor at each.
        let mut fed = BrokerFederation::new(4);
        fed.link(0, 1);
        fed.link(1, 2);
        fed.link(2, 3);
        for b in 0..4 {
            fed.register_at(
                b,
                ServiceDescription::new(format!("sensor-{b}"), temp)
                    .with_prop("rate_hz", Value::Num(b as f64 + 1.0)),
            );
        }
        (onto, fed)
    }

    #[test]
    fn hop_budget_limits_scope() {
        let (onto, fed) = setup();
        let temp = onto.class("TemperatureSensor").unwrap();
        let req = ServiceRequest::for_class(temp);

        let (hits, stats) = fed.query(&onto, 0, &req, 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.brokers_visited, 1);
        assert_eq!(stats.messages, 0);

        let (hits, stats) = fed.query(&onto, 0, &req, 1);
        assert_eq!(hits.len(), 2);
        assert_eq!(stats.brokers_visited, 2);

        let (hits, stats) = fed.query(&onto, 0, &req, 3);
        assert_eq!(hits.len(), 4);
        assert_eq!(stats.brokers_visited, 4);
        assert_eq!(stats.messages, 6);
        assert_eq!(stats.latency, Duration::from_millis(20 * 6)); // 3 hops RTT
    }

    #[test]
    fn results_are_globally_ranked() {
        let (onto, fed) = setup();
        let temp = onto.class("TemperatureSensor").unwrap();
        let req = ServiceRequest::for_class(temp)
            .with_preference(crate::description::Preference::Maximize("rate_hz".into()));
        let (hits, _) = fed.query(&onto, 0, &req, 3);
        // Highest rate (broker 3's sensor) ranks first regardless of origin.
        assert_eq!(hits[0].broker, 3);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn query_from_middle_reaches_both_sides() {
        let (onto, fed) = setup();
        let temp = onto.class("TemperatureSensor").unwrap();
        let req = ServiceRequest::for_class(temp);
        let (hits, stats) = fed.query(&onto, 1, &req, 1);
        assert_eq!(hits.len(), 3); // brokers 0, 1, 2
        assert_eq!(stats.brokers_visited, 3);
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_links_rejected() {
        let mut fed = BrokerFederation::new(2);
        fed.link(1, 1);
    }
}
