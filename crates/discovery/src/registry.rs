//! A single broker's service registry.
//!
//! Services register and deregister dynamically ("Services may be coming up
//! and going down frequently", §3); queries run the semantic matcher over
//! the live population.

use crate::description::{ServiceDescription, ServiceRequest};
use crate::matcher::{self, Match};
use crate::ontology::{ClassId, Ontology};
use pg_sim::SimTime;
use std::collections::BTreeMap;

/// Stable handle for a registered service (survives de/re-registration of
/// other services).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(pub u64);

/// A live registry of service descriptions.
///
/// Registrations may carry a **lease** (the Jini mechanism the paper's
/// Ronin framework inherits): a service that does not renew before its
/// lease expires silently disappears from query results — exactly how
/// "services coming up and going down frequently" (§3) are garbage-
/// collected without explicit deregistration.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    services: BTreeMap<ServiceId, ServiceDescription>,
    leases: BTreeMap<ServiceId, SimTime>,
    /// Class index: ids of live registrations advertising each class, kept
    /// ascending. Queries scan only the buckets of classes that can match
    /// the requested class (its descendants and ancestors) instead of the
    /// whole registry. `BTreeMap` keeps iteration deterministic.
    by_class: BTreeMap<ClassId, Vec<ServiceId>>,
    next: u64,
}

/// A match resolved to a stable service id.
#[derive(Debug, Clone)]
pub struct Hit {
    /// The matched service.
    pub id: ServiceId,
    /// Match details (score, grade).
    pub m: Match,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a service with an unbounded lease; returns its stable id.
    pub fn register(&mut self, desc: ServiceDescription) -> ServiceId {
        let id = ServiceId(self.next);
        self.next += 1;
        // Ids are handed out monotonically, so pushing keeps the bucket
        // ascending.
        self.by_class.entry(desc.class).or_default().push(id);
        self.services.insert(id, desc);
        id
    }

    /// Drop `id` from its class bucket.
    fn unindex(&mut self, id: ServiceId, class: ClassId) {
        if let Some(bucket) = self.by_class.get_mut(&class) {
            if let Ok(pos) = bucket.binary_search(&id) {
                bucket.remove(pos);
            }
            if bucket.is_empty() {
                self.by_class.remove(&class);
            }
        }
    }

    /// Register with a lease expiring at `until`; absent renewal, the
    /// service drops out of [`Registry::query_at`] results after that.
    pub fn register_leased(&mut self, desc: ServiceDescription, until: SimTime) -> ServiceId {
        let id = self.register(desc);
        self.leases.insert(id, until);
        id
    }

    /// Renew a lease to `until`. Returns false for unknown or unleased ids.
    pub fn renew_lease(&mut self, id: ServiceId, until: SimTime) -> bool {
        if !self.services.contains_key(&id) {
            return false;
        }
        match self.leases.get_mut(&id) {
            Some(t) => {
                *t = until;
                true
            }
            None => false,
        }
    }

    /// Is `id` visible at instant `now` (registered and lease unexpired)?
    pub fn is_live_at(&self, id: ServiceId, now: SimTime) -> bool {
        self.services.contains_key(&id) && self.leases.get(&id).is_none_or(|&until| now < until)
    }

    /// Drop every registration whose lease expired by `now`; returns how
    /// many were collected.
    pub fn expire_leases(&mut self, now: SimTime) -> usize {
        let dead: Vec<ServiceId> = self
            .leases
            .iter()
            .filter(|&(_, &until)| now >= until)
            .map(|(&id, _)| id)
            .collect();
        for id in &dead {
            if let Some(desc) = self.services.remove(id) {
                self.unindex(*id, desc.class);
            }
            self.leases.remove(id);
        }
        dead.len()
    }

    /// Deregister; returns the description if it was present.
    pub fn deregister(&mut self, id: ServiceId) -> Option<ServiceDescription> {
        let desc = self.services.remove(&id)?;
        self.unindex(id, desc.class);
        Some(desc)
    }

    /// Number of live services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Borrow a registered description.
    pub fn get(&self, id: ServiceId) -> Option<&ServiceDescription> {
        self.services.get(&id)
    }

    /// Iterate `(id, description)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ServiceId, &ServiceDescription)> {
        self.services.iter().map(|(&id, d)| (id, d))
    }

    /// Run the semantic matcher over every registration (leases ignored);
    /// hits come back ranked.
    pub fn query(&self, onto: &Ontology, request: &ServiceRequest) -> Vec<Hit> {
        self.query_at(onto, request, SimTime::ZERO)
    }

    /// Services advertising a class that can match a request for `class`
    /// (any descendant or ancestor), ascending by id. This is the candidate
    /// set [`Registry::query_at`] ranks — its length against
    /// [`Registry::len`] is the index's selectivity.
    pub fn candidates(&self, onto: &Ontology, class: ClassId) -> Vec<ServiceId> {
        let mut ids: Vec<ServiceId> = Vec::new();
        for c in onto.match_candidates(class) {
            if let Some(bucket) = self.by_class.get(&c) {
                ids.extend_from_slice(bucket);
            }
        }
        // Buckets are each ascending; the concatenation is not. Restore
        // ascending id order so ranking tie-breaks exactly like a linear
        // scan of the registry.
        ids.sort_unstable();
        ids
    }

    /// Run the semantic matcher over registrations whose lease is alive at
    /// `now`; hits come back ranked.
    ///
    /// Only the class-index candidate buckets are scanned — services whose
    /// class is neither a descendant nor an ancestor of the requested class
    /// can never score, so skipping them returns exactly the hits (same
    /// scores, same order) the linear scan
    /// ([`Registry::query_linear_at`]) produces.
    pub fn query_at(&self, onto: &Ontology, request: &ServiceRequest, now: SimTime) -> Vec<Hit> {
        let mut ids: Vec<ServiceId> = Vec::new();
        let mut descs: Vec<ServiceDescription> = Vec::new();
        for id in self.candidates(onto, request.class) {
            if self.is_live_at(id, now) {
                if let Some(d) = self.services.get(&id) {
                    ids.push(id);
                    descs.push(d.clone());
                }
            }
        }
        matcher::rank(onto, request, &descs)
            .into_iter()
            .map(|m| Hit {
                id: ids[m.index],
                m,
            })
            .collect()
    }

    /// The pre-index query path: clone every live registration and rank the
    /// lot. Kept as the reference implementation the indexed path is tested
    /// (and benchmarked) against.
    pub fn query_linear_at(
        &self,
        onto: &Ontology,
        request: &ServiceRequest,
        now: SimTime,
    ) -> Vec<Hit> {
        let mut ids: Vec<ServiceId> = Vec::new();
        let mut descs: Vec<ServiceDescription> = Vec::new();
        for (&id, d) in &self.services {
            if self.is_live_at(id, now) {
                ids.push(id);
                descs.push(d.clone());
            }
        }
        matcher::rank(onto, request, &descs)
            .into_iter()
            .map(|m| Hit {
                id: ids[m.index],
                m,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::Value;

    #[test]
    fn register_query_deregister_cycle() {
        let onto = Ontology::pervasive_grid();
        let temp = onto.class("TemperatureSensor").unwrap();
        let mut reg = Registry::new();
        let a =
            reg.register(ServiceDescription::new("s1", temp).with_prop("rate_hz", Value::Num(1.0)));
        let b = reg
            .register(ServiceDescription::new("s2", temp).with_prop("rate_hz", Value::Num(10.0)));
        assert_eq!(reg.len(), 2);

        let req = ServiceRequest::for_class(temp);
        let hits = reg.query(&onto, &req);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().any(|h| h.id == a) && hits.iter().any(|h| h.id == b));

        assert!(reg.deregister(a).is_some());
        assert!(reg.deregister(a).is_none());
        let hits = reg.query(&onto, &req);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, b);
    }

    #[test]
    fn leases_expire_and_renew() {
        let onto = Ontology::pervasive_grid();
        let temp = onto.class("TemperatureSensor").unwrap();
        let mut reg = Registry::new();
        let forever = reg.register(ServiceDescription::new("fixed", temp));
        let leased = reg.register_leased(
            ServiceDescription::new("van", temp),
            SimTime::from_secs(100),
        );
        let req = ServiceRequest::for_class(temp);
        // Before expiry both are visible.
        assert_eq!(reg.query_at(&onto, &req, SimTime::from_secs(50)).len(), 2);
        assert!(reg.is_live_at(leased, SimTime::from_secs(99)));
        // At/after expiry the leased one vanishes from results.
        assert!(!reg.is_live_at(leased, SimTime::from_secs(100)));
        let hits = reg.query_at(&onto, &req, SimTime::from_secs(150));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, forever);
        // Renewal brings it back.
        assert!(reg.renew_lease(leased, SimTime::from_secs(300)));
        assert_eq!(reg.query_at(&onto, &req, SimTime::from_secs(150)).len(), 2);
        // Unleased or unknown ids cannot be renewed.
        assert!(!reg.renew_lease(forever, SimTime::from_secs(1)));
        assert!(!reg.renew_lease(ServiceId(999), SimTime::from_secs(1)));
    }

    #[test]
    fn expired_leases_garbage_collect() {
        let onto = Ontology::pervasive_grid();
        let temp = onto.class("TemperatureSensor").unwrap();
        let mut reg = Registry::new();
        for i in 0..5u64 {
            reg.register_leased(
                ServiceDescription::new(format!("s{i}"), temp),
                SimTime::from_secs(10 * (i + 1)),
            );
        }
        reg.register(ServiceDescription::new("fixed", temp));
        assert_eq!(reg.expire_leases(SimTime::from_secs(25)), 2);
        assert_eq!(reg.len(), 4);
        assert_eq!(reg.expire_leases(SimTime::from_secs(1_000)), 3);
        assert_eq!(reg.len(), 1, "unleased registrations survive");
    }

    #[test]
    fn ids_are_stable_across_churn() {
        let onto = Ontology::pervasive_grid();
        let c = onto.class("MapService").unwrap();
        let mut reg = Registry::new();
        let a = reg.register(ServiceDescription::new("a", c));
        let b = reg.register(ServiceDescription::new("b", c));
        reg.deregister(a);
        let c2 = reg.register(ServiceDescription::new("c", c));
        assert_ne!(c2, a, "ids are never recycled");
        assert_eq!(reg.get(b).unwrap().name, "b");
    }

    #[test]
    fn indexed_query_matches_linear_scan_exactly() {
        use crate::corpus::mixed_corpus;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let onto = Ontology::pervasive_grid();
        let mut rng = StdRng::seed_from_u64(21);
        let mut reg = Registry::new();
        for (i, desc) in mixed_corpus(&onto, 400, &mut rng).into_iter().enumerate() {
            // Lease a third of the corpus so liveness filtering is in play.
            if i % 3 == 0 {
                reg.register_leased(desc, SimTime::from_secs(50));
            } else {
                reg.register(desc);
            }
        }
        // Churn a few out so buckets have holes.
        for id in [3, 30, 77, 200] {
            reg.deregister(ServiceId(id));
        }
        let now = SimTime::from_secs(60);
        for class_name in [
            "Service",
            "SolverService",
            "TemperatureSensor",
            "PrinterService",
            "BrokerService",
        ] {
            let class = onto.class(class_name).unwrap();
            let req = ServiceRequest::for_class(class);
            let fast = reg.query_at(&onto, &req, now);
            let slow = reg.query_linear_at(&onto, &req, now);
            assert_eq!(fast.len(), slow.len(), "class {class_name}");
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.id, s.id, "class {class_name}");
                assert_eq!(f.m.score.to_bits(), s.m.score.to_bits());
                assert_eq!(f.m.grade, s.m.grade);
            }
            // The index never scans more than the registry.
            assert!(reg.candidates(&onto, class).len() <= reg.len());
        }
    }

    #[test]
    fn class_index_tracks_churn() {
        let onto = Ontology::pervasive_grid();
        let temp = onto.class("TemperatureSensor").unwrap();
        let solver = onto.class("SolverService").unwrap();
        let mut reg = Registry::new();
        let a = reg.register(ServiceDescription::new("t", temp));
        reg.register(ServiceDescription::new("s", solver));
        assert_eq!(reg.candidates(&onto, temp), vec![a]);
        reg.deregister(a);
        assert!(reg.candidates(&onto, temp).is_empty());
        // Expiry unindexes too.
        let b = reg.register_leased(ServiceDescription::new("t2", temp), SimTime::from_secs(5));
        assert_eq!(reg.candidates(&onto, temp), vec![b]);
        reg.expire_leases(SimTime::from_secs(10));
        assert!(reg.candidates(&onto, temp).is_empty());
    }
}
