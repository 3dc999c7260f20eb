//! Query/network feature extraction for the decision maker.
//!
//! §4: "A lot of factors would affect the estimates required above. All
//! networks may not be of the same size … Different networks would have
//! different network topology … Different sensors may generate data with
//! different rates." The feature vector captures the query class, the
//! selected population, and the topology shape.
//! [`crate::exec::resolve`] computes them; [`QueryFeatures::extract`]
//! stays only for pgbench's replay probes (ROADMAP item 12).

use crate::exec::{members_of, ExecContext};
use pg_net::topology::NodeId;
use pg_query::ast::Query;
use pg_query::classify::{classify, inner_kind, QueryKind};
use pg_sensornet::network::SensorNetwork;

/// Dimensionality of the numeric feature vector.
pub const FEATURE_DIM: usize = 8;

/// Extracted features of one (query, network) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryFeatures {
    /// The query class after Continuous unwrapping.
    pub kind: QueryKind,
    /// Is the query continuous?
    pub continuous: bool,
    /// Number of selected sensors.
    pub members: usize,
    /// Mean hop distance from members to the base station.
    pub mean_hops: f64,
    /// Network size.
    pub network_size: usize,
    /// Epoch duration in seconds (0 for one-shot queries).
    pub epoch_s: f64,
}

impl QueryFeatures {
    /// Extract features for `query` against the context's network (what
    /// [`crate::exec::resolve`] computes, `None` where it fails).
    pub fn extract(ctx: &ExecContext<'_>, query: &Query) -> Option<QueryFeatures> {
        members_of(ctx, query)
            .ok()
            .map(|m| Self::of_members(ctx.net, query, &m))
    }

    /// Features for `query` whose member set the caller already resolved
    /// (the full selection, before any brownout thinning). Hop distances
    /// come from the network's base-rooted hop table.
    pub fn of_members(net: &SensorNetwork, query: &Query, members: &[NodeId]) -> QueryFeatures {
        let hops = net.hops_from_base();
        let mut total = 0u64;
        let mut counted = 0u64;
        for &m in members {
            if let Some(h) = hops[m.idx()] {
                total += h as u64;
                counted += 1;
            }
        }
        let kind = classify(query);
        QueryFeatures {
            kind: if kind == QueryKind::Continuous {
                inner_kind(query)
            } else {
                kind
            },
            continuous: kind == QueryKind::Continuous,
            members: members.len(),
            mean_hops: if counted == 0 {
                0.0
            } else {
                total as f64 / counted as f64
            },
            network_size: net.len(),
            epoch_s: query.epoch.map_or(0.0, |e| e.as_secs_f64()),
        }
    }

    /// The numeric vector used for k-NN distance (scaled to comparable
    /// magnitudes; logs for the long-tailed counts).
    pub fn vector(&self) -> [f64; FEATURE_DIM] {
        let one_hot = |k| if self.kind == k { 1.0 } else { 0.0 };
        [
            one_hot(QueryKind::Simple),
            one_hot(QueryKind::Aggregate),
            one_hot(QueryKind::Complex),
            if self.continuous { 1.0 } else { 0.0 },
            ((self.members as f64) + 1.0).ln(),
            self.mean_hops / 4.0,
            ((self.network_size as f64) + 1.0).ln(),
            (self.epoch_s + 1.0).ln(),
        ]
    }

    /// Euclidean distance between two feature vectors.
    pub fn distance(&self, other: &QueryFeatures) -> f64 {
        vector_distance(&self.vector(), &other.vector())
    }
}

/// Euclidean distance between two [`QueryFeatures::vector`]s. The case
/// memory caches vectors and calls this directly; the summation order is
/// part of its bit-exact contract.
pub(crate) fn vector_distance(a: &[f64; FEATURE_DIM], b: &[f64; FEATURE_DIM]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_grid::sched::GridCluster;
    use pg_net::energy::RadioModel;
    use pg_net::geom::Point;
    use pg_net::link::LinkModel;
    use pg_net::topology::{NodeId, Topology};
    use pg_query::parse;
    use pg_sensornet::field::TemperatureField;
    use pg_sensornet::network::SensorNetwork;
    use pg_sensornet::region::Region;
    use pg_sim::{Duration, SimTime};
    use std::collections::BTreeMap;

    fn harness() -> (
        SensorNetwork,
        GridCluster,
        TemperatureField,
        BTreeMap<String, Region>,
    ) {
        let topo = Topology::grid(5, 5, 10.0, 11.0);
        let net = SensorNetwork::new(
            topo,
            NodeId(0),
            RadioModel::mote(),
            LinkModel::sensor_radio(),
            50.0,
        );
        let mut regions = BTreeMap::new();
        regions.insert("corner".into(), Region::room(0.0, 0.0, 15.0, 15.0));
        (
            net,
            GridCluster::campus(),
            TemperatureField::calm(21.0),
            regions,
        )
    }

    #[test]
    fn extraction_reads_query_and_topology() {
        let (mut net, grid, field, regions) = harness();
        let ctx = ExecContext {
            net: &mut net,
            grid: &grid,
            field: &field,
            regions: &regions,
            now: SimTime::ZERO,
        };
        let q =
            parse("SELECT AVG(temp) FROM sensors WHERE region(corner) EPOCH DURATION 10").unwrap();
        let f = QueryFeatures::extract(&ctx, &q).unwrap();
        assert_eq!(f.kind, QueryKind::Aggregate);
        assert!(f.continuous);
        assert_eq!(f.members, 3); // 2x2 corner minus the base at (0,0)
        assert!(f.mean_hops >= 1.0);
        assert_eq!(f.epoch_s, 10.0);
        assert_eq!(f.network_size, 25);
    }

    #[test]
    fn distance_is_zero_for_identical_and_positive_for_different() {
        let (mut net, grid, field, regions) = harness();
        let ctx = ExecContext {
            net: &mut net,
            grid: &grid,
            field: &field,
            regions: &regions,
            now: SimTime::ZERO,
        };
        let q1 = parse("SELECT AVG(temp) FROM sensors").unwrap();
        let q2 = parse("SELECT temp FROM sensors WHERE sensor_id = 3").unwrap();
        let f1 = QueryFeatures::extract(&ctx, &q1).unwrap();
        let f1b = QueryFeatures::extract(&ctx, &q1).unwrap();
        let f2 = QueryFeatures::extract(&ctx, &q2).unwrap();
        assert_eq!(f1.distance(&f1b), 0.0);
        assert!(f1.distance(&f2) > 0.5);
        let _ = Duration::from_secs(1);
        let _ = Point::flat(0.0, 0.0);
    }
}
