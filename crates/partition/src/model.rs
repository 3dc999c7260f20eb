//! Solution models and the four-dimensional cost vector.

use pg_query::ast::Query;

/// Where the computation for a query is placed (§4's solution models).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolutionModel {
    /// In-network: TAG-style aggregation up the routing tree.
    InNetworkTree,
    /// In-network: LEACH-style cluster heads aggregate, `heads` of them.
    InNetworkCluster {
        /// Number of cluster heads.
        heads: usize,
    },
    /// Raw readings to the base station/PDA; it computes.
    BaseStation,
    /// Readings (optionally region-averaged) shipped over the backhaul to
    /// the grid; the grid computes.
    GridOffload {
        /// Region-averaging cell size in metres (0 = no reduction) — the
        /// paper's accuracy/data trade-off knob.
        reduction_cell_m: f64,
    },
    /// §4's "combination of the approaches above": clusters summarize
    /// in-network (centroid + mean per cluster), only the summaries cross
    /// the backhaul, and the grid computes on them.
    Hybrid {
        /// Number of cluster heads performing the in-network reduction.
        heads: usize,
    },
}

impl SolutionModel {
    /// The candidate set the decision maker considers for any query.
    pub fn candidates(members: usize) -> Vec<SolutionModel> {
        let heads = pg_sensornet::cluster::default_head_count(members);
        vec![
            SolutionModel::InNetworkTree,
            SolutionModel::InNetworkCluster { heads },
            SolutionModel::BaseStation,
            SolutionModel::GridOffload {
                reduction_cell_m: 0.0,
            },
            SolutionModel::Hybrid {
                heads: heads.max(4),
            },
        ]
    }

    /// Table-friendly name.
    pub fn name(&self) -> String {
        match self {
            SolutionModel::InNetworkTree => "in-network/tree".into(),
            SolutionModel::InNetworkCluster { heads } => format!("in-network/cluster(k={heads})"),
            SolutionModel::BaseStation => "base-station".into(),
            SolutionModel::GridOffload { reduction_cell_m } if *reduction_cell_m > 0.0 => {
                format!("grid(reduce={reduction_cell_m}m)")
            }
            SolutionModel::GridOffload { .. } => "grid".into(),
            SolutionModel::Hybrid { heads } => format!("hybrid(k={heads})"),
        }
    }

    /// Coarse family index, `0..FAMILIES` (used as part of the k-NN key so
    /// histories of different placements never mix).
    pub fn family(&self) -> usize {
        match self {
            SolutionModel::InNetworkTree => 0,
            SolutionModel::InNetworkCluster { .. } => 1,
            SolutionModel::BaseStation => 2,
            SolutionModel::GridOffload { .. } => 3,
            SolutionModel::Hybrid { .. } => 4,
        }
    }
}

/// Number of model families: one more than the largest
/// [`SolutionModel::family`].
pub(crate) const FAMILIES: usize = 5;

/// The four quantities §4 says must be estimated per (query, model):
/// "the amount of computation … the amount of data transfer … estimates of
/// energy consumption … estimate of the response time".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostVector {
    /// Sensor-network energy, joules.
    pub energy_j: f64,
    /// Response time, seconds.
    pub time_s: f64,
    /// Data transferred (all links), bytes.
    pub bytes: f64,
    /// Computation, operations.
    pub ops: f64,
}

impl CostVector {
    /// Component-wise sum.
    pub fn add(&self, other: &CostVector) -> CostVector {
        CostVector {
            energy_j: self.energy_j + other.energy_j,
            time_s: self.time_s + other.time_s,
            bytes: self.bytes + other.bytes,
            ops: self.ops + other.ops,
        }
    }

    /// Component-wise scale.
    pub fn scale(&self, k: f64) -> CostVector {
        CostVector {
            energy_j: self.energy_j * k,
            time_s: self.time_s * k,
            bytes: self.bytes * k,
            ops: self.ops * k,
        }
    }
}

/// Scalarization weights for comparing cost vectors. Normalization scales
/// put one "typical" unit of each dimension on a comparable footing.
#[derive(Debug, Clone, Copy)]
pub struct CostWeights {
    /// Weight on energy (per 0.1 J).
    pub energy: f64,
    /// Weight on response time (per 10 s).
    pub time: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // Energy-first, as §4 insists ("preserving the energy of the
        // sensors is of prime importance"), with time a strong second for
        // real-time queries.
        CostWeights {
            energy: 1.0,
            time: 0.5,
        }
    }
}

impl CostWeights {
    /// Scalar badness of a cost vector (lower is better).
    pub fn scalar(&self, c: &CostVector) -> f64 {
        self.energy * (c.energy_j / 0.1) + self.time * (c.time_s / 10.0)
    }
}

/// Does `cost` respect every COST bound of `query`? (Accuracy bounds are
/// checked against `accuracy_err` when the executor measured one.)
pub fn within_bounds(query: &Query, cost: &CostVector, accuracy_err: Option<f64>) -> bool {
    if let Some(e) = query.energy_bound() {
        if cost.energy_j > e {
            return false;
        }
    }
    if let Some(t) = query.time_bound() {
        if cost.time_s > t {
            return false;
        }
    }
    if let (Some(bound), Some(err)) = (query.accuracy_bound(), accuracy_err) {
        if err > bound {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_query::parse;

    #[test]
    fn candidate_set_covers_all_families() {
        let c = SolutionModel::candidates(100);
        let fams: Vec<usize> = c.iter().map(SolutionModel::family).collect();
        assert_eq!(fams, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn hybrid_names_and_family() {
        let h = SolutionModel::Hybrid { heads: 6 };
        assert_eq!(h.name(), "hybrid(k=6)");
        assert_eq!(h.family(), 4);
    }

    #[test]
    fn cost_vector_algebra() {
        let a = CostVector {
            energy_j: 1.0,
            time_s: 2.0,
            bytes: 3.0,
            ops: 4.0,
        };
        let b = a.scale(2.0);
        assert_eq!(b.energy_j, 2.0);
        assert_eq!(a.add(&b).ops, 12.0);
    }

    #[test]
    fn scalarization_prefers_cheap_energy() {
        let w = CostWeights::default();
        let cheap = CostVector {
            energy_j: 0.01,
            time_s: 5.0,
            ..Default::default()
        };
        let dear = CostVector {
            energy_j: 1.0,
            time_s: 1.0,
            ..Default::default()
        };
        assert!(w.scalar(&cheap) < w.scalar(&dear));
    }

    #[test]
    fn bounds_filter() {
        let q = parse("SELECT AVG(temp) FROM sensors COST energy <= 0.5, time <= 2").unwrap();
        let ok = CostVector {
            energy_j: 0.4,
            time_s: 1.0,
            ..Default::default()
        };
        let too_hot = CostVector {
            energy_j: 0.6,
            time_s: 1.0,
            ..Default::default()
        };
        let too_slow = CostVector {
            energy_j: 0.1,
            time_s: 3.0,
            ..Default::default()
        };
        assert!(within_bounds(&q, &ok, None));
        assert!(!within_bounds(&q, &too_hot, None));
        assert!(!within_bounds(&q, &too_slow, None));
    }

    #[test]
    fn accuracy_bound_checked_when_measured() {
        let q = parse("SELECT AVG(temp) FROM sensors COST accuracy 0.05").unwrap();
        let c = CostVector::default();
        assert!(within_bounds(&q, &c, None)); // unmeasured: not enforceable
        assert!(within_bounds(&q, &c, Some(0.04)));
        assert!(!within_bounds(&q, &c, Some(0.06)));
    }
}
