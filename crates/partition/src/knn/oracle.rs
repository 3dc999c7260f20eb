//! The pre-index case memory, kept as the test oracle: every case stored,
//! every prediction a scan + stable sort over all of them, by the order
//! production uses (`super::nearer`: a NaN distance is the farthest). The
//! indexed [`super::KnnRegressor`] must reproduce its predictions bit for
//! bit (`tests::indexed_memory_matches_the_linear_scan`).

use crate::features::QueryFeatures;
use crate::model::{CostVector, SolutionModel};

/// One remembered execution.
#[derive(Debug, Clone)]
struct Case {
    features: QueryFeatures,
    model: SolutionModel,
    actual: CostVector,
}

/// The linear-scan case memory.
#[derive(Debug, Clone)]
pub(super) struct KnnRegressor {
    cases: Vec<Case>,
    k: usize,
}

impl KnnRegressor {
    /// Empty memory with neighbourhood size `k`.
    pub fn with_k(k: usize) -> Self {
        KnnRegressor {
            cases: Vec::new(),
            k,
        }
    }

    /// Number of stored cases.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// Cases stored for one model family.
    pub fn family_count(&self, model: &SolutionModel) -> usize {
        self.cases
            .iter()
            .filter(|c| c.model.family() == model.family())
            .count()
    }

    /// Deposit a case.
    pub fn record(&mut self, features: QueryFeatures, model: SolutionModel, actual: CostVector) {
        self.cases.push(Case {
            features,
            model,
            actual,
        });
    }

    /// Inverse-distance-weighted mean of the k nearest same-family cases
    /// and the distance of the nearest; `None` without family history.
    pub fn predict(
        &self,
        features: &QueryFeatures,
        model: &SolutionModel,
    ) -> Option<(CostVector, f64)> {
        let mut near: Vec<(f64, &Case)> = self
            .cases
            .iter()
            .filter(|c| c.model.family() == model.family())
            .map(|c| (features.distance(&c.features), c))
            .collect();
        if near.is_empty() {
            return None;
        }
        // Stable, so equally far cases stay oldest first.
        near.sort_by(|a, b| a.0.abs().total_cmp(&b.0.abs()));
        near.truncate(self.k.max(1));
        let nearest = near[0].0;
        let mut acc = CostVector::default();
        let mut wsum = 0.0;
        for (d, c) in &near {
            let w = 1.0 / (d + 1e-6);
            acc = acc.add(&c.actual.scale(w));
            wsum += w;
        }
        Some((acc.scale(1.0 / wsum), nearest))
    }
}
