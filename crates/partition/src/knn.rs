//! A k-nearest-neighbour cost regressor over execution history.
//!
//! §4 commits to "standard machine learning techniques … on the data to
//! select the right approach for a given query", with the estimate-vs-
//! actual feedback loop making the system adaptive. Case-based regression
//! (the Pythia approach \[14\]) fits exactly: each executed query deposits a
//! `(features, model, actual cost)` case; predicting the cost of a model
//! for a new query averages the k nearest cases of the same model family,
//! weighted by inverse distance.
//!
//! The memory is indexed by distinct feature point and keeps only the first
//! `k` cases of each: with ties going to the oldest case, no later case at
//! that point can ever be among the k nearest. Predictions are those of a
//! scan over every case ever recorded (the `#[cfg(test)]` oracle), at a
//! cost that depends on the number of points, not of answers.

use crate::features::{vector_distance, QueryFeatures, FEATURE_DIM};
use crate::model::{CostVector, SolutionModel, FAMILIES};
use std::cmp::Ordering;
use std::collections::BTreeMap;

#[cfg(test)]
mod oracle;

/// Largest neighbourhood size: predictions select into a buffer of this
/// many slots on the stack.
pub const MAX_K: usize = 16;

/// One distinct feature vector of a model family and the first `k` cases
/// recorded there. A deployment asks a handful of query templates over a
/// handful of regions, so thousands of answers land on about ten points.
#[derive(Debug, Clone)]
struct Point {
    /// `QueryFeatures::vector()` of every case here, computed at record time.
    vector: [f64; FEATURE_DIM],
    /// `(age, measured cost)`, oldest first, at most `k`. Every case of a
    /// point is equally far from any probe and ties go to the oldest, so a
    /// later case here can never enter a neighbourhood: it is counted, not
    /// stored.
    cases: Vec<(usize, CostVector)>,
}

/// A neighbour candidate: `(distance, age, measured cost)`.
type Near = (f64, usize, CostVector);

/// Nearest first, then oldest first: the order a stable sort by distance
/// over insertion order gives. A NaN distance (a non-finite feature) is
/// farther than every number whatever its sign bit, hence the `abs`;
/// distances themselves are never negative.
fn nearer(a: &Near, b: &Near) -> Ordering {
    a.0.abs().total_cmp(&b.0.abs()).then(a.1.cmp(&b.1))
}

/// The case memory.
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    k: usize,
    /// The distinct points of each model family.
    points: [Vec<Point>; FAMILIES],
    /// `(family, vector bits)` → position in `points[family]`.
    index: BTreeMap<(usize, [u64; FEATURE_DIM]), usize>,
    /// Cases recorded per family, stored or not.
    recorded: [usize; FAMILIES],
}

impl Default for KnnRegressor {
    fn default() -> Self {
        KnnRegressor::new()
    }
}

impl KnnRegressor {
    /// Empty memory with `k = 5`.
    pub fn new() -> Self {
        KnnRegressor::with_k(5)
    }

    /// Empty memory with neighbourhood size `k`, clamped to `1..=MAX_K`.
    pub fn with_k(k: usize) -> Self {
        KnnRegressor {
            k: k.clamp(1, MAX_K),
            points: Default::default(),
            index: BTreeMap::new(),
            recorded: [0; FAMILIES],
        }
    }

    /// Number of cases recorded.
    pub fn len(&self) -> usize {
        self.recorded.iter().sum()
    }

    /// Is the memory empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cases recorded for one model family.
    pub fn family_count(&self, model: &SolutionModel) -> usize {
        self.recorded[model.family()]
    }

    /// Deposit a case.
    pub fn record(&mut self, features: QueryFeatures, model: SolutionModel, actual: CostVector) {
        let family = model.family();
        let age = self.len();
        self.recorded[family] += 1;
        let vector = features.vector();
        let points = &mut self.points[family];
        let at = *self
            .index
            .entry((family, vector.map(f64::to_bits)))
            .or_insert_with(|| {
                points.push(Point {
                    vector,
                    cases: Vec::new(),
                });
                points.len() - 1
            });
        let cases = &mut points[at].cases;
        if cases.len() < self.k {
            cases.push((age, actual));
        }
    }

    /// Predict the cost of running `model` on a query with `features`:
    /// inverse-distance-weighted mean of the k nearest same-family cases.
    /// `None` when no history exists for the family.
    pub fn predict(&self, features: &QueryFeatures, model: &SolutionModel) -> Option<CostVector> {
        self.predict_detailed(features, model).map(|(c, _)| c)
    }

    /// [`KnnRegressor::predict`], additionally returning the distance of
    /// the nearest case — the caller's confidence signal (a prediction
    /// extrapolated from a far-away case should defer to the analytic
    /// estimator).
    pub fn predict_detailed(
        &self,
        features: &QueryFeatures,
        model: &SolutionModel,
    ) -> Option<(CostVector, f64)> {
        let probe = features.vector();
        // The k nearest so far, in `nearer` order.
        let mut near: [Near; MAX_K] = [(0.0, 0, CostVector::default()); MAX_K];
        let mut n = 0;
        for point in &self.points[model.family()] {
            let d = vector_distance(&probe, &point.vector);
            for &(age, actual) in &point.cases {
                let cand = (d, age, actual);
                if n == self.k && nearer(&cand, &near[n - 1]).is_ge() {
                    // The point's remaining cases are younger still.
                    break;
                }
                // A full buffer drops its last entry to make room.
                let mut i = n.min(self.k - 1);
                while i > 0 && nearer(&cand, &near[i - 1]).is_lt() {
                    near[i] = near[i - 1];
                    i -= 1;
                }
                near[i] = cand;
                n = (n + 1).min(self.k);
            }
        }
        let near = &near[..n];
        let nearest = near.first()?.0;
        let mut acc = CostVector::default();
        let mut wsum = 0.0;
        for (d, _, actual) in near {
            let w = 1.0 / (d + 1e-6);
            acc = acc.add(&actual.scale(w));
            wsum += w;
        }
        Some((acc.scale(1.0 / wsum), nearest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_query::classify::QueryKind;

    fn feats(members: usize, kind: QueryKind) -> QueryFeatures {
        QueryFeatures {
            kind,
            continuous: false,
            members,
            mean_hops: 2.0,
            network_size: 100,
            epoch_s: 0.0,
        }
    }

    fn cost(e: f64) -> CostVector {
        CostVector {
            energy_j: e,
            time_s: e * 10.0,
            bytes: e * 1000.0,
            ops: e * 1e6,
        }
    }

    #[test]
    fn empty_memory_predicts_nothing() {
        let knn = KnnRegressor::new();
        assert_eq!(
            knn.predict(
                &feats(10, QueryKind::Aggregate),
                &SolutionModel::BaseStation
            ),
            None
        );
    }

    #[test]
    fn exact_replay_returns_recorded_cost() {
        let mut knn = KnnRegressor::new();
        let f = feats(10, QueryKind::Aggregate);
        knn.record(f, SolutionModel::BaseStation, cost(1.0));
        let p = knn.predict(&f, &SolutionModel::BaseStation).unwrap();
        assert!((p.energy_j - 1.0).abs() < 1e-6);
    }

    #[test]
    fn families_do_not_cross_contaminate() {
        let mut knn = KnnRegressor::new();
        let f = feats(10, QueryKind::Aggregate);
        knn.record(f, SolutionModel::BaseStation, cost(1.0));
        assert_eq!(knn.predict(&f, &SolutionModel::InNetworkTree), None);
        assert_eq!(knn.family_count(&SolutionModel::BaseStation), 1);
        assert_eq!(knn.family_count(&SolutionModel::InNetworkTree), 0);
    }

    #[test]
    fn nearer_cases_dominate_the_prediction() {
        let mut knn = KnnRegressor::with_k(2);
        // Near case (same member count) cheap; far case expensive.
        knn.record(
            feats(10, QueryKind::Aggregate),
            SolutionModel::BaseStation,
            cost(1.0),
        );
        knn.record(
            feats(10_000, QueryKind::Aggregate),
            SolutionModel::BaseStation,
            cost(100.0),
        );
        let p = knn
            .predict(
                &feats(11, QueryKind::Aggregate),
                &SolutionModel::BaseStation,
            )
            .unwrap();
        assert!(p.energy_j < 10.0, "near case must dominate: {}", p.energy_j);
    }

    #[test]
    fn k_limits_the_neighbourhood() {
        let mut knn = KnnRegressor::with_k(1);
        let f = feats(10, QueryKind::Aggregate);
        knn.record(f, SolutionModel::BaseStation, cost(1.0));
        knn.record(
            feats(500, QueryKind::Aggregate),
            SolutionModel::BaseStation,
            cost(50.0),
        );
        let p = knn.predict(&f, &SolutionModel::BaseStation).unwrap();
        assert!((p.energy_j - 1.0).abs() < 1e-3, "k=1 uses only the nearest");
    }

    fn bits(c: &CostVector) -> [u64; 4] {
        [c.energy_j, c.time_s, c.bytes, c.ops].map(f64::to_bits)
    }

    #[test]
    fn non_finite_cases_neither_panic_nor_crowd_out_finite_ones() {
        let finite = |knn: &mut KnnRegressor| {
            for i in 0..5 {
                knn.record(
                    feats(10 + i, QueryKind::Aggregate),
                    SolutionModel::BaseStation,
                    cost(1.0 + i as f64),
                );
            }
        };
        let mut clean = KnnRegressor::new();
        finite(&mut clean);
        // The poisoned memory sees the non-finite cases first, so age
        // cannot be what keeps them out. A NaN distance comes with either
        // sign bit, and `total_cmp` alone would put the negative one first.
        let mut poisoned = KnnRegressor::new();
        for hops in [f64::NAN, -f64::NAN, f64::INFINITY] {
            let mut f = feats(10, QueryKind::Aggregate);
            f.mean_hops = hops;
            poisoned.record(f, SolutionModel::BaseStation, cost(1e9));
        }
        finite(&mut poisoned);
        let probe = feats(11, QueryKind::Aggregate);
        let (want, want_nearest) = clean
            .predict_detailed(&probe, &SolutionModel::BaseStation)
            .unwrap();
        let (got, got_nearest) = poisoned
            .predict_detailed(&probe, &SolutionModel::BaseStation)
            .unwrap();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got_nearest.to_bits(), want_nearest.to_bits());
        // A non-finite probe is nowhere near anything, and says so.
        let mut lost = probe;
        lost.mean_hops = f64::INFINITY;
        let (_, nearest) = poisoned
            .predict_detailed(&lost, &SolutionModel::BaseStation)
            .unwrap();
        assert!(!nearest.is_finite());
    }

    #[test]
    fn memory_is_bounded_by_points_not_by_answers() {
        let mut knn = KnnRegressor::new();
        for i in 0..10_000usize {
            knn.record(
                feats(10 + i % 7, QueryKind::Aggregate),
                SolutionModel::InNetworkTree,
                cost(i as f64),
            );
        }
        assert_eq!(knn.len(), 10_000);
        assert_eq!(knn.family_count(&SolutionModel::InNetworkTree), 10_000);
        // Cases actually held: at most `k` per distinct point.
        let retained: usize = knn.points.iter().flatten().map(|p| p.cases.len()).sum();
        assert_eq!(retained, 7 * 5);
    }

    mod against_oracle {
        use super::*;
        use propcheck::check;

        const MODELS: [SolutionModel; 5] = [
            SolutionModel::InNetworkTree,
            SolutionModel::InNetworkCluster { heads: 4 },
            SolutionModel::BaseStation,
            SolutionModel::GridOffload {
                reduction_cell_m: 8.0,
            },
            SolutionModel::Hybrid { heads: 4 },
        ];

        /// A pool of `n` feature points. Points 0 and 1 differ only in kind
        /// (Simple vs Complex), so an Aggregate-kind probe with the same
        /// numbers is exactly √2 from both: their cases tie on distance and
        /// must interleave by age. Point 2 is that probe's own point.
        fn pool(n: usize) -> Vec<QueryFeatures> {
            let kinds = [QueryKind::Simple, QueryKind::Complex, QueryKind::Aggregate];
            (0..n)
                .map(|i| {
                    let mut f = feats(40, kinds[i % 3]);
                    if i >= 3 {
                        f.members = 7 * i;
                        f.mean_hops = 1.0 + i as f64 / 3.0;
                        f.continuous = i % 2 == 0;
                        f.epoch_s = (i % 4) as f64 * 15.0;
                    }
                    f
                })
                .collect()
        }

        /// The indexed memory answers every probe of an interleaved
        /// record/predict stream with the oracle's bits, and counts
        /// what the oracle stores.
        #[test]
        fn indexed_memory_matches_the_linear_scan() {
            check("indexed_memory_matches_the_linear_scan", 64, |g| {
                let points = g.range(1usize..=12);
                let k_idx = g.range(0usize..4);
                let steps = g.vec(1..160, |g| {
                    (
                        g.range(0usize..12),
                        g.range(0usize..5),
                        g.range(0u32..1_000),
                        g.range(0u8..3),
                    )
                });
                let k = [1, 2, 5, 8][k_idx];
                let pool = pool(points);
                let mut new = KnnRegressor::with_k(k);
                let mut old = oracle::KnnRegressor::with_k(k);
                for (p, m, c, op) in steps {
                    let (f, model) = (pool[p % points], MODELS[m]);
                    if op == 0 {
                        let got = new.predict_detailed(&f, &model);
                        let want = old.predict_detailed(&f, &model);
                        assert_eq!(got.is_some(), want.is_some());
                        if let (Some((got, gn)), Some((want, wn))) = (got, want) {
                            assert_eq!(bits(&got), bits(&want));
                            assert_eq!(gn.to_bits(), wn.to_bits());
                        }
                    } else {
                        let actual = cost(0.01 * (f64::from(c) + 1.0));
                        new.record(f, model, actual);
                        old.record(f, model, actual);
                    }
                    assert_eq!(new.len(), old.len());
                    for model in &MODELS {
                        assert_eq!(new.family_count(model), old.family_count(model));
                    }
                }
            });
        }

        /// The equidistant pair the pool is built around really ties, and
        /// the tie really resolves by age across the two points.
        #[test]
        fn equidistant_points_interleave_by_age() {
            let pool = pool(3);
            assert_eq!(
                pool[2].distance(&pool[0]).to_bits(),
                pool[2].distance(&pool[1]).to_bits()
            );
            let model = SolutionModel::BaseStation;
            let mut new = KnnRegressor::with_k(3);
            let mut old = oracle::KnnRegressor::with_k(3);
            // Ages 0..6 alternate Complex, Simple, Complex, …: the three
            // oldest are two Complex and one Simple.
            for age in 0..6 {
                let f = pool[(age + 1) % 2];
                new.record(f, model, cost(1.0 + age as f64));
                old.record(f, model, cost(1.0 + age as f64));
            }
            let (got, _) = new.predict_detailed(&pool[2], &model).unwrap();
            let (want, _) = old.predict_detailed(&pool[2], &model).unwrap();
            assert_eq!(bits(&got), bits(&want));
            assert!((got.energy_j - 2.0).abs() < 1e-12, "mean of ages 0, 1, 2");
        }
    }
}
