//! Stream ensemble mining: the grid-side substrate for the paper's §3
//! composition example.
//!
//! "A particular analysis technique for streams tries to create ensembles
//! of decision trees from the data stream and then combine them. First the
//! system needs to figure out that this task has several components —
//! generating decision trees, computing their Fourier spectra, choosing the
//! dominant components, and combining them to create a single tree." (§3,
//! after Kargupta & Park \[17\].)
//!
//! This is that pipeline in miniature, faithful to its structure:
//!
//! 1. [`Stump::train`] — decision stumps (depth-1 trees) learned from
//!    successive stream batches over *binarized* features `xᵢ ∈ {-1, +1}`;
//! 2. [`Ensemble::spectrum`] — a stump `sign(s·xᵢ)` is exactly the Walsh–
//!    Fourier basis function `±χ_{i}`, so the weighted ensemble's spectrum
//!    is the per-feature sum of signed stump weights;
//! 3. [`Spectrum::dominant`] — keep the top-m coefficients by magnitude;
//! 4. [`Spectrum::classify`] — the combined "single tree": the sign of the
//!    truncated Fourier expansion.

/// A labelled binary-feature sample: features in `{-1.0, +1.0}`.
#[derive(Debug, Clone)]
pub struct Example {
    /// Binarized feature vector.
    pub x: Vec<f64>,
    /// Class label, `±1`.
    pub y: f64,
}

impl Example {
    /// Construct, validating the encoding.
    ///
    /// # Panics
    /// Panics when a feature or the label is not `±1`.
    pub fn new(x: Vec<f64>, y: f64) -> Self {
        assert!(y == 1.0 || y == -1.0, "label must be ±1");
        assert!(
            x.iter().all(|&v| v == 1.0 || v == -1.0),
            "features must be ±1"
        );
        Example { x, y }
    }
}

/// A decision stump: predicts `sign · x[feature]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stump {
    /// The feature the stump splits on.
    pub feature: usize,
    /// `+1.0` predicts the feature's sign; `-1.0` its negation.
    pub sign: f64,
    /// Training accuracy on its batch (the ensemble weight).
    pub accuracy: f64,
}

impl Stump {
    /// Train on a batch: pick the (feature, sign) with the highest batch
    /// accuracy, ties broken by lowest feature index.
    ///
    /// # Panics
    /// Panics on an empty batch or inconsistent feature dimensions.
    pub fn train(batch: &[Example]) -> Stump {
        assert!(!batch.is_empty(), "empty training batch");
        let d = batch[0].x.len();
        assert!(batch.iter().all(|e| e.x.len() == d), "ragged batch");
        let mut best = Stump {
            feature: 0,
            sign: 1.0,
            accuracy: -1.0,
        };
        for f in 0..d {
            let agree = batch.iter().filter(|e| e.x[f] == e.y).count() as f64 / batch.len() as f64;
            for (sign, acc) in [(1.0, agree), (-1.0, 1.0 - agree)] {
                if acc > best.accuracy {
                    best = Stump {
                        feature: f,
                        sign,
                        accuracy: acc,
                    };
                }
            }
        }
        best
    }

    /// Predict `±1` for one sample.
    pub fn predict(&self, x: &[f64]) -> f64 {
        (self.sign * x[self.feature]).signum()
    }
}

/// An ensemble of stumps trained on successive stream batches.
#[derive(Debug, Clone, Default)]
pub struct Ensemble {
    stumps: Vec<Stump>,
}

impl Ensemble {
    /// An empty ensemble.
    pub fn new() -> Self {
        Self::default()
    }

    /// Train one stump on the next stream batch and add it.
    pub fn absorb_batch(&mut self, batch: &[Example]) {
        self.stumps.push(Stump::train(batch));
    }

    /// Number of member trees.
    pub fn len(&self) -> usize {
        self.stumps.len()
    }

    /// Is the ensemble empty?
    pub fn is_empty(&self) -> bool {
        self.stumps.is_empty()
    }

    /// Raw weighted-vote score (weights = 2·accuracy − 1, the margin).
    pub fn score(&self, x: &[f64]) -> f64 {
        self.stumps
            .iter()
            .map(|s| (2.0 * s.accuracy - 1.0) * s.predict(x))
            .sum()
    }

    /// Weighted-vote prediction.
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.score(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// The ensemble's Walsh–Fourier spectrum over `d` features: coefficient
    /// `c[i]` is the signed weight mass on basis function `χ_{i}(x) = xᵢ`.
    pub fn spectrum(&self, d: usize) -> Spectrum {
        let mut c = vec![0.0f64; d];
        for s in &self.stumps {
            c[s.feature] += (2.0 * s.accuracy - 1.0) * s.sign;
        }
        Spectrum { coefficients: c }
    }
}

/// A (first-order) Walsh–Fourier spectrum of the ensemble classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Per-feature coefficients.
    pub coefficients: Vec<f64>,
}

impl Spectrum {
    /// Keep only the `m` largest-magnitude coefficients ("choosing the
    /// dominant components"), zeroing the rest.
    pub fn dominant(&self, m: usize) -> Spectrum {
        let mut idx: Vec<usize> = (0..self.coefficients.len()).collect();
        let magnitude = |i: usize| self.coefficients[i].abs();
        idx.sort_by(|&a, &b| magnitude(b).total_cmp(&magnitude(a)));
        let keep: std::collections::BTreeSet<usize> = idx.into_iter().take(m).collect();
        Spectrum {
            coefficients: self
                .coefficients
                .iter()
                .enumerate()
                .map(|(i, &c)| if keep.contains(&i) { c } else { 0.0 })
                .collect(),
        }
    }

    /// Number of non-zero components.
    pub fn support(&self) -> usize {
        self.coefficients.iter().filter(|&&c| c != 0.0).count()
    }

    /// Raw expansion value at `x`.
    pub fn score(&self, x: &[f64]) -> f64 {
        self.coefficients.iter().zip(x).map(|(c, xi)| c * xi).sum()
    }

    /// The combined "single tree": sign of the truncated expansion.
    pub fn classify(&self, x: &[f64]) -> f64 {
        if self.score(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Energy (sum of squared coefficients) — dominance is usually chosen
    /// to preserve most of it.
    pub fn energy(&self) -> f64 {
        self.coefficients.iter().map(|c| c * c).sum()
    }
}

/// Accuracy of a classifier over a test set.
pub fn accuracy(test: &[Example], classify: impl Fn(&[f64]) -> f64) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    test.iter().filter(|e| classify(&e.x) == e.y).count() as f64 / test.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic stream: y = majority vote of features 0..3, with label
    /// noise; 8 features total (5 are irrelevant).
    fn stream(n: usize, noise: f64, rng: &mut StdRng) -> Vec<Example> {
        (0..n)
            .map(|_| {
                let x: Vec<f64> = (0..8)
                    .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                    .collect();
                let vote: f64 = x[0] + x[1] + x[2];
                let mut y = if vote >= 0.0 { 1.0 } else { -1.0 };
                if rng.gen_bool(noise) {
                    y = -y;
                }
                Example::new(x, y)
            })
            .collect()
    }

    #[test]
    fn stump_learns_a_single_informative_feature() {
        let mut rng = StdRng::seed_from_u64(1);
        // y = x[4] exactly.
        let batch: Vec<Example> = (0..200)
            .map(|_| {
                let x: Vec<f64> = (0..6)
                    .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                    .collect();
                let y = x[4];
                Example::new(x, y)
            })
            .collect();
        let s = Stump::train(&batch);
        assert_eq!(s.feature, 4);
        assert_eq!(s.sign, 1.0);
        assert_eq!(s.accuracy, 1.0);
    }

    #[test]
    fn stump_learns_negated_features_too() {
        let mut rng = StdRng::seed_from_u64(2);
        let batch: Vec<Example> = (0..200)
            .map(|_| {
                let x: Vec<f64> = (0..4)
                    .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                    .collect();
                let y = -x[2];
                Example::new(x, y)
            })
            .collect();
        let s = Stump::train(&batch);
        assert_eq!((s.feature, s.sign), (2, -1.0));
    }

    #[test]
    fn ensemble_beats_single_stump_on_majority_concept() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ensemble = Ensemble::new();
        for _ in 0..15 {
            let batch = stream(120, 0.1, &mut rng);
            ensemble.absorb_batch(&batch);
        }
        let test = stream(3_000, 0.0, &mut rng);
        let single = Stump::train(&stream(120, 0.1, &mut rng));
        let acc_single = accuracy(&test, |x| single.predict(x));
        let acc_ens = accuracy(&test, |x| ensemble.predict(x));
        // A single stump caps at ~75 % on 3-feature majority; the ensemble
        // combines stumps on different relevant features.
        assert!(acc_ens > acc_single, "{acc_ens} !> {acc_single}");
        assert!(acc_ens > 0.85, "ensemble accuracy {acc_ens}");
    }

    #[test]
    fn spectrum_concentrates_on_relevant_features() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ensemble = Ensemble::new();
        for _ in 0..30 {
            ensemble.absorb_batch(&stream(150, 0.05, &mut rng));
        }
        let spec = ensemble.spectrum(8);
        let relevant: f64 = spec.coefficients[..3].iter().map(|c| c.abs()).sum();
        let irrelevant: f64 = spec.coefficients[3..].iter().map(|c| c.abs()).sum();
        assert!(
            relevant > 5.0 * irrelevant,
            "spectrum should concentrate: {relevant} vs {irrelevant}"
        );
    }

    #[test]
    fn dominant_truncation_preserves_accuracy_with_fewer_components() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ensemble = Ensemble::new();
        for _ in 0..30 {
            ensemble.absorb_batch(&stream(150, 0.05, &mut rng));
        }
        let test = stream(3_000, 0.0, &mut rng);
        let full = ensemble.spectrum(8);
        let truncated = full.dominant(3);
        assert_eq!(truncated.support(), 3);
        let acc_full = accuracy(&test, |x| full.classify(x));
        let acc_trunc = accuracy(&test, |x| truncated.classify(x));
        assert!(
            acc_trunc >= acc_full - 0.03,
            "3 dominant components suffice: {acc_trunc} vs {acc_full}"
        );
        assert!(truncated.energy() <= full.energy() + 1e-12);
    }

    #[test]
    fn combined_tree_matches_ensemble_votes() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ensemble = Ensemble::new();
        for _ in 0..20 {
            ensemble.absorb_batch(&stream(100, 0.1, &mut rng));
        }
        // The full spectrum IS the ensemble's weighted vote: predictions
        // must agree everywhere.
        let spec = ensemble.spectrum(8);
        let test = stream(500, 0.0, &mut rng);
        for e in &test {
            assert_eq!(spec.classify(&e.x), ensemble.predict(&e.x));
        }
    }

    #[test]
    #[should_panic(expected = "label must be")]
    fn bad_labels_rejected() {
        Example::new(vec![1.0], 0.5);
    }
}
