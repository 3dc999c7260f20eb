//! Property-based tests for the stream-mining substrate.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pg_grid::mining::{accuracy, Ensemble, Example, Stump};
use propcheck::check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_examples(n: usize, d: usize, concept: usize, noise: f64, seed: u64) -> Vec<Example> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..d)
                .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                .collect();
            let mut y = x[concept];
            if noise > 0.0 && rng.gen_bool(noise) {
                y = -y;
            }
            Example::new(x, y)
        })
        .collect()
}

/// Stump training accuracy is always at least 0.5 (it can pick the
/// negation of any feature).
#[test]
fn stump_accuracy_at_least_half() {
    check("stump_accuracy_at_least_half", 64, |g| {
        let seed = g.u64();
        let d = g.range(1usize..8);
        let concept = g.range(0usize..8);
        let noise = g.range(0.0f64..0.5);
        let concept = concept % d;
        let batch = random_examples(60, d, concept, noise, seed);
        let s = Stump::train(&batch);
        assert!(s.accuracy >= 0.5 - 1e-12, "accuracy {}", s.accuracy);
        // Training accuracy is a real empirical rate over the batch.
        let emp = accuracy(&batch, |x| s.predict(x));
        assert!((emp - s.accuracy).abs() < 1e-12);
    });
}

/// On a noise-free single-feature concept the stump recovers the
/// feature exactly (or an equally perfect one).
#[test]
fn stump_nails_clean_concepts() {
    check("stump_nails_clean_concepts", 64, |g| {
        let seed = g.u64();
        let d = g.range(1usize..8);
        let concept = g.range(0usize..8);
        let concept = concept % d;
        let batch = random_examples(80, d, concept, 0.0, seed);
        let s = Stump::train(&batch);
        assert_eq!(s.accuracy, 1.0);
        let test = random_examples(200, d, concept, 0.0, seed.wrapping_add(1));
        assert_eq!(accuracy(&test, |x| s.predict(x)), 1.0);
    });
}

/// The full spectrum's classifier is IDENTICAL to the ensemble's
/// weighted vote, for any ensemble (the Fourier representation is
/// exact, not approximate).
fn spectrum_matches_the_vote(seed: u64, batches: usize) {
    let d = 6;
    let mut ensemble = Ensemble::new();
    for b in 0..batches {
        let concept = b % d;
        ensemble.absorb_batch(&random_examples(
            40,
            d,
            concept,
            0.2,
            seed.wrapping_add(b as u64),
        ));
    }
    let spec = ensemble.spectrum(d);
    let probe = random_examples(100, d, 0, 0.0, seed.wrapping_add(999));
    for e in &probe {
        // The two scores are the same sum grouped differently; they
        // agree to rounding, and the classifications agree whenever
        // the score is not within rounding of the decision boundary.
        let se = ensemble.score(&e.x);
        let ss = spec.score(&e.x);
        assert!((se - ss).abs() < 1e-9, "{se} vs {ss}");
        if se.abs() > 1e-9 {
            assert_eq!(spec.classify(&e.x), ensemble.predict(&e.x));
        }
    }
}

#[test]
fn spectrum_is_exact_representation() {
    check("spectrum_is_exact_representation", 64, |g| {
        let seed = g.u64();
        let batches = g.range(1usize..12);
        spectrum_matches_the_vote(seed, batches);
    });
}

/// An input an earlier property harness once recorded as failing.
#[test]
fn spectrum_is_exact_for_a_recorded_ten_batch_ensemble() {
    spectrum_matches_the_vote(10_577_964_305_408_197_061, 10);
}

/// Dominant truncation: support ≤ m, energy never increases, and the
/// kept coefficients are exactly the m largest by magnitude.
#[test]
fn dominant_truncation_laws() {
    check("dominant_truncation_laws", 64, |g| {
        let seed = g.u64();
        let m = g.range(0usize..10);
        let d = 8;
        let mut ensemble = Ensemble::new();
        for b in 0..10usize {
            ensemble.absorb_batch(&random_examples(
                40,
                d,
                b % d,
                0.2,
                seed.wrapping_add(b as u64),
            ));
        }
        let full = ensemble.spectrum(d);
        let t = full.dominant(m);
        assert!(t.support() <= m.min(d));
        assert!(t.energy() <= full.energy() + 1e-12);
        // Every kept coefficient is >= every dropped one in magnitude.
        let kept_min = t
            .coefficients
            .iter()
            .filter(|c| **c != 0.0)
            .map(|c| c.abs())
            .fold(f64::INFINITY, f64::min);
        for (i, &c) in full.coefficients.iter().enumerate() {
            if t.coefficients[i] == 0.0 && c != 0.0 {
                assert!(c.abs() <= kept_min + 1e-12);
            }
        }
    });
}
