//! Labelled deterministic RNG streams.
//!
//! Every stochastic component of a simulation gets its *own* named stream
//! forked from the master seed. Adding a new component (or reordering calls
//! inside one) then never perturbs the random numbers another component
//! draws — runs stay comparable across code changes, which is essential when
//! an experiment sweeps one parameter and holds "the randomness" fixed.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Factory for per-component RNG streams derived from one master seed.
#[derive(Debug, Clone)]
pub struct RngStreams {
    master: u64,
}

impl RngStreams {
    /// Create a factory from a master seed.
    pub fn new(master: u64) -> Self {
        RngStreams { master }
    }

    /// Fork a stream for the component named `label`.
    ///
    /// The same `(master, label)` pair always yields an identically seeded
    /// generator; distinct labels yield independent-looking streams.
    pub fn fork(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(mix(self.master, hash_label(label)))
    }

    /// Fork a stream for the `index`-th instance of a component family
    /// (e.g. one stream per sensor node).
    pub fn fork_indexed(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(mix(mix(self.master, hash_label(label)), index))
    }
}

/// FNV-1a over the label bytes: stable across platforms and Rust versions
/// (unlike `DefaultHasher`, whose algorithm is unspecified).
fn hash_label(label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: a well-mixed combination of two 64-bit words.
///
/// Public because the [`crate::fault`] harness uses the same mixer to derive
/// per-message fault fates from `(plan seed, message salt)` pairs — keeping
/// fault randomness on the same deterministic footing as every RNG stream.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn draws(mut rng: StdRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn same_label_same_stream() {
        let f = RngStreams::new(42);
        assert_eq!(draws(f.fork("net"), 8), draws(f.fork("net"), 8));
    }

    #[test]
    fn different_labels_differ() {
        let f = RngStreams::new(42);
        assert_ne!(draws(f.fork("net"), 8), draws(f.fork("sensors"), 8));
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = RngStreams::new(1).fork("net");
        let b = RngStreams::new(2).fork("net");
        assert_ne!(draws(a, 8), draws(b, 8));
    }

    #[test]
    fn indexed_streams_are_pairwise_distinct() {
        let f = RngStreams::new(7);
        let s0 = draws(f.fork_indexed("node", 0), 4);
        let s1 = draws(f.fork_indexed("node", 1), 4);
        let s2 = draws(f.fork_indexed("node", 2), 4);
        assert_ne!(s0, s1);
        assert_ne!(s1, s2);
        assert_ne!(s0, s2);
    }

    #[test]
    fn label_hash_is_stable() {
        // Pinned values: guard against accidental hash-algorithm changes,
        // which would silently re-randomize every experiment.
        assert_eq!(hash_label(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_label("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
