//! Order statistics for the benchmark's two ledgers.
//!
//! Host times are folded over repeats (min / median / max); simulated
//! response times are reported as a median plus a tail percentile, and the
//! tail is only meaningful when enough samples lie beyond it.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sort a sample set ascending (total order, so NaN cannot panic).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank `q`-quantile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the set at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond (above) the nearest-rank `q`-quantile position.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The `q`-quantile, but only when at least [`MIN_BEYOND`] samples lie
/// beyond it — a tail percentile resting on fewer is noise, not a tail.
pub fn tail_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND)
        .then(|| quantile_sorted(sorted, q))
        .flatten()
}

/// Min / median / max of a set of repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fold {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

/// Fold repeats. The median of an even count is the mean of the middle
/// pair, as `statistics.median` has it.
pub fn fold(samples: &[f64]) -> Option<Fold> {
    let s = sorted(samples);
    let (first, last) = (*s.first()?, *s.last()?);
    let mid = s.len() / 2;
    let median = if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    };
    Some(Fold {
        min: first,
        median,
        max: last,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_a_sorted_reference() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&s, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&s, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&s, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        // Unsorted input goes through `sorted` first.
        assert_eq!(quantile_sorted(&sorted(&[3.0, 1.0, 2.0]), 0.5), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
        // 1000 samples: p99 is rank 990, ten lie beyond — just enough.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(&s(1000), 0.99), Some(990.0));
        // 999 samples: rank 990 again, only nine beyond.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(&s(999), 0.99), None);
        assert_eq!(tail_quantile(&s(999), 0.95), Some(950.0));
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn fold_reports_min_median_max() {
        let f = fold(&[3.0, 1.0, 2.0, 10.0]).unwrap();
        assert_eq!((f.min, f.median, f.max), (1.0, 2.5, 10.0));
        assert_eq!(fold(&[4.0]).unwrap().median, 4.0);
        assert!(fold(&[]).is_none());
    }
}
