//! Order statistics for reported timings.
//!
//! A reported percentile must rest on at least [`MIN_BEYOND`] samples
//! beyond it: p99 needs 1,000 samples, p50 needs 20. [`percentile`]
//! returns `None` below that, so a run too short to support a tail
//! number cannot report one.

/// Samples a reported percentile needs strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples sorted");
    percentile_by(sorted.len(), p, |i| sorted[i])
}

/// [`percentile`] over `n` sorted samples read through `at(i)`, for
/// samples that are cheaper to index than to materialize.
pub fn percentile_by(n: usize, p: f64, at: impl Fn(usize) -> f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile rank must be in (0, 1): {p}");
    let rank = (p * n as f64).ceil() as usize; // 1-based nearest rank
    (rank >= 1 && n - rank >= MIN_BEYOND).then(|| at(rank - 1))
}

/// Median of any non-empty sample (mean of the middle two when even).
/// Unlike [`percentile`] it needs no tail support: it reports the
/// centre of however many repetitions a run made.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of no samples");
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// A sorted copy (total order; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.25), Some(25.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 at n = 1000 leaves exactly 10 beyond: supported.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // One sample fewer leaves 9 beyond: refused.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p90 needs 100 samples, p50 needs 20.
        assert!(percentile(&ramp(100), 0.9).is_some());
        assert!(percentile(&ramp(99), 0.9).is_none());
        assert!(percentile(&ramp(20), 0.5).is_some());
        assert!(percentile(&ramp(19), 0.5).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
