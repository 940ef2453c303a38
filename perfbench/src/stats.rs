//! Order statistics for wall-time samples.
//!
//! Percentiles use the nearest-rank rule on the sorted samples: the
//! `q`-quantile of `n` samples is the sample at rank `ceil(q·n)`, so exactly
//! `n − ceil(q·n)` samples lie beyond it. A tail percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, in per-mille, highest first.
const LADDER_PER_MILLE: [u64; 4] = [999, 990, 900, 500];

/// Rank (1-based) of the `per_mille`/1000 nearest-rank quantile of `n`
/// samples: `ceil(per_mille·n / 1000)`, at least 1.
fn rank(n: usize, per_mille: u64) -> usize {
    let r = (per_mille * n as u64).div_ceil(1000) as usize;
    r.max(1)
}

/// Samples lying beyond the `per_mille` quantile of `n` samples.
#[must_use]
pub fn beyond(n: usize, per_mille: u64) -> usize {
    n.saturating_sub(rank(n, per_mille))
}

/// The highest percentile of the ladder (99.9, 99, 90, 50) with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, in per-mille; `None` when even
/// the median has fewer.
#[must_use]
pub fn tail_per_mille(n: usize) -> Option<u64> {
    LADDER_PER_MILLE
        .into_iter()
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND)
}

/// The `per_mille` nearest-rank quantile of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], per_mille: u64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Sorts a copy of `xs` ascending.
#[must_use]
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank, lower middle for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 500)
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(999), Some(900));
    }

    #[test]
    fn tail_ladder_walks_down_with_sample_count() {
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert_eq!(tail_per_mille(9_999), Some(990));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(0), None);
    }

    #[test]
    fn reported_tail_always_leaves_ten_beyond() {
        for n in 0..3000 {
            if let Some(pm) = tail_per_mille(n) {
                assert!(beyond(n, pm) >= MIN_BEYOND, "n={n} pm={pm}");
                // No higher rung qualifies.
                for &higher in LADDER_PER_MILLE.iter().filter(|&&h| h > pm) {
                    assert!(beyond(n, higher) < MIN_BEYOND, "n={n} {higher}");
                }
            }
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&xs, 990), 990.0);
        assert_eq!(quantile_sorted(&xs, 500), 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(quantile_sorted(&[7.0], 999), 7.0);
    }

    #[test]
    fn mean_and_ratio_handle_empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
