//! Summary statistics for timing samples.

/// Percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// A tail percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, from [`TAIL_LADDER`].
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, by nearest rank: percentile `p` of `n` samples is
/// the sample of rank `ceil(p/100 · n)`, and the samples beyond it are
/// the `n - rank` above that rank. `None` when even the median has fewer
/// than ten samples beyond it (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().find_map(|&pct| {
        // Round before ceil so 99.9% of 1000 is rank 999, not 1000.
        let rank = ((pct / 100.0 * n as f64 * 1e6).round() / 1e6).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: sorted[rank - 1],
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order, so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9
        // (rank 999) has only one beyond.
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        // 999 samples: p99 is rank 990 with 9 beyond, so p90 (rank 900).
        let t = tail(&ramp(999)).expect("tail");
        assert_eq!((t.pct, t.value), (90.0, 900.0));
        // 10_000 samples: p99.9 is rank 9990, exactly 10 beyond.
        let t = tail(&ramp(10_000)).expect("tail");
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
        // 20 samples: the median (rank 10) has 10 beyond; 19 have 9.
        assert_eq!(tail(&ramp(20)).map(|t| t.pct), Some(50.0));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_beyond() {
        for n in 20..3000 {
            let values = ramp(n);
            let t = tail(&values).expect("tail");
            let beyond = values.iter().filter(|&&v| v > t.value).count();
            assert!(
                beyond >= TAIL_MIN_BEYOND,
                "n={n}: {beyond} beyond p{}",
                t.pct
            );
            // The next rung up the ladder would leave fewer than ten.
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&p| p > t.pct) {
                let rank = (higher / 100.0 * n as f64 - 1e-9).ceil() as usize;
                assert!(
                    n - rank < TAIL_MIN_BEYOND,
                    "n={n}: p{higher} also qualifies"
                );
            }
        }
    }
}
