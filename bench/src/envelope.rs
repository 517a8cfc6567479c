//! The fast-envelope estimator and the quantile helpers every reported
//! number goes through.
//!
//! The DES workloads are deterministic: one slice of one unit does the
//! same work on every repetition, so every sample of its host time is the
//! uninterrupted cost plus a non-negative interference term (scheduler
//! preemption, cache eviction by a neighbour, an interrupt). The mean and
//! even the median of such samples move with the host's load; the low
//! tail does not. The estimator therefore reports the k-th smallest
//! sample, k = max(1, ⌈n/20⌉) — the fastest-5 % boundary — which is a
//! sample that really occurred, is robust against a single freakishly
//! short reading (for n ≥ 40 it is not the minimum), and needs only that
//! one run in twenty went uninterrupted.

/// Fewest samples a reported envelope may rest on.
pub const MIN_SAMPLES: usize = 20;

/// Why [`fast_envelope`] refused to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples offered.
    pub got: usize,
    /// Samples required.
    pub need: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fast envelope needs {} samples, got {}", self.need, self.got)
    }
}

/// The k-th smallest of `samples`, k = max(1, ⌈n/20⌉).
///
/// # Errors
///
/// Refuses to estimate from fewer than `min_n` samples.
pub fn fast_envelope(samples: &[f64], min_n: usize) -> Result<f64, TooFewSamples> {
    let n = samples.len();
    if n < min_n.max(1) {
        return Err(TooFewSamples { got: n, need: min_n.max(1) });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[n.div_ceil(20).max(1) - 1])
}

/// Nearest-rank quantile `q` in `[0, 1]` of already sorted, non-empty data.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no data");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts a copy of `data` ascending.
pub fn sorted(data: &[f64]) -> Vec<f64> {
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of non-empty data (nearest rank).
pub fn median(data: &[f64]) -> f64 {
    quantile_sorted(&sorted(data), 0.5)
}

/// The three quartile cut points, by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (exclusive method), so the A/A table
/// shows the spread the acceptance check will compute.
pub fn quartiles(data: &[f64]) -> [f64; 3] {
    let s = sorted(data);
    let n = s.len();
    assert!(n >= 2, "quartiles need two data points");
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn envelope_recovers_the_clean_time_under_one_sided_noise() {
        // A 1 ms deterministic unit; 85 % of runs are hit by interference
        // that only ever adds time (up to +60 %), the rest carry timer
        // jitter of a few hundred nanoseconds.
        let clean = 1.0e6;
        let mut rng = StdRng::seed_from_u64(12);
        for n in [20usize, 100, 400] {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    let jitter = rng.gen_range(0.0..300.0);
                    if rng.gen_bool(0.85) {
                        clean + jitter + rng.gen_range(0.0..0.6) * clean
                    } else {
                        clean + jitter
                    }
                })
                .collect();
            let est = fast_envelope(&samples, MIN_SAMPLES).unwrap();
            let mean = samples.iter().sum::<f64>() / n as f64;
            assert!((est - clean).abs() / clean < 0.01, "n={n}: envelope {est} vs clean {clean}");
            assert!((mean - clean) / clean > 0.15, "the mean must be visibly polluted ({mean})");
        }
    }

    #[test]
    fn envelope_is_the_kth_smallest() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // n = 100 → k = 5.
        assert_eq!(fast_envelope(&samples, MIN_SAMPLES), Ok(5.0));
        // n = 20 → k = 1: the minimum.
        assert_eq!(fast_envelope(&samples[..20], MIN_SAMPLES), Ok(81.0));
        // n = 21 → k = 2.
        assert_eq!(fast_envelope(&samples[..21], MIN_SAMPLES), Ok(81.0));
    }

    #[test]
    fn envelope_refuses_too_few_samples() {
        let samples = vec![1.0; 19];
        assert_eq!(
            fast_envelope(&samples, MIN_SAMPLES),
            Err(TooFewSamples { got: 19, need: MIN_SAMPLES })
        );
        assert!(fast_envelope(&[], 0).is_err(), "never estimates from nothing");
        assert_eq!(fast_envelope(&samples[..5], 5), Ok(1.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 5.0);
        assert_eq!(quantile_sorted(&s, 0.9), 9.0);
        assert_eq!(quantile_sorted(&s, 1.0), 10.0);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }
}
