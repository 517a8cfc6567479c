//! Property-based tests for the stats crate's core invariants.

use proptest::prelude::*;
use stats::{marzullo, Cdf, Interval, LogHistogram, Regression, Summary};

/// Marzullo by brute force over every endpoint: the agreement starts at
/// the earliest endpoint covered by the most closed intervals and ends
/// where the first of those covering it does; the chimers are exactly
/// the intervals covering that start.
fn brute_force_marzullo(ivs: &[Interval]) -> (Interval, usize, u64) {
    let covering = |x: f64| ivs.iter().filter(|iv| iv.contains(x)).count();
    let endpoints = ivs.iter().flat_map(|iv| [iv.lo, iv.hi]);
    let support = endpoints.clone().map(covering).max().unwrap();
    let start = endpoints.filter(|&x| covering(x) == support).fold(f64::INFINITY, f64::min);
    let end =
        ivs.iter().filter(|iv| iv.contains(start)).map(|iv| iv.hi).fold(f64::INFINITY, f64::min);
    let chimers = (0..ivs.len()).filter(|&i| ivs[i].contains(start)).fold(0u64, |m, i| m | 1 << i);
    (Interval::new(start, end), support, chimers)
}

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1.0e9..1.0e9f64).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    #[test]
    fn summary_mean_is_bounded_by_extrema(xs in proptest::collection::vec(finite_f64(), 1..200)) {
        let s: Summary = xs.iter().copied().collect();
        prop_assert!(s.min() <= s.mean() + 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.population_variance() >= -1e-9);
    }

    #[test]
    fn summary_merge_matches_sequential(
        a in proptest::collection::vec(finite_f64(), 0..100),
        b in proptest::collection::vec(finite_f64(), 0..100),
    ) {
        let mut merged: Summary = a.iter().copied().collect();
        merged.merge(&b.iter().copied().collect());
        let seq: Summary = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged.count(), seq.count());
        if seq.count() > 0 {
            let scale = 1.0 + seq.mean().abs();
            prop_assert!((merged.mean() - seq.mean()).abs() / scale < 1e-9);
        }
    }

    #[test]
    fn cdf_is_monotone_and_normalised(xs in proptest::collection::vec(finite_f64(), 1..200)) {
        let cdf = Cdf::from_samples(xs.iter().copied());
        let pts = cdf.points();
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
        // fraction_at_or_below is consistent with percentile.
        let med = cdf.median();
        prop_assert!(cdf.fraction_at_or_below(med) >= 0.5);
    }

    #[test]
    fn ols_recovers_lines_exactly(
        slope in -1.0e3..1.0e3f64,
        intercept in -1.0e3..1.0e3f64,
        n in 2usize..50,
    ) {
        let reg: Regression = (0..n).map(|i| {
            let x = i as f64;
            (x, slope * x + intercept)
        }).collect();
        let fit = reg.ols().unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
    }

    #[test]
    fn theil_sen_ignores_minority_outliers(
        slope in 0.5..10.0f64,
        outliers in proptest::collection::vec((0.0..100.0f64, 1.0e6..1.0e9f64), 0..5),
    ) {
        let mut reg: Regression = (0..20).map(|i| {
            let x = i as f64;
            (x, slope * x)
        }).collect();
        for (x, y) in outliers {
            reg.push(x, y);
        }
        let fit = reg.theil_sen().unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope), "slope {} vs {}", fit.slope, slope);
    }

    #[test]
    fn marzullo_support_bounds(
        centers in proptest::collection::vec(-1.0e6..1.0e6f64, 1..30),
        radius in 0.0..1.0e5f64,
    ) {
        let ivs: Vec<Interval> = centers.iter().map(|&c| Interval::around(c, radius)).collect();
        let a = marzullo(&ivs).unwrap();
        prop_assert!(a.support >= 1);
        prop_assert!(a.support <= ivs.len());
        prop_assert_eq!(a.chimers.count_ones() as usize, a.support);
        prop_assert!(a.chimers >> ivs.len() == 0, "a chimer past the inputs");
        // Exactly the chimers contain the agreement interval.
        for (i, iv) in ivs.iter().enumerate() {
            let contains = iv.lo <= a.interval.lo && a.interval.hi <= iv.hi;
            prop_assert_eq!(a.chimers & 1 << i != 0, contains, "interval {}", i);
        }
    }

    #[test]
    fn log_histogram_percentiles_match_sorted_oracle(
        xs in proptest::collection::vec(1.0e3..1.0e9f64, 1..400),
        ratio in 1.02..1.5f64,
        p in 0.0..100.0f64,
    ) {
        // The histogram's percentile must agree with the exact nearest-rank
        // percentile of the raw samples to within one bucket's relative
        // error: exact ≤ reported ≤ exact · ratio (samples kept in-range so
        // no under/overflow clamping applies).
        let mut h = LogHistogram::new(1.0e3, 1.0e9, ratio);
        for &x in &xs {
            h.push(x);
        }
        let exact = Cdf::from_samples(xs.iter().copied()).percentile(p);
        let reported = h.percentile(p);
        prop_assert!(reported >= exact * (1.0 - 1e-12), "p{p}: {reported} < exact {exact}");
        prop_assert!(reported <= exact * ratio * (1.0 + 1e-12), "p{p}: {reported} > {exact}·{ratio}");
    }

    #[test]
    fn log_histogram_total_and_counts_are_conserved(
        xs in proptest::collection::vec(1.0..1.0e12f64, 0..300),
    ) {
        let mut h = LogHistogram::new(1.0e3, 1.0e9, 1.1);
        for &x in &xs {
            h.push(x);
        }
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), h.total());
        prop_assert_eq!(h.total(), xs.len() as u64);
    }

    #[test]
    fn marzullo_is_permutation_invariant_in_support(
        centers in proptest::collection::vec(-1.0e3..1.0e3f64, 2..12),
    ) {
        let ivs: Vec<Interval> = centers.iter().map(|&c| Interval::around(c, 10.0)).collect();
        let mut rev = ivs.clone();
        rev.reverse();
        let a = marzullo(&ivs).unwrap();
        let b = marzullo(&rev).unwrap();
        prop_assert_eq!(a.support, b.support);
        prop_assert_eq!(a.interval, b.interval);
    }

    /// The allocation-free Marzullo against the brute-force reference, on
    /// up to 64 intervals whose integer bounds often touch or coincide.
    #[test]
    fn marzullo_matches_brute_force_over_all_endpoints(
        bounds in proptest::collection::vec((0u32..24, 0u32..5), 1..65),
    ) {
        let ivs: Vec<Interval> = bounds
            .iter()
            .map(|&(lo, len)| Interval::new(f64::from(lo), f64::from(lo + len)))
            .collect();
        let a = marzullo(&ivs).unwrap();
        let (interval, support, chimers) = brute_force_marzullo(&ivs);
        prop_assert_eq!(a.interval, interval);
        prop_assert_eq!(a.support, support);
        prop_assert_eq!(a.chimers, chimers);
    }
}
