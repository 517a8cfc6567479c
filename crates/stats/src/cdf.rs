//! Empirical distributions: CDFs and percentiles.
//!
//! Figure 1 of the paper plots cumulative distributions of inter-AEX delays;
//! [`Cdf`] regenerates those series.

/// An empirical cumulative distribution function built from samples.
///
/// # Examples
///
/// ```
/// use stats::Cdf;
///
/// let cdf = Cdf::from_samples([10.0, 532.0, 1590.0, 10.0, 532.0, 1590.0]);
/// assert_eq!(cdf.len(), 6);
/// assert!((cdf.fraction_at_or_below(532.0) - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(cdf.percentile(50.0), 532.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. NaN samples are rejected.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(sorted.iter().all(|x| !x.is_nan()), "CDF samples must not be NaN");
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when built from no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`, in `[0, 1]`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Value at percentile `p` in `[0, 100]` (nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "percentile of empty CDF");
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100], got {p}");
        if p == 0.0 {
            return self.sorted[0];
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.saturating_sub(1)]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The full plottable step series: one `(value, cumulative_fraction)`
    /// point per sample, suitable for CSV export of Figure 1-style plots.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted.iter().enumerate().map(|(i, &v)| (v, (i + 1) as f64 / n)).collect()
    }

    /// Down-sampled step series with at most `max_points` points (always
    /// keeping the first and last), for compact plotting.
    pub fn points_decimated(&self, max_points: usize) -> Vec<(f64, f64)> {
        let pts = self.points();
        if pts.len() <= max_points || max_points < 2 {
            return pts;
        }
        let stride = (pts.len() - 1) as f64 / (max_points - 1) as f64;
        (0..max_points).map(|i| pts[(i as f64 * stride).round() as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basic_fractions() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(2.5), 0.5);
        assert_eq!(cdf.fraction_at_or_below(4.0), 1.0);
        assert_eq!(cdf.fraction_at_or_below(9.0), 1.0);
    }

    #[test]
    fn cdf_percentiles_nearest_rank() {
        let cdf = Cdf::from_samples((1..=100).map(|i| i as f64));
        assert_eq!(cdf.percentile(0.0), 1.0);
        assert_eq!(cdf.percentile(1.0), 1.0);
        assert_eq!(cdf.percentile(50.0), 50.0);
        assert_eq!(cdf.percentile(99.0), 99.0);
        assert_eq!(cdf.percentile(100.0), 100.0);
        assert_eq!(cdf.median(), 50.0);
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(100.0));
    }

    #[test]
    fn cdf_points_step_upward() {
        let cdf = Cdf::from_samples([3.0, 1.0, 2.0]);
        let pts = cdf.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 1.0 / 3.0));
        assert_eq!(pts[2], (3.0, 1.0));
    }

    #[test]
    fn cdf_decimation_keeps_endpoints() {
        let cdf = Cdf::from_samples((0..1000).map(|i| i as f64));
        let pts = cdf.points_decimated(11);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[10].0, 999.0);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::from_samples(std::iter::empty());
        assert!(cdf.is_empty());
        assert!(cdf.fraction_at_or_below(1.0).is_nan());
        assert_eq!(cdf.min(), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cdf_rejects_nan() {
        let _ = Cdf::from_samples([1.0, f64::NAN]);
    }
}
