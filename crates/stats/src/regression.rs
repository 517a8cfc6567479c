//! Linear regression over (x, y) samples.
//!
//! Triad's calibration protocol fits TSC increments against requested Time
//! Authority sleep durations; the slope is the node's calibrated TSC
//! frequency (`F_i^calib` in the paper). Ordinary least squares is the
//! primary fit; a Theil–Sen estimator is provided for the hardened protocol
//! of Section V, because the median of pairwise slopes resists the
//! adversarial outliers an F+/F– attacker injects.

/// Result of a linear fit `y ≈ slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`; 1 is a perfect fit.
    /// `NaN` when `y` is constant.
    pub r_squared: f64,
    /// Number of samples used.
    pub n: usize,
}

/// Accumulates `(x, y)` samples and produces least-squares / Theil–Sen fits.
///
/// # Examples
///
/// ```
/// use stats::Regression;
///
/// let mut reg = Regression::new();
/// for i in 0..10 {
///     let x = i as f64;
///     reg.push(x, 3.0 * x + 1.0);
/// }
/// let fit = reg.ols().expect("enough samples");
/// assert!((fit.slope - 3.0).abs() < 1e-9);
/// assert!((fit.intercept - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Regression {
    samples: Vec<(f64, f64)>,
}

impl Regression {
    /// Creates an empty regression.
    pub fn new() -> Self {
        Regression { samples: Vec::new() }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64, y: f64) {
        self.samples.push((x, y));
    }

    /// Number of accumulated samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Discards all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Ordinary least-squares fit.
    ///
    /// Returns `None` with fewer than two samples or when all `x` are equal
    /// (the slope is then undefined).
    pub fn ols(&self) -> Option<LinearFit> {
        let n = self.samples.len();
        if n < 2 {
            return None;
        }
        let nf = n as f64;
        let mean_x = self.samples.iter().map(|s| s.0).sum::<f64>() / nf;
        let mean_y = self.samples.iter().map(|s| s.1).sum::<f64>() / nf;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for &(x, y) in &self.samples {
            let dx = x - mean_x;
            let dy = y - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        if sxx == 0.0 {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let r_squared = if syy == 0.0 { f64::NAN } else { (sxy * sxy) / (sxx * syy) };
        Some(LinearFit { slope, intercept, r_squared, n })
    }

    /// Theil–Sen robust fit: slope is the median of all pairwise slopes,
    /// intercept the median of `y - slope·x`.
    ///
    /// Tolerates up to ~29% of samples being arbitrary outliers. `r_squared`
    /// is computed against the robust line. Returns `None` with fewer than
    /// two samples or no pair with distinct `x`.
    pub fn theil_sen(&self) -> Option<LinearFit> {
        let n = self.samples.len();
        if n < 2 {
            return None;
        }
        let mut slopes = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let (x1, y1) = self.samples[i];
                let (x2, y2) = self.samples[j];
                if x1 != x2 {
                    slopes.push((y2 - y1) / (x2 - x1));
                }
            }
        }
        if slopes.is_empty() {
            return None;
        }
        let slope = median_in_place(&mut slopes);
        let mut residual_intercepts: Vec<f64> =
            self.samples.iter().map(|&(x, y)| y - slope * x).collect();
        let intercept = median_in_place(&mut residual_intercepts);

        let mean_y = self.samples.iter().map(|s| s.1).sum::<f64>() / n as f64;
        let ss_tot: f64 = self.samples.iter().map(|&(_, y)| (y - mean_y).powi(2)).sum();
        let ss_res: f64 =
            self.samples.iter().map(|&(x, y)| (y - (slope * x + intercept)).powi(2)).sum();
        let r_squared = if ss_tot == 0.0 { f64::NAN } else { 1.0 - ss_res / ss_tot };
        Some(LinearFit { slope, intercept, r_squared, n })
    }
}

impl FromIterator<(f64, f64)> for Regression {
    fn from_iter<T: IntoIterator<Item = (f64, f64)>>(iter: T) -> Self {
        Regression { samples: iter.into_iter().collect() }
    }
}

impl Extend<(f64, f64)> for Regression {
    fn extend<T: IntoIterator<Item = (f64, f64)>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

/// Median of a mutable slice (averaging the two central elements for even
/// lengths). Reorders the slice.
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn median_in_place(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mid = values.len() / 2;
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in median input"));
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, slope: f64, intercept: f64) -> Regression {
        (0..n).map(|i| (i as f64, slope * i as f64 + intercept)).collect()
    }

    #[test]
    fn ols_recovers_exact_line() {
        let fit = line(20, 2.5, -4.0).ols().unwrap();
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept + 4.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.n, 20);
    }

    #[test]
    fn ols_needs_two_distinct_x() {
        let mut r = Regression::new();
        assert!(r.ols().is_none());
        r.push(1.0, 2.0);
        assert!(r.ols().is_none());
        r.push(1.0, 5.0);
        assert!(r.ols().is_none(), "vertical line has undefined slope");
        r.push(2.0, 3.0);
        assert!(r.ols().is_some());
    }

    #[test]
    fn ols_on_noisy_line_is_close() {
        // Deterministic pseudo-noise.
        let mut r = Regression::new();
        for i in 0..200 {
            let x = i as f64 / 10.0;
            let noise = ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5) * 0.2;
            r.push(x, 7.0 * x + 3.0 + noise);
        }
        let fit = r.ols().unwrap();
        assert!((fit.slope - 7.0).abs() < 0.01, "slope {}", fit.slope);
        assert!((fit.intercept - 3.0).abs() < 0.1);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn two_point_regression_matches_paper_attack_algebra() {
        // The F+ attack: base network delay d on both points, +0.1s on the
        // s=1 point. Slope must become 1.1 * f.
        let f = 2.9e9;
        let d = 0.0002;
        let mut r = Regression::new();
        r.push(0.0, f * d);
        r.push(1.0, f * (1.0 + d + 0.1));
        let fit = r.ols().unwrap();
        assert!((fit.slope / f - 1.1).abs() < 1e-12);
    }

    #[test]
    fn theil_sen_matches_ols_without_outliers() {
        let r = line(15, 1.25, 0.5);
        let ts = r.theil_sen().unwrap();
        assert!((ts.slope - 1.25).abs() < 1e-12);
        assert!((ts.intercept - 0.5).abs() < 1e-12);
    }

    #[test]
    fn theil_sen_resists_outliers_that_break_ols() {
        let mut r = line(20, 1.0, 0.0);
        // Corrupt three samples with huge positive offsets (delay attack).
        r.push(20.0, 2000.0);
        r.push(21.0, 2100.0);
        r.push(22.0, 2200.0);
        let ols = r.ols().unwrap();
        let ts = r.theil_sen().unwrap();
        assert!((ts.slope - 1.0).abs() < 0.2, "theil-sen slope {}", ts.slope);
        assert!((ols.slope - 1.0).abs() > 10.0, "ols should be fooled, got {}", ols.slope);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_in_place(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_in_place(&mut [5.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_empty_panics() {
        median_in_place(&mut []);
    }
}
