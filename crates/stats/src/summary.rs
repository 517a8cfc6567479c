//! Online (single-pass) summary statistics.

/// Welford-style online accumulator for mean / variance / extrema.
///
/// Numerically stable for long series; merging two accumulators is exact in
/// the same sense as the sequential update.
///
/// # Examples
///
/// ```
/// use stats::Summary;
///
/// let s: stats::Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Summary { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// `max - min`; `NaN` when empty.
    pub fn range(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max - self.min
        }
    }

    /// Population variance (divides by `n`); `NaN` when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n-1`); `NaN` when `n < 2`.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.6} sd={:.6} min={:.6} max={:.6}",
            self.count,
            self.mean(),
            self.sample_std_dev(),
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_nan() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert!(s.range().is_nan());
        assert!(s.population_variance().is_nan());
    }

    #[test]
    fn single_value() {
        let mut s = Summary::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.population_variance(), 0.0);
        assert!(s.sample_variance().is_nan());
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0 + 5.0).collect();
        let s: Summary = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.population_variance() - var).abs() < 1e-8);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let (a, b) = xs.split_at(123);
        let mut sa: Summary = a.iter().copied().collect();
        let sb: Summary = b.iter().copied().collect();
        sa.merge(&sb);
        let all: Summary = xs.iter().copied().collect();
        assert_eq!(sa.count(), all.count());
        assert!((sa.mean() - all.mean()).abs() < 1e-10);
        assert!((sa.population_variance() - all.population_variance()).abs() < 1e-8);
        assert_eq!(sa.min(), all.min());
        assert_eq!(sa.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].iter().copied().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
