//! Log-linear histograms for latency accounting.
//!
//! Serving-layer SLO reporting needs percentiles over millions of latency
//! samples without keeping the samples. [`LogHistogram`] buckets samples
//! on a geometric grid (each bucket `ratio` times wider than the last), so
//! the relative quantization error of any reported percentile is bounded
//! by one bucket — `ratio - 1` — across the whole dynamic range, unlike a
//! fixed-width histogram, whose relative error explodes near its lower
//! edge.

/// A histogram whose bucket boundaries grow geometrically from `lo`.
///
/// Bucket `i` covers `[lo·ratio^i, lo·ratio^(i+1))`; samples below `lo`
/// and at or above `hi` land in dedicated under/overflow counters.
/// Percentile queries report the upper edge of the bucket holding the
/// nearest-rank sample, so they overestimate the exact sample by at most
/// a factor of `ratio`.
///
/// # Examples
///
/// ```
/// use stats::LogHistogram;
///
/// // 1 µs .. 10 s of latency at ≤ 10% relative error per bucket.
/// let mut h = LogHistogram::new(1e3, 1e10, 1.1);
/// for x in [2e4, 3e4, 5e4, 8e4, 4e6] {
///     h.push(x);
/// }
/// assert_eq!(h.total(), 5);
/// let p50 = h.percentile(50.0); // 3rd of 5 sorted samples: 5e4
/// assert!(p50 >= 5e4 && p50 <= 5e4 * 1.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    lo: f64,
    hi: f64,
    ratio: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl LogHistogram {
    /// Creates a histogram spanning `[lo, hi)` with buckets growing by
    /// `ratio` (the per-bucket relative error bound is `ratio - 1`).
    ///
    /// # Panics
    ///
    /// Panics when `lo <= 0`, `lo >= hi`, or `ratio <= 1`.
    pub fn new(lo: f64, hi: f64, ratio: f64) -> Self {
        assert!(lo > 0.0, "log histogram needs a positive lower edge");
        assert!(lo < hi, "log histogram range must be non-empty");
        assert!(ratio > 1.0, "bucket ratio must exceed 1");
        let buckets = ((hi / lo).ln() / ratio.ln()).ceil() as usize;
        LogHistogram {
            lo,
            hi,
            ratio,
            counts: vec![0; buckets.max(1)],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// The default latency histogram: 1 µs to 100 s (in nanoseconds) at
    /// ≤ 5% relative error per bucket.
    pub fn latency_ns() -> Self {
        LogHistogram::new(1e3, 1e11, 1.05)
    }

    fn index_of(&self, x: f64) -> usize {
        let idx = ((x / self.lo).ln() / self.ratio.ln()) as usize;
        idx.min(self.counts.len() - 1)
    }

    /// Adds a sample; out-of-range samples land in under/overflow counters.
    ///
    /// # Panics
    ///
    /// Panics on NaN samples.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "log histogram samples must not be NaN");
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let i = self.index_of(x);
            self.counts[i] += 1;
        }
        self.total += 1;
    }

    /// Total samples observed, including out-of-range.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when no sample was pushed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// In-range bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper edge of bucket `i` (percentiles report this value).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn bucket_upper(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bucket {i} out of range");
        (self.lo * self.ratio.powi(i as i32 + 1)).min(self.hi)
    }

    /// Value at percentile `p` in `[0, 100]` (nearest-rank over buckets).
    ///
    /// Underflow samples report `lo`, overflow samples report `hi`; any
    /// in-range sample reports its bucket's upper edge, at most `ratio`
    /// times the exact sample.
    ///
    /// # Panics
    ///
    /// Panics when empty or `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.total > 0, "percentile of empty histogram");
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100], got {p}");
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        if rank <= self.underflow {
            return self.lo;
        }
        let mut seen = self.underflow;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return self.bucket_upper(i);
            }
        }
        self.hi
    }

    /// 50th / 95th / 99th / 99.9th percentiles, the serving-layer SLO row.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn slo_percentiles(&self) -> [f64; 4] {
        [self.percentile(50.0), self.percentile(95.0), self.percentile(99.0), self.percentile(99.9)]
    }

    /// Folds another histogram of the identical shape into this one.
    ///
    /// # Panics
    ///
    /// Panics when the shapes (range, ratio) differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.ratio == other.ratio,
            "cannot merge log histograms of different shapes"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_and_panics() {
        let h = LogHistogram::new(1.0, 1e6, 1.5);
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty histogram")]
    fn empty_percentile_panics() {
        LogHistogram::new(1.0, 1e6, 1.5).percentile(50.0);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = LogHistogram::new(1.0, 1e6, 1.1);
        h.push(123.0);
        for p in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!((123.0..=123.0 * 1.1).contains(&v), "p{p} reported {v}");
        }
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn under_and_overflow_are_counted_and_ranked() {
        let mut h = LogHistogram::new(10.0, 1000.0, 2.0);
        h.push(1.0); // under
        h.push(50.0);
        h.push(5000.0); // over
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 3);
        assert_eq!(h.percentile(0.0), 10.0); // underflow reports lo
        assert_eq!(h.percentile(100.0), 1000.0); // overflow reports hi
    }

    #[test]
    fn relative_error_is_one_bucket() {
        let ratio = 1.07;
        let mut h = LogHistogram::new(1e3, 1e10, ratio);
        let samples: Vec<f64> = (0..1000).map(|i| 1e4 + (i as f64) * 997.0).collect();
        for &s in &samples {
            h.push(s);
        }
        let cdf = crate::Cdf::from_samples(samples);
        for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let exact = cdf.percentile(p);
            let est = h.percentile(p);
            assert!(est >= exact && est <= exact * ratio, "p{p}: est {est} exact {exact}");
        }
    }

    #[test]
    fn merge_equals_pushing_everything() {
        let mut a = LogHistogram::new(1.0, 1e6, 1.2);
        let mut b = LogHistogram::new(1.0, 1e6, 1.2);
        let mut all = LogHistogram::new(1.0, 1e6, 1.2);
        for i in 1..500u32 {
            let x = (i * 37 % 9973) as f64 + 0.5;
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            };
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merge_rejects_shape_mismatch() {
        let mut a = LogHistogram::new(1.0, 1e6, 1.2);
        a.merge(&LogHistogram::new(1.0, 1e6, 1.3));
    }

    #[test]
    fn latency_default_covers_microseconds_to_seconds() {
        let mut h = LogHistogram::latency_ns();
        h.push(1.5e3); // 1.5 µs
        h.push(2.0e9); // 2 s
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.total(), 2);
    }
}
