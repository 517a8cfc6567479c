//! Time-stamped scalar series (drift curves, AEX counts over time, …).

use sim::SimTime;

/// A series of `(reference time, value)` samples in non-decreasing time
/// order.
///
/// # Examples
///
/// ```
/// use sim::SimTime;
/// use trace::TimeSeries;
///
/// let mut s = TimeSeries::new();
/// s.push(SimTime::from_secs(1), 0.5);
/// s.push(SimTime::from_secs(2), 1.5);
/// assert_eq!(s.len(), 2);
/// assert!((s.slope_per_sec().unwrap() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last sample's time.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "TimeSeries must be pushed in time order");
        }
        self.points.push((t, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All samples in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Samples within `[from, to]`; empty when the window is inverted.
    pub fn window(&self, from: SimTime, to: SimTime) -> &[(SimTime, f64)] {
        let start = self.points.partition_point(|&(t, _)| t < from);
        let end = self.points.partition_point(|&(t, _)| t <= to);
        &self.points[start..end.max(start)]
    }

    /// Least-squares slope of the whole series in value-units per second
    /// (e.g. ms of drift per second); `None` with < 2 samples.
    pub fn slope_per_sec(&self) -> Option<f64> {
        self.slope_per_sec_in(SimTime::ZERO, SimTime::MAX)
    }

    /// Least-squares slope over samples within `[from, to]`.
    pub fn slope_per_sec_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let window = self.window(from, to);
        let mut reg = stats::Regression::new();
        for &(t, v) in window {
            reg.push(t.as_secs_f64(), v);
        }
        reg.ols().map(|fit| fit.slope)
    }

    /// All forward jumps of at least `min_step` between consecutive samples.
    pub fn steps_above(&self, min_step: f64) -> Vec<(SimTime, f64)> {
        self.points
            .windows(2)
            .map(|w| (w[1].0, w[1].1 - w[0].1))
            .filter(|&(_, d)| d >= min_step)
            .collect()
    }

    /// Minimum and maximum values; `None` when empty.
    pub fn value_range(&self) -> Option<(f64, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(_, v) in &self.points {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = (SimTime, f64)>>(iter: T) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pts: &[(u64, f64)]) -> TimeSeries {
        pts.iter().map(|&(s, v)| (SimTime::from_secs(s), v)).collect()
    }

    #[test]
    fn push_and_query() {
        let s = series(&[(1, 0.0), (2, 2.0), (3, 4.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some((SimTime::from_secs(3), 4.0)));
        assert!((s.slope_per_sec().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(s.value_range(), Some((0.0, 4.0)));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(2), 0.0);
        s.push(SimTime::from_secs(1), 0.0);
    }

    #[test]
    fn window_selects_inclusive_range() {
        let s = series(&[(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)]);
        let w = s.window(SimTime::from_secs(2), SimTime::from_secs(3));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].1, 2.0);
        assert_eq!(w[1].1, 3.0);
        assert!(s.window(SimTime::from_secs(5), SimTime::from_secs(9)).is_empty());
    }

    #[test]
    fn windowed_slope() {
        // Flat then steep.
        let s = series(&[(0, 0.0), (1, 0.0), (2, 0.0), (3, 10.0), (4, 20.0)]);
        let flat = s.slope_per_sec_in(SimTime::ZERO, SimTime::from_secs(2)).unwrap();
        let steep = s.slope_per_sec_in(SimTime::from_secs(2), SimTime::from_secs(4)).unwrap();
        assert!(flat.abs() < 1e-12);
        assert!((steep - 10.0).abs() < 1e-12);
    }

    #[test]
    fn steps_above_finds_the_jumps() {
        let s = series(&[(0, 0.0), (1, 0.1), (2, 35.0), (3, 35.2), (4, 70.0)]);
        let jumps = s.steps_above(30.0);
        assert_eq!(jumps.len(), 2);
        assert_eq!(jumps[1].0, SimTime::from_secs(4));
    }

    #[test]
    fn empty_series_edge_cases() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert!(s.slope_per_sec().is_none());
        assert!(s.value_range().is_none());
        assert!(s.last().is_none());
    }
}
