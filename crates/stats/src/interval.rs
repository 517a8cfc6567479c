//! Time intervals and Marzullo's agreement algorithm.
//!
//! Section V of the paper proposes accepting peer timestamps only when they
//! are *consistent*: given clocks with timestamps `t_i` and error bounds
//! `e_i`, the intervals `t_i ± e_i` of honest clocks ("true-chimers") must
//! share a non-empty intersection. Marzullo's algorithm (Marzullo & Owicki,
//! 1983) finds the smallest interval contained in the maximum number of
//! input intervals — the same primitive NTP's clock-selection uses.

/// A closed interval `[lo, hi]` on the timeline (nanoseconds as `f64`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Interval {
    /// Creates an interval from its bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "interval bounds must not be NaN");
        assert!(lo <= hi, "interval bounds out of order: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The interval `center ± radius`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or any value is NaN.
    pub fn around(center: f64, radius: f64) -> Self {
        assert!(radius >= 0.0, "radius must be non-negative, got {radius}");
        Interval::new(center - radius, center + radius)
    }

    /// Midpoint of the interval.
    pub fn center(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    /// Width `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// True if `x` lies within the closed interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// True if the two closed intervals share at least one point.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The interval widened by `pad` on both sides (Cristian-style slack:
    /// a reading collected over a round-trip is only known to `±pad` more
    /// than its self-assessed bound).
    ///
    /// # Panics
    ///
    /// Panics if `pad` is negative or NaN.
    pub fn inflate(&self, pad: f64) -> Interval {
        assert!(pad >= 0.0, "pad must be non-negative, got {pad}");
        Interval::new(self.lo - pad, self.hi + pad)
    }

    /// The interval shifted by `delta` along the timeline (projection of a
    /// past reading to a later decision instant).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is NaN.
    pub fn shift(&self, delta: f64) -> Interval {
        Interval::new(self.lo + delta, self.hi + delta)
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// The most intervals one [`marzullo`] call takes: one bit per input in
/// [`Agreement::chimers`].
pub const MAX_INTERVALS: usize = u64::BITS as usize;

/// Outcome of running [`marzullo`] over a set of intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agreement {
    /// The smallest interval contained in [`Agreement::support`] inputs.
    pub interval: Interval,
    /// How many input intervals contain [`Agreement::interval`].
    pub support: usize,
    /// Bit `i` is set when input `i` contains [`Agreement::interval`]:
    /// the *true-chimers*.
    pub chimers: u64,
}

impl Agreement {
    /// True when the supporting set is a strict majority of `total` clocks.
    pub fn is_majority_of(&self, total: usize) -> bool {
        2 * self.support > total
    }
}

/// Marzullo's algorithm: finds the smallest interval lying within the
/// largest number of the input intervals. It allocates nothing: the sorted
/// bounds live in stack buffers.
///
/// Returns `None` for an empty input. For ties in support, the earliest
/// such interval on the timeline is returned (deterministic).
///
/// # Panics
///
/// Panics on more than [`MAX_INTERVALS`] inputs.
///
/// # Examples
///
/// ```
/// use stats::{marzullo, Interval};
///
/// let clocks = [
///     Interval::around(100.0, 5.0),  // honest
///     Interval::around(102.0, 5.0),  // honest
///     Interval::around(250.0, 5.0),  // false-chimer (attacked clock)
/// ];
/// let agreement = marzullo(&clocks).unwrap();
/// assert_eq!(agreement.support, 2);
/// assert_eq!(agreement.chimers, 0b011);
/// assert!(agreement.interval.contains(100.0));
/// ```
pub fn marzullo(intervals: &[Interval]) -> Option<Agreement> {
    if intervals.is_empty() {
        return None;
    }
    assert!(intervals.len() <= MAX_INTERVALS, "marzullo takes at most {MAX_INTERVALS} intervals");
    // The edges, as the sorted lower and the sorted upper bounds, swept
    // in offset order. A lower bound goes before an upper bound at the
    // same offset, so closed intervals that touch overlap.
    let n = intervals.len();
    let (mut lo_buf, mut hi_buf) = ([0.0; MAX_INTERVALS], [0.0; MAX_INTERVALS]);
    let (los, his) = (&mut lo_buf[..n], &mut hi_buf[..n]);
    for ((lo, hi), iv) in los.iter_mut().zip(his.iter_mut()).zip(intervals) {
        (*lo, *hi) = (iv.lo, iv.hi);
    }
    let by_offset = |a: &f64, b: &f64| a.partial_cmp(b).expect("interval bounds are never NaN");
    los.sort_unstable_by(by_offset);
    his.sort_unstable_by(by_offset);

    let mut depth = 0;
    let mut best_depth = 0;
    let mut best_lo = f64::NAN;
    let mut best_hi = f64::NAN;
    let mut current_lo = f64::NAN;
    let mut lower = los.iter().peekable();
    for &hi in his.iter() {
        while let Some(&lo) = lower.next_if(|&&lo| lo <= hi) {
            depth += 1;
            if depth > best_depth {
                best_depth = depth;
                current_lo = lo;
                best_lo = f64::NAN; // a deeper region supersedes earlier best
            }
        }
        if depth == best_depth && best_lo.is_nan() {
            best_lo = current_lo;
            best_hi = hi;
        }
        depth -= 1;
    }
    let interval = Interval::new(best_lo, best_hi);
    let chimers = intervals
        .iter()
        .enumerate()
        .filter(|(_, iv)| iv.lo <= interval.lo && interval.hi <= iv.hi)
        .fold(0u64, |mask, (i, _)| mask | 1 << i);
    debug_assert_eq!(chimers.count_ones() as usize, best_depth);
    Some(Agreement { interval, support: best_depth, chimers })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_construction_and_queries() {
        let iv = Interval::around(10.0, 2.0);
        assert_eq!(iv, Interval::new(8.0, 12.0));
        assert_eq!(iv.center(), 10.0);
        assert_eq!(iv.width(), 4.0);
        assert!(iv.contains(8.0) && iv.contains(12.0));
        assert!(!iv.contains(12.1));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn inverted_interval_panics() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn inflate_and_shift() {
        let iv = Interval::around(100.0, 5.0);
        assert_eq!(iv.inflate(2.0), Interval::new(93.0, 107.0));
        assert_eq!(iv.inflate(0.0), iv);
        assert_eq!(iv.shift(10.0), Interval::new(105.0, 115.0));
        assert_eq!(iv.shift(-10.0), Interval::new(85.0, 95.0));
        // A pad exactly bridging a gap makes touching intervals overlap.
        let a = Interval::new(0.0, 10.0);
        let b = Interval::new(12.0, 20.0);
        assert!(!a.overlaps(&b));
        assert!(a.inflate(1.0).overlaps(&b.inflate(1.0)));
    }

    #[test]
    #[should_panic(expected = "pad must be non-negative")]
    fn negative_inflate_panics() {
        let _ = Interval::new(0.0, 1.0).inflate(-0.5);
    }

    #[test]
    fn overlap_is_closed() {
        let a = Interval::new(0.0, 10.0);
        assert!(a.overlaps(&Interval::new(5.0, 15.0)));
        assert!(!a.overlaps(&Interval::new(11.0, 12.0)));
        // Touching endpoints count as overlap (closed intervals).
        assert!(a.overlaps(&Interval::new(10.0, 11.0)));
    }

    #[test]
    fn marzullo_all_agree() {
        let ivs = [
            Interval::around(100.0, 10.0),
            Interval::around(103.0, 10.0),
            Interval::around(98.0, 10.0),
        ];
        let a = marzullo(&ivs).unwrap();
        assert_eq!(a.support, 3);
        assert_eq!(a.chimers, 0b111);
        // Intersection of all three: [93, 108] ∩ ... = [93, 108]∩[88,108]
        assert_eq!(a.interval, Interval::new(93.0, 108.0));
    }

    #[test]
    fn marzullo_rejects_false_chimer() {
        let ivs = [
            Interval::around(0.0, 1.0),
            Interval::around(0.5, 1.0),
            Interval::around(1000.0, 1.0), // attacked clock far in the future
        ];
        let a = marzullo(&ivs).unwrap();
        assert_eq!(a.support, 2);
        assert_eq!(a.chimers, 0b011);
        assert!(a.is_majority_of(3));
        assert!(!a.interval.contains(1000.0));
    }

    #[test]
    fn marzullo_disjoint_inputs_pick_first() {
        let ivs = [Interval::new(0.0, 1.0), Interval::new(5.0, 6.0)];
        let a = marzullo(&ivs).unwrap();
        assert_eq!(a.support, 1);
        assert_eq!(a.interval, Interval::new(0.0, 1.0));
        assert!(!a.is_majority_of(2));
    }

    #[test]
    fn marzullo_classic_example() {
        // Marzullo's canonical example: 8..12, 11..13, 10..12 → [11,12] @ 3.
        let ivs = [Interval::new(8.0, 12.0), Interval::new(11.0, 13.0), Interval::new(10.0, 12.0)];
        let a = marzullo(&ivs).unwrap();
        assert_eq!(a.support, 3);
        assert_eq!(a.interval, Interval::new(11.0, 12.0));
    }

    #[test]
    fn marzullo_empty_and_single() {
        assert!(marzullo(&[]).is_none());
        let a = marzullo(&[Interval::new(1.0, 2.0)]).unwrap();
        assert_eq!(a.support, 1);
        assert_eq!(a.interval, Interval::new(1.0, 2.0));
        assert_eq!(a.chimers, 0b1);
    }

    #[test]
    fn marzullo_touching_intervals_agree() {
        let ivs = [Interval::new(0.0, 5.0), Interval::new(5.0, 10.0)];
        let a = marzullo(&ivs).unwrap();
        assert_eq!(a.support, 2);
        assert_eq!(a.interval, Interval::new(5.0, 5.0));
    }
}
