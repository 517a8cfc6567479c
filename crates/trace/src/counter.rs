//! Cumulative event counters over time, in two memory models.
//!
//! [`StepCounter`] keeps the instant of every event: the paper's step
//! curves (Fig. 2b TA references, Fig. 6b AEX counts) and the detection
//! instants behind `NodeTrace::detection_times` are read back from it, and
//! those events arrive a few times a minute. [`RateCounter`] keeps a total
//! and one cell per simulated second: the per-request serving counters are
//! only ever read as a total or as a count between whole-second instants,
//! and they arrive thousands of times a second, so their memory must not
//! grow with them.

use sim::{SimDuration, SimTime};

/// A counter that records the instant of every increment, reconstructing
/// the cumulative-count-over-time curves the paper plots.
///
/// # Examples
///
/// ```
/// use sim::SimTime;
/// use trace::StepCounter;
///
/// let mut c = StepCounter::new();
/// c.increment(SimTime::from_secs(10));
/// c.increment(SimTime::from_secs(20));
/// assert_eq!(c.count(), 2);
/// assert_eq!(c.count_at(SimTime::from_secs(15)), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepCounter {
    events: Vec<SimTime>,
}

impl StepCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        StepCounter { events: Vec::new() }
    }

    /// Records one event at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded event.
    pub fn increment(&mut self, t: SimTime) {
        if let Some(&last) = self.events.last() {
            assert!(t >= last, "counter events must be recorded in time order");
        }
        self.events.push(t);
    }

    /// Total events recorded.
    pub fn count(&self) -> u64 {
        self.events.len() as u64
    }

    /// Events recorded at or before `t`.
    pub fn count_at(&self, t: SimTime) -> u64 {
        self.events.partition_point(|&e| e <= t) as u64
    }

    /// Events recorded within `[from, to]`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is later than `to`.
    pub fn count_in(&self, from: SimTime, to: SimTime) -> u64 {
        assert_window(from, to);
        self.count_at(to) - self.events.partition_point(|&e| e < from) as u64
    }

    /// The raw event instants.
    pub fn events(&self) -> &[SimTime] {
        &self.events
    }

    /// The cumulative step curve as `(time, count)` points, one per event.
    pub fn curve(&self) -> Vec<(SimTime, u64)> {
        self.events.iter().enumerate().map(|(i, &t)| (t, (i + 1) as u64)).collect()
    }
}

/// The one resolution [`RateCounter`] answers at: whole simulated seconds,
/// which is where every experiment window, report and test in the tree
/// puts its bounds.
const GRID: SimDuration = SimDuration::from_secs(1);

/// A cumulative counter whose memory is one cell per simulated *second*,
/// not one entry per event.
///
/// It keeps a running total, per second `k` the pair (events in
/// `[k s, k+1 s)`, events exactly at `k s`), and an order-sensitive 64-bit
/// digest folded over every recorded instant. The pair is what makes the
/// inclusive `[from, to]` window of [`count_in`](Self::count_in) exact at
/// whole-second bounds; the digest is what keeps `==` as strict as
/// comparing the instant vectors of two [`StepCounter`]s (changing one
/// instant always changes it; two different histories agree only on a
/// 64-bit collision), so same-seed determinism checks lose nothing.
///
/// Queries are exact on the grid and refuse anything else: an instant that
/// is not a whole second panics, naming the instant, instead of rounding.
/// The instants themselves are gone — a counter whose event times are an
/// artifact belongs on [`StepCounter`].
///
/// # Examples
///
/// ```
/// use sim::SimTime;
/// use trace::RateCounter;
///
/// let mut c = RateCounter::new();
/// c.increment(SimTime::from_nanos(9_500_000_000));
/// c.increment(SimTime::from_secs(10));
/// c.increment(SimTime::from_nanos(10_000_000_001));
/// assert_eq!(c.count(), 3);
/// assert_eq!(c.count_at(SimTime::from_secs(10)), 2);
/// assert_eq!(c.count_in(SimTime::from_secs(10), SimTime::from_secs(11)), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RateCounter {
    total: u64,
    cells: Vec<Cell>,
    digest: u64,
    last: SimTime,
}

/// One grid second `k` of a [`RateCounter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    /// Events in `[k s, k+1 s)`.
    within: u64,
    /// Of those, the events exactly at `k s`.
    on_boundary: u64,
}

impl RateCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        RateCounter::default()
    }

    /// Records one event at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded event.
    pub fn increment(&mut self, t: SimTime) {
        assert!(t >= self.last, "counter events must be recorded in time order");
        self.last = t;
        let ns = t.as_nanos();
        let second = (ns / GRID.as_nanos()) as usize;
        if second >= self.cells.len() {
            self.cells.resize(second + 1, Cell::default());
        }
        let cell = &mut self.cells[second];
        cell.within += 1;
        cell.on_boundary += u64::from(ns.is_multiple_of(GRID.as_nanos()));
        self.total += 1;
        // Each step is a bijection of the digest for a fixed instant and
        // of the instant for a fixed digest, so one changed instant can
        // never be cancelled by the instants after it.
        self.digest = (self.digest.rotate_left(5) ^ ns).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// Total events recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Events recorded at or before `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a whole second.
    pub fn count_at(&self, t: SimTime) -> u64 {
        let second = grid_second(t);
        self.count_before(second) + self.cells.get(second).map_or(0, |c| c.on_boundary)
    }

    /// Events recorded within `[from, to]`.
    ///
    /// # Panics
    ///
    /// Panics if either bound is not a whole second, or if `from` is later
    /// than `to`.
    pub fn count_in(&self, from: SimTime, to: SimTime) -> u64 {
        assert_window(from, to);
        self.count_at(to) - self.count_before(grid_second(from))
    }

    /// Events strictly before second `second`.
    fn count_before(&self, second: usize) -> u64 {
        self.cells.iter().take(second).map(|c| c.within).sum()
    }
}

/// The grid index of `t`, which must sit exactly on the grid.
fn grid_second(t: SimTime) -> usize {
    let ns = t.as_nanos();
    assert!(
        ns.is_multiple_of(GRID.as_nanos()),
        "RateCounter answers only at whole seconds: {t} ({ns} ns) is off its {GRID} grid"
    );
    (ns / GRID.as_nanos()) as usize
}

fn assert_window(from: SimTime, to: SimTime) {
    assert!(from <= to, "counter window is reversed: from {from} is later than to {to}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn counting_and_curves() {
        let mut c = StepCounter::new();
        for s in [5, 10, 10, 30] {
            c.increment(t(s));
        }
        assert_eq!(c.count(), 4);
        assert_eq!(c.count_at(t(4)), 0);
        assert_eq!(c.count_at(t(10)), 3);
        assert_eq!(c.count_at(t(100)), 4);
        assert_eq!(c.curve(), vec![(t(5), 1), (t(10), 2), (t(10), 3), (t(30), 4)]);
        assert_eq!(c.count_in(t(6), t(30)), 3);
        assert_eq!(c.count_in(SimTime::ZERO, t(100)), 4);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_increment_panics() {
        let mut c = StepCounter::new();
        c.increment(t(10));
        c.increment(t(5));
    }

    #[test]
    fn empty_counter() {
        let c = StepCounter::new();
        assert_eq!(c.count(), 0);
        assert_eq!(c.count_at(t(10)), 0);
        assert!(c.curve().is_empty());
    }

    #[test]
    fn count_in_is_inclusive_at_both_ends() {
        let mut c = StepCounter::new();
        for ns in [999_999_999, 1_000_000_000, 1_000_000_000, 2_000_000_000, 2_000_000_001] {
            c.increment(SimTime::from_nanos(ns));
        }
        assert_eq!(c.count_in(t(1), t(2)), 3);
        assert_eq!(c.count_in(t(1), t(1)), 2);
        assert_eq!(c.count_in(t(3), t(3)), 0);
    }

    #[test]
    #[should_panic(expected = "from t=2.000000s is later than to t=1.000000s")]
    fn step_counter_rejects_a_reversed_window() {
        // One event between the swapped bounds: the subtraction this
        // guards would go below zero.
        let mut c = StepCounter::new();
        c.increment(SimTime::from_nanos(1_500_000_000));
        c.count_in(t(2), t(1));
    }

    #[test]
    #[should_panic(expected = "from t=2.000000s is later than to t=1.000000s")]
    fn rate_counter_rejects_a_reversed_window() {
        RateCounter::new().count_in(t(2), t(1));
    }

    #[test]
    #[should_panic(expected = "(1500000000 ns) is off its 1.000s grid")]
    fn rate_counter_refuses_to_round_an_off_grid_instant() {
        RateCounter::new().count_at(SimTime::from_nanos(1_500_000_000));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn rate_counter_out_of_order_increment_panics() {
        let mut c = RateCounter::new();
        c.increment(t(10));
        c.increment(t(5));
    }

    #[test]
    fn rate_counter_memory_follows_simulated_seconds_not_events() {
        let mut c = RateCounter::new();
        for i in 0..1_000_000u64 {
            c.increment(SimTime::from_nanos(i * 10_000));
        }
        c.increment(t(10));
        assert_eq!(c.count(), 1_000_001);
        assert_eq!(c.count_in(t(3), t(4)), 100_001);
        assert!(c.cells.len() <= 11, "{} grid cells for 10 simulated seconds", c.cells.len());
    }
}
