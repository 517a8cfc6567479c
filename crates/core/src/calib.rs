//! The calibration sample collector and frequency fit (§III-C).
//!
//! Triad estimates its TSC frequency against the TA's reference clock by
//! measuring TSC increments across round-trips whose TA-side hold time `s`
//! it controls, then regressing `ΔTSC` on `s`. The slope is `F^calib` in
//! ticks per reference second; the intercept absorbs the (unknown) network
//! round-trip, which is precisely why only *differential* delay matters —
//! and why an attacker adding delay selectively by `s` (F+/F–) tilts the
//! slope (§III-C).

use sim::SimDuration;
use stats::{LinearFit, Regression};

/// Collects `(sleep, ΔTSC)` round-trip samples and fits `F^calib`.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibrator {
    sleeps: Vec<SimDuration>,
    samples_per_sleep: usize,
    counts: Vec<usize>,
    regression: Regression,
}

impl Calibrator {
    /// Creates a collector for the given sleep schedule.
    ///
    /// # Panics
    ///
    /// Panics on an empty sleep list or zero samples per sleep.
    pub fn new(sleeps: Vec<SimDuration>, samples_per_sleep: usize) -> Self {
        assert!(!sleeps.is_empty(), "calibrator needs sleep values");
        assert!(samples_per_sleep > 0, "calibrator needs samples");
        let n = sleeps.len();
        Calibrator { sleeps, samples_per_sleep, counts: vec![0; n], regression: Regression::new() }
    }

    /// The sleep duration at schedule index `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn sleep_at(&self, idx: usize) -> SimDuration {
        self.sleeps[idx]
    }

    /// Index of the next sleep value needing a sample (fewest samples
    /// first, ties to the lower index), or `None` when collection is
    /// complete.
    pub fn next_probe(&self) -> Option<usize> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c < self.samples_per_sleep)
            .min_by_key(|&(i, &c)| (c, i))
            .map(|(i, _)| i)
    }

    /// Records one valid (AEX-free) round-trip measurement.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn record(&mut self, idx: usize, delta_ticks: u64) {
        self.counts[idx] += 1;
        self.regression.push(self.sleeps[idx].as_secs_f64(), delta_ticks as f64);
    }

    /// The least-squares fit; slope is `F^calib` in Hz.
    ///
    /// Returns `None` until at least two distinct sleeps have samples.
    pub fn fit(&self) -> Option<LinearFit> {
        self.regression.ols()
    }

    /// Discards all samples (a new full calibration begins).
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.regression.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn round_robin_collection() {
        let mut c = Calibrator::new(vec![SimDuration::ZERO, secs(1)], 2);
        assert_eq!(c.next_probe(), Some(0));
        c.record(0, 100);
        assert_eq!(c.next_probe(), Some(1), "fewest-samples-first alternates");
        c.record(1, 200);
        assert_eq!(c.next_probe(), Some(0));
        c.record(0, 100);
        c.record(1, 200);
        assert_eq!(c.next_probe(), None);
        assert_eq!(c.regression.len(), 4);
    }

    #[test]
    fn fit_recovers_frequency_with_symmetric_delays() {
        // f = 2.9 GHz, both probes see the same 400 µs round-trip.
        let f = 2.9e9;
        let rtt = 400e-6;
        let mut c = Calibrator::new(vec![SimDuration::ZERO, secs(1)], 3);
        for _ in 0..3 {
            c.record(0, (f * rtt) as u64);
            c.record(1, (f * (1.0 + rtt)) as u64);
        }
        let fit = c.fit().unwrap();
        assert!((fit.slope - f).abs() / f < 1e-9, "slope {}", fit.slope);
        // The intercept absorbs the round-trip.
        assert!((fit.intercept - f * rtt).abs() / (f * rtt) < 1e-6);
    }

    #[test]
    fn asymmetric_delay_tilts_slope_like_f_plus() {
        // +100 ms only on the 1 s probes → slope 1.1 f (the F+ attack).
        let f = 2.9e9;
        let rtt = 400e-6;
        let mut c = Calibrator::new(vec![SimDuration::ZERO, secs(1)], 3);
        for _ in 0..3 {
            c.record(0, (f * rtt) as u64);
            c.record(1, (f * (1.0 + rtt + 0.1)) as u64);
        }
        let slope = c.fit().unwrap().slope;
        assert!((slope / f - 1.1).abs() < 1e-9, "slope ratio {}", slope / f);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Calibrator::new(vec![SimDuration::ZERO, secs(1)], 1);
        c.record(0, 1);
        c.record(1, 2);
        assert!(c.next_probe().is_none());
        c.reset();
        assert_eq!(c.regression.len(), 0);
        assert_eq!(c.next_probe(), Some(0));
    }

    #[test]
    fn fit_unavailable_with_single_x() {
        let mut c = Calibrator::new(vec![SimDuration::ZERO, secs(1)], 2);
        c.record(0, 100);
        c.record(0, 101);
        assert!(c.fit().is_none());
    }
}
