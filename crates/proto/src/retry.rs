//! Bounded retry with exponential backoff for calibration probes.
//!
//! The base protocol retransmits a lost calibration probe after a fixed
//! timeout, forever. Under a TA outage or a long partition that turns every
//! node into a synchronized retry hammer: all nodes probe in lock-step at
//! the same cadence and the TA takes the full thundering herd the instant
//! it heals. The hardened retry policy spaces retransmissions out
//! exponentially (with deterministic, seeded jitter to decorrelate nodes);
//! `triad_core`'s TA circuit breaker stops probing entirely for a cooldown
//! once the TA has been unreachable for a fixed number of consecutive
//! attempts.
//!
//! The default [`RetryPolicy`] reproduces the legacy behaviour exactly —
//! constant delay, no jitter, unlimited attempts, and crucially **zero RNG
//! draws** — so existing seeded experiments replay bit-identically unless
//! a config opts into the hardened policy.

use rand::rngs::StdRng;
use rand::Rng;
use sim::SimDuration;

/// How calibration-probe retransmissions are spaced and bounded.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Multiplier applied to the base timeout per attempt
    /// (`delay = base · factor^attempt`). `1.0` = constant delay.
    pub factor: f64,
    /// Cap on the computed backoff delay (before jitter); `None` leaves it
    /// unbounded.
    pub max_backoff: Option<SimDuration>,
    /// Relative jitter: the delay is scaled by a uniform draw from
    /// `[1 − jitter_frac, 1 + jitter_frac]`. `0.0` draws nothing from the
    /// RNG (bit-compatible with the legacy fixed schedule).
    pub jitter_frac: f64,
    /// Attempts per burst before the probe is declared failed and handed
    /// to the circuit breaker (or restarted). `None` = unlimited.
    pub max_attempts: Option<u32>,
}

impl Default for RetryPolicy {
    /// The legacy schedule: constant delay, no jitter, unlimited retries.
    fn default() -> Self {
        RetryPolicy { factor: 1.0, max_backoff: None, jitter_frac: 0.0, max_attempts: None }
    }
}

impl RetryPolicy {
    /// The hardened schedule: doubling backoff capped at 8 s, ±10 % seeded
    /// jitter, at most 6 attempts per burst.
    pub fn hardened() -> Self {
        RetryPolicy {
            factor: 2.0,
            max_backoff: Some(SimDuration::from_secs(8)),
            jitter_frac: 0.1,
            max_attempts: Some(6),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a sub-unity factor, jitter outside `[0, 1)`, or a
    /// zero-attempt bound.
    pub fn validate(&self) {
        assert!(self.factor >= 1.0, "backoff factor must not shrink the delay");
        assert!((0.0..1.0).contains(&self.jitter_frac), "jitter fraction must lie in [0, 1)");
        if let Some(n) = self.max_attempts {
            assert!(n > 0, "at least one attempt per burst is required");
        }
    }

    /// True when a burst has exhausted its attempt budget.
    pub fn exhausted(&self, attempt: u32) -> bool {
        self.max_attempts.is_some_and(|n| attempt >= n)
    }

    /// The delay before retry number `attempt` (0-based: attempt 0 is the
    /// wait after the *initial* transmission). Draws from `rng` only when
    /// `jitter_frac > 0`.
    pub fn backoff(&self, base: SimDuration, attempt: u32, rng: &mut StdRng) -> SimDuration {
        let mut delay_ns = base.as_nanos() as f64 * self.factor.powi(attempt.min(63) as i32);
        if let Some(cap) = self.max_backoff {
            delay_ns = delay_ns.min(cap.as_nanos() as f64);
        }
        if self.jitter_frac > 0.0 {
            delay_ns *= 1.0 + rng.gen_range(-self.jitter_frac..=self.jitter_frac);
        }
        SimDuration::from_nanos(delay_ns.max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn legacy_policy_is_constant_and_draws_nothing() {
        let p = RetryPolicy::default();
        p.validate();
        let base = SimDuration::from_millis(500);
        let mut rng = StdRng::seed_from_u64(1);
        let mut probe = StdRng::seed_from_u64(1);
        for attempt in 0..10 {
            assert_eq!(p.backoff(base, attempt, &mut rng), base);
        }
        // No draws consumed: the two streams still agree.
        use rand::Rng;
        assert_eq!(rng.gen_range(0..u64::MAX), probe.gen_range(0..u64::MAX));
        assert!(!p.exhausted(1_000_000));
    }

    #[test]
    fn hardened_policy_doubles_caps_and_jitters() {
        let p = RetryPolicy::hardened();
        p.validate();
        let base = SimDuration::from_millis(500);
        let mut rng = StdRng::seed_from_u64(7);
        let d0 = p.backoff(base, 0, &mut rng).as_nanos() as f64;
        let d3 = p.backoff(base, 3, &mut rng).as_nanos() as f64;
        let b = base.as_nanos() as f64;
        assert!((d0 - b).abs() <= 0.1 * b, "attempt 0 ≈ base, got {d0}");
        assert!((d3 - 8.0 * b).abs() <= 0.8 * b, "attempt 3 ≈ 8·base, got {d3}");
        // The cap bites long before attempt 30 would overflow anything.
        let d30 = p.backoff(base, 30, &mut rng);
        assert!(d30 <= SimDuration::from_nanos((8e9 * 1.1) as u64));
        assert!(p.exhausted(6) && !p.exhausted(5));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::hardened();
        let base = SimDuration::from_millis(100);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for attempt in 0..8 {
            assert_eq!(p.backoff(base, attempt, &mut a), p.backoff(base, attempt, &mut b));
        }
    }

    #[test]
    #[should_panic(expected = "jitter fraction")]
    fn excessive_jitter_rejected() {
        RetryPolicy { jitter_frac: 1.0, ..Default::default() }.validate();
    }
}
