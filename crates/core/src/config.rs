//! Triad node configuration.

use sim::SimDuration;

use proto::RetryPolicy;

/// Tunable parameters of a Triad node.
///
/// Defaults reproduce the paper's setup: calibration regression over
/// round-trips with 0 s and 1 s TA sleeps (§IV: "TSC rate estimation is
/// performed through regression over roundtrips of messages with 0s-sleep
/// (immediate responses) and 1s-sleep at the TA").
#[derive(Debug, Clone, PartialEq)]
pub struct TriadConfig {
    /// Requested TA hold times (`s`) used as regression x-values.
    pub calib_sleeps: Vec<SimDuration>,
    /// Valid round-trips collected per sleep value before fitting.
    pub samples_per_sleep: usize,
    /// How long to wait for peer timestamps after an AEX before falling
    /// back to the TA (§III-D: "only asks the TA upon failure to receive
    /// any responses from peers").
    pub peer_timeout: SimDuration,
    /// How probe retransmissions are spaced; the default reproduces the
    /// legacy fixed-interval unlimited retry (no RNG draws), while
    /// [`RetryPolicy::hardened`] adds bounded exponential backoff with
    /// seeded jitter.
    pub probe_retry: RetryPolicy,
    /// Whether the TA circuit breaker runs: after 8 consecutive probe
    /// timeouts the node stops hammering the TA and only sends one trial
    /// probe per 5 s cooldown until the TA answers again.
    pub ta_breaker: bool,
}

impl Default for TriadConfig {
    fn default() -> Self {
        TriadConfig {
            calib_sleeps: vec![SimDuration::ZERO, SimDuration::from_secs(1)],
            samples_per_sleep: 3,
            peer_timeout: SimDuration::from_millis(10),
            probe_retry: RetryPolicy::default(),
            ta_breaker: false,
        }
    }
}

impl TriadConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if no sleeps are configured, fewer than two *distinct* sleeps
    /// exist (the regression slope would be undefined), or
    /// `samples_per_sleep == 0`.
    pub fn validate(&self) {
        assert!(
            self.calib_sleeps.len() >= 2,
            "calibration needs at least two sleep values for a slope"
        );
        let mut distinct = self.calib_sleeps.clone();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() >= 2, "calibration sleeps must not all be equal");
        assert!(self.samples_per_sleep > 0, "need at least one sample per sleep");
        self.probe_retry.validate();
    }

    /// A configuration with every robustness feature enabled: hardened
    /// retry backoff and the TA circuit breaker.
    pub fn hardened() -> Self {
        TriadConfig { probe_retry: RetryPolicy::hardened(), ta_breaker: true, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let cfg = TriadConfig::default();
        cfg.validate();
        assert_eq!(cfg.calib_sleeps.len(), 2);
        assert_eq!(cfg.calib_sleeps[0], SimDuration::ZERO);
        assert_eq!(cfg.calib_sleeps[1], SimDuration::from_secs(1));
        assert_eq!(proto::EPSILON_NS, 1);
        // The default retry policy must stay bit-compatible with the
        // legacy schedule so seeded experiments replay unchanged.
        assert_eq!(cfg.probe_retry, RetryPolicy::default());
        assert!(!cfg.ta_breaker);
    }

    #[test]
    fn hardened_preset_is_valid_and_bounded() {
        let cfg = TriadConfig::hardened();
        cfg.validate();
        assert!(cfg.probe_retry.max_attempts.is_some());
        assert!(cfg.ta_breaker);
    }

    #[test]
    #[should_panic(expected = "two sleep values")]
    fn single_sleep_rejected() {
        TriadConfig { calib_sleeps: vec![SimDuration::ZERO], ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "not all be equal")]
    fn equal_sleeps_rejected() {
        TriadConfig {
            calib_sleeps: vec![SimDuration::from_secs(1), SimDuration::from_secs(1)],
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "one sample per sleep")]
    fn zero_samples_rejected() {
        TriadConfig { samples_per_sleep: 0, ..Default::default() }.validate();
    }
}
