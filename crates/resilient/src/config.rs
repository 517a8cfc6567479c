//! Hardened-protocol configuration (§V), with per-feature switches so the
//! ablation experiments can isolate each countermeasure.

use triad_core::TriadConfig;

/// Configuration of a [`crate::ResilientNode`].
///
/// Each `enable_*` flag corresponds to one protocol change proposed in the
/// paper's Discussion:
///
/// - **deadline**: an in-TCB trigger — refresh checks fire after a fixed
///   amount of clock progress even without any AEX, removing the
///   attacker's monopoly on refresh events;
/// - **long-window calibration**: NTP-style drift estimation over minutes
///   instead of Triad's ~1 s probes, restoring honest-node precision;
/// - **chimer filter**: peer timestamps are accepted only when a strict
///   majority of clock intervals (`t_i ± e_i`) intersect, à la Marzullo —
///   a lone fast clock is rejected instead of followed;
/// - **RTT filter**: time-reference anchors with implausibly large
///   round-trips are retried, bounding delay-attack offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientConfig {
    /// Shared lifecycle parameters (calibration sleeps, retry and
    /// breaker, peer timeout, RTT/2 correction).
    pub base: TriadConfig,
    /// §V change 1: proactive in-TCB deadline checks.
    pub enable_deadline: bool,
    /// §V change 2: NTP-style long-window frequency refinement.
    pub enable_long_window: bool,
    /// §V change 3: Marzullo true-chimer majority filtering.
    pub enable_chimer_filter: bool,
    /// Supporting hardening: reject implausibly slow TA anchors.
    pub enable_rtt_filter: bool,
    /// §V: publish true-chimer lists to peers after each consistency
    /// round; a node excluded by all of its peers immediately cross-checks
    /// against the TA.
    pub enable_gossip: bool,
    /// §V: periodically verify the local clock against the TA ("a node may
    /// now check if its clock is consistent with the TA").
    pub enable_ta_cross_check: bool,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            base: TriadConfig::default(),
            enable_deadline: true,
            enable_long_window: true,
            enable_chimer_filter: true,
            enable_rtt_filter: true,
            enable_gossip: true,
            enable_ta_cross_check: true,
        }
    }
}

impl ResilientConfig {
    /// All §V countermeasures disabled: behaves like base Triad (the
    /// ablation baseline).
    pub fn all_disabled() -> Self {
        ResilientConfig {
            enable_deadline: false,
            enable_long_window: false,
            enable_chimer_filter: false,
            enable_rtt_filter: false,
            enable_gossip: false,
            enable_ta_cross_check: false,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates_with_all_features_on() {
        let cfg = ResilientConfig::default();
        cfg.base.validate();
        assert!(cfg.enable_deadline && cfg.enable_long_window);
        assert!(cfg.enable_chimer_filter && cfg.enable_rtt_filter);
        assert!(cfg.enable_gossip);
    }

    #[test]
    fn ablation_baseline_disables_everything() {
        let cfg = ResilientConfig::all_disabled();
        cfg.base.validate();
        assert!(!cfg.enable_deadline && !cfg.enable_long_window);
        assert!(!cfg.enable_chimer_filter && !cfg.enable_rtt_filter);
    }
}
