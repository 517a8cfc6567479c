//! Published clock parameters, the serving floor, the standing error
//! bound and the lying-node fault description — shared vocabulary between
//! protocol machines and both drivers.

use sim::SimDuration;

/// The smallest timestamp increment (the paper's ε): a served timestamp
/// that would not advance moves this far past the last one.
pub const EPSILON_NS: u64 = 1;
// Strict monotonicity of served timestamps rests on a positive ε.
const _: () = assert!(EPSILON_NS > 0);

/// The standing half-width (1 ms) of a node's timestamp error: the bound a
/// reading carries before staleness or drift widens it. The core node's
/// degraded readings, the hardened node's self-assessed bound and the
/// serving front-end's degraded answers all start from it.
pub const STANDING_ERROR_BOUND: SimDuration = SimDuration::from_millis(1);

/// The monotonic serving floor: every timestamp a node hands out, to a
/// client or a peer, full or degraded, is above the one before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingFloor {
    last_ns: u64,
}

impl ServingFloor {
    /// The lowest timestamp the next [`ServingFloor::serve`] may return.
    #[inline]
    pub fn next_ns(self) -> u64 {
        self.last_ns + EPSILON_NS
    }

    /// Serves the clock reading `raw_ns`: whole nanoseconds (a negative
    /// reading counts as 0), raised to [`ServingFloor::next_ns`] when
    /// it is not above the last timestamp served.
    #[inline]
    pub fn serve(&mut self, raw_ns: f64) -> u64 {
        let ts = (raw_ns.max(0.0) as u64).max(self.next_ns());
        self.last_ns = ts;
        ts
    }
}

/// A node's published clock parameters — enough for anyone holding the TSC
/// value to evaluate the node's current timestamp.
///
/// Node machines publish this through [`crate::Env::publish_clock`]
/// whenever they re-anchor; the drift sampler and serving front-ends read
/// it back without poking the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockState {
    /// Whether the node has completed its first calibration.
    pub valid: bool,
    /// Node's reference timestamp (ns) at the anchor instant.
    pub anchor_ref_ns: f64,
    /// TSC value at the anchor instant.
    pub anchor_ticks: u64,
    /// Calibrated TSC frequency `F^calib` (ticks per second).
    pub f_calib_hz: f64,
    /// Self-assessed error half-width (ns) at the anchor instant.
    ///
    /// Hardened (§V) nodes publish their interval bound here so the serving
    /// layer can attest intervals the quorum reader can cross-check; base
    /// Triad nodes publish 0 ("no self-assessment") and the serving layer
    /// falls back to its configured floor.
    pub uncertainty_ns: f64,
}

impl Default for ClockState {
    fn default() -> Self {
        ClockState {
            valid: false,
            anchor_ref_ns: 0.0,
            anchor_ticks: 0,
            f_calib_hz: 1.0,
            uncertainty_ns: 0.0,
        }
    }
}

impl ClockState {
    /// The node's timestamp (ns) when its TSC reads `ticks_now`, or `None`
    /// before first calibration.
    pub fn now_ns(&self, ticks_now: u64) -> Option<f64> {
        if !self.valid {
            return None;
        }
        let dticks = ticks_now as f64 - self.anchor_ticks as f64;
        Some(self.anchor_ref_ns + dticks / self.f_calib_hz * 1e9)
    }
}

/// An active lying-node fault: the node's serving front-end misreports
/// timestamps by a planned offset while its protocol stack runs honestly.
///
/// This models a compromised serving path (the paper's single-node-trust
/// failure): calibration, peer untainting and the published clock are all
/// correct, but everything the node *tells clients* is skewed. The fault
/// driver starts and stops it as [`crate::Input::Lie`] on the node's
/// serving front-end; `None` means the node is honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lie {
    /// Planned skew applied to served/attested timestamps (ns, signed).
    pub offset_ns: i64,
    /// When true the node equivocates: successive answers alternate
    /// between `+offset_ns` and `-offset_ns` instead of skewing steadily,
    /// so different clients observe mutually inconsistent clocks.
    pub equivocate: bool,
}

impl Lie {
    /// The skew for the `seq`-th answer this node has served while lying.
    pub fn skew_ns(&self, seq: u64) -> i64 {
        if self.equivocate && seq % 2 == 1 {
            -self.offset_ns
        } else {
            self.offset_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_state_before_and_after_calibration() {
        let c = ClockState::default();
        assert_eq!(c.now_ns(123), None);
        let c = ClockState {
            valid: true,
            anchor_ref_ns: 1e9,
            anchor_ticks: 2_900_000_000,
            f_calib_hz: 2.9e9,
            uncertainty_ns: 0.0,
        };
        // One second of ticks past the anchor → exactly one more second.
        let ns = c.now_ns(2 * 2_900_000_000).unwrap();
        assert!((ns - 2e9).abs() < 1.0);
        // Ticks *before* the anchor also evaluate (negative progress).
        let ns = c.now_ns(0).unwrap();
        assert!((ns - 0.0).abs() < 1.0);
    }

    #[test]
    fn lie_skew_alternates_only_when_equivocating() {
        let skew = Lie { offset_ns: 250, equivocate: false };
        assert_eq!(skew.skew_ns(0), 250);
        assert_eq!(skew.skew_ns(1), 250);
        let equiv = Lie { offset_ns: 250, equivocate: true };
        assert_eq!(equiv.skew_ns(0), 250);
        assert_eq!(equiv.skew_ns(1), -250);
        assert_eq!(equiv.skew_ns(2), 250);
    }
}
