//! The TimeStamp Counter model.
//!
//! With Scalable SGX (SGX2) an enclave reads the TSC directly via `rdtsc`,
//! but the counter itself is still owned by the platform: a malicious
//! hypervisor can offset it or change its effective rate for the guest
//! (§II-A, §III-A of the paper). [`TscClock`] models exactly that: a
//! piecewise-linear function of reference time whose rate and offset the
//! attacker may change at runtime, while honest reads remain a pure
//! function of the current segment.

use sim::SimTime;

/// The paper's measured TSC frequency (reported by the OS at boot).
pub const PAPER_TSC_HZ: f64 = 2_899_999_000.0; // 2899.999 MHz

/// An attacker-visible change to the TSC (hypervisor-level manipulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TscManipulation {
    /// Adds `ticks` to the counter value (may be negative: back-in-time).
    OffsetJump(i64),
    /// Multiplies the effective increment rate by `factor`.
    ScaleRate(f64),
    /// Replaces the effective increment rate outright.
    SetRateHz(f64),
}

impl TscManipulation {
    /// Encodes as `<kind> <value>` (floats via shortest-round-trip
    /// `Display`, so [`TscManipulation::decode`] is exact).
    pub fn encode(&self) -> String {
        match self {
            TscManipulation::OffsetJump(ticks) => format!("offset-jump {ticks}"),
            TscManipulation::ScaleRate(factor) => format!("scale-rate {factor}"),
            TscManipulation::SetRateHz(hz) => format!("set-rate-hz {hz}"),
        }
    }

    /// Decodes a `<kind> <value>` manipulation.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed input; decoded values are
    /// additionally bounds-checked via [`TscManipulation::validate`], so
    /// a plan that would panic [`TscClock::manipulate`] never decodes.
    pub fn decode(s: &str) -> Result<TscManipulation, String> {
        let (kind, value) = s
            .trim()
            .split_once(' ')
            .ok_or_else(|| format!("expected '<kind> <value>', got {s:?}"))?;
        let m = match kind {
            "offset-jump" => TscManipulation::OffsetJump(
                value.parse().map_err(|_| format!("unparseable ticks {value:?}"))?,
            ),
            "scale-rate" => TscManipulation::ScaleRate(
                value.parse().map_err(|_| format!("unparseable factor {value:?}"))?,
            ),
            "set-rate-hz" => TscManipulation::SetRateHz(
                value.parse().map_err(|_| format!("unparseable rate {value:?}"))?,
            ),
            other => return Err(format!("unknown manipulation {other:?}")),
        };
        m.validate()?;
        Ok(m)
    }

    /// Rejects the values [`TscClock::manipulate`] would panic on
    /// (non-finite or non-positive rates/factors).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            TscManipulation::OffsetJump(_) => Ok(()),
            TscManipulation::ScaleRate(factor) if factor.is_finite() && factor > 0.0 => Ok(()),
            TscManipulation::ScaleRate(factor) => {
                Err(format!("scale factor {factor} must be finite and positive"))
            }
            TscManipulation::SetRateHz(hz) if hz.is_finite() && hz > 0.0 => Ok(()),
            TscManipulation::SetRateHz(hz) => Err(format!("rate {hz} must be finite and positive")),
        }
    }
}

/// A per-host TimeStamp Counter.
///
/// Reads are deterministic in reference time. The nominal rate is what the
/// hardware genuinely does (`F^TSC` in the paper); manipulations change the
/// *effective* rate/offset the way a malicious hypervisor would.
///
/// # Examples
///
/// ```
/// use sim::SimTime;
/// use tsc::TscClock;
///
/// let clock = TscClock::new(2_900_000_000.0);
/// let t1 = SimTime::from_secs(1);
/// assert_eq!(clock.read(t1), 2_900_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct TscClock {
    nominal_hz: f64,
    rate_hz: f64,
    anchor_time: SimTime,
    anchor_ticks: f64,
    manipulations: u32,
}

impl TscClock {
    /// Creates a TSC ticking at `nominal_hz` from reference time zero,
    /// starting at counter value 0.
    ///
    /// # Panics
    ///
    /// Panics unless `nominal_hz` is finite and positive.
    pub fn new(nominal_hz: f64) -> Self {
        assert!(
            nominal_hz.is_finite() && nominal_hz > 0.0,
            "TSC frequency must be positive, got {nominal_hz}"
        );
        TscClock {
            nominal_hz,
            rate_hz: nominal_hz,
            anchor_time: SimTime::ZERO,
            anchor_ticks: 0.0,
            manipulations: 0,
        }
    }

    /// A TSC at the paper's measured frequency (2899.999 MHz).
    pub fn paper_default() -> Self {
        TscClock::new(PAPER_TSC_HZ)
    }

    /// The hardware's true rate, before any manipulation.
    pub fn nominal_hz(&self) -> f64 {
        self.nominal_hz
    }

    /// The currently effective rate (equals nominal unless manipulated).
    // tt-lint: allow(test-only-pub) — the `faults` and `search` tests read a manipulated host through it
    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }

    /// How many manipulations have been applied so far.
    // tt-lint: allow(test-only-pub) — the `faults` and `search` tests read a manipulated host through it
    pub fn manipulation_count(&self) -> u32 {
        self.manipulations
    }

    /// Counter value at reference instant `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last manipulation (reads must move
    /// forward; the simulation never reads into the past).
    pub fn read(&self, now: SimTime) -> u64 {
        let elapsed = now
            .checked_duration_since(self.anchor_time)
            .expect("TSC read before its anchor (manipulation in the future?)");
        let ticks = self.anchor_ticks + elapsed.as_secs_f64() * self.rate_hz;
        // Manipulations may push the value negative; clamp like hardware
        // wrap-around would not, because Triad treats the TSC as 64-bit and
        // the simulation never runs long enough to wrap.
        if ticks < 0.0 {
            0
        } else {
            ticks as u64
        }
    }

    /// Ticks elapsed between two reference instants (`from <= to`).
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    #[cfg(test)]
    fn ticks_between(&self, from: SimTime, to: SimTime) -> u64 {
        assert!(from <= to, "ticks_between arguments out of order");
        self.read(to).saturating_sub(self.read(from))
    }

    /// Applies a hypervisor-level manipulation taking effect at `now`.
    ///
    /// # Panics
    ///
    /// Panics if a scale/set manipulation would make the rate non-positive.
    pub fn manipulate(&mut self, now: SimTime, manipulation: TscManipulation) {
        // Re-anchor so the segment before `now` keeps its history.
        let current = self.read(now) as f64;
        self.anchor_time = now;
        self.anchor_ticks = current;
        match manipulation {
            TscManipulation::OffsetJump(ticks) => {
                self.anchor_ticks += ticks as f64;
            }
            TscManipulation::ScaleRate(factor) => {
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "scale factor must be positive, got {factor}"
                );
                self.rate_hz *= factor;
            }
            TscManipulation::SetRateHz(hz) => {
                assert!(hz.is_finite() && hz > 0.0, "rate must be positive, got {hz}");
                self.rate_hz = hz;
            }
        }
        self.manipulations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimDuration;

    #[test]
    fn unmanipulated_reads_are_linear() {
        let c = TscClock::new(1_000_000.0); // 1 MHz: 1 tick/us
        assert_eq!(c.read(SimTime::ZERO), 0);
        assert_eq!(c.read(SimTime::from_secs(1)), 1_000_000);
        assert_eq!(c.read(SimTime::from_secs(100)), 100_000_000);
        assert_eq!(c.ticks_between(SimTime::from_secs(1), SimTime::from_secs(3)), 2_000_000);
    }

    #[test]
    fn paper_default_frequency() {
        let c = TscClock::paper_default();
        assert_eq!(c.nominal_hz(), 2_899_999_000.0);
        // 5.17 ms window of the INC experiment: ~15e6 ticks.
        let d = SimDuration::from_nanos(5_172_414);
        let ticks = c.ticks_between(SimTime::ZERO, SimTime::ZERO + d);
        assert!((ticks as i64 - 15_000_000).abs() < 10, "got {ticks}");
    }

    #[test]
    fn offset_jump_moves_counter_without_changing_rate() {
        let mut c = TscClock::new(1_000_000.0);
        let t = SimTime::from_secs(10);
        c.manipulate(t, TscManipulation::OffsetJump(500));
        assert_eq!(c.read(t), 10_000_500);
        assert_eq!(c.read(t + SimDuration::from_secs(1)), 11_000_500);
        assert_eq!(c.rate_hz(), 1_000_000.0);
        assert_eq!(c.manipulation_count(), 1);
    }

    #[test]
    fn negative_jump_can_move_back_in_time() {
        let mut c = TscClock::new(1_000_000.0);
        let t = SimTime::from_secs(10);
        c.manipulate(t, TscManipulation::OffsetJump(-3_000_000));
        assert_eq!(c.read(t), 7_000_000);
    }

    #[test]
    fn negative_jump_clamps_at_zero() {
        let mut c = TscClock::new(1_000_000.0);
        c.manipulate(SimTime::from_secs(1), TscManipulation::OffsetJump(-999_000_000));
        assert_eq!(c.read(SimTime::from_secs(1)), 0);
    }

    #[test]
    fn scale_preserves_continuity() {
        let mut c = TscClock::new(1_000_000.0);
        let t = SimTime::from_secs(5);
        let before = c.read(t);
        c.manipulate(t, TscManipulation::ScaleRate(2.0));
        assert_eq!(c.read(t), before, "no discontinuity at the manipulation");
        assert_eq!(c.read(t + SimDuration::from_secs(1)), before + 2_000_000);
        assert_eq!(c.nominal_hz(), 1_000_000.0, "nominal is the hardware truth");
        assert_eq!(c.rate_hz(), 2_000_000.0);
    }

    #[test]
    fn set_rate_overrides() {
        let mut c = TscClock::new(1_000_000.0);
        c.manipulate(SimTime::from_secs(1), TscManipulation::SetRateHz(500_000.0));
        assert_eq!(c.ticks_between(SimTime::from_secs(1), SimTime::from_secs(3)), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let mut c = TscClock::new(1.0);
        c.manipulate(SimTime::ZERO, TscManipulation::SetRateHz(0.0));
    }

    #[test]
    #[should_panic(expected = "before its anchor")]
    fn read_before_anchor_panics() {
        let mut c = TscClock::new(1_000_000.0);
        c.manipulate(SimTime::from_secs(10), TscManipulation::OffsetJump(0));
        let _ = c.read(SimTime::from_secs(9));
    }

    #[test]
    fn manipulation_codec_round_trips() {
        for m in [
            TscManipulation::OffsetJump(-29_000_000),
            TscManipulation::ScaleRate(1.000_05),
            TscManipulation::SetRateHz(PAPER_TSC_HZ * 0.999_9),
        ] {
            assert_eq!(TscManipulation::decode(&m.encode()), Ok(m));
        }
    }

    #[test]
    fn manipulation_decode_rejects_unsafe_values() {
        assert!(TscManipulation::decode("scale-rate 0").is_err());
        assert!(TscManipulation::decode("scale-rate -1.5").is_err());
        assert!(TscManipulation::decode("set-rate-hz inf").is_err());
        assert!(TscManipulation::decode("offset-jump 1.5").is_err());
        assert!(TscManipulation::decode("warp-factor 9").is_err());
        assert!(TscManipulation::ScaleRate(f64::NAN).validate().is_err());
    }
}
