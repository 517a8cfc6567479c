//! # attacks — the paper's attacks on the Triad protocol
//!
//! Implements §III's attacker: the operating system / hypervisor of a
//! single compromised Triad node, with three levers:
//!
//! 1. **Message delay** ([`CalibrationDelayAttack`]): the F+ and F–
//!    attacks that tilt the victim's calibration regression by delaying
//!    TA responses selectively by (estimated) hold time — without ever
//!    reading the encrypted payload;
//! 2. **Interrupt control**: adding AEXs (flooding) or *removing* them
//!    (core isolation), which the paper notes strengthens F+ by letting a
//!    miscalibrated clock run undisturbed — expressed as AEX model choices
//!    on the scenario (see [`aex_flood`] and `scenario::AexSpec`);
//! 3. **TSC virtualisation**: offset jumps and rate scaling that the INC
//!    monitor is meant to detect — a `tsc::TscManipulation` scheduled as
//!    a `faults::FaultAction::ManipulateTsc` and applied by
//!    `faults::FaultDriver`, beside every other timed adversary action.
//!
//! None of these touch protocol code: delays go through `netsim`
//! interception, interrupts through the environment driver, TSC changes
//! through the host model. That separation is the point — the attacks are
//! exactly as powerful as the paper's threat model allows, no more.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod fdelay;
mod isolation;
mod replay;

pub use adaptive::AdaptiveDelayAttack;
pub use fdelay::{CalibrationDelayAttack, DelayAttackMode};
pub use isolation::{IsolationAttack, IsolationScope};
pub use replay::{ReplayAttack, ReplayTarget};

use sim::SimDuration;
use tsc::{AexModel, Periodic};

/// An AEX-flooding environment: the attacker interrupts the victim's
/// monitoring core every `period` (§III-A: the attacker "may also
/// arbitrarily cause interruptions").
pub fn aex_flood(period: SimDuration) -> Box<dyn AexModel> {
    Box::new(Periodic { period })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimTime;

    #[test]
    fn flood_is_periodic() {
        let mut m = aex_flood(SimDuration::from_millis(5));
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(0)
        };
        assert_eq!(m.next_delay(SimTime::ZERO, &mut rng), SimDuration::from_millis(5));
    }
}
