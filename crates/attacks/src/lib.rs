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
//!    miscalibrated clock run undisturbed — expressed as the victim's
//!    `tsc::AexSpec` on the scenario (`Periodic` floods, `None` isolates);
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
mod replay;

pub use adaptive::AdaptiveDelayAttack;
pub use fdelay::{CalibrationDelayAttack, DelayAttackMode};
pub use replay::{ReplayAttack, ReplayTarget};
