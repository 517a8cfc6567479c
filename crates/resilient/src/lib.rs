//! # resilient — the paper's §V hardened trusted-time protocol
//!
//! The Discussion section of the reproduced paper sketches protocol
//! changes to survive the F+/F– attacks that break base Triad; this crate
//! implements them so the extension experiments (E12) can quantify each
//! one:
//!
//! 1. **In-TCB deadlines** — refresh checks fire after a fixed amount of
//!    clock progress, so an attacker who suppresses AEXs can no longer let
//!    a miscalibrated clock run forever;
//! 2. **Long-window (NTP-style) calibration** — TSC frequency is refined
//!    over minutes of TA samples with a robust Theil–Sen fit, erasing a
//!    poisoned short-window bootstrap;
//! 3. **True-chimer filtering** — peers exchange timestamp *intervals*
//!    `t ± e`; a timestamp is only trusted when a strict majority of
//!    intervals (including the node's own) mutually intersect (Marzullo),
//!    so the cluster no longer follows its fastest clock;
//! 4. **RTT filtering** — TA anchors with implausible round-trips are
//!    retried, bounding what message delaying can do to the offset.
//!
//! The lifecycle itself is `triad_core::Node`, shared with the paper's
//! protocol; this crate contributes only the rule, [`Hardened`], and
//! [`ResilientNode`] = `Node<Hardened>`. [`ResilientConfig`] exposes one
//! switch per countermeasure for ablations. The hardening does **not**
//! include the paper's INC monitor (see [`Hardened`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod node;

pub use config::ResilientConfig;
pub use node::{Hardened, ResilientNode};
