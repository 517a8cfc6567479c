//! # triad-core — the Triad TEE trusted-time protocol
//!
//! An open implementation of Triad (Fernandez, Brito, Fetzer, CloudCom'23)
//! as specified and analysed by the reproduced paper. A cluster of enclave
//! nodes cooperates to keep a common, continuous notion of time:
//!
//! - each node **calibrates** its TSC frequency against a remote Time
//!   Authority by regressing TSC increments over round-trips with
//!   controlled TA hold times ([`Calibrator`], §III-C);
//! - an in-enclave monitoring thread counts INC instructions to detect TSC
//!   manipulation, and AEX-Notify makes interruptions (AEXs) observable:
//!   every AEX **taints** the timestamp (§III-B);
//! - a tainted node asks its **peers** for a fresh timestamp; a higher peer
//!   timestamp is adopted, a lower one is answered by an ε-bump of the
//!   local clock — so the cluster follows its fastest clock (§III-D);
//! - only when no peer answers does the node fall back to the TA
//!   (RefCalib).
//!
//! The lifecycle is written once, as [`Node`] over a [`Policy`];
//! [`TriadNode`] is the paper's protocol ([`Paper`]) and
//! `resilient::ResilientNode` its §V hardening. Both are pure
//! [`proto::Machine`]s, so experiments attack them via `netsim`
//! interceptors without touching protocol code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calib;
mod config;
mod node;
mod paper;

pub use calib::Calibrator;
pub use config::TriadConfig;
pub use node::{
    Core, Node, PeerRound, PeerSample, Policy, ProbeKind, TaSample, POLICY_TIMERS,
    READING_UNCERTAINTY_NS,
};
pub use paper::{Paper, MONITOR_INTERVAL, MONITOR_THRESHOLD_PPM};

/// One base Triad protocol node (the paper's primary artifact).
pub type TriadNode = Node<Paper>;
