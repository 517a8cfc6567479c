//! # netsim — simulated UDP fabric with on-path attacker hooks
//!
//! Models the paper's network: unreliable datagrams between Triad nodes and
//! the Time Authority, with per-link propagation delay and — central to the
//! threat model of §III — *interceptors*: on-path observers co-located with
//! a compromised OS that see only addressing metadata, sizes, and timing
//! (payloads are AEAD-sealed before they reach the fabric), and may delay
//! or drop any message. The F+/F– calibration attacks are interceptors.
//!
//! The fabric does not own the event queue: [`Network::dispatch`] computes
//! the delivery schedule and the runtime layer turns it into simulation
//! events, keeping this crate independent of actor wiring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod fabric;
mod hash;
mod intercept;

pub use delay::DelayModel;
pub use fabric::{Delivery, LinkStats, Network};
pub use hash::{FastHasher, FastMap};
pub use intercept::{Addr, InterceptAction, Interceptor, MsgMeta, PassThrough};
