//! # tsc — SGX2 substrate models: TimeStamp Counter, core frequency, INC
//! monitoring, and AEX arrival processes
//!
//! The paper's testbed is a 32-core Intel SGX2 machine; none of that
//! hardware is required here because Triad consumes only four observables,
//! each modelled deterministically in this crate:
//!
//! 1. [`TscClock`] — the counter value at any reference instant, including
//!    hypervisor manipulations (offset jumps, rate scaling);
//! 2. [`CoreFrequency`] — the discrete P-state / governor model that makes
//!    INC counting frequency-dependent (§IV-A.1);
//! 3. [`IncModel`] / [`IncExperiment`] — the monitoring thread's
//!    INC-counter statistics and TSC cross-check;
//! 4. [`AexSpec`] — when AEXs (taint events) hit each node: the paper's
//!    Triad-like and isolated-core environments, memoryless and periodic
//!    arrivals, and a regime switch between two of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aex;
mod clock;
mod governor;
mod inc;

pub use aex::{sample_normal, AexSpec};
pub use clock::{TscClock, TscManipulation, PAPER_TSC_HZ};
pub use governor::{CoreFrequency, Governor};
pub use inc::{reject_outliers, IncExperiment, IncModel, IncSamples, PAPER_CYCLES_PER_ITER};
