//! # faults — cross-layer fault injection for Triad simulations
//!
//! A [`FaultPlan`] is a deterministic, time-ordered script of adversary
//! actions — link partitions and heals, per-link loss overrides, packet
//! duplication/reordering regimes, Time-Authority outage windows, node
//! crash/restart cycles, correlated AEX storms, serving-path lies and
//! hypervisor TSC manipulations. The [`FaultDriver`] actor, the one
//! replayer of scheduled adversary actions, plays the plan through the
//! discrete-event loop, mutating the network fabric and the hosts'
//! counters and delivering crash/AEX events to node actors and lies to
//! their serving front-ends, while logging every applied action into the
//! run's [`trace::Recorder`] fault overlay.
//!
//! Plans are either scripted explicitly (builder API) or generated from a
//! seed by [`FaultPlan::randomized`] — the generator uses its own PRNG, so
//! plan generation never perturbs the simulation's RNG stream and the
//! same `(config, seed)` pair always yields the same chaos schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod driver;
mod plan;

pub use codec::Fields;
pub use driver::FaultDriver;
pub use plan::{FaultAction, FaultEvent, FaultPlan, RandomFaultConfig};
