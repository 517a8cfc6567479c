//! # runtime — composition layer wiring protocol actors into the simulation
//!
//! Sits between the substrate crates (`sim`, `tsc`, `netsim`, `tt-crypto`,
//! `wire`, `trace`) and the protocol crates (`triad-core`, `authority`,
//! `attacks`, `resilient`):
//!
//! - [`World`]: the shared environment — per-node [`Host`] platforms
//!   (TSC + core + INC model), the network fabric, the pairwise
//!   [`KeyTable`], each node's published [`ClockState`], and the run's
//!   [`trace::Recorder`];
//! - [`SysEvent`]: the one event vocabulary all actors share;
//! - [`MachineActor`]: the simulation driver for every protocol
//!   participant (a [`proto::Machine`]), with sealed messaging inside;
//! - [`ClientWorkload`]: a client application querying one node;
//! - [`EnvDriver`]: OS-side AEX injection (per-core and machine-wide);
//! - [`Sampler`]: the external drift-measurement harness.
//!
//! Address conventions are `proto`'s ([`TA_ADDR`], [`node_addr`],
//! [`node_index`], [`client_addr`], [`frontend_addr`]), re-exported here
//! for the crates that reach `proto` only through this one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod env;
mod event;
mod keys;
mod machine;
mod sampler;
mod world;

pub use client::{ClientMode, ClientWorkload};
pub use env::EnvDriver;
pub use event::SysEvent;
pub use keys::{link_aad, pair_key, KeyTable};
pub use machine::MachineActor;
pub use proto::{
    client_addr, frontend_addr, node_addr, node_index, Effect, Env, Input, Lie, Machine,
    NonceWindow, ScriptedEnv, TimerId, TA_ADDR,
};
pub use sampler::Sampler;
pub use tsc::TscManipulation;
pub use world::{ClockState, Host, World};
