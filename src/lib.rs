//! # triad-tt — Triad TEE trusted time: implementation & security analysis
//!
//! A simulation-based, from-scratch reproduction of *"An Open-source
//! Implementation and Security Analysis of Triad's TEE Trusted Time
//! Protocol"* (DSN-S 2025): the Triad protocol itself, the SGX2 substrate
//! it runs on (TSC, AEX, INC monitoring), the network and crypto it
//! speaks over, the F+/F– attacks that break it, and the hardened §V
//! protocol that survives them.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a module name.
//!
//! ## Quick start
//!
//! ```
//! use triad_tt::scenario::ScenarioSpec;
//! use triad_tt::sim::SimTime;
//!
//! // Three Triad nodes + a Time Authority on a quiet machine, seed 42.
//! let world = ScenarioSpec::new(3).horizon(SimTime::from_secs(30)).run(42);
//!
//! for i in 0..3 {
//!     let f = world.recorder.node(i).latest_calibrated_hz().unwrap();
//!     println!("Node {} calibrated to {:.3} MHz", i + 1, f / 1e6);
//! }
//! ```
//!
//! ## Layer map
//!
//! | module | contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event kernel |
//! | [`stats`] | regression, summaries, CDFs, Marzullo agreement |
//! | [`crypto`] | AES-256-GCM sealing of protocol messages |
//! | [`wire`] | protocol message vocabulary + codec |
//! | [`tsc`] | TSC / core-frequency / INC / AEX models |
//! | [`netsim`] | datagram fabric with attacker interception |
//! | [`trace`] | typed protocol events and their one fold, drift series, state timelines, figure rendering |
//! | [`runtime`] | world state, sealed messaging, AEX driver |
//! | [`authority`] | the Time Authority actor |
//! | [`triad`] | **the Triad protocol node** |
//! | [`attacks`] | F+/F– delay attacks, AEX control, TSC manipulation |
//! | [`resilient`] | the §V hardened protocol |
//! | [`faults`] | cross-layer fault injection (chaos plans + driver) |
//! | [`scenario`] | declarative cluster specs (`ScenarioSpec`), the one cluster builder, and the parallel multi-seed runner |
//! | [`service`] | trusted-timestamp serving layer: load generation, batching front-ends, failover routing, quorum-attested reads with Byzantine detection, SLO accounting |
//! | [`proto`] | runtime-agnostic protocol boundary: the `Env`/`Machine` effect surface both drivers interpret, events out through `Env::emit` |
//! | [`net`] | live UDP runtime: the same machines on real loopback sockets, OS clocks, and threads |
//! | [`search`] | adversarial scenario search: seeded mutation over fault/attack plans, shrinking, reproducer corpus |
//! | [`experiments`] | regeneration of every paper figure/table |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use attacks;
pub use authority;
pub use experiments;
pub use faults;
pub use net;
pub use netsim;
pub use proto;
pub use resilient;
pub use scenario;
pub use search;
pub use service;
pub use sim;
pub use stats;
pub use trace;
pub use triad_core as triad;
pub use tsc;
pub use tt_crypto as crypto;
pub use wire;

// `runtime` is re-exported under its own name.
pub use runtime;
