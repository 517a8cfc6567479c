//! # net — the live UDP runtime
//!
//! The second driver of the dual-runtime architecture: the *same*
//! [`proto::Machine`] state machines the discrete-event simulation runs
//! (`triad_core::TriadNode`, the serving front-ends, the load and quorum
//! generators) execute here against real loopback sockets, OS monotonic
//! clocks, and per-machine threads — no simulated time anywhere.
//!
//! Layer map:
//!
//! - [`clock`] — the shared monotonic epoch, the instant at which each
//!   node's `runtime::Host` (the simulation's TSC/INC platform model) is
//!   read.
//! - [`frame`] — the datagram format: cleartext `src` routing prefix,
//!   AEAD-sealed payload bound to the (src, dst) link.
//! - [`board`] — cross-thread observables (published clocks, node
//!   states, host platforms, shutdown), the live stand-in for the
//!   simulation `World`. A node's state is written as its machine emits
//!   a `ProtoEvent::State`; nothing else writes it.
//! - `endpoint` — one live address: the only `send_to`/`recv_from` in
//!   the crate, with parse → authenticate → decode and its drops typed
//!   by `trace::DropReason`.
//!   The driver, the Time Authority and the blocking client all ride it.
//! - `driver` — the per-machine endpoint/timer loop interpreting
//!   [`proto::Env`] effects inline and folding each emitted event and
//!   each drop into the thread's `trace::Recorder`. Timers arm in a
//!   `sim::EventQueue`, the simulation's own deadline queue, so they
//!   follow its one rule; the driver's `conformance` tests check this
//!   `Env`, the simulation's and `proto::ScriptedEnv` against it.
//! - [`authority`] — the live Time Authority service.
//! - [`cluster`] — orchestration: sockets, seeded key tables, scoped
//!   threads, and the joined [`LiveReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authority;
pub mod board;
pub mod clock;
pub mod cluster;
mod driver;
mod endpoint;
pub mod frame;
pub mod sync;

pub use authority::AuthorityReport;
pub use board::Boards;
pub use clock::MonoClock;
pub use cluster::{
    client_addr, frontend_addr, generator_addr, run_cluster, LiveClient, LiveHandle, LiveReport,
    LiveSpec,
};
pub use frame::{frame_into, parse_frame};
