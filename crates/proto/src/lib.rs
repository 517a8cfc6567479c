//! # proto — the runtime-agnostic protocol boundary
//!
//! Everything a Triad protocol state machine may do to the outside world
//! is captured here, so the *same* machine types run under two drivers:
//!
//! - the deterministic discrete-event simulation (`runtime::MachineActor`
//!   binds [`Env`] onto the sim world, fabric, and event queue), and
//! - the real UDP runtime (`net::LiveEnv` binds it onto sockets, OS
//!   clocks, and a monotonic timer queue).
//!
//! A machine implements [`Machine`]: each step consumes one [`Input`]
//! (an authenticated message, a timer firing, a fault event) plus the
//! narrow [`Env`] capability view, and reacts by *emitting effects* —
//! sends, timer arms/cancels, clock publications, trace records — through
//! the `Env` methods. The [`Effect`] enum names the observable effect
//! vocabulary; [`ScriptedEnv`] records it verbatim for unit tests.
//!
//! ## Why effects stream through `Env` instead of being returned
//!
//! A returned `Vec<Effect>` applied after the step would replay
//! randomness out of order: the simulation draws link delays from the
//! shared seeded stream *at the send call site*, interleaved with the
//! machine's own draws (retry jitter, AEX pauses). Interpreting each
//! effect inline, in emission order, keeps every committed seeded
//! artifact byte-identical across the refactor while still confining the
//! machine to the narrow capability surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod env;
mod nonce;
mod retry;
mod scripted;

pub use clock::{ClockState, Lie};
pub use env::{Effect, Env, Input, Machine, TimerId, AEX_RESUME_TOKEN};
pub use nonce::NonceWindow;
pub use retry::{CircuitBreakerPolicy, RetryPolicy};
pub use scripted::ScriptedEnv;

use netsim::Addr;

/// The Time Authority's well-known address.
pub const TA_ADDR: Addr = Addr(0);

/// The network address of protocol node index `i` (0-based index, 1-based
/// address — `Addr(0)` is the TA).
///
/// # Panics
///
/// Panics when the node count overflows the address space.
pub fn node_addr(i: usize) -> Addr {
    Addr(u16::try_from(i + 1).expect("node count fits u16"))
}

/// The network address of client workload index `i`, on both drivers.
///
/// # Panics
///
/// Panics when the client count overflows the address space.
pub fn client_addr(i: usize) -> Addr {
    Addr(u16::try_from(1000 + i).expect("client address fits u16"))
}
