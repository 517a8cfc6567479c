//! # proto — the runtime-agnostic protocol boundary
//!
//! Everything a Triad protocol state machine may do to the outside world
//! is captured here, so the *same* machine types run under two drivers:
//!
//! - the deterministic discrete-event simulation (`runtime::MachineActor`
//!   binds [`Env`] onto the sim world, fabric, and event queue), and
//! - the real UDP runtime (`net::LiveEnv` binds it onto sockets, OS
//!   clocks, and a `sim::EventQueue` of monotonic deadlines — the
//!   simulation's own queue type, so timers follow one rule under both).
//!
//! A machine implements [`Machine`]: each step consumes one [`Input`]
//! (an authenticated message, a timer firing, an interrupt, a fault) plus
//! the narrow [`Env`] capability view, and reacts by *emitting effects* —
//! sends, timer arms/cancels, clock publications — through the `Env`
//! methods, and states what happened as typed [`ProtoEvent`]s through
//! [`Env::emit`], which each driver folds into its `trace::Recorder`. The
//! [`Effect`] enum names the observable effect vocabulary; [`ScriptedEnv`]
//! records it verbatim for unit tests. The address layout every driver
//! shares ([`TA_ADDR`], [`node_addr`], [`client_addr`], [`frontend_addr`],
//! [`generator_addr`] and the inverses) is defined here too, with the one
//! link policy — which pairs share a sealed channel — in [`linked`].
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

pub use clock::{ClockState, Lie, ServingFloor, EPSILON_NS, STANDING_ERROR_BOUND};
pub use env::{Effect, Env, Input, Machine, TimerId, AEX_RESUME_TOKEN};
pub use nonce::NonceWindow;
pub use retry::RetryPolicy;
pub use scripted::ScriptedEnv;
pub use trace::ProtoEvent;

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

/// The node index at `addr`: the inverse of [`node_addr`], `None` for the
/// TA and for client, front-end and generator addresses.
pub fn node_index(addr: Addr) -> Option<usize> {
    (1..1000).contains(&addr.0).then(|| usize::from(addr.0 - 1))
}

/// The network address of client workload index `i`, on both drivers.
///
/// # Panics
///
/// Panics when the client count overflows the address space.
pub fn client_addr(i: usize) -> Addr {
    Addr(u16::try_from(1000 + i).expect("client address fits u16"))
}

/// The serving address of the front-end beside node index `i`.
pub fn frontend_addr(i: usize) -> Addr {
    Addr(2000 + u16::try_from(i).expect("node count fits the frontend address range"))
}

/// The node index whose front-end serves from `addr`: the inverse of
/// [`frontend_addr`], `None` for node, client and generator addresses.
pub fn frontend_index(addr: Addr) -> Option<usize> {
    (2000..3000).contains(&addr.0).then(|| usize::from(addr.0 - 2000))
}

/// The source address of load generator index `g`.
pub fn generator_addr(g: usize) -> Addr {
    Addr(3000 + u16::try_from(g).expect("generator count fits the address range"))
}

/// True when `a` and `b` share a sealed channel, on both drivers: TA ↔
/// node, node ↔ node, client ↔ node, client ↔ front-end and generator ↔
/// front-end. No other pair, an address with itself included, has one.
pub fn linked(a: Addr, b: Addr) -> bool {
    // 0 TA, 1 node, 2 client, 3 front-end, 4 generator, 5.. unassigned.
    let class = |x: Addr| if x == TA_ADDR { 0 } else { x.0 / 1000 + 1 };
    let (lo, hi) = (class(a).min(class(b)), class(a).max(class(b)));
    a != b && matches!((lo, hi), (0, 1) | (1, 1) | (1, 2) | (2, 3) | (3, 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_frontend_index_invert_only_their_own_addresses() {
        for i in 0..64 {
            assert_eq!(node_index(node_addr(i)), Some(i));
            assert_eq!(frontend_index(frontend_addr(i)), Some(i));
            for other in [client_addr(i), generator_addr(i)] {
                assert_eq!((node_index(other), frontend_index(other)), (None, None));
            }
            assert_eq!(node_index(frontend_addr(i)), None);
            assert_eq!(frontend_index(node_addr(i)), None);
        }
        assert_eq!((node_index(TA_ADDR), frontend_index(TA_ADDR)), (None, None));
    }

    #[test]
    fn linked_is_the_five_class_links_in_both_orders() {
        let (node, client, fe, gen) =
            (node_addr(3), client_addr(2), frontend_addr(5), generator_addr(1));
        let linked_pairs =
            [(TA_ADDR, node), (node, node_addr(7)), (client, node), (client, fe), (gen, fe)];
        let unlinked_pairs = [
            (TA_ADDR, fe),
            (node, fe),
            (node, gen),
            (client, gen),
            (gen, generator_addr(2)),
            (client, client_addr(3)),
            (TA_ADDR, client),
            (TA_ADDR, gen),
            (fe, frontend_addr(6)),
            (node, Addr(4000)),
        ];
        for (a, b) in linked_pairs {
            assert!(linked(a, b) && linked(b, a), "{a} <-> {b} must be linked");
        }
        for (a, b) in unlinked_pairs {
            assert!(!linked(a, b) && !linked(b, a), "{a} <-> {b} must not be linked");
        }
        for a in [TA_ADDR, node, client, fe, gen] {
            assert!(!linked(a, a), "{a} is not linked with itself");
        }
    }
}
