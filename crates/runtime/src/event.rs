//! The system-wide event vocabulary.

use netsim::Delivery;
use proto::Lie;

/// Every event that can be delivered to an actor in the composed
//  simulation.
///
/// Protocol actors receive network [`SysEvent::Deliver`] events and their
/// own timers; the environment driver injects [`SysEvent::Aex`] taint
/// events exactly as the OS would interrupt an enclave core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysEvent {
    /// A sealed datagram arriving from the network fabric.
    Deliver(Delivery),
    /// An Asynchronous Enclave Exit hits this node's monitoring core.
    /// `machine_wide` marks interrupts that hit all cores simultaneously
    /// (the correlated AEXs of §IV-A.2 that force TA recalibration).
    Aex {
        /// True when the same interrupt hits every node at this instant.
        machine_wide: bool,
    },
    /// A timer the receiving actor armed for itself; `token` is
    /// actor-private.
    Timer {
        /// Actor-defined discriminator.
        token: u64,
    },
    /// Periodic metrics sampling tick (driven by the [`crate::Sampler`]).
    Sample,
    /// The node's platform crashes: all enclave state (calibration,
    /// pending probes, peer rounds) is lost. Only a sealed monotonic
    /// serving floor survives, as Triad persists it outside the enclave.
    /// The node ignores every event until [`SysEvent::Restart`].
    Crash,
    /// The crashed node boots again and must re-enter FullCalib from
    /// scratch before serving time.
    Restart,
    /// A lying-node fault starts (`Some`) or stops (`None`) on the
    /// receiving serving front-end (`proto::Input::Lie`).
    Lie(Option<Lie>),
}

impl SysEvent {
    /// Convenience constructor for a timer event.
    pub fn timer(token: u64) -> Self {
        SysEvent::Timer { token }
    }
}
