//! The capability boundary between protocol machines and their driver.

use netsim::Addr;
use rand::rngs::StdRng;
use sim::{SimDuration, SimTime};
use trace::{NodeStateTag, ProtoEvent};
use wire::Message;

use crate::clock::{ClockState, Lie};

/// Timer token reserved for the AEX-Notify resume callback.
///
/// Machines arm it like any other timer; drivers translate a firing of
/// this token into [`Input::AexResume`] before the machine's own token
/// dispatch ever sees it, so the value cannot collide with machine-chosen
/// tokens.
pub const AEX_RESUME_TOKEN: u64 = u64::MAX;

/// Handle to one arming of a timer, returned by [`Env::set_timer`].
///
/// Carries the machine's token plus the arming's [`sim::EventId`] (as
/// [`sim::EventId::to_bits`]) in the [`sim::EventQueue`] the driver arms
/// in — the simulation's own queue, or the one the live driver and
/// [`crate::ScriptedEnv`] keep — so a cancel names one arming on every
/// driver and none keeps a token → handle map. A machine that may cancel
/// keeps the id in the record the timer guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    token: u64,
    handle: u64,
}

impl TimerId {
    /// An id for the arming of `token` the driver knows as `handle`.
    /// Only drivers construct ids.
    pub fn new(token: u64, handle: u64) -> Self {
        TimerId { token, handle }
    }

    /// The token the timer was armed with.
    pub fn token(self) -> u64 {
        self.token
    }

    /// The arming's event id in the driver's queue, as bits.
    pub fn handle(self) -> u64 {
        self.handle
    }
}

/// One step's worth of input to a protocol machine.
///
/// Everything that happens *to* a machine arrives here: messages, timer
/// firings, interrupts, and the adversary's faults (`Crash`/`Restart`,
/// `Lie`). A machine ignores the inputs that do not concern it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// An authenticated, decoded protocol message. Drivers open the AEAD
    /// seal and drop forgeries before the machine runs.
    Message {
        /// Authenticated sender address.
        src: Addr,
        /// The decoded message.
        msg: Message,
    },
    /// A previously armed timer fired.
    Timer {
        /// The token the machine armed the timer with.
        token: u64,
    },
    /// An Asynchronous Enclave Exit hit the node's monitoring core.
    Aex {
        /// True when the same interrupt hits every node at this instant.
        machine_wide: bool,
    },
    /// The enclave thread resumed after an AEX (AEX-Notify).
    AexResume,
    /// The platform went down; all enclave state is lost.
    Crash,
    /// The platform booted again after a crash.
    Restart,
    /// A lying-node fault starts (`Some`) or stops (`None`) on the
    /// receiving serving front-end, the only machine the fault driver
    /// sends it to.
    Lie(Option<Lie>),
}

impl Input {
    /// The input a firing of timer `token` is delivered as:
    /// [`Input::AexResume`] for [`AEX_RESUME_TOKEN`], else [`Input::Timer`].
    #[inline]
    pub fn timer(token: u64) -> Input {
        if token == AEX_RESUME_TOKEN {
            Input::AexResume
        } else {
            Input::Timer { token }
        }
    }
}

/// The observable effect vocabulary of a protocol machine.
///
/// Live drivers interpret effects inline as the machine emits them
/// through [`Env`]; [`crate::ScriptedEnv`] records them as data so tests
/// can assert on a machine's outward behaviour without any driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Seal and transmit a message.
    Send {
        /// Destination address.
        dst: Addr,
        /// The message to seal and send.
        msg: Message,
    },
    /// Arm the timer identified by `token`; an arming of it that is
    /// still pending stays armed too (see [`Env::set_timer`]).
    SetTimer {
        /// Machine-chosen timer identity.
        token: u64,
        /// Delay from now until the timer fires.
        after: SimDuration,
    },
    /// Disarm the one arming `id` names, if still pending.
    CancelTimer {
        /// The arming to disarm.
        id: TimerId,
    },
    /// Publish the node's clock parameters to co-located readers.
    PublishClock(ClockState),
}

/// The narrow capability view a protocol machine steps against.
///
/// Every method speaks for the calling machine: the node capabilities
/// (`read_tsc`, `sample_inc`, `publish_clock`, `clock`, `node_state`)
/// reach only the node co-located with it ([`Machine::node_index`]) and
/// may panic for a machine without one. Faults are not capabilities; they
/// arrive as [`Input`]s.
///
/// Implementations must interpret each call **immediately, in emission
/// order** — the determinism contract of the simulation driver (shared
/// seeded RNG) depends on it.
pub trait Env {
    /// The driver's current instant. Under the simulation this is
    /// simulated time; under the live runtime, monotonic nanoseconds
    /// since process start.
    fn now(&self) -> SimTime;

    /// The machine's seeded randomness stream.
    fn rng(&mut self) -> &mut StdRng;

    /// Seals and transmits `msg`. Returns `false` when the transport
    /// dropped the datagram at the source (fabric loss / socket error) —
    /// senders see nothing more, exactly like UDP.
    fn send(&mut self, dst: Addr, msg: &Message) -> bool;

    /// Arms a timer that will come back as [`Input::Timer`] (or
    /// [`Input::AexResume`] for [`AEX_RESUME_TOKEN`]) once `after` has
    /// passed, and returns the handle [`Env::cancel_timer`] takes.
    ///
    /// One rule on every driver: each call is its own arming — re-arming
    /// a token that is still armed leaves the earlier arming in place, so
    /// both fire — and armings due at the same instant fire in the order
    /// they were armed.
    fn set_timer(&mut self, token: u64, after: SimDuration) -> TimerId;

    /// Cancels the one arming `id` names and no other, not even a later
    /// arming of the same token; a no-op when it already fired or was
    /// cancelled.
    fn cancel_timer(&mut self, id: TimerId);

    /// Reads the co-located node's TimeStamp Counter.
    fn read_tsc(&mut self) -> u64;

    /// The monitoring thread's INC count over the uninterrupted wall
    /// window `wall` (the enclave counts for real; the simulation
    /// evaluates its host model, drawing from [`Env::rng`]).
    fn sample_inc(&mut self, wall: SimDuration) -> u64;

    /// Publishes the node's clock parameters for co-located readers (the
    /// drift sampler, serving front-ends).
    fn publish_clock(&mut self, clock: ClockState);

    /// The co-located node's published clock parameters.
    fn clock(&self) -> ClockState;

    /// The protocol state the co-located node is currently in (`None`
    /// before the node first runs).
    fn node_state(&self) -> Option<NodeStateTag>;

    /// Records that `event` happened. The driver stamps it with
    /// [`Env::now`] and this machine's [`Machine::node_index`] and folds it
    /// into the [`trace::Recorder`] it owns ([`trace::Recorder::apply`]);
    /// machines record the same traces under every driver.
    fn emit(&mut self, event: ProtoEvent);
}

/// A pure, IO-free protocol state machine.
///
/// Drivers own the transport, clocks, and timers; the machine owns the
/// protocol. One `on_input` call per input, effects out through [`Env`].
pub trait Machine {
    /// The machine's own network address (the `src` of its sends).
    fn addr(&self) -> Addr;

    /// The co-located protocol node's index, for machines entitled to
    /// that node's TSC/clock capabilities (`None` for pure clients).
    fn node_index(&self) -> Option<usize> {
        None
    }

    /// True while the platform is down. Drivers deliver nothing but
    /// [`Input::Restart`] to a crashed machine — sealed datagrams are not
    /// even opened, exactly like a dead machine on a real network.
    fn crashed(&self) -> bool {
        false
    }

    /// Runs once when the driver brings the machine up.
    fn on_start(&mut self, env: &mut dyn Env) {
        let _ = env;
    }

    /// Consumes one input, emitting effects through `env`.
    fn on_input(&mut self, env: &mut dyn Env, input: Input);
}
