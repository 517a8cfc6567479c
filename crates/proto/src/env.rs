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
/// Carries the machine's token plus the driver's own handle for that
/// arming (the simulation's event id, the live timer queue's arming
/// sequence), so a cancel names one arming and the simulation driver
/// keeps no token → handle map. A machine that may cancel keeps the id
/// in the record the timer guards.
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

    /// The driver's handle for this arming.
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
    /// Arm (or re-arm) the timer identified by `token`.
    SetTimer {
        /// Machine-chosen timer identity.
        token: u64,
        /// Delay from now until the timer fires.
        after: SimDuration,
    },
    /// Disarm one arming of the timer identified by `token`, if still
    /// pending.
    CancelTimer {
        /// The token the timer was armed with.
        token: u64,
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
    /// [`Input::AexResume`] for [`AEX_RESUME_TOKEN`]) after `after`, and
    /// returns the handle [`Env::cancel_timer`] takes.
    ///
    /// Re-arming a token that is still armed is driver-dependent, so
    /// machines should cancel first: the live `TimerQueue` supersedes the
    /// old arming (one firing, and the old id goes stale), while the
    /// simulation's `MachineActor` keeps both events — both fire, and
    /// each id cancels only its own arming.
    fn set_timer(&mut self, token: u64, after: SimDuration) -> TimerId;

    /// Cancels the arming `id` names; a no-op when it already fired, was
    /// cancelled, or was superseded.
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
