//! A scripted, recording [`Env`] for driverless machine unit tests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{EventId, EventQueue, SimDuration, SimTime};
use trace::{NodeStateTag, ProtoEvent, Recorder};
use wire::Message;

use crate::clock::ClockState;
use crate::env::{Effect, Env, Input, TimerId};
use netsim::Addr;

/// An [`Env`] that interprets nothing but timers: effects go to
/// [`ScriptedEnv::effects`], events into [`ScriptedEnv::recorder`], and the
/// test script sets the observable world (time, TSC rate, node
/// clocks/states) directly. Timers also arm in a [`sim::EventQueue`], as
/// under the other drivers, so a script may fire them in deadline order
/// with [`ScriptedEnv::fire_next`] instead of feeding [`Input::Timer`]s
/// by hand.
///
/// # Examples
///
/// ```
/// use proto::{Env, Input, ScriptedEnv};
/// use sim::SimDuration;
///
/// let mut env = ScriptedEnv::new(1, 7);
/// env.set_timer(42, SimDuration::from_millis(5));
/// assert_eq!(env.effects.len(), 1);
/// assert_eq!(env.fire_next(), Some(Input::Timer { token: 42 }));
/// assert_eq!(env.now.as_nanos(), 5_000_000);
/// ```
#[derive(Debug)]
pub struct ScriptedEnv {
    /// Current instant; advance it between steps with
    /// [`ScriptedEnv::advance`].
    pub now: SimTime,
    /// Seeded randomness handed to the machine.
    pub rng: StdRng,
    /// Synthetic TSC rate used by [`Env::read_tsc`] (ticks per second of
    /// [`ScriptedEnv::now`]).
    pub tsc_hz: f64,
    /// INC count returned by every [`Env::sample_inc`] call.
    pub inc_per_sample: u64,
    /// Every effect the machine emitted, in order.
    pub effects: Vec<Effect>,
    /// Per-node published clocks (index 0-based); writable by the script.
    pub clocks: Vec<ClockState>,
    /// Per-node protocol states as the script wants them discovered.
    pub states: Vec<Option<NodeStateTag>>,
    /// The machine under test's node index (receives
    /// [`Env::publish_clock`] writes, answers [`Env::clock`] and
    /// [`Env::node_state`]); `None` for pure clients.
    pub node_index: Option<usize>,
    /// The run's recorder: every [`Env::emit`] folds into it, stamped with
    /// [`ScriptedEnv::now`] and [`ScriptedEnv::node_index`].
    pub recorder: Recorder,
    timers: EventQueue<u64>,
}

impl ScriptedEnv {
    /// An env over `n` scripted nodes with the given RNG seed.
    pub fn new(n: usize, seed: u64) -> Self {
        ScriptedEnv {
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            tsc_hz: 2.9e9,
            inc_per_sample: 1_000_000,
            effects: Vec::new(),
            clocks: vec![ClockState::default(); n],
            states: vec![None; n],
            node_index: Some(0),
            recorder: Recorder::for_nodes(n),
            timers: EventQueue::new(),
        }
    }

    /// Advances the scripted clock.
    pub fn advance(&mut self, by: SimDuration) {
        self.now += by;
    }

    /// Fires the earliest pending timer: advances [`ScriptedEnv::now`] to
    /// its deadline (never backwards) and returns the input it fires as,
    /// or `None` when no timer is armed.
    // tt-lint: allow(test-only-pub) — `net`'s `Env` conformance suite drives a scripted machine's timers with it
    pub fn fire_next(&mut self) -> Option<Input> {
        self.now = self.now.max(self.timers.peek_time()?);
        self.timers.pop_due(self.now).map(Input::timer)
    }

    /// Drains and returns the recorded effects.
    pub fn take_effects(&mut self) -> Vec<Effect> {
        std::mem::take(&mut self.effects)
    }

    fn index(&self) -> usize {
        self.node_index.expect("node capabilities need a node index")
    }
}

impl Env for ScriptedEnv {
    fn now(&self) -> SimTime {
        self.now
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn send(&mut self, dst: Addr, msg: &Message) -> bool {
        self.effects.push(Effect::Send { dst, msg: msg.clone() });
        true
    }

    fn set_timer(&mut self, token: u64, after: SimDuration) -> TimerId {
        self.effects.push(Effect::SetTimer { token, after });
        TimerId::new(token, self.timers.arm(self.now + after, token).to_bits())
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { id });
        self.timers.cancel(EventId::from_bits(id.handle()));
    }

    fn read_tsc(&mut self) -> u64 {
        (self.now.as_nanos() as f64 / 1e9 * self.tsc_hz) as u64
    }

    fn sample_inc(&mut self, _wall: SimDuration) -> u64 {
        self.inc_per_sample
    }

    fn publish_clock(&mut self, clock: ClockState) {
        let i = self.index();
        self.clocks[i] = clock;
        self.effects.push(Effect::PublishClock(clock));
    }

    fn clock(&self) -> ClockState {
        self.clocks[self.index()]
    }

    fn node_state(&self) -> Option<NodeStateTag> {
        self.states[self.index()]
    }

    fn emit(&mut self, event: ProtoEvent) {
        self.recorder.apply(self.now, self.node_index, event);
    }
}
