//! A scripted, recording [`Env`] for driverless machine unit tests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{SimDuration, SimTime};
use trace::{NodeStateTag, Recorder};
use wire::Message;

use crate::clock::{ClockState, Lie};
use crate::env::{Effect, Env, TimerId};
use netsim::Addr;

/// An [`Env`] that interprets nothing: every effect is appended to
/// [`ScriptedEnv::effects`] and the test script sets the observable world
/// (time, TSC rate, peer clocks/states) directly.
///
/// # Examples
///
/// ```
/// use proto::{Env, ScriptedEnv};
/// use sim::SimDuration;
///
/// let mut env = ScriptedEnv::new(1, 7);
/// env.set_timer(42, SimDuration::from_millis(5));
/// assert_eq!(env.effects.len(), 1);
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
    /// Per-node lying-node faults.
    pub lies: Vec<Option<Lie>>,
    /// The machine under test's node index (receives
    /// [`Env::publish_clock`] writes); `None` for pure clients.
    pub node_index: Option<usize>,
    /// The run's recorder.
    pub recorder: Recorder,
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
            lies: vec![None; n],
            node_index: Some(0),
            recorder: Recorder::for_nodes(n),
        }
    }

    /// Advances the scripted clock.
    pub fn advance(&mut self, by: SimDuration) {
        self.now += by;
    }

    /// Drains and returns the recorded effects.
    pub fn take_effects(&mut self) -> Vec<Effect> {
        std::mem::take(&mut self.effects)
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

    /// The id's handle is the arming's index in [`ScriptedEnv::effects`].
    fn set_timer(&mut self, token: u64, after: SimDuration) -> TimerId {
        self.effects.push(Effect::SetTimer { token, after });
        TimerId::new(token, self.effects.len() as u64 - 1)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { token: id.token() });
    }

    fn read_tsc(&mut self) -> u64 {
        (self.now.as_nanos() as f64 / 1e9 * self.tsc_hz) as u64
    }

    fn sample_inc(&mut self, _wall: SimDuration) -> u64 {
        self.inc_per_sample
    }

    fn publish_clock(&mut self, clock: ClockState) {
        let i = self.node_index.expect("publishing machines have a node index");
        self.clocks[i] = clock;
        self.effects.push(Effect::PublishClock(clock));
    }

    fn clock(&self, i: usize) -> ClockState {
        self.clocks[i]
    }

    fn node_state(&self, i: usize) -> Option<NodeStateTag> {
        self.states[i]
    }

    fn lie(&self, i: usize) -> Option<Lie> {
        self.lies[i]
    }

    fn recorder(&mut self) -> &mut Recorder {
        &mut self.recorder
    }
}
