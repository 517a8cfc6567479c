//! The simulation driver for [`proto::Machine`] state machines.
//!
//! [`MachineActor`] is the thin adapter that lets a pure protocol machine
//! ride the discrete-event simulation: it opens sealed deliveries,
//! translates [`SysEvent`]s into [`proto::Input`]s, and interprets every
//! [`proto::Env`] effect **inline, in emission order**, against the sim
//! world — sends draw link delays from the shared seeded RNG at the exact
//! call sites the pre-refactor actors used, which is what keeps seeded
//! artifacts byte-identical across the effect-boundary refactor.

use netsim::{Addr, FastMap};
use proto::{ClockState, Env, Input, Lie, Machine, AEX_RESUME_TOKEN};
use rand::rngs::StdRng;
use sim::{Actor, Ctx, EventId, SimDuration, SimTime};
use trace::{NodeStateTag, Recorder};
use wire::Message;

use crate::event::SysEvent;
use crate::messaging::{open_delivery, send_message};
use crate::world::World;

/// Adapts a [`proto::Machine`] into a simulation [`Actor`].
///
/// Timer identity: machines arm timers by `u64` token; the adapter holds
/// the token → [`EventId`] map so [`proto::Env::cancel_timer`] reaches the
/// scheduler queue's cancellation. The map is only ever probed by token,
/// never iterated, so its order cannot reach an artifact. Re-arming a
/// still-armed token overwrites its handle without cancelling the earlier
/// event, so both fire (see [`proto::Env::set_timer`]).
#[derive(Debug)]
pub struct MachineActor<M: Machine> {
    machine: M,
    timers: FastMap<u64, EventId>,
}

impl<M: Machine> MachineActor<M> {
    /// Wraps `machine` for the simulation driver.
    pub fn new(machine: M) -> Self {
        MachineActor { machine, timers: FastMap::default() }
    }

    /// The wrapped machine.
    pub fn inner(&self) -> &M {
        &self.machine
    }

    fn step(&mut self, ctx: &mut Ctx<'_, World, SysEvent>, input: Input) {
        let mut env = SimEnv {
            me: self.machine.addr(),
            node_index: self.machine.node_index(),
            ctx,
            timers: &mut self.timers,
        };
        self.machine.on_input(&mut env, input);
    }
}

impl<M: Machine> Actor<World, SysEvent> for MachineActor<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, World, SysEvent>) {
        let mut env = SimEnv {
            me: self.machine.addr(),
            node_index: self.machine.node_index(),
            ctx,
            timers: &mut self.timers,
        };
        self.machine.on_start(&mut env);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, World, SysEvent>, ev: SysEvent) {
        if self.machine.crashed() {
            // A downed platform processes nothing — deliveries are not
            // even opened; only a restart fault event brings it back.
            if ev == SysEvent::Restart {
                self.step(ctx, Input::Restart);
            }
            return;
        }
        let input = match ev {
            SysEvent::Deliver(d) => {
                let now = ctx.now();
                let Ok(msg) = open_delivery(ctx.world, self.machine.addr(), now, &d) else {
                    return; // forged, tampered, or corrupted datagram (counted)
                };
                Input::Message { src: d.src, msg }
            }
            SysEvent::Aex { machine_wide } => Input::Aex { machine_wide },
            SysEvent::AexResume => Input::AexResume,
            SysEvent::Crash => Input::Crash,
            SysEvent::Restart => Input::Restart, // not crashed: spurious
            SysEvent::Timer { token } => {
                // The fired event is spent; drop its cancellation handle.
                self.timers.remove(&token);
                if token == AEX_RESUME_TOKEN {
                    Input::AexResume
                } else {
                    Input::Timer { token }
                }
            }
            SysEvent::Sample => return, // the Sampler's private event
        };
        self.step(ctx, input);
    }
}

/// The simulation-side [`Env`]: every capability resolves against the
/// shared [`World`] and the event queue, immediately.
struct SimEnv<'e, 'w> {
    me: Addr,
    node_index: Option<usize>,
    ctx: &'e mut Ctx<'w, World, SysEvent>,
    timers: &'e mut FastMap<u64, EventId>,
}

impl SimEnv<'_, '_> {
    fn index(&self) -> usize {
        // tt-lint: allow(panic-surface) — a node-only capability (TSC, INC,
        // clock publishing) invoked by a machine wired without a node index
        // is a local construction error, never reachable from network input.
        self.node_index.expect("machine has no co-located node for this capability")
    }
}

impl Env for SimEnv<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn rng(&mut self) -> &mut StdRng {
        self.ctx.rng
    }

    fn send(&mut self, dst: Addr, msg: &Message) -> bool {
        send_message(self.ctx, self.me, dst, msg)
    }

    fn set_timer(&mut self, token: u64, after: SimDuration) {
        let id = self.ctx.schedule_in(after, SysEvent::timer(token));
        self.timers.insert(token, id);
    }

    fn cancel_timer(&mut self, token: u64) {
        if let Some(id) = self.timers.remove(&token) {
            self.ctx.cancel(id);
        }
    }

    fn read_tsc(&mut self) -> u64 {
        let now = self.ctx.now();
        self.ctx.world.read_tsc(World::node_addr(self.index()), now)
    }

    fn sample_inc(&mut self, wall: SimDuration) -> u64 {
        let host = self.ctx.world.host(World::node_addr(self.index()));
        let core_hz = host.core.current_hz();
        let inc_model = host.inc.clone();
        inc_model.measure(wall, core_hz, self.ctx.rng)
    }

    fn publish_clock(&mut self, clock: ClockState) {
        let i = self.index();
        self.ctx.world.clocks[i] = clock;
    }

    fn clock(&self, i: usize) -> ClockState {
        self.ctx.world.clocks[i]
    }

    fn node_state(&self, i: usize) -> Option<NodeStateTag> {
        self.ctx.world.recorder.node(i).states.state_at(self.ctx.now())
    }

    fn lie(&self, i: usize) -> Option<Lie> {
        self.ctx.world.lies[i]
    }

    fn recorder(&mut self) -> &mut Recorder {
        &mut self.ctx.world.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Host;
    use netsim::{DelayModel, Network};
    use sim::Simulation;

    /// A machine that arms, cancels, and re-arms timers and publishes a
    /// clock, exercising every adapter path.
    struct Pinger {
        me: Addr,
        fired: Vec<u64>,
    }

    impl Machine for Pinger {
        fn addr(&self) -> Addr {
            self.me
        }
        fn node_index(&self) -> Option<usize> {
            Some((self.me.0 - 1) as usize)
        }
        fn on_start(&mut self, env: &mut dyn Env) {
            env.set_timer(1, SimDuration::from_millis(10));
            env.set_timer(2, SimDuration::from_millis(20));
            env.cancel_timer(2); // never fires
            env.set_timer(3, SimDuration::from_millis(30));
        }
        fn on_input(&mut self, env: &mut dyn Env, input: Input) {
            if let Input::Timer { token } = input {
                self.fired.push(token);
                if token == 1 {
                    let ticks = env.read_tsc();
                    env.publish_clock(ClockState {
                        valid: true,
                        anchor_ref_ns: 0.0,
                        anchor_ticks: ticks,
                        f_calib_hz: 1e9,
                        uncertainty_ns: 0.0,
                    });
                }
            }
        }
    }

    #[test]
    fn timers_cancel_by_token_and_clock_publishes() {
        let net = Network::new(DelayModel::Constant(SimDuration::ZERO), 0.0);
        let world = World::new(net, vec![Host::paper_default()]);
        let mut s = Simulation::new(world, 1);
        let id = s.add_actor(Box::new(MachineActor::new(Pinger { me: Addr(1), fired: vec![] })));
        s.world_mut().register_actor(Addr(1), id);
        s.run_until(SimTime::from_secs(1));
        assert!(s.world().clocks[0].valid, "timer 1 published the clock");
        // Timer 2 was cancelled before it could fire.
        assert!(s.dispatched() >= 2);
    }

    /// Arms token 7 twice without cancelling, then cancels it on every
    /// firing.
    struct Rearmer;

    impl Machine for Rearmer {
        fn addr(&self) -> Addr {
            Addr(1)
        }
        fn on_start(&mut self, env: &mut dyn Env) {
            env.set_timer(7, SimDuration::from_millis(10));
            env.set_timer(7, SimDuration::from_millis(20));
        }
        fn on_input(&mut self, env: &mut dyn Env, _input: Input) {
            env.cancel_timer(7);
        }
    }

    /// Pins a sim↔live divergence (`net::TimerQueue::arm` supersedes, see
    /// its `rearm_supersedes_the_old_deadline`): here both events stay
    /// queued, and the first firing drops the second one's handle, so not
    /// even the cancel at 10 ms stops the 20 ms firing.
    #[test]
    fn rearming_an_armed_token_fires_twice() {
        let net = Network::new(DelayModel::Constant(SimDuration::ZERO), 0.0);
        let mut s = Simulation::new(World::new(net, vec![Host::paper_default()]), 1);
        s.add_actor(Box::new(MachineActor::new(Rearmer)));
        s.run();
        assert_eq!(s.dispatched(), 2, "the superseded 10 ms event and the 20 ms one");
        assert_eq!(s.now(), SimTime::ZERO + SimDuration::from_millis(20));
    }
}
