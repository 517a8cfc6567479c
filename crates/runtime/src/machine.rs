//! The simulation driver for [`proto::Machine`] state machines.
//!
//! [`MachineActor`] is the thin adapter that lets a pure protocol machine
//! ride the discrete-event simulation: it opens sealed deliveries,
//! translates [`SysEvent`]s into [`proto::Input`]s, and interprets every
//! [`proto::Env`] effect **inline, in emission order**, against the sim
//! world — sends draw link delays from the shared seeded RNG at the exact
//! call sites the pre-refactor actors used, which is what keeps seeded
//! artifacts byte-identical across the effect-boundary refactor. Timers
//! arm in the simulation's own event queue, the [`sim::EventQueue`] the
//! live driver and `proto::ScriptedEnv` arm in too, so all three follow
//! one timer rule ([`proto::Env::set_timer`]); the `Env` conformance
//! suite in `net`'s driver checks this adapter against the other two.

use netsim::{Addr, Delivery};
use proto::{ClockState, Env, Input, Machine, TimerId};
use rand::rngs::StdRng;
use sim::{Actor, Ctx, EventId, SimDuration, SimTime};
use trace::{DropReason, NodeStateTag, ProtoEvent};
use wire::Message;

use crate::event::SysEvent;
use crate::world::World;

/// Adapts a [`proto::Machine`] into a simulation [`Actor`].
///
/// The adapter holds nothing but the machine. A timer's cancellation
/// handle is the sim [`EventId`] inside the [`TimerId`] the machine
/// keeps, so cancelling an arming that already fired or was cancelled is
/// a no-op through the event queue's generation check.
#[derive(Debug)]
pub struct MachineActor<M: Machine> {
    machine: M,
}

impl<M: Machine> MachineActor<M> {
    /// Wraps `machine` for the simulation driver.
    pub fn new(machine: M) -> Self {
        MachineActor { machine }
    }

    fn env<'e, 'w>(&self, ctx: &'e mut Ctx<'w, World, SysEvent>) -> SimEnv<'e, 'w> {
        SimEnv { me: self.machine.addr(), node_index: self.machine.node_index(), ctx }
    }
}

impl<M: Machine> Actor<World, SysEvent> for MachineActor<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, World, SysEvent>) {
        let mut env = self.env(ctx);
        self.machine.on_start(&mut env);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, World, SysEvent>, ev: SysEvent) {
        if self.machine.crashed() && ev != SysEvent::Restart {
            // A downed platform processes nothing — deliveries are not
            // even opened; only a restart fault event brings it back.
            return;
        }
        let input = match ev {
            SysEvent::Deliver(d) => {
                let now = ctx.now();
                let Some(msg) = open_delivery(ctx.world, self.machine.addr(), now, &d) else {
                    return; // forged, tampered, or corrupted datagram (counted)
                };
                Input::Message { src: d.src, msg }
            }
            SysEvent::Aex { machine_wide } => Input::Aex { machine_wide },
            SysEvent::Timer { token } => Input::timer(token),
            SysEvent::Crash => Input::Crash,
            SysEvent::Restart => Input::Restart,
            SysEvent::Lie(lie) => Input::Lie(lie),
            SysEvent::Sample => return, // the Sampler's private event
        };
        let mut env = self.env(ctx);
        self.machine.on_input(&mut env, input);
    }
}

/// Encodes, seals, and dispatches `msg` from `src` to `dst`, scheduling the
/// delivery event on the destination actor.
///
/// Returns `false` when the fabric killed the datagram (loss or an
/// attacker drop) — senders see nothing, exactly like UDP.
///
/// # Panics
///
/// Panics if the pair has no key and derives none (it is not
/// [`proto::linked`], or the world was never seeded) or `dst` has no
/// registered actor.
fn send_message(ctx: &mut Ctx<'_, World, SysEvent>, src: Addr, dst: Addr, msg: &Message) -> bool {
    let now = ctx.now();
    {
        // Split the world into its disjoint hot-path parts so the scratch
        // buffers can feed the key table and fabric without cloning.
        let World { ref mut net, ref mut keys, ref mut scratch, .. } = *ctx.world;
        scratch.plain.clear();
        msg.encode_into(&mut scratch.plain);
        scratch.wire.clear();
        keys.seal_into(src, dst, &scratch.plain, &mut scratch.wire);
        scratch.deliveries.clear();
        net.dispatch_into(now, ctx.rng, src, dst, &scratch.wire, &mut scratch.deliveries);
    }
    if ctx.world.scratch.deliveries.is_empty() {
        return false;
    }
    let target = ctx.world.actor_of(dst);
    // Scheduling needs `ctx` whole, so lift the staged deliveries out of the
    // world for the duration and hand the (emptied) buffer back after.
    let mut deliveries = std::mem::take(&mut ctx.world.scratch.deliveries);
    for (deliver_at, delivery) in deliveries.drain(..) {
        ctx.send_at(target, deliver_at, SysEvent::Deliver(delivery));
    }
    ctx.world.scratch.deliveries = deliveries;
    true
}

/// Opens and decodes a delivery addressed to `me` at simulation time
/// `now`. The decode → machine-input hot path never panics on network
/// input: a datagram that fails authentication (forged, tampered,
/// replayed, misrouted) or decoding is folded into the world recorder as
/// a [`ProtoEvent::Drop`] and `None` comes back — the adapter ignores it,
/// as a UDP service would.
fn open_delivery(
    world: &mut World,
    me: Addr,
    now: SimTime,
    delivery: &Delivery,
) -> Option<Message> {
    debug_assert_eq!(delivery.dst, me, "delivery routed to the wrong actor");
    let World { ref keys, ref mut scratch, ref mut recorder, .. } = *world;
    scratch.plain.clear();
    let msg = match keys.open_into(me, delivery.src, &delivery.payload, &mut scratch.plain) {
        Ok(_) => Message::decode(&scratch.plain).map_err(|_| DropReason::Decode),
        Err(_) => Err(DropReason::Auth),
    };
    msg.map_err(|reason| recorder.apply(now, None, ProtoEvent::Drop(reason))).ok()
}

/// The simulation-side [`Env`]: every capability resolves against the
/// shared [`World`] and the event queue, immediately.
struct SimEnv<'e, 'w> {
    me: Addr,
    node_index: Option<usize>,
    ctx: &'e mut Ctx<'w, World, SysEvent>,
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

    fn set_timer(&mut self, token: u64, after: SimDuration) -> TimerId {
        TimerId::new(token, self.ctx.schedule_in(after, SysEvent::timer(token)).to_bits())
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.ctx.cancel(EventId::from_bits(id.handle()));
    }

    fn read_tsc(&mut self) -> u64 {
        let now = self.ctx.now();
        self.ctx.world.hosts[self.index()].read_tsc(now)
    }

    fn sample_inc(&mut self, wall: SimDuration) -> u64 {
        let i = self.index();
        let ctx = &mut *self.ctx;
        ctx.world.hosts[i].sample_inc(wall, ctx.rng)
    }

    fn publish_clock(&mut self, clock: ClockState) {
        let i = self.index();
        self.ctx.world.clocks[i] = clock;
    }

    fn clock(&self) -> ClockState {
        self.ctx.world.clocks[self.index()]
    }

    fn node_state(&self) -> Option<NodeStateTag> {
        self.ctx.world.recorder.node(self.index()).states.state_at(self.ctx.now())
    }

    fn emit(&mut self, event: ProtoEvent) {
        let now = self.ctx.now();
        self.ctx.world.recorder.apply(now, self.node_index, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Host;
    use netsim::{DelayModel, Network};
    use sim::Simulation;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(u64, Input)>>>;

    /// Logs every input with its arrival time in ms, answers
    /// `PeerTimeRequest`s, and runs `hook` on start (`None`) and after
    /// every input.
    struct Scripted<F> {
        me: Addr,
        hook: F,
        log: Log,
    }

    impl<F: FnMut(&mut dyn Env, Option<&Input>)> Machine for Scripted<F> {
        fn addr(&self) -> Addr {
            self.me
        }
        fn on_start(&mut self, env: &mut dyn Env) {
            (self.hook)(env, None);
        }
        fn on_input(&mut self, env: &mut dyn Env, input: Input) {
            if let Input::Message { src, msg: Message::PeerTimeRequest { nonce } } = input {
                env.send(src, &Message::PeerTimeResponse { nonce, timestamp_ns: 42 });
            }
            (self.hook)(env, Some(&input));
            self.log.borrow_mut().push((env.now().as_nanos() / 1_000_000, input));
        }
    }

    fn world(n: usize) -> World {
        let net = Network::new(DelayModel::Constant(SimDuration::from_millis(1)), 0.0);
        let mut world = World::new(net, (0..n).map(|_| Host::paper_default()).collect());
        world.provision_all_keys(1);
        world
    }

    #[test]
    fn request_response_round_trip_over_sealed_fabric() {
        let log = Log::default();
        let mut s = Simulation::new(world(2), 1);
        let ask = |env: &mut dyn Env, input: Option<&Input>| {
            if input.is_none() {
                env.send(Addr(2), &Message::PeerTimeRequest { nonce: 1 });
            }
        };
        let quiet = |_: &mut dyn Env, _: Option<&Input>| {};
        let a = s.add_actor(Box::new(MachineActor::new(Scripted {
            me: Addr(1),
            hook: ask,
            log: Rc::clone(&log),
        })));
        let b = s.add_actor(Box::new(MachineActor::new(Scripted {
            me: Addr(2),
            hook: quiet,
            log: Rc::clone(&log),
        })));
        s.world_mut().register_actor(Addr(1), a);
        s.world_mut().register_actor(Addr(2), b);
        s.run();
        let request = Input::Message { src: Addr(1), msg: Message::PeerTimeRequest { nonce: 1 } };
        let response = Input::Message {
            src: Addr(2),
            msg: Message::PeerTimeResponse { nonce: 1, timestamp_ns: 42 },
        };
        assert_eq!(log.take(), [(1, request), (2, response)]);
    }

    #[test]
    fn tampered_payload_is_ignored() {
        // Interceptors cannot rewrite payloads (read-only), so model the
        // strongest forgery: an attacker-injected datagram of chosen bytes.
        let mut world = world(1);
        let forged = Delivery {
            src: Addr(0),
            dst: Addr(1),
            payload: vec![0u8; 64],
            send_time: SimTime::ZERO,
        };
        assert_eq!(open_delivery(&mut world, Addr(1), SimTime::ZERO, &forged), None);
        assert_eq!(world.recorder.service.drops_auth.count(), 1);
    }

    #[test]
    fn authenticated_garbage_counts_a_decode_drop() {
        // Seal valid ciphertext over an invalid plaintext: authentication
        // passes, decoding must fail and be counted, not panic.
        let mut world = world(2);
        let mut sealed = Vec::new();
        world.keys.seal_into(Addr(2), Addr(1), &[0xFF; 8], &mut sealed);
        let garbled =
            Delivery { src: Addr(2), dst: Addr(1), payload: sealed, send_time: SimTime::ZERO };
        assert_eq!(open_delivery(&mut world, Addr(1), SimTime::ZERO, &garbled), None);
        assert_eq!(world.recorder.service.drops_decode.count(), 1);
        assert_eq!(world.recorder.service.drops(), 1);
    }
}
