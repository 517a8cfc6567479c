//! Sealed protocol messaging over the simulated fabric.

use netsim::{Addr, Delivery};
use sim::{Ctx, SimTime};
use wire::{DecodeError, Message};

use crate::event::SysEvent;
use crate::world::World;

/// Encodes, seals, and dispatches `msg` from `src` to `dst`, scheduling the
/// delivery event on the destination actor.
///
/// Returns `false` when the fabric killed the datagram (loss or an
/// attacker drop) — senders see nothing, exactly like UDP.
///
/// # Panics
///
/// Panics if no key is provisioned for the pair or `dst` has no registered
/// actor.
pub fn send_message(
    ctx: &mut Ctx<'_, World, SysEvent>,
    src: Addr,
    dst: Addr,
    msg: &Message,
) -> bool {
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

/// Why an inbound datagram was dropped before reaching a machine.
///
/// The decode → machine-input hot path never panics on network input;
/// every failure is one of these, counted into the world recorder's
/// [`trace::ServiceTrace`] drop counters so runs can distinguish "the
/// fabric ate it" from "someone is sending garbage".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The AEAD seal failed to authenticate: forged, tampered,
    /// replayed, or misrouted.
    Auth,
    /// The seal opened but the plaintext is not a valid protocol
    /// message.
    Decode(DecodeError),
}

/// Opens and decodes a delivery addressed to `me` at simulation time
/// `now`.
///
/// # Errors
///
/// Returns the [`DropReason`] when authentication or decoding fails (a
/// tampered, replayed, or corrupted datagram); the failure is already
/// counted into the world recorder's drop counters — callers ignore the
/// datagram, as a UDP service would.
pub fn open_delivery(
    world: &mut World,
    me: Addr,
    now: SimTime,
    delivery: &Delivery,
) -> Result<Message, DropReason> {
    debug_assert_eq!(delivery.dst, me, "delivery routed to the wrong actor");
    let World { ref keys, ref mut scratch, .. } = *world;
    scratch.plain.clear();
    if keys.open_into(me, delivery.src, &delivery.payload, &mut scratch.plain).is_err() {
        world.recorder.service.drops_auth.increment(now);
        return Err(DropReason::Auth);
    }
    match Message::decode(&world.scratch.plain) {
        Ok(msg) => Ok(msg),
        Err(e) => {
            world.recorder.service.drops_decode.increment(now);
            Err(DropReason::Decode(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Host;
    use netsim::{DelayModel, Network};
    use sim::{Actor, SimDuration, SimTime, Simulation};

    /// Echoes every decoded message's kind into the world recorder label
    /// stream (abused here as a scratch log via calibrations_hz).
    struct Responder {
        me: Addr,
        log: Vec<&'static str>,
    }

    impl Actor<World, SysEvent> for Responder {
        fn on_event(&mut self, ctx: &mut Ctx<'_, World, SysEvent>, ev: SysEvent) {
            if let SysEvent::Deliver(d) = ev {
                let now = ctx.now();
                if let Ok(msg) = open_delivery(ctx.world, self.me, now, &d) {
                    self.log.push(msg.kind());
                    if matches!(msg, Message::PeerTimeRequest { .. }) {
                        send_message(
                            ctx,
                            self.me,
                            d.src,
                            &Message::PeerTimeResponse { nonce: 1, timestamp_ns: 42 },
                        );
                    }
                } else {
                    self.log.push("garbage");
                }
            }
        }
    }

    struct Requester {
        me: Addr,
        peer: Addr,
        got_response: bool,
    }

    impl Actor<World, SysEvent> for Requester {
        fn on_start(&mut self, ctx: &mut Ctx<'_, World, SysEvent>) {
            // Delay the first send past start so actor registration exists.
            ctx.schedule_in(SimDuration::from_millis(1), SysEvent::timer(0));
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, World, SysEvent>, ev: SysEvent) {
            match ev {
                SysEvent::Timer { .. } => {
                    send_message(ctx, self.me, self.peer, &Message::PeerTimeRequest { nonce: 1 });
                }
                SysEvent::Deliver(d) => {
                    let now = ctx.now();
                    if let Ok(Message::PeerTimeResponse { timestamp_ns, .. }) =
                        open_delivery(ctx.world, self.me, now, &d)
                    {
                        assert_eq!(timestamp_ns, 42);
                        self.got_response = true;
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn request_response_round_trip_over_sealed_fabric() {
        let net = Network::new(DelayModel::Constant(SimDuration::from_micros(200)), 0.0);
        let mut world = World::new(net, vec![Host::paper_default(), Host::paper_default()]);
        world.provision_all_keys(1);
        let mut s = Simulation::new(world, 1);
        let a1 =
            s.add_actor(Box::new(Requester { me: Addr(1), peer: Addr(2), got_response: false }));
        let a2 = s.add_actor(Box::new(Responder { me: Addr(2), log: vec![] }));
        s.world_mut().register_actor(Addr(1), a1);
        s.world_mut().register_actor(Addr(2), a2);
        s.run_until(SimTime::from_secs(1));
        // Round trip = 1 ms initial delay + 2 × 200 µs.
        assert_eq!(s.now(), SimTime::from_secs(1));
        assert!(s.dispatched() >= 3);
    }

    #[test]
    fn tampered_payload_is_ignored() {
        // Interceptors cannot rewrite payloads (read-only), so model the
        // strongest forgery: an attacker-injected datagram of chosen bytes.
        let net = Network::new(DelayModel::Constant(SimDuration::ZERO), 0.0);
        let mut world = World::new(net, vec![Host::paper_default()]);
        world.provision_all_keys(2);
        let forged = Delivery {
            src: Addr(0),
            dst: Addr(1),
            payload: vec![0u8; 64],
            send_time: SimTime::ZERO,
        };
        assert_eq!(
            open_delivery(&mut world, Addr(1), SimTime::ZERO, &forged),
            Err(DropReason::Auth)
        );
        assert_eq!(world.recorder.service.drops_auth.count(), 1);
    }

    #[test]
    fn authenticated_garbage_counts_a_decode_drop() {
        // Seal valid ciphertext over an invalid plaintext: authentication
        // passes, decoding must fail with a typed reason, not a panic.
        let net = Network::new(DelayModel::Constant(SimDuration::ZERO), 0.0);
        let mut world = World::new(net, vec![Host::paper_default(), Host::paper_default()]);
        world.provision_all_keys(3);
        let mut sealed = Vec::new();
        world.keys.seal_into(Addr(2), Addr(1), &[0xFF; 8], &mut sealed);
        let garbled =
            Delivery { src: Addr(2), dst: Addr(1), payload: sealed, send_time: SimTime::ZERO };
        let got = open_delivery(&mut world, Addr(1), SimTime::ZERO, &garbled);
        assert!(matches!(got, Err(DropReason::Decode(_))), "got {got:?}");
        assert_eq!(world.recorder.service.drops_decode.count(), 1);
        assert_eq!(world.recorder.service.drops(), 1);
    }
}
