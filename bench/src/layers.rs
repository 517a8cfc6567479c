//! Isolated per-layer costs: tight timing loops over each layer's public
//! functions, nothing else running.
//!
//! Every number is nanoseconds per operation, estimated like the
//! end-to-end numbers: the loop body is timed in [`BATCHES`] batches and
//! the fastest-5 % batch ([`fast_envelope`]) is divided by the operations
//! per batch. These are the "ns each" column of the ledger; the "count per
//! op" column comes from the workload run.

use std::hint::black_box;
use std::time::Instant;

use netsim::{Addr, DelayModel, Network};
use proto::{ClockState, Effect, Env, Input, Machine, ScriptedEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use resilient::{ResilientConfig, ResilientNode};
use runtime::{Host, KeyTable, MachineActor, SysEvent, World};
use service::{decide, AttestSample, Frontend, FrontendSpec};
use sim::{SimDuration, SimTime, Simulation};
use stats::{marzullo, Interval, LogHistogram};
use trace::{NodeStateTag, StepCounter};
use triad_core::{TriadConfig, TriadNode};
use tsc::TscClock;
use tt_crypto::{CryptoBackend, SealingKey};
use wire::{AttestOutcome, Message, ServeOutcome, TimeReading};

use crate::envelope::fast_envelope;
use crate::metrics::MetricSet;

/// Timed batches per loop (the issue asks for at least 200).
const BATCHES: usize = 200;
/// Untimed batches before sampling (page faults, branch training,
/// backend detection).
const WARMUP: usize = 20;
/// Operations per batch: long enough that the two `Instant::now` calls
/// around a batch are noise.
const OPS: usize = 256;

fn envelope(samples: &[f64]) -> f64 {
    fast_envelope(samples, BATCHES).expect("every loop takes BATCHES samples")
}

/// Fastest-5 % nanoseconds per operation of `batch`, which performs
/// `ops` operations per call.
fn ns_per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        batch();
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    envelope(&samples) / ops as f64
}

fn reading(i: u64) -> TimeReading {
    TimeReading {
        estimate_ns: 1_700_000_000_000 + i * 1_000,
        uncertainty_ns: 2_000_000,
        degraded: false,
    }
}

/// The two reply kinds the serving workloads put on the wire.
fn replies() -> [Message; 2] {
    [
        Message::ServeResponse {
            nonce: 0x1234_5678,
            outcome: ServeOutcome::Time(1_700_000_000_123),
        },
        Message::AttestResponse {
            nonce: 0x1234_5679,
            outcome: AttestOutcome::Attestation(reading(0)),
        },
    ]
}

fn wire_layer(set: &mut MetricSet) {
    let msgs = replies();
    let mut buf = Vec::with_capacity(64);
    set.set(
        "wire.encode_ns",
        ns_per_op(OPS, || {
            for i in 0..OPS {
                buf.clear();
                black_box(&msgs[i & 1]).encode_into(&mut buf);
                black_box(&buf);
            }
        }),
    );
    let encoded: Vec<Vec<u8>> = msgs.iter().map(Message::encode).collect();
    set.set(
        "wire.decode_ns",
        ns_per_op(OPS, || {
            for i in 0..OPS {
                black_box(Message::decode(black_box(&encoded[i & 1])).expect("own encoding"));
            }
        }),
    );
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    set.set("wire.bytes_per_msg", bytes as f64 / encoded.len() as f64);
}

fn crypto_layer(set: &mut MetricSet) {
    let key = [0x5au8; 32];
    let aad = runtime::link_aad(Addr(2000), Addr(3000));
    let plain = replies()[0].encode();
    let mut out = Vec::with_capacity(256);

    let (mut tx, rx) = SealingKey::pair(&key);
    set.set("crypto.backend", f64::from(u8::from(tx.backend() == CryptoBackend::Accel)));
    set.set(
        "crypto.seal_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                out.clear();
                tx.seal_into(&aad, black_box(&plain), &mut out);
                black_box(&out);
            }
        }),
    );
    let sealed = tx.seal(&aad, &plain);
    set.set(
        "crypto.open_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                out.clear();
                rx.open_into(&aad, black_box(&sealed), &mut out).expect("authentic frame");
                black_box(&out);
            }
        }),
    );

    // A quorum flush answers one client's three panel legs in one pass.
    let plain3: Vec<u8> = plain.iter().copied().cycle().take(plain.len() * 3).collect();
    let parts: Vec<_> = (0..3).map(|i| i * plain.len()..(i + 1) * plain.len()).collect();
    let mut frames = Vec::with_capacity(3);
    set.set(
        "crypto.seal_batch3_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                out.clear();
                frames.clear();
                tx.seal_batch_into(&aad, black_box(&plain3), &parts, &mut out, &mut frames);
                black_box(&out);
            }
        }),
    );

    let (mut soft, _) = SealingKey::pair_on(&key, CryptoBackend::Soft);
    set.set(
        "crypto.soft_seal_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                out.clear();
                soft.seal_into(&aad, black_box(&plain), &mut out);
                black_box(&out);
            }
        }),
    );
}

fn netsim_layer(set: &mut MetricSet) {
    let mut net = Network::new(DelayModel::lan_default(), 0.0);
    let mut rng = StdRng::seed_from_u64(11);
    let payload = vec![0xabu8; 46];
    let mut out = Vec::with_capacity(2);
    let mut now = SimTime::ZERO;
    set.set(
        "netsim.dispatch_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                now += SimDuration::from_micros(1);
                out.clear();
                net.dispatch_into(
                    now,
                    &mut rng,
                    Addr(3000),
                    Addr(2000),
                    black_box(&payload),
                    &mut out,
                );
                black_box(&out);
            }
        }),
    );
}

/// A machine that ignores every input: the cheapest thing an event can
/// be dispatched to through the one component model both drivers share.
struct Idle(Addr);

impl Machine for Idle {
    fn addr(&self) -> Addr {
        self.0
    }
    fn on_input(&mut self, _: &mut dyn Env, _: Input) {}
}

/// A machine that answers each timer with a burst of sealed sends.
struct Blaster {
    me: Addr,
    peer: Addr,
    burst: usize,
}

impl Machine for Blaster {
    fn addr(&self) -> Addr {
        self.me
    }
    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        if let Input::Timer { .. } = input {
            for i in 0..self.burst {
                env.send(self.peer, &Message::PeerTimeRequest { nonce: i as u64 });
            }
        }
    }
}

fn two_host_world() -> World {
    let net = Network::new(DelayModel::Constant(SimDuration::from_micros(200)), 0.0);
    let mut world = World::new(net, vec![Host::paper_default(), Host::paper_default()]);
    world.provision_all_keys(17);
    world
}

fn sim_layer(population: usize, set: &mut MetricSet) {
    let mut sim = Simulation::new(two_host_world(), 3);
    let idle = sim.add_actor(Box::new(MachineActor::new(Idle(Addr(1)))));
    // The standing population the workload keeps scheduled: far enough
    // out that the timed events always fire first.
    for i in 0..population as u64 {
        let at = SimTime::from_secs(3_600) + SimDuration::from_millis(i);
        sim.schedule(at, idle, SysEvent::timer(i));
    }
    set.set(
        "sim.push_pop_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                let at = sim.now() + SimDuration::from_micros(1);
                sim.schedule(at, idle, SysEvent::timer(0));
                black_box(sim.step());
            }
        }),
    );

    // Arm (untimed), cancel (timed), then let the kernel sweep the
    // tombstones (untimed) so the queue does not grow across batches.
    let mut ids = Vec::with_capacity(OPS);
    let mut samples = Vec::with_capacity(BATCHES);
    for round in 0..WARMUP + BATCHES {
        let base = sim.now() + SimDuration::from_millis(10);
        ids.clear();
        ids.extend(
            (0..OPS as u64).map(|i| {
                sim.schedule(base + SimDuration::from_micros(i), idle, SysEvent::timer(i))
            }),
        );
        let t = Instant::now();
        for &id in &ids {
            sim.cancel(id);
        }
        let dt = t.elapsed().as_nanos() as f64;
        sim.run_until(base + SimDuration::from_millis(10));
        if round >= WARMUP {
            samples.push(dt);
        }
    }
    set.set("sim.cancel_ns", envelope(&samples) / OPS as f64);
}

fn runtime_layer(set: &mut MetricSet) {
    set.set("runtime.build_us", ns_per_op(1, || drop(black_box(two_host_world()))) / 1e3);

    const BURST: usize = 64;
    let mut sim = Simulation::new(two_host_world(), 5);
    let (me, peer) = (World::node_addr(0), World::node_addr(1));
    let blaster = sim.add_actor(Box::new(MachineActor::new(Blaster { me, peer, burst: BURST })));
    let sink = sim.add_actor(Box::new(MachineActor::new(Idle(peer))));
    sim.world_mut().register_actor(me, blaster);
    sim.world_mut().register_actor(peer, sink);
    let (mut send, mut open) = (Vec::new(), Vec::new());
    for round in 0..WARMUP + BATCHES {
        sim.schedule(sim.now(), blaster, SysEvent::timer(0));
        // One step: the timer fires and the machine seals BURST sends.
        let t = Instant::now();
        sim.step();
        let sent = t.elapsed().as_nanos() as f64;
        // BURST steps: each delivery is popped, opened, decoded and
        // handed to a machine that ignores it.
        let t = Instant::now();
        for _ in 0..BURST {
            sim.step();
        }
        let opened = t.elapsed().as_nanos() as f64;
        if round >= WARMUP {
            send.push(sent);
            open.push(opened);
        }
    }
    assert_eq!(sim.live_events(), 0, "every burst must have been delivered");
    set.set("runtime.send_ns", envelope(&send) / BURST as f64);
    set.set("runtime.open_delivery_ns", envelope(&open) / BURST as f64);
}

fn calibrated_env() -> ScriptedEnv {
    let mut env = ScriptedEnv::new(1, 23);
    env.states[0] = Some(NodeStateTag::Ok);
    env.clocks[0] = ClockState {
        valid: true,
        anchor_ref_ns: 0.0,
        anchor_ticks: 0,
        f_calib_hz: env.tsc_hz,
        uncertainty_ns: 1_000.0,
    };
    env
}

fn service_layer(set: &mut MetricSet) {
    let spec = FrontendSpec::default();
    let client = service::generator_addr(0);
    let mut env = calibrated_env();
    let mut frontend = Frontend::new(service::frontend_addr(0), 0, spec);
    // Learn the flush timer's token from the effect it arms.
    frontend.on_input(
        &mut env,
        Input::Message {
            src: client,
            msg: Message::ServeRequest { nonce: 0, accept_degraded: true },
        },
    );
    let flush = env
        .take_effects()
        .into_iter()
        .find_map(|e| match e {
            Effect::SetTimer { token, .. } => Some(token),
            _ => None,
        })
        .expect("the first admitted request arms the flush timer");
    frontend.on_input(&mut env, Input::Timer { token: flush });
    let mut nonce = 1u64;
    let per_batch = spec.batch_max;
    set.set(
        "service.frontend_step_ns",
        ns_per_op(per_batch, || {
            env.advance(spec.batch_window);
            for _ in 0..per_batch {
                nonce += 1;
                let msg = Message::ServeRequest { nonce, accept_degraded: true };
                frontend.on_input(&mut env, Input::Message { src: client, msg });
            }
            frontend.on_input(&mut env, Input::Timer { token: flush });
            env.effects.clear();
        }),
    );
    let answered = env.recorder.node(0).frontend_served.count();
    assert_eq!(answered, nonce, "the scripted front-end must answer every request");

    let now = SimTime::from_secs(100);
    let samples: Vec<AttestSample> = (0..3)
        .map(|i| AttestSample {
            node: i,
            reading: TimeReading { estimate_ns: 100_000_000_000 + i as u64 * 1_000, ..reading(0) },
            sent: now - SimDuration::from_micros(600),
            received: now - SimDuration::from_micros(100 * i as u64),
        })
        .collect();
    let margin = SimDuration::from_millis(10);
    set.set(
        "service.decide_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                let d = decide(black_box(&samples), 1, now, margin);
                assert!(d.accepted.is_some());
                black_box(d);
            }
        }),
    );
    let intervals: Vec<Interval> = samples.iter().map(|s| s.project(now)).collect();
    set.set(
        "stats.marzullo3_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                black_box(marzullo(black_box(&intervals)));
            }
        }),
    );
    let mut hist = LogHistogram::latency_ns();
    let mut x = 400_000.0;
    set.set(
        "stats.hist_record_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                x += 37.0;
                hist.push(black_box(x));
            }
        }),
    );
    black_box(hist.total());
}

/// Plays the Time Authority for a node under [`ScriptedEnv`] until it
/// reports `Ok`: every calibration probe it sends is answered after its
/// requested hold plus a fixed 200 µs round trip.
fn calibrate(node: &mut dyn Machine, env: &mut ScriptedEnv) {
    node.on_start(env);
    for _ in 0..10_000 {
        if env.recorder.node(0).states.state_at(env.now) == Some(NodeStateTag::Ok) {
            env.effects.clear();
            return;
        }
        let probe = env.take_effects().into_iter().rev().find_map(|e| match e {
            Effect::Send { dst, msg: Message::CalibrationRequest { nonce, sleep_ns } }
                if dst == proto::TA_ADDR =>
            {
                Some((nonce, sleep_ns))
            }
            _ => None,
        });
        let (nonce, sleep_ns) = probe.expect("a calibrating node always has a probe in flight");
        env.advance(SimDuration::from_nanos(sleep_ns) + SimDuration::from_micros(200));
        let msg = Message::CalibrationResponse {
            nonce,
            ta_time_ns: env.now.as_nanos(),
            slept_ns: sleep_ns,
        };
        node.on_input(env, Input::Message { src: proto::TA_ADDR, msg });
    }
    panic!("node did not reach Ok under the scripted Time Authority");
}

fn node_step_ns(node: &mut dyn Machine) -> f64 {
    let mut env = ScriptedEnv::new(3, 29);
    calibrate(node, &mut env);
    let peer = proto::node_addr(1);
    let mut nonce = 0u64;
    let ns = ns_per_op(OPS, || {
        for _ in 0..OPS {
            nonce += 1;
            env.advance(SimDuration::from_micros(1));
            node.on_input(
                &mut env,
                Input::Message { src: peer, msg: Message::PeerTimeRequest { nonce } },
            );
        }
        assert_eq!(env.effects.len(), OPS, "an Ok node answers every peer request");
        env.effects.clear();
    });
    ns
}

fn protocol_layer(set: &mut MetricSet) {
    let me = proto::node_addr(0);
    let peers = vec![proto::node_addr(1), proto::node_addr(2)];
    let mut hardened = ResilientNode::new(me, peers.clone(), ResilientConfig::default());
    set.set("resilient.step_ns", node_step_ns(&mut hardened));
    let mut base = TriadNode::new(me, peers, TriadConfig::default());
    set.set("core.step_ns", node_step_ns(&mut base));

    let mut counter = StepCounter::new();
    let mut now = SimTime::ZERO;
    set.set(
        "trace.counter_inc_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                now += SimDuration::from_micros(1);
                counter.increment(now);
            }
        }),
    );
    black_box(counter.count());
    let clock = TscClock::paper_default();
    set.set(
        "tsc.read_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                now += SimDuration::from_micros(1);
                black_box(clock.read(black_box(now)));
            }
        }),
    );
}

fn search_layer(set: &mut MetricSet) {
    let text = include_str!("../inputs/drift-n3.scn");
    set.set(
        "search.decode_us",
        ns_per_op(8, || {
            for _ in 0..8 {
                black_box(search::Reproducer::decode(black_box(text)).expect("bundled input"));
            }
        }) / 1e3,
    );
    let r = search::Reproducer::decode(text).expect("bundled input");
    set.set(
        "search.spec_us",
        ns_per_op(8, || {
            for _ in 0..8 {
                black_box(r.space.spec(black_box(&r.genome)));
            }
        }) / 1e3,
    );
}

fn net_layer(set: &mut MetricSet) {
    let (client, frontend) = (net::client_addr(0), net::frontend_addr(0));
    let mut keys = KeyTable::new();
    keys.provision_pair(client, frontend, [0x33u8; 32]);
    let msg = replies()[0].clone();
    let (mut plain, mut wire_buf, mut opened) = (Vec::new(), Vec::new(), Vec::new());
    set.set(
        "net.frame_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                net::frame_into(
                    &mut keys,
                    frontend,
                    client,
                    black_box(&msg),
                    &mut plain,
                    &mut wire_buf,
                );
                black_box(&wire_buf);
            }
        }),
    );
    set.set(
        "net.parse_open_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                let (src, sealed) = net::parse_frame(black_box(&wire_buf)).expect("own frame");
                opened.clear();
                keys.open_into(client, src, sealed, &mut opened).expect("authentic frame");
                black_box(Message::decode(&opened).expect("own encoding"));
            }
        }),
    );
}

/// Fills every isolated ns/op metric. `population` is the workload's
/// standing count of scheduled events, which the kernel loops reproduce.
pub fn isolated(population: usize, set: &mut MetricSet) {
    wire_layer(set);
    crypto_layer(set);
    netsim_layer(set);
    sim_layer(population, set);
    runtime_layer(set);
    service_layer(set);
    protocol_layer(set);
    search_layer(set);
    net_layer(set);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_isolated_cost_is_measured_and_plausible() {
        let mut set = MetricSet::per_layer();
        isolated(64, &mut set);
        for name in [
            "wire.encode_ns",
            "wire.decode_ns",
            "crypto.seal_ns",
            "crypto.open_ns",
            "crypto.seal_batch3_ns",
            "crypto.soft_seal_ns",
            "netsim.dispatch_ns",
            "sim.push_pop_ns",
            "sim.cancel_ns",
            "runtime.send_ns",
            "runtime.open_delivery_ns",
            "runtime.build_us",
            "service.frontend_step_ns",
            "service.decide_ns",
            "stats.marzullo3_ns",
            "stats.hist_record_ns",
            "resilient.step_ns",
            "core.step_ns",
            "trace.counter_inc_ns",
            "tsc.read_ns",
            "search.decode_us",
            "search.spec_us",
            "net.frame_ns",
            "net.parse_open_ns",
        ] {
            let v = set.get(name);
            assert!(v > 0.0 && v < 1e7, "{name} = {v}");
        }
        assert!(set.get("wire.bytes_per_msg") > 8.0);
        // A sealed send contains an encode, a seal and a fabric dispatch.
        assert!(set.get("runtime.send_ns") > set.get("crypto.seal_ns"));
    }
}
