//! Workspace-level integration tests: client-facing behaviour across the
//! full stack (crypto + wire + netsim + runtime + protocol).

use triad_tt::attacks::DelayAttackMode;
use triad_tt::netsim::Addr;
use triad_tt::proto::{Env, Input, Machine, TA_ADDR};
use triad_tt::runtime::MachineActor;
use triad_tt::scenario::{AexSpec, AttackSpec, ScenarioSpec};
use triad_tt::sim::{SimDuration, SimTime};
use triad_tt::wire::Message;

/// A client application hammering one Triad node for timestamps. Asserts
/// the node's monotonicity contract *inside* the simulation.
struct ClientProbe {
    me: Addr,
    target: Addr,
    period: SimDuration,
    next_nonce: u64,
    last_timestamp: u64,
}

impl Machine for ClientProbe {
    fn addr(&self) -> Addr {
        self.me
    }
    fn on_start(&mut self, env: &mut dyn Env) {
        env.set_timer(0, self.period);
    }
    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            Input::Timer { .. } => {
                self.next_nonce += 1;
                env.send(self.target, &Message::ClientTimeRequest { nonce: self.next_nonce });
                env.set_timer(0, self.period);
            }
            Input::Message {
                msg: Message::ClientTimeResponse { timestamp_ns: Some(ts), .. },
                ..
            } => {
                assert!(
                    ts > self.last_timestamp,
                    "monotonicity violated: {ts} after {}",
                    self.last_timestamp
                );
                self.last_timestamp = ts;
            }
            _ => {}
        }
    }
}

/// Wires a client at a spare address into a cluster built with `seed`.
fn with_client(
    spec: ScenarioSpec,
    seed: u64,
    target: Addr,
    period: SimDuration,
    horizon: SimTime,
) -> u64 {
    // The client lives at an address above the nodes; provision its key.
    let client_addr = Addr(100);
    let mut s = spec.build(seed);
    // Key + actor registration must happen before the run starts.
    let key = [0x42u8; 32];
    s.world_mut().keys.provision_pair(client_addr, target, key);
    let dispatched_before = s.dispatched();
    assert_eq!(dispatched_before, 0);
    let client = ClientProbe { me: client_addr, target, period, next_nonce: 0, last_timestamp: 0 };
    let id = s.add_actor(Box::new(MachineActor::new(client)));
    s.world_mut().register_actor(client_addr, id);
    s.run_until(horizon);
    s.dispatched()
}

#[test]
fn clients_get_monotonic_timestamps_from_an_honest_cluster() {
    let spec = ScenarioSpec::new(3).all_nodes_aex(AexSpec::TriadLike);
    // The ClientProbe asserts monotonicity internally; reaching the end
    // without a panic is the property.
    let dispatched =
        with_client(spec, 31, Addr(1), SimDuration::from_millis(50), SimTime::from_secs(60));
    assert!(dispatched > 2_000, "client traffic must actually flow ({dispatched})");
}

#[test]
fn clients_get_monotonic_timestamps_even_from_an_attacked_node() {
    // Even while the F– attack skews node 3's clock, timestamps served to
    // clients must never go backwards.
    let spec = ScenarioSpec::new(3)
        .all_nodes_aex(AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FMinus));
    let dispatched =
        with_client(spec, 32, Addr(3), SimDuration::from_millis(50), SimTime::from_secs(60));
    assert!(dispatched > 2_000);
}

#[test]
fn identical_seeds_reproduce_identical_attack_outcomes() {
    let run = |seed: u64| {
        let mut s = ScenarioSpec::new(3)
            .all_nodes_aex(AexSpec::TriadLike)
            .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FPlus))
            .build(seed);
        s.run_until(SimTime::from_secs(60));
        let w = s.world();
        (
            w.recorder.node(2).latest_calibrated_hz(),
            w.recorder.node(2).drift_ms.points().to_vec(),
            w.recorder.node(0).aex_events.count(),
        )
    };
    let a = run(99);
    let b = run(99);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1, "drift series must be bit-identical");
    assert_eq!(a.2, b.2);
    let c = run(100);
    assert_ne!(a.1, c.1, "different seeds explore different schedules");
}

#[test]
fn fabric_statistics_reflect_the_attack() {
    let mut s = ScenarioSpec::new(3)
        .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FPlus))
        .build(33);
    s.run_until(SimTime::from_secs(30));
    let w = s.world();
    // The attacker delayed TA→node3 responses (the 1 s-sleep ones) …
    let to_victim = w.net.link_stats(TA_ADDR, Addr(3));
    assert!(to_victim.attacker_delayed > 0, "{to_victim:?}");
    assert!(to_victim.attacker_delay_ns >= to_victim.attacker_delayed * 100_000_000);
    // … but never touched honest nodes' traffic.
    for honest in [Addr(1), Addr(2)] {
        let stats = w.net.link_stats(TA_ADDR, honest);
        assert_eq!(stats.attacker_delayed, 0, "honest link touched: {stats:?}");
        assert_eq!(stats.attacker_dropped, 0);
    }
}

#[test]
fn protocol_survives_datagram_loss() {
    // 2% loss on every link: retransmissions must still converge to a
    // calibrated, serving cluster.
    let mut s = ScenarioSpec::new(3).loss(0.02).all_nodes_aex(AexSpec::TriadLike).build(34);
    s.run_until(SimTime::from_secs(120));
    let w = s.world();
    for i in 0..3 {
        let trace = w.recorder.node(i);
        assert!(trace.latest_calibrated_hz().is_some(), "node {i} must calibrate despite loss");
        let avail = trace.states.availability(SimTime::from_secs(60), SimTime::from_secs(120));
        assert!(avail > 0.8, "node {i} availability under loss: {avail}");
    }
    assert!(w.net.total_stats().lost > 0, "loss must actually have occurred");
}
