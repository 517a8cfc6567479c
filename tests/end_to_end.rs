//! Workspace-level integration tests: client-facing behaviour across the
//! full stack (crypto + wire + netsim + runtime + protocol).

use triad_tt::attacks::DelayAttackMode;
use triad_tt::netsim::Addr;
use triad_tt::proto::TA_ADDR;
use triad_tt::scenario::{AexSpec, AttackSpec, ScenarioSpec};
use triad_tt::sim::{SimDuration, SimTime};

/// Runs `spec` to 60 s with a client asking node index `target` for a
/// timestamp every 50 ms. The client (`runtime::ClientWorkload`) asserts
/// the node's monotonicity contract *inside* the simulation, so reaching
/// the end without a panic is the property. Returns the events dispatched
/// and the timestamps the node served.
fn with_client(spec: ScenarioSpec, seed: u64, target: usize) -> (u64, u64) {
    let mut s = spec.client(target, SimDuration::from_millis(50)).build(seed);
    s.run_until(SimTime::from_secs(60));
    (s.dispatched(), s.world().recorder.node(target).client_served.count())
}

#[test]
fn clients_get_monotonic_timestamps_from_an_honest_cluster() {
    let spec = ScenarioSpec::new(3).all_nodes_aex(AexSpec::TriadLike);
    let (dispatched, served) = with_client(spec, 31, 0);
    assert!(dispatched > 2_000, "client traffic must actually flow ({dispatched})");
    assert!(served > 0, "the honest node served no timestamp");
}

#[test]
fn clients_get_monotonic_timestamps_even_from_an_attacked_node() {
    // Even while the F– attack skews node 3's clock, timestamps served to
    // clients must never go backwards.
    let spec = ScenarioSpec::new(3)
        .all_nodes_aex(AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FMinus));
    let (dispatched, served) = with_client(spec, 32, 2);
    assert!(dispatched > 2_000);
    assert!(served > 0, "the attacked node served no timestamp");
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
