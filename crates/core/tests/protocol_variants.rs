//! Protocol-configuration variants: behaviours the default experiments
//! don't exercise.

use authority::TimeAuthority;
use netsim::{Addr, DelayModel, Network};
use proto::TA_ADDR;
use runtime::{EnvDriver, Host, MachineActor, Sampler, World};
use scenario::{AexSpec, AttackSpec, ScenarioSpec};
use sim::{SimDuration, SimTime, Simulation};
use triad_core::{TriadConfig, TriadNode};
use tsc::PAPER_TSC_HZ;

/// A single-node "cluster" has no peers: every AEX must fall back to the
/// TA (the degenerate case §III-B's clustering exists to avoid).
#[test]
fn single_node_cluster_depends_entirely_on_the_ta() {
    let mut s = ScenarioSpec::new(1).all_nodes_aex(AexSpec::TriadLike).build(51);
    s.run_until(SimTime::from_secs(60));
    let w = s.world();
    let trace = w.recorder.node(0);
    assert_eq!(trace.peer_untaints.count(), 0, "no peers exist");
    let aex = trace.aex_events.count();
    assert!(aex > 40, "AEXs happened: {aex}");
    // Every resolved taint is one TA reference (plus the initial one).
    assert!(
        trace.ta_references.count() > aex / 2,
        "TA references {} for {aex} AEXs",
        trace.ta_references.count()
    );
    // Availability suffers relative to a cluster: each taint costs a full
    // TA round-trip instead of a fast peer exchange — but stays high on a
    // LAN.
    let avail = trace.states.availability(SimTime::from_secs(30), SimTime::from_secs(60));
    assert!(avail > 0.9, "availability {avail}");
}

/// A multi-point sleep schedule (more x-values in the regression) still
/// calibrates correctly.
#[test]
fn multi_point_sleep_schedule_calibrates() {
    let cfg = TriadConfig {
        calib_sleeps: vec![
            SimDuration::ZERO,
            SimDuration::from_millis(250),
            SimDuration::from_millis(500),
            SimDuration::from_secs(1),
        ],
        samples_per_sleep: 2,
        ..Default::default()
    };
    let mut s = ScenarioSpec::new(3).config(cfg).build(52);
    s.run_until(SimTime::from_secs(60));
    let w = s.world();
    for i in 0..3 {
        let f = w.recorder.node(i).latest_calibrated_hz().unwrap();
        let ppm = stats::freq_error_ppm(f, PAPER_TSC_HZ).abs();
        assert!(ppm < 1_000.0, "node {i} calibrated to {f} ({ppm} ppm)");
    }
}

/// Security analysis beyond the paper: changing the sleep schedule does
/// NOT mitigate F– — it can *amplify* it. The slope tilt of a delay `d`
/// applied to the below-threshold probes scales with
/// `d · Σ(x_i<θ)(x̄−x_i) / Σ(x−x̄)²`, i.e. inversely with the schedule's
/// x-variance. A 4-point schedule spanning the same 1 s has less variance
/// than the paper's {0 s, 1 s}, so the same 100 ms delay buys the attacker
/// *more* drift; a tight {0.4 s, 0.6 s} schedule is catastrophically
/// worse (tilt d/0.2 = 5× the two-point case). Wide spacing is part of
/// the defence.
#[test]
fn tighter_sleep_schedules_amplify_f_minus() {
    use attacks::DelayAttackMode;
    let run = |sleeps: Vec<SimDuration>, samples: usize, seed: u64| -> f64 {
        let cfg =
            TriadConfig { calib_sleeps: sleeps, samples_per_sleep: samples, ..Default::default() };
        let mut s = ScenarioSpec::new(3)
            .config(cfg)
            .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FMinus))
            .build(seed);
        s.run_until(SimTime::from_secs(120));
        s.world()
            .recorder
            .node(2)
            .drift_ms
            .slope_per_sec_in(SimTime::from_secs(40), SimTime::from_secs(120))
            .unwrap()
    };
    let paper_schedule = run(vec![SimDuration::ZERO, SimDuration::from_secs(1)], 3, 53);
    let four_point = run(
        vec![
            SimDuration::ZERO,
            SimDuration::from_millis(300),
            SimDuration::from_millis(700),
            SimDuration::from_secs(1),
        ],
        2,
        53,
    );
    let tight = run(vec![SimDuration::from_millis(400), SimDuration::from_millis(600)], 3, 53);
    assert!((paper_schedule - 111.0).abs() < 5.0, "paper schedule {paper_schedule} ms/s");
    // Analytic prediction for the 4-point schedule: slope factor
    // 1 − d·(0.5+0.2)/1.16·2/2 = 0.8793 → +137 ms/s.
    assert!(
        (four_point - 137.0).abs() < 8.0,
        "4-point schedule amplifies to ≈137 ms/s, got {four_point}"
    );
    // Tight schedule: slope factor 1 − 0.1/0.2 = 0.5 → +1000 ms/s.
    assert!(tight > 900.0, "tight schedule is catastrophic (≈ +1000 ms/s), got {tight}");
}

/// The time-reference anchor adds half the measured round trip to the TA
/// timestamp, so a constant one-way delay does not push it into the past:
/// the drift right after calibration stays well under that delay.
#[test]
fn rtt_half_correction_keeps_the_anchor_on_time() {
    let delay = DelayModel::Constant(SimDuration::from_millis(2));
    let mut s = ScenarioSpec::new(3).delay(delay).build(54);
    s.run_until(SimTime::from_secs(20));
    // First drift sample after calibration.
    let initial = s.world().recorder.node(0).drift_ms.points()[0].1;
    // With a constant 2 ms one-way delay an uncorrected anchor would lag ~2 ms.
    assert!(initial.abs() < 1.0, "initial drift {initial} ms under a 2 ms one-way delay");
}

/// The probe-retry path: a TA that silently loses every first request
/// still gets calibrated against, just slower.
#[test]
fn calibration_survives_heavy_request_loss() {
    let mut s = ScenarioSpec::new(2).loss(0.25).build(55);
    s.run_until(SimTime::from_secs(120));
    let w = s.world();
    for i in 0..2 {
        assert!(
            w.recorder.node(i).latest_calibrated_hz().is_some(),
            "node {i} must calibrate through 25% loss"
        );
    }
    // The run sends ~44 messages, so the lost count is Binomial(44, 0.25):
    // mean 11, σ≈2.9. Assert a 2σ floor — loss was genuinely exercised —
    // rather than a knife-edge at the mean.
    assert!(w.net.total_stats().lost > 5);
}

/// Stale peer responses (arriving after their round timed out) are
/// ignored rather than corrupting a later round — exercised by an extreme
/// peer timeout shorter than the network round-trip.
#[test]
fn stale_peer_responses_are_ignored() {
    let cfg = TriadConfig {
        // Timeout far below the ~60 µs round-trip forces every peer round
        // to expire before responses arrive.
        peer_timeout: SimDuration::from_micros(10),
        ..Default::default()
    };
    let mut s = ScenarioSpec::new(3).config(cfg).all_nodes_aex(AexSpec::TriadLike).build(56);
    s.run_until(SimTime::from_secs(60));
    let w = s.world();
    for i in 0..3 {
        let trace = w.recorder.node(i);
        // All taints resolve through the TA (peer rounds always time out),
        // and late responses never break the state machine.
        assert_eq!(trace.peer_adoptions.count(), 0, "node {i} adopted a stale response");
        assert!(trace.ta_references.count() > 5, "node {i} fell back to the TA");
        assert_eq!(
            trace.states.state_at(SimTime::from_secs(59)),
            Some(trace::NodeStateTag::Ok),
            "node {i} ends the run serving"
        );
    }
}

/// Two differently-built simulations with manual wiring (not the harness)
/// interoperate — guards the public API surface used by downstream code.
#[test]
fn manual_wiring_without_the_harness_works() {
    let net = Network::new(DelayModel::lan_default(), 0.0);
    let mut world = World::new(net, vec![Host::paper_default(), Host::paper_default()]);
    world.provision_all_keys(57);
    let mut s = Simulation::new(world, 57);
    let ta = s.add_actor(Box::new(MachineActor::new(TimeAuthority::new())));
    let n1 = s.add_actor(Box::new(MachineActor::new(TriadNode::new(
        Addr(1),
        vec![Addr(2)],
        TriadConfig::default(),
    ))));
    let n2 = s.add_actor(Box::new(MachineActor::new(TriadNode::new(
        Addr(2),
        vec![Addr(1)],
        TriadConfig::default(),
    ))));
    s.add_actor(Box::new(EnvDriver::new(
        vec![n1, n2],
        vec![AexSpec::TriadLike, AexSpec::TriadLike],
        AexSpec::None,
    )));
    s.add_actor(Box::new(Sampler { interval: SimDuration::from_secs(1) }));
    s.world_mut().register_actor(TA_ADDR, ta);
    s.world_mut().register_actor(Addr(1), n1);
    s.world_mut().register_actor(Addr(2), n2);
    s.run_until(SimTime::from_secs(30));
    assert!(s.world().recorder.node(0).latest_calibrated_hz().is_some());
    assert!(s.world().recorder.node(1).peer_untaints.count() > 0);
}
