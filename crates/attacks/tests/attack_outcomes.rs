//! End-to-end attack reproductions: the headline numbers of §IV-B.

use attacks::DelayAttackMode;
use faults::{FaultAction, FaultPlan};
use netsim::Addr;
use runtime::TA_ADDR;
use scenario::{AexSpec, AttackSpec, FaultSpec, ScenarioSpec};
use sim::{SimDuration, SimTime};
use tsc::{TscManipulation, PAPER_TSC_HZ};

const NODE3: Addr = Addr(3);

/// The hypervisor changes node 3's TSC at t = 60 s.
fn tsc_at_60s(manipulation: TscManipulation) -> FaultSpec {
    FaultSpec::Fixed(
        FaultPlan::new()
            .at(SimTime::from_secs(60), FaultAction::ManipulateTsc { node: 2, manipulation }),
    )
}

/// §IV-B.1 / Fig. 4: F+ with the victim on an isolated core. The paper
/// reports `F_3^calib ≈ 3191 MHz` (≈ 1.1 × F^TSC) and a drift of
/// −91 ms/s.
#[test]
fn f_plus_slows_victim_clock_by_91ms_per_s() {
    let mut s = ScenarioSpec::new(3)
        .node_aex(0, AexSpec::TriadLike)
        .node_aex(1, AexSpec::TriadLike)
        // Node 3's attacker additionally isolates its core (low AEX).
        .attack(AttackSpec::calibration_delay_paper(NODE3, DelayAttackMode::FPlus))
        .build(101);
    s.run_until(SimTime::from_secs(180));
    let w = s.world();

    let f3 = w.recorder.node(2).latest_calibrated_hz().unwrap();
    let ratio = f3 / PAPER_TSC_HZ;
    assert!((ratio - 1.1).abs() < 0.002, "F3_calib/F_TSC = {ratio} (expect ≈1.1)");

    // Drift rate measured over a window after calibration has settled.
    let slope = w
        .recorder
        .node(2)
        .drift_ms
        .slope_per_sec_in(SimTime::from_secs(60), SimTime::from_secs(180))
        .unwrap();
    assert!((slope + 91.0).abs() < 2.0, "victim drift {slope} ms/s (expect ≈ −91)");

    // Honest nodes keep their ordinary sub-ms/s drift.
    for i in [0usize, 1] {
        let f = w.recorder.node(i).latest_calibrated_hz().unwrap();
        assert!(
            stats::freq_error_ppm(f, PAPER_TSC_HZ).abs() < 500.0,
            "honest node {i} calibration"
        );
    }
}

/// §IV-B.2 / Fig. 6 setup: F– gives `F_3^calib ≈ 2610 MHz`
/// (≈ 0.9 × F^TSC) and +113 ms/s of positive drift.
#[test]
fn f_minus_speeds_victim_clock_by_111ms_per_s() {
    let mut s = ScenarioSpec::new(3)
        .attack(AttackSpec::calibration_delay_paper(NODE3, DelayAttackMode::FMinus))
        .build(102);
    s.run_until(SimTime::from_secs(120));
    let w = s.world();

    let f3 = w.recorder.node(2).latest_calibrated_hz().unwrap();
    let ratio = f3 / PAPER_TSC_HZ;
    assert!((ratio - 0.9).abs() < 0.002, "F3_calib/F_TSC = {ratio} (expect ≈0.9)");

    let slope = w
        .recorder
        .node(2)
        .drift_ms
        .slope_per_sec_in(SimTime::from_secs(40), SimTime::from_secs(120))
        .unwrap();
    assert!((slope - 111.0).abs() < 3.0, "victim drift {slope} ms/s (expect ≈ +111)");
}

/// §IV-B.2 / Fig. 6: the F– attack *propagates*. Honest nodes on quiet
/// cores track the reference fine — until they start experiencing AEXs
/// (t ≥ 104 s), talk to the compromised fast node, and jump forward.
#[test]
fn f_minus_propagates_forward_time_jumps_to_honest_nodes() {
    let switch = SimTime::from_secs(104);
    let honest_env = AexSpec::SwitchAt {
        at: switch,
        before: Box::new(AexSpec::IsolatedCore),
        after: Box::new(AexSpec::TriadLike),
    };
    let mut s = ScenarioSpec::new(3)
        .node_aex(0, honest_env.clone())
        .node_aex(1, honest_env)
        .node_aex(2, AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(NODE3, DelayAttackMode::FMinus))
        .build(103);
    s.run_until(SimTime::from_secs(420));
    let w = s.world();

    for i in [0usize, 1] {
        let trace = w.recorder.node(i);
        // Before the switch: drift stays small (honest calibration error
        // over <100 s is well under 100 ms).
        let before = trace
            .drift_ms
            .window(SimTime::from_secs(40), SimTime::from_secs(100))
            .iter()
            .map(|&(_, d)| d.abs())
            .fold(0.0f64, f64::max);
        assert!(before < 100.0, "node {i} pre-switch drift {before} ms");

        // After the switch: adopted timestamps from the fast node ratchet
        // the clock far into the future.
        let (_, final_drift) = trace.drift_ms.last().unwrap();
        assert!(
            final_drift > 1_000.0,
            "node {i} final drift {final_drift} ms — the infection must show seconds of skip"
        );

        // The jumps came from peer adoptions, which only start post-switch.
        let adoptions_before = trace.peer_adoptions.count_at(switch);
        let adoptions_after = trace.peer_adoptions.count() - adoptions_before;
        assert!(adoptions_after > 10, "node {i} post-switch adoptions {adoptions_after}");

        // And the AEX counter shows the regime change (Fig. 6b).
        let aex_before = trace.aex_events.count_at(switch);
        let aex_after = trace.aex_events.count() - aex_before;
        assert!(aex_before <= 2, "node {i} pre-switch AEXs {aex_before}");
        assert!(aex_after > 100, "node {i} post-switch AEXs {aex_after}");
    }

    // The infection cascades: honest nodes' drift keeps growing at roughly
    // the attacker's rate after the switch.
    let late_slope = w
        .recorder
        .node(0)
        .drift_ms
        .slope_per_sec_in(SimTime::from_secs(150), SimTime::from_secs(420))
        .unwrap();
    assert!(
        late_slope > 50.0,
        "honest cluster should follow the fast clock, got {late_slope} ms/s"
    );
}

/// F+ with the victim's core isolated (the paper notes *removing*
/// interrupts strengthens the attack): no AEXs at the victim means no peer
/// corrections at all, so the −91 ms/s drift runs unbounded.
#[test]
fn aex_suppression_lets_f_plus_drift_unbounded() {
    let mut s = ScenarioSpec::new(3)
        .node_aex(0, AexSpec::TriadLike)
        .node_aex(1, AexSpec::TriadLike)
        // Node 3: no AEX model at all — perfectly isolated core.
        .attack(AttackSpec::calibration_delay_paper(NODE3, DelayAttackMode::FPlus))
        .build(104);
    s.run_until(SimTime::from_secs(300));
    let w = s.world();
    let trace = w.recorder.node(2);
    // No AEX → no taint → no peer correction, ever.
    assert_eq!(trace.aex_events.count(), 0);
    assert_eq!(trace.peer_untaints.count(), 0);
    let (_, final_drift) = trace.drift_ms.last().unwrap();
    // ~270 s of free-running at −91 ms/s ≈ −25 s.
    assert!(final_drift < -20_000.0, "unbounded negative drift, got {final_drift} ms");
    // Availability is *perfect* for the victim (§IV-B: "these attacks do
    // not negatively affect availability").
    let avail = trace.states.availability(SimTime::from_secs(60), SimTime::from_secs(300));
    assert!(avail > 0.9999, "victim availability {avail}");
}

/// With Triad-like AEXs at the victim (Fig. 5), peer untainting bounds the
/// F+ drift: the victim oscillates between its peers' drift and its own
/// slow clock's accumulation over one inter-AEX gap (paper: down to
/// −150 ms before the next AEX).
#[test]
fn f_plus_with_aex_oscillates_between_peer_resets_and_slow_clock() {
    let mut s = ScenarioSpec::new(3)
        .all_nodes_aex(AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(NODE3, DelayAttackMode::FPlus))
        .build(105);
    s.run_until(SimTime::from_secs(240));
    let w = s.world();
    let trace = w.recorder.node(2);

    // The victim adopts peer timestamps regularly (its slow clock is
    // always behind its peers after an interrupt).
    assert!(trace.peer_adoptions.count() > 50, "adoptions {}", trace.peer_adoptions.count());

    // Post-calibration drift stays within the oscillation band: bounded
    // below by ≈ −(longest AEX gap × 91 ms/s) ≈ −150 ms, and never far
    // above the honest nodes' drift.
    let band = trace.drift_ms.window(SimTime::from_secs(60), SimTime::from_secs(240));
    let min = band.iter().map(|&(_, d)| d).fold(f64::INFINITY, f64::min);
    let max = band.iter().map(|&(_, d)| d).fold(f64::NEG_INFINITY, f64::max);
    assert!(min > -400.0, "oscillation floor {min} ms (expect ≳ −150 ms minus peer drift)");
    assert!(min < -80.0, "victim must visibly lag between AEXs, floor {min} ms");
    assert!(max < 50.0, "victim never runs far ahead, ceiling {max} ms");
}

/// E13: the INC monitor catches hypervisor TSC manipulation and triggers
/// a full recalibration (RQ A.1's detection claim).
#[test]
fn inc_monitor_detects_tsc_rate_manipulation() {
    let mut s = ScenarioSpec::new(3)
        .faults(tsc_at_60s(TscManipulation::ScaleRate(1.001))) // +1000 ppm
        .build(106);
    s.run_until(SimTime::from_secs(150));
    let w = s.world();
    let trace = w.recorder.node(2);

    // The node recalibrated after the manipulation.
    assert!(
        trace.calibrations_hz.len() >= 2,
        "expected recalibration, got {:?}",
        trace.calibrations_hz
    );
    let (when, f_new) = *trace.calibrations_hz.last().unwrap();
    assert!(when > SimTime::from_secs(60), "recalibration after the manipulation");
    // The new fit tracks the *new* effective rate, restoring correctness.
    let expected = PAPER_TSC_HZ * 1.001;
    assert!(
        stats::freq_error_ppm(f_new, expected).abs() < 500.0,
        "recalibrated to {f_new}, expected ≈ {expected}"
    );
    // Honest nodes did not recalibrate.
    assert_eq!(w.recorder.node(0).calibrations_hz.len(), 1);

    // End-state drift is back under control (< 50 ms).
    let (_, final_drift) = trace.drift_ms.last().unwrap();
    assert!(final_drift.abs() < 50.0, "post-recovery drift {final_drift} ms");
}

/// E13 variant: a forward offset jump is likewise detected.
#[test]
fn inc_monitor_detects_tsc_offset_jump() {
    let jump_ticks = 29_000_000; // ≈ 10 ms of TSC progress injected at once
    let mut s =
        ScenarioSpec::new(3).faults(tsc_at_60s(TscManipulation::OffsetJump(jump_ticks))).build(107);
    s.run_until(SimTime::from_secs(150));
    let w = s.world();
    let trace = w.recorder.node(2);
    assert!(
        trace.calibrations_hz.len() >= 2,
        "offset jump must trigger recalibration, got {:?}",
        trace.calibrations_hz
    );
}

/// The adaptive attacker: learns the 0 s/1 s calibration schedule from
/// timing alone during the initial calibration, then uses a TSC nudge to
/// force a recalibration — which it poisons without ever knowing the
/// protocol's parameters.
#[test]
fn adaptive_attacker_learns_schedule_and_poisons_recalibration() {
    use attacks::AdaptiveDelayAttack;
    let mut s = ScenarioSpec::new(3)
        // Nudge the victim's TSC just enough to trip the INC monitor and
        // force a full recalibration at t = 60 s.
        .faults(tsc_at_60s(TscManipulation::ScaleRate(1.0005)))
        .build(108);
    s.world_mut().net.add_interceptor(Box::new(AdaptiveDelayAttack::new(
        NODE3,
        TA_ADDR,
        DelayAttackMode::FMinus,
        SimDuration::from_millis(100),
        6,
    )));
    s.run_until(SimTime::from_secs(200));
    let w = s.world();
    let trace = w.recorder.node(2);

    // The initial calibration happened before the attacker learned the
    // schedule, so the first fit is honest…
    let (_, f_first) = trace.calibrations_hz[0];
    assert!(
        stats::freq_error_ppm(f_first, PAPER_TSC_HZ).abs() < 1_000.0,
        "first calibration is clean: {f_first}"
    );
    // …but the forced recalibration is poisoned toward 0.9 × the (nudged)
    // rate.
    assert!(trace.calibrations_hz.len() >= 2, "recalibration must happen");
    let (_, f_second) = *trace.calibrations_hz.last().unwrap();
    let ratio = f_second / (PAPER_TSC_HZ * 1.0005);
    assert!((ratio - 0.9).abs() < 0.01, "recalibration poisoned to {ratio} x effective rate");
    // And the clock now runs fast.
    let slope =
        trace.drift_ms.slope_per_sec_in(SimTime::from_secs(80), SimTime::from_secs(200)).unwrap();
    assert!(slope > 80.0, "post-recalibration drift {slope} ms/s");
}

/// Dropping a victim's peer traffic removes peer untainting entirely:
/// every taint costs a TA round-trip (§III-A's drop capability).
#[test]
fn peer_isolation_forces_ta_dependence() {
    use attacks::{IsolationAttack, IsolationScope};
    let mut s = ScenarioSpec::new(3).all_nodes_aex(AexSpec::TriadLike).build(109);
    s.world_mut().net.add_interceptor(Box::new(IsolationAttack::new(
        NODE3,
        TA_ADDR,
        IsolationScope::PeersOnly,
    )));
    s.run_until(SimTime::from_secs(120));
    let w = s.world();
    let victim = w.recorder.node(2);
    assert_eq!(victim.peer_untaints.count(), 0, "no peer ever reaches the victim");
    // Every taint fell back to the TA: references scale with AEXs.
    assert!(
        victim.ta_references.count() > victim.aex_events.count() / 2,
        "TA references {} vs AEXs {}",
        victim.ta_references.count(),
        victim.aex_events.count()
    );
    // Honest nodes keep untainting each other.
    assert!(w.recorder.node(0).peer_untaints.count() > 50);
    // The victim stays correct (the TA is honest) — isolation alone is not
    // a clock attack, it is groundwork for delay attacks and a DoS lever.
    let (lo, hi) = victim.drift_ms.value_range().unwrap();
    assert!(lo > -100.0 && hi < 100.0, "victim drift [{lo}, {hi}] ms");
}

/// Dropping *all* of the victim's traffic after calibration is a full
/// denial of service: the first AEX taints it forever.
#[test]
fn full_isolation_is_a_permanent_denial_of_service() {
    use attacks::{IsolationAttack, IsolationScope};
    use trace::NodeStateTag;
    // Let the cluster calibrate cleanly first, then cut node 3 off by
    // installing the interceptor from t=0 but giving node 3 no AEXs until
    // its environment starts at 30 s.
    let mut s = ScenarioSpec::new(3)
        .node_aex(0, AexSpec::TriadLike)
        .node_aex(1, AexSpec::TriadLike)
        .node_aex(
            2,
            AexSpec::SwitchAt {
                at: SimTime::from_secs(30),
                before: Box::new(AexSpec::Periodic { period: SimDuration::from_secs(3600) }),
                after: Box::new(AexSpec::TriadLike),
            },
        )
        .build(110);
    s.world_mut().net.add_interceptor(Box::new(IsolationAttack::new(
        NODE3,
        TA_ADDR,
        IsolationScope::Everything,
    )));
    s.run_until(SimTime::from_secs(120));
    let w = s.world();
    let victim = w.recorder.node(2);
    // The victim never calibrated (its TA traffic was dropped from t=0)…
    assert!(victim.latest_calibrated_hz().is_none(), "victim cannot even calibrate");
    // …and is permanently unavailable.
    let avail = victim.states.availability(SimTime::ZERO, SimTime::from_secs(120));
    assert_eq!(avail, 0.0, "victim availability {avail}");
    assert_ne!(victim.states.state_at(SimTime::from_secs(119)), Some(NodeStateTag::Ok));
    // Honest nodes are untouched.
    for i in [0usize, 1] {
        let t = w.recorder.node(i);
        assert!(t.states.availability(SimTime::from_secs(60), SimTime::from_secs(120)) > 0.95);
    }
}

/// Replayed datagrams are authentic (they decrypt and verify — they are
/// genuine messages), so the *protocol* must reject them: calibration
/// responses by nonce, peer timestamps by round bookkeeping, client
/// monotonicity by the serving contract. A cluster under heavy replay
/// must behave exactly like an unattacked one.
#[test]
fn replay_attack_changes_nothing_observable() {
    use attacks::{ReplayAttack, ReplayTarget};
    let run = |replay: bool, seed: u64| {
        let mut s = ScenarioSpec::new(3).all_nodes_aex(AexSpec::TriadLike).build(seed);
        if replay {
            let net = &mut s.world_mut().net;
            net.add_interceptor(Box::new(ReplayAttack::new(
                NODE3,
                ReplayTarget::TowardVictim,
                SimDuration::from_secs(2),
            )));
            net.add_interceptor(Box::new(ReplayAttack::new(
                NODE3,
                ReplayTarget::FromVictim,
                SimDuration::from_millis(500),
            )));
        }
        s.run_until(SimTime::from_secs(120));
        let w = s.world();
        (
            w.recorder.node(2).latest_calibrated_hz(),
            w.recorder.node(2).drift_ms.value_range(),
            w.recorder.node(2).states.availability(SimTime::from_secs(30), SimTime::from_secs(120)),
        )
    };
    let (f_attacked, drift_attacked, avail_attacked) = run(true, 111);
    // Calibration lands in the honest band.
    let f = f_attacked.unwrap();
    assert!(
        stats::freq_error_ppm(f, PAPER_TSC_HZ).abs() < 500.0,
        "replay must not skew calibration: {f}"
    );
    // Drift stays in the fault-free band.
    let (lo, hi) = drift_attacked.unwrap();
    assert!(lo > -100.0 && hi < 100.0, "drift [{lo}, {hi}] ms under replay");
    assert!(avail_attacked > 0.95, "availability {avail_attacked} under replay");
}
