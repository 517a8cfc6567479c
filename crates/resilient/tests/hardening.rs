//! E12: the hardened protocol under the paper's attacks, with ablations.

use attacks::DelayAttackMode;
use netsim::Addr;
use resilient::ResilientConfig;
use scenario::{AexSpec, AttackSpec, NodeImplSpec, ScenarioSpec};
use sim::SimTime;
use tsc::PAPER_TSC_HZ;

const NODE3: Addr = Addr(3);

fn resilient_cluster(cfg: ResilientConfig) -> ScenarioSpec {
    ScenarioSpec::new(3).node_impl(NodeImplSpec::Resilient(Box::new(cfg)))
}

/// Honest nodes on quiet cores until `switch`, then Triad-like AEXs.
fn honest_env(switch: SimTime) -> AexSpec {
    AexSpec::SwitchAt {
        at: switch,
        before: Box::new(AexSpec::IsolatedCore),
        after: Box::new(AexSpec::TriadLike),
    }
}

#[test]
fn fault_free_hardened_cluster_beats_base_precision() {
    // The long-window refinement should pull calibration error well below
    // the base protocol's ~100 ppm band (§V: honest nodes "will be able to
    // calibrate high-quality clocks over time").
    let mut s = resilient_cluster(ResilientConfig::default()).build(201);
    s.run_until(SimTime::from_secs(600));
    let w = s.world();
    for i in 0..3 {
        let trace = w.recorder.node(i);
        assert!(
            trace.calibrations_hz.len() >= 2,
            "node {i} refined at least once: {:?}",
            trace.calibrations_hz
        );
        let f = trace.latest_calibrated_hz().unwrap();
        let ppm = stats::freq_error_ppm(f, PAPER_TSC_HZ).abs();
        assert!(ppm < 20.0, "node {i} refined error {ppm} ppm");
        // Drift at the end of 10 minutes stays tight.
        let (_, drift) = trace.drift_ms.last().unwrap();
        assert!(drift.abs() < 10.0, "node {i} final drift {drift} ms");
    }
}

#[test]
fn f_minus_no_longer_propagates_to_honest_nodes() {
    // Same scenario as the base-protocol propagation test: F– on node 3,
    // honest nodes switching from quiet cores to Triad-like AEXs at 104 s.
    // With chimer filtering the honest nodes must stay near the reference.
    let switch = SimTime::from_secs(104);
    let mut s = resilient_cluster(ResilientConfig::default())
        .node_aex(0, honest_env(switch))
        .node_aex(1, honest_env(switch))
        .node_aex(2, AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(NODE3, DelayAttackMode::FMinus))
        .build(202);
    s.run_until(SimTime::from_secs(420));
    let w = s.world();

    for i in [0usize, 1] {
        let trace = w.recorder.node(i);
        let (lo, hi) = trace.drift_ms.value_range().unwrap();
        assert!(
            lo > -200.0 && hi < 200.0,
            "honest node {i} must stay bounded, got [{lo}, {hi}] ms"
        );
        // Honest nodes outvoted the attacker's clock at least once.
        assert!(trace.chimer_rejections.count() > 0, "node {i} never flagged a false-chimer");
    }

    // The compromised node itself gets dragged back by majority agreement
    // and TA cross-checks instead of running 113 ms/s forever.
    let (lo3, hi3) = w.recorder.node(2).drift_ms.value_range().unwrap();
    assert!(
        hi3 < 2_000.0,
        "attacked node bounded by deadline + cross-check, got [{lo3}, {hi3}] ms"
    );
}

#[test]
fn ablation_without_chimer_filter_gets_infected_again() {
    // Disable only the majority filter: the cluster follows the fast clock
    // like base Triad, demonstrating which countermeasure does the work.
    let cfg = ResilientConfig {
        enable_chimer_filter: false,
        // Also disable the features that would heal/bound the attacker
        // itself, isolating the propagation mechanism.
        enable_long_window: false,
        enable_deadline: false,
        enable_rtt_filter: false,
        ..Default::default()
    };
    let switch = SimTime::from_secs(104);
    let mut s = resilient_cluster(cfg)
        .node_aex(0, honest_env(switch))
        .node_aex(1, honest_env(switch))
        .node_aex(2, AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(NODE3, DelayAttackMode::FMinus))
        .build(203);
    s.run_until(SimTime::from_secs(420));
    let w = s.world();
    let (_, final_drift) = w.recorder.node(0).drift_ms.last().unwrap();
    assert!(
        final_drift > 1_000.0,
        "without the filter honest drift explodes again, got {final_drift} ms"
    );
}

#[test]
fn f_plus_victim_heals_itself_through_long_window_refit() {
    // F+ poisons the bootstrap fit to 1.1×; the added 100 ms only hits
    // 1 s-sleep probes, while cross-check samples (0 s) pass untouched, so
    // the long-window fit converges to the true frequency.
    let mut s = resilient_cluster(ResilientConfig::default())
        .attack(AttackSpec::calibration_delay_paper(NODE3, DelayAttackMode::FPlus))
        .build(204);
    s.run_until(SimTime::from_secs(600));
    let w = s.world();
    let trace = w.recorder.node(2);
    // Bootstrap was poisoned…
    let (_, f_boot) = trace.calibrations_hz[0];
    assert!((f_boot / PAPER_TSC_HZ - 1.1).abs() < 0.01, "bootstrap {f_boot}");
    // …but the final estimate converged back.
    let f_final = trace.latest_calibrated_hz().unwrap();
    let ppm = stats::freq_error_ppm(f_final, PAPER_TSC_HZ).abs();
    assert!(ppm < 100.0, "healed frequency error {ppm} ppm (f = {f_final})");
    // And the drift stopped growing at −91 ms/s.
    let late_slope =
        trace.drift_ms.slope_per_sec_in(SimTime::from_secs(300), SimTime::from_secs(600)).unwrap();
    assert!(late_slope.abs() < 5.0, "late drift rate {late_slope} ms/s");
}

#[test]
fn deadline_bounds_drift_even_without_any_aex() {
    // The base protocol's F+ victim on an isolated core drifts unbounded
    // (−91 ms/s forever). The hardened node's in-TCB deadline plus TA
    // cross-checks bound it even with zero AEXs — and the long-window
    // refit eventually heals the rate itself.
    let cfg = ResilientConfig {
        enable_chimer_filter: false, // isolate deadline + cross-check
        ..Default::default()
    };
    let mut s = resilient_cluster(cfg)
        .attack(AttackSpec::calibration_delay_paper(NODE3, DelayAttackMode::FPlus))
        .build(205);
    s.run_until(SimTime::from_secs(300));
    let w = s.world();
    let trace = w.recorder.node(2);
    assert_eq!(trace.aex_events.count(), 0, "no AEXs in this scenario");
    let (lo, _hi) = trace.drift_ms.value_range().unwrap();
    // Base Triad reached −25 000 ms here; the hardened node stays within
    // ~cross-check-interval × 91 ms/s plus correction slack.
    assert!(lo > -4_000.0, "drift floor {lo} ms");
    assert!(trace.corrections.count() > 0, "cross-checks must have corrected the clock");
    let (_, final_drift) = trace.drift_ms.last().unwrap();
    assert!(final_drift.abs() < 1_000.0, "final drift {final_drift} ms");
}

#[test]
fn gossip_flags_the_attacked_clock_and_triggers_self_checks() {
    // F– on node 3 with everyone running the hardened protocol: honest
    // nodes' consistency rounds exclude node 3 from their true-chimer
    // announcements; node 3 accumulates gossip alerts and self-checks
    // against the TA.
    let mut s = resilient_cluster(ResilientConfig::default())
        .all_nodes_aex(AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(NODE3, DelayAttackMode::FMinus))
        .build(206);
    s.run_until(SimTime::from_secs(120));
    let w = s.world();
    let victim_alerts = w.recorder.node(2).gossip_alerts.count();
    let honest_alerts =
        w.recorder.node(0).gossip_alerts.count() + w.recorder.node(1).gossip_alerts.count();
    assert!(victim_alerts > 5, "victim must be flagged, got {victim_alerts}");
    assert!(
        honest_alerts < victim_alerts / 2,
        "honest nodes rarely flagged: {honest_alerts} vs victim {victim_alerts}"
    );
}

#[test]
fn gossip_is_quiet_in_a_fault_free_cluster() {
    let mut s =
        resilient_cluster(ResilientConfig::default()).all_nodes_aex(AexSpec::TriadLike).build(207);
    s.run_until(SimTime::from_secs(120));
    let w = s.world();
    let total_alerts: u64 = (0..3).map(|i| w.recorder.node(i).gossip_alerts.count()).sum();
    let total_rounds: u64 = (0..3).map(|i| w.recorder.node(i).deadline_checks.count()).sum();
    assert!(total_rounds > 50, "deadline rounds must run: {total_rounds}");
    assert!(
        (total_alerts as f64) < (total_rounds as f64) * 0.2,
        "fault-free gossip stays quiet: {total_alerts} alerts over {total_rounds} rounds"
    );
}
