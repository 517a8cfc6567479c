//! Sim-vs-live parity spot-check: the same `TriadNode` state machine,
//! driven once by the discrete-event simulation and once by the real UDP
//! runtime, must converge to the same protocol outcome — every node
//! completes the full calibration ladder and lands its calibrated
//! frequency near its platform's true TSC rate. Both drivers run every
//! node on the same `runtime::Host`, so both halves judge against one
//! rate.
//!
//! Tolerances are deliberately loose (1% = 10 000 ppm): the live runtime
//! runs on shared-CPU wall clock where scheduler jitter bounds accuracy
//! to hundreds of ppm, and this test must stay green on a loaded 1-core
//! CI box. Tight accuracy claims live in the simulation's own tests;
//! this one checks that the *same machine* behaves the same way through
//! both drivers.

use net::{run_cluster, LiveSpec};
use scenario::ScenarioSpec;
use sim::{SimDuration, SimTime};
use triad_core::TriadConfig;

/// Loose shared band: both runtimes must calibrate within 1%.
const TOL_PPM: f64 = 10_000.0;

/// The calibration ladder both runs share: x-values 0 and 200 ms, three
/// round-trips each, plus one time-reference exchange to anchor the
/// clock.
fn short_ladder() -> TriadConfig {
    TriadConfig {
        calib_sleeps: vec![SimDuration::ZERO, SimDuration::from_millis(200)],
        samples_per_sleep: 3,
        ..TriadConfig::default()
    }
}

const NODES: usize = 3;
const SEED: u64 = 7;

#[test]
fn sim_and_live_runs_of_the_same_machine_agree() {
    // --- Simulated driver ---
    let mut sim_run = ScenarioSpec::new(NODES).config(short_ladder()).build(SEED);
    sim_run.run_until(SimTime::from_secs(10));
    for i in 0..NODES {
        let trace = sim_run.world().recorder.node(i);
        let true_hz = sim_run.world().hosts[i].tsc.nominal_hz();
        let f =
            trace.latest_calibrated_hz().unwrap_or_else(|| panic!("sim node {i} never calibrated"));
        let err_ppm = (f / true_hz - 1.0) * 1e6;
        assert!(
            err_ppm.abs() < TOL_PPM,
            "sim node {i}: {err_ppm:+.1} ppm outside the shared ±{TOL_PPM} ppm band"
        );
        assert!(!trace.calibrations_hz.is_empty(), "sim node {i}: no calibration recorded");
        assert!(
            trace.ta_references.count() >= 1,
            "sim node {i}: clock never anchored to a TA time reference"
        );
    }

    // --- Live UDP driver, same machine type and config ---
    let spec =
        LiveSpec { nodes: NODES, seed: SEED, node_cfg: short_ladder(), ..LiveSpec::default() };
    let (report, ()) = run_cluster(&spec, |_| {
        std::thread::sleep(std::time::Duration::from_millis(2500));
    });
    for i in 0..NODES {
        let trace = report.nodes[i].node(i);
        let true_hz = sim_run.world().hosts[i].tsc.nominal_hz();
        assert_eq!(report.true_hz[i], true_hz, "live node {i} runs another host than the sim");
        let f = trace
            .latest_calibrated_hz()
            .unwrap_or_else(|| panic!("live node {i} never calibrated"));
        let err_ppm = (f / true_hz - 1.0) * 1e6;
        assert!(
            err_ppm.abs() < TOL_PPM,
            "live node {i}: {err_ppm:+.1} ppm outside the shared ±{TOL_PPM} ppm band"
        );
        assert!(!trace.calibrations_hz.is_empty(), "live node {i}: no calibration recorded");
        assert!(
            trace.ta_references.count() >= 1,
            "live node {i}: clock never anchored to a TA time reference"
        );
    }
}
