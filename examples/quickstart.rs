//! Quickstart: run a fault-free three-node Triad cluster for five minutes
//! and print what the paper's §IV-A measures — calibrated frequencies,
//! drift, availability, and how taints were resolved.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use triad_tt::scenario::{AexSpec, ScenarioSpec};
use triad_tt::sim::{SimDuration, SimTime};
use triad_tt::stats;

fn main() {
    let horizon = SimTime::from_secs(300);
    println!("Three Triad nodes + Time Authority, Triad-like AEXs, {horizon} horizon\n");

    let world = ScenarioSpec::new(3)
        .horizon(horizon)
        .all_nodes_aex(AexSpec::TriadLike)
        // Machine-wide correlated interrupts every ~5.4 minutes, as on the
        // paper's testbed.
        .machine_aex(AexSpec::IsolatedCore)
        .sample_interval(SimDuration::from_millis(250))
        .run(2025);

    for i in 0..3 {
        let trace = world.recorder.node(i);
        let f = trace.latest_calibrated_hz().expect("calibration completed");
        let err_ppm = stats::freq_error_ppm(f, triad_tt::tsc::PAPER_TSC_HZ);
        let availability = trace.states.availability(SimTime::ZERO, horizon);
        let (lo, hi) = trace.drift_ms.value_range().unwrap_or((0.0, 0.0));
        println!("Node {}:", i + 1);
        println!("  F_calib       = {:.3} MHz ({err_ppm:+.0} ppm)", f / 1e6);
        println!("  availability  = {:.2}%", availability * 100.0);
        println!("  drift range   = [{lo:.2}, {hi:.2}] ms");
        println!(
            "  AEXs          = {} (peer untaints {}, TA references {})",
            trace.aex_events.count(),
            trace.peer_untaints.count(),
            trace.ta_references.count(),
        );
    }

    println!("\nDrift vs reference time:");
    let labels: Vec<String> = (0..3).map(|i| world.recorder.node(i).label.clone()).collect();
    let series: Vec<(&str, &triad_tt::trace::TimeSeries)> =
        (0..3).map(|i| (labels[i].as_str(), &world.recorder.node(i).drift_ms)).collect();
    print!("{}", triad_tt::trace::ascii_chart(&series, 90, 18));
}
