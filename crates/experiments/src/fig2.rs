//! E3/E4/E7 — Figure 2: long-term fault-free behaviour under the
//! Triad-like AEX distribution.
//!
//! 30 minutes, three nodes, Triad-like per-core AEXs plus machine-wide
//! correlated interrupts (~5.4 min apart, as on the paper's testbed where
//! residual OS interrupts hit all cores). Expected shape: (a) sawtooth
//! drift, ~100–200 ppm slopes, resets to ≈0 whenever (b) the TA-reference
//! count increments; availability above 98% including initial calibration.

use scenario::{AexSpec, ScenarioSpec};
use sim::{SimDuration, SimTime};

use crate::common::{drift_chart, mhz, write_counter_csv, write_drift_csv};
use crate::output::{Comparison, RunOpts};

/// Per-node summary of the Figure 2 run.
#[derive(Debug, Clone)]
pub struct Fig2Node {
    /// Calibrated frequency `F_i^calib` (Hz).
    pub f_calib_hz: f64,
    /// Availability over the whole run (incl. initial calibration).
    pub availability: f64,
    /// TA time references received.
    pub ta_references: u64,
    /// Largest |drift| seen (ms).
    pub max_abs_drift_ms: f64,
    /// Median drift slope between TA resets (ms/s), signed.
    pub typical_slope_ms_per_s: f64,
}

/// Results of the Figure 2 reproduction.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// One summary per node.
    pub nodes: Vec<Fig2Node>,
    /// Run horizon in seconds.
    pub horizon_s: f64,
}

/// Runs the scenario and writes drift + TA-reference CSVs.
pub fn run(opts: &RunOpts) -> Fig2Result {
    let horizon = if opts.quick { SimTime::from_secs(300) } else { SimTime::from_secs(30 * 60) };
    // Machine-wide residual interrupts: the isolated-core process hits
    // every core at once (§IV-A.2's correlated simultaneous AEXs).
    let world = ScenarioSpec::new(3)
        .horizon(horizon)
        .all_nodes_aex(AexSpec::TriadLike)
        .machine_aex(AexSpec::IsolatedCore)
        .sample_interval(SimDuration::from_millis(250))
        .run(opts.seed ^ 0xF162);

    let dir = opts.dir_for("fig2");
    write_drift_csv(&dir, "fig2a_drift.csv", &world);
    write_counter_csv(&dir, "fig2b_ta_references.csv", &world, |i| {
        &world.recorder.node(i).ta_references
    });
    trace::write_text(&dir, "fig2a_drift.txt", &drift_chart(&world, 100, 24)).expect("write chart");

    let nodes = (0..3)
        .map(|i| {
            let t = world.recorder.node(i);
            let (lo, hi) = t.drift_ms.value_range().unwrap_or((0.0, 0.0));
            // Slope measured between the first two TA references after the
            // initial calibration, i.e. one sawtooth tooth.
            let refs = t.ta_references.events();
            let slope = match refs.len() {
                0 | 1 => t.drift_ms.slope_per_sec().unwrap_or(0.0),
                _ => t
                    .drift_ms
                    .slope_per_sec_in(refs[0] + SimDuration::from_secs(2), refs[1])
                    .unwrap_or(0.0),
            };
            Fig2Node {
                f_calib_hz: t.latest_calibrated_hz().unwrap_or(f64::NAN),
                availability: t.states.availability(SimTime::ZERO, horizon),
                ta_references: t.ta_references.count(),
                max_abs_drift_ms: lo.abs().max(hi.abs()),
                typical_slope_ms_per_s: slope,
            }
        })
        .collect();

    Fig2Result { nodes, horizon_s: horizon.as_secs_f64() }
}

impl Fig2Result {
    /// Paper-vs-measured rows.
    pub fn comparisons(&self) -> Vec<Comparison> {
        // Quick mode shortens the horizon below the paper's 30 minutes;
        // the initial calibration then weighs more and the ~5.4-minute
        // machine-wide AEXs fire fewer times, so the absolute thresholds
        // relax accordingly.
        let full_horizon = self.horizon_s >= 1_700.0;
        let (avail_floor, refs_floor) = if full_horizon { (0.98, 2) } else { (0.90, 1) };
        let worst_avail = self.nodes.iter().map(|n| n.availability).fold(f64::INFINITY, f64::min);
        let worst_ppm = self
            .nodes
            .iter()
            .map(|n| stats::freq_error_ppm(n.f_calib_hz, tsc::PAPER_TSC_HZ).abs())
            .fold(0.0f64, f64::max);
        let max_drift = self.nodes.iter().map(|n| n.max_abs_drift_ms).fold(0.0f64, f64::max);
        let min_refs = self.nodes.iter().map(|n| n.ta_references).min().unwrap_or(0);
        vec![
            Comparison::new(
                "fig2",
                "availability (worst node)",
                ">= 98%",
                format!("{:.2}%", worst_avail * 100.0),
                worst_avail >= avail_floor,
            ),
            Comparison::new(
                "fig2",
                "calibration error (worst node)",
                "~110 ppm effective drift (>> NTP's 15 ppm)",
                format!("{worst_ppm:.0} ppm"),
                worst_ppm > 15.0 && worst_ppm < 1_000.0,
            ),
            Comparison::new(
                "fig2",
                "drift bounded by TA resets (sawtooth)",
                "drift resets to ~0 at each TA reference",
                format!("max |drift| {max_drift:.1} ms, {min_refs}+ TA refs/node"),
                max_drift < 200.0 && min_refs >= refs_floor,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!("Figure 2 — fault-free, Triad-like AEXs, {:.0} s\n", self.horizon_s);
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "Node {}: F_calib = {}, availability = {:.3}%, TA refs = {}, \
                 max |drift| = {:.1} ms, tooth slope = {:+.3} ms/s\n",
                i + 1,
                mhz(n.f_calib_hz),
                n.availability * 100.0,
                n.ta_references,
                n.max_abs_drift_ms,
                n.typical_slope_ms_per_s,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_quick_reproduces_shape() {
        let opts = RunOpts::quick(std::env::temp_dir().join("triad_fig2_test"));
        let r = run(&opts);
        // In quick mode (300 s) the availability and reset criteria are
        // slightly relaxed: assert the essentials directly.
        assert_eq!(r.nodes.len(), 3);
        for (i, n) in r.nodes.iter().enumerate() {
            assert!(n.availability > 0.9, "node {i} availability {}", n.availability);
            assert!(n.f_calib_hz.is_finite());
            assert!(n.max_abs_drift_ms < 200.0, "node {i} drift {}", n.max_abs_drift_ms);
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
