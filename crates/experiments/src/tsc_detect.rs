//! E13 — extension: INC-monitor detection of hypervisor TSC manipulation.
//!
//! RQ A.1 argues the INC counter can "reliably detect TSC discrepancies,
//! both in speed or time jumps (forward and back in time)". This
//! experiment sweeps manipulation magnitudes and records whether the node
//! detected (recalibrated) and how quickly.

use faults::{FaultAction, FaultPlan};
use scenario::{FaultSpec, RunCell, RunPlan, ScenarioSpec};
use sim::SimTime;
use tsc::TscManipulation;

use crate::output::{Comparison, RunOpts, Table};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct DetectOutcome {
    /// Human-readable manipulation description.
    pub manipulation: String,
    /// Magnitude in ppm (rate) or ticks (offset), for the CSV.
    pub magnitude: f64,
    /// Whether the victim recalibrated after the manipulation.
    pub detected: bool,
    /// Detection latency (s) when detected.
    pub latency_s: Option<f64>,
    /// Victim's |drift| at the end of the run (ms).
    pub final_abs_drift_ms: f64,
}

/// Results of the detection sweep.
#[derive(Debug, Clone)]
pub struct TscDetectResult {
    /// One row per manipulation.
    pub outcomes: Vec<DetectOutcome>,
}

/// One grid point: (stable index for seeding, label, magnitude, manipulation).
type SweepPoint = (u64, String, f64, TscManipulation);

fn run_one(cell: &RunCell<SweepPoint>) -> DetectOutcome {
    let (_, ref label, magnitude, manipulation) = cell.param;
    let inject_at = SimTime::from_secs(60);
    let horizon = SimTime::from_secs(150);
    let world = ScenarioSpec::new(3)
        .horizon(horizon)
        .faults(FaultSpec::Fixed(
            FaultPlan::new().at(inject_at, FaultAction::ManipulateTsc { node: 2, manipulation }),
        ))
        .run(cell.seed);
    let trace = world.recorder.node(2);
    let recalib = trace
        .calibrations_hz
        .iter()
        .find(|&&(t, _)| t > inject_at)
        .map(|&(t, _)| (t - inject_at).as_secs_f64());
    let final_abs_drift_ms = trace.drift_ms.last().map(|(_, d)| d.abs()).unwrap_or(f64::NAN);
    DetectOutcome {
        manipulation: label.clone(),
        magnitude,
        detected: recalib.is_some(),
        latency_s: recalib,
        final_abs_drift_ms,
    }
}

/// `tsc_detection.csv`.
pub(crate) const CSV: Table<DetectOutcome> = Table(&[
    ("manipulation", |o| o.manipulation.clone()),
    ("magnitude", |o| format!("{}", o.magnitude)),
    ("detected", |o| o.detected.to_string()),
    ("latency_s", |o| o.latency_s.map(|l| format!("{l:.2}")).unwrap_or_else(|| "-".into())),
    ("final_abs_drift_ms", |o| format!("{:.2}", o.final_abs_drift_ms)),
]);

const REPORT: Table<DetectOutcome> = Table(&[
    ("manipulation", |o| o.manipulation.clone()),
    ("detected", |o| o.detected.to_string()),
    ("latency", |o| o.latency_s.map(|l| format!("{l:.2} s")).unwrap_or_else(|| "-".into())),
    ("final |drift|", |o| format!("{:.1} ms", o.final_abs_drift_ms)),
]);

/// Runs the sweep and writes its CSV.
pub fn run(opts: &RunOpts) -> TscDetectResult {
    let mut points: Vec<SweepPoint> = Vec::new();
    // Rate manipulations from 10 ppm (below threshold) to 1% (blatant).
    for (i, &ppm) in [10.0, 50.0, 200.0, 1_000.0, 10_000.0].iter().enumerate() {
        let factor = 1.0 + ppm / 1e6;
        points.push((
            i as u64,
            format!("rate x{factor:.5} (+{ppm} ppm)"),
            ppm,
            TscManipulation::ScaleRate(factor),
        ));
    }
    // Offset jumps: forward and backward.
    for (i, &ticks) in [29_000_000i64, -29_000_000, 2_900_000].iter().enumerate() {
        points.push((
            100 + i as u64,
            format!("offset {ticks:+} ticks ({:+.1} ms)", ticks as f64 / 2.9e6),
            ticks as f64,
            TscManipulation::OffsetJump(ticks),
        ));
    }
    let plan = RunPlan::with_seeds(points.into_iter().map(|p| {
        let seed = opts.seed ^ 0xE13 ^ p.0;
        (p, seed)
    }));
    let outcomes: Vec<DetectOutcome> = opts.runner().run(&plan, run_one);

    let dir = opts.dir_for("tsc-detect");
    CSV.write_csv(&dir, "tsc_detection.csv", &outcomes).expect("write detection csv");
    TscDetectResult { outcomes }
}

impl TscDetectResult {
    /// Paper-vs-measured rows.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let above_threshold_detected = self
            .outcomes
            .iter()
            .filter(|o| o.manipulation.starts_with("rate") && o.magnitude > 150.0)
            .all(|o| o.detected);
        let below_threshold_quiet = self
            .outcomes
            .iter()
            .filter(|o| o.manipulation.starts_with("rate") && o.magnitude < 100.0)
            .all(|o| !o.detected);
        let jumps_detected = self
            .outcomes
            .iter()
            .filter(|o| o.manipulation.starts_with("offset") && o.magnitude.abs() > 1e7)
            .all(|o| o.detected);
        let max_latency = self.outcomes.iter().filter_map(|o| o.latency_s).fold(0.0f64, f64::max);
        vec![
            Comparison::new(
                "tsc-detect",
                "rate manipulation above monitor threshold detected",
                "monitoring reliably detects TSC speed changes (RQ A.1)",
                format!("all >150 ppm detected: {above_threshold_detected}"),
                above_threshold_detected,
            ),
            Comparison::new(
                "tsc-detect",
                "no false alarms below threshold",
                "10 INC range -> sub-100 ppm noise floor",
                format!("all <100 ppm quiet: {below_threshold_quiet}"),
                below_threshold_quiet,
            ),
            Comparison::new(
                "tsc-detect",
                "offset jumps detected (forward and back)",
                "time jumps forward and back in time detectable",
                format!("all +-10 ms jumps detected: {jumps_detected}"),
                jumps_detected,
            ),
            Comparison::new(
                "tsc-detect",
                "detection latency",
                "bounded by monitoring cadence",
                format!("max {max_latency:.2} s"),
                max_latency < 30.0,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!("E13 — INC monitor vs TSC manipulation\n{}", REPORT.render(&self.outcomes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_sweep_has_clean_threshold() {
        let opts = RunOpts::quick(std::env::temp_dir().join("triad_tscdetect_test"));
        let r = run(&opts);
        for c in r.comparisons() {
            assert!(c.matches, "{c:?}");
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
