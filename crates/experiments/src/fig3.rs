//! E5/E6/E7 — Figure 3: long-term fault-free behaviour on isolated cores.
//!
//! 8 hours, low-AEX environment (Fig. 1b). Expected shape: a single
//! FullCalib at the start (3b), availability ≈99.9%, sparse taints mostly
//! resolved by *peer untainting* with visible forward time-jumps in the
//! drift series (paper: 50–70 ms, set by the inter-node calibration-error
//! spread), and occasional RefCalib only when AEXs collide.

use scenario::{AexSpec, ScenarioSpec};
use sim::{SimDuration, SimTime};
use trace::{Segment, StateTimeline};

use crate::common::{drift_chart, mhz, write_drift_csv};
use crate::output::{Comparison, RunOpts, Table};

/// Per-node summary of the Figure 3 run.
#[derive(Debug, Clone)]
pub struct Fig3Node {
    /// Calibrated frequency (Hz).
    pub f_calib_hz: f64,
    /// Steady-state availability (after the first minute).
    pub availability: f64,
    /// Number of full calibrations (paper: exactly one).
    pub full_calibrations: usize,
    /// Taints resolved via peers.
    pub peer_untaints: u64,
    /// Forward jumps ≥ 5 ms in the drift series (peer adoptions).
    pub jumps: Vec<(f64, f64)>, // (ref_time_s, jump_ms)
}

/// Results of the Figure 3 reproduction.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// One summary per node.
    pub nodes: Vec<Fig3Node>,
    /// Horizon in seconds.
    pub horizon_s: f64,
}

/// `fig3b_states.csv`: `(0-based node, state segment)`.
pub(crate) const STATES: Table<(usize, Segment)> = Table(&[
    ("node", |(i, _)| format!("{}", i + 1)),
    ("state", |(_, seg)| seg.state.label().to_string()),
    ("from_s", |(_, seg)| format!("{:.3}", seg.from.as_secs_f64())),
    ("to_s", |(_, seg)| format!("{:.3}", seg.to.as_secs_f64())),
]);

/// Runs the scenario; writes drift CSV and the first-hour state Gantt.
pub fn run(opts: &RunOpts) -> Fig3Result {
    let horizon = if opts.quick { SimTime::from_secs(1800) } else { SimTime::from_secs(8 * 3600) };
    let world = ScenarioSpec::new(3)
        .horizon(horizon)
        .all_nodes_aex(AexSpec::IsolatedCore)
        .sample_interval(SimDuration::from_millis(500))
        .run(opts.seed ^ 0xF163);

    let dir = opts.dir_for("fig3");
    write_drift_csv(&dir, "fig3a_drift.csv", &world);
    trace::write_text(&dir, "fig3a_drift.txt", &drift_chart(&world, 100, 24)).expect("write chart");

    // Figure 3b: the first hour's timing diagram.
    let timelines: Vec<(String, StateTimeline)> = (0..3)
        .map(|i| (world.recorder.node(i).label.clone(), world.recorder.node(i).states.clone()))
        .collect();
    let refs: Vec<(&str, &StateTimeline)> =
        timelines.iter().map(|(l, t)| (l.as_str(), t)).collect();
    let gantt_end = horizon.min(SimTime::from_secs(3600));
    trace::write_text(
        &dir,
        "fig3b_states.txt",
        &trace::ascii_gantt(&refs, SimTime::ZERO, gantt_end, 100),
    )
    .expect("write gantt");
    let state_rows = timelines.iter().enumerate().flat_map(|(i, (_, tl))| {
        tl.segments(SimTime::ZERO, gantt_end).into_iter().map(move |seg| (i, seg))
    });
    STATES.write_csv(&dir, "fig3b_states.csv", state_rows).expect("write states csv");

    let steady_from = SimTime::from_secs(60);
    let nodes = (0..3)
        .map(|i| {
            let t = world.recorder.node(i);
            Fig3Node {
                f_calib_hz: t.latest_calibrated_hz().unwrap_or(f64::NAN),
                availability: t.states.availability(steady_from, horizon),
                full_calibrations: t.calibrations_hz.len(),
                peer_untaints: t.peer_untaints.count(),
                jumps: t
                    .drift_ms
                    .steps_above(5.0)
                    .into_iter()
                    .map(|(at, d)| (at.as_secs_f64(), d))
                    .collect(),
            }
        })
        .collect();

    Fig3Result { nodes, horizon_s: horizon.as_secs_f64() }
}

impl Fig3Result {
    /// Paper-vs-measured rows.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let worst_avail = self.nodes.iter().map(|n| n.availability).fold(f64::INFINITY, f64::min);
        let single_calib = self.nodes.iter().all(|n| n.full_calibrations == 1);
        let total_jumps: usize = self.nodes.iter().map(|n| n.jumps.len()).sum();
        let total_untaints: u64 = self.nodes.iter().map(|n| n.peer_untaints).sum();
        vec![
            Comparison::new(
                "fig3",
                "availability (steady state)",
                "99.9%",
                format!("{:.3}%", worst_avail * 100.0),
                worst_avail >= 0.999,
            ),
            Comparison::new(
                "fig3",
                "full calibrations per node",
                "1 (single FullCalib at start)",
                format!("{:?}", self.nodes.iter().map(|n| n.full_calibrations).collect::<Vec<_>>()),
                single_calib,
            ),
            Comparison::new(
                "fig3",
                "peer untainting with forward time-jumps",
                "jumps of 50–70 ms at sparse AEXs",
                format!("{total_untaints} peer untaints, {total_jumps} jumps >= 5 ms"),
                total_untaints > 0,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!("Figure 3 — fault-free, isolated cores, {:.0} s\n", self.horizon_s);
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "Node {}: F_calib = {}, availability = {:.4}%, full calibs = {}, \
                 peer untaints = {}, jumps = {:?}\n",
                i + 1,
                mhz(n.f_calib_hz),
                n.availability * 100.0,
                n.full_calibrations,
                n.peer_untaints,
                n.jumps.iter().map(|&(t, d)| format!("{d:.0}ms@{t:.0}s")).collect::<Vec<_>>(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_quick_reproduces_shape() {
        let opts = RunOpts::quick(std::env::temp_dir().join("triad_fig3_test"));
        let r = run(&opts);
        for (i, n) in r.nodes.iter().enumerate() {
            assert_eq!(n.full_calibrations, 1, "node {i}");
            assert!(n.availability > 0.995, "node {i} availability {}", n.availability);
        }
        assert!(opts.dir_for("fig3").join("fig3b_states.txt").exists());
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
