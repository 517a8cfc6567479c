//! E8 — Figure 4: F+ attack on Node 3, victim in the low-AEX environment.
//!
//! The attacker adds 100 ms to the TA's 1 s-sleep responses and isolates
//! the victim's core. Paper: `F_3^calib = 3191.224 MHz` (≈1.1 × F^TSC),
//! Node 3 drifts at −91 ms/s, interrupted only by TA recalibrations forced
//! by correlated machine-wide AEXs; Nodes 1–2 stay on their honest drift.

use attacks::DelayAttackMode;
use netsim::Addr;
use scenario::{AexSpec, AttackSpec, ScenarioSpec};
use sim::{SimDuration, SimTime};
use tsc::PAPER_TSC_HZ;

use crate::common::{drift_chart, mhz, write_drift_csv};
use crate::output::{Comparison, RunOpts};

/// Results of the Figure 4 reproduction.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Victim's calibrated frequency (Hz).
    pub f3_calib_hz: f64,
    /// Victim's drift rate between TA resets (ms/s).
    pub victim_slope_ms_per_s: f64,
    /// Honest nodes' worst |drift| (ms).
    pub honest_max_drift_ms: f64,
    /// Victim's TA references (resets due to correlated AEXs).
    pub victim_ta_refs: u64,
    /// Victim availability.
    pub victim_availability: f64,
}

/// Runs the scenario and writes the drift CSV.
pub fn run(opts: &RunOpts) -> Fig4Result {
    let horizon = if opts.quick { SimTime::from_secs(180) } else { SimTime::from_secs(600) };
    // Node 3's core is isolated (no per-core model); machine-wide
    // correlated AEXs still occur, forcing its occasional TA resets.
    let world = ScenarioSpec::new(3)
        .horizon(horizon)
        .node_aex(0, AexSpec::TriadLike)
        .node_aex(1, AexSpec::TriadLike)
        .machine_aex(AexSpec::IsolatedCore)
        .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FPlus))
        .run(opts.seed ^ 0xF164);

    let dir = opts.dir_for("fig4");
    write_drift_csv(&dir, "fig4_drift.csv", &world);
    trace::write_text(&dir, "fig4_drift.txt", &drift_chart(&world, 100, 24)).expect("write chart");

    let victim = world.recorder.node(2);
    // Slope between the first TA anchor and the next reset (or horizon).
    let refs = victim.ta_references.events();
    let slope_window_end = refs.get(1).copied().unwrap_or(horizon);
    let slope = victim
        .drift_ms
        .slope_per_sec_in(refs[0] + SimDuration::from_secs(2), slope_window_end)
        .unwrap_or(f64::NAN);
    let honest_max = (0..2)
        .map(|i| {
            let (lo, hi) = world.recorder.node(i).drift_ms.value_range().unwrap_or((0.0, 0.0));
            lo.abs().max(hi.abs())
        })
        .fold(0.0f64, f64::max);

    Fig4Result {
        f3_calib_hz: victim.latest_calibrated_hz().unwrap_or(f64::NAN),
        victim_slope_ms_per_s: slope,
        honest_max_drift_ms: honest_max,
        victim_ta_refs: victim.ta_references.count(),
        victim_availability: victim.states.availability(SimTime::ZERO, horizon),
    }
}

impl Fig4Result {
    /// Paper-vs-measured rows.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let ratio = self.f3_calib_hz / PAPER_TSC_HZ;
        vec![
            Comparison::new(
                "fig4",
                "F3_calib",
                "3191.224 MHz (1.100 x F_TSC)",
                format!("{} ({ratio:.3} x)", mhz(self.f3_calib_hz)),
                (ratio - 1.1).abs() < 0.005,
            ),
            Comparison::new(
                "fig4",
                "victim drift rate",
                "-91 ms/s",
                format!("{:+.1} ms/s", self.victim_slope_ms_per_s),
                (self.victim_slope_ms_per_s + 91.0).abs() < 3.0,
            ),
            Comparison::new(
                "fig4",
                "honest nodes unaffected",
                "Nodes 1-2 keep their ordinary drift",
                format!("max |drift| {:.1} ms", self.honest_max_drift_ms),
                self.honest_max_drift_ms < 200.0,
            ),
            Comparison::new(
                "fig4",
                "attack preserves availability",
                "no availability loss (section IV-B)",
                format!("{:.2}%", self.victim_availability * 100.0),
                self.victim_availability > 0.97,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "Figure 4 — F+ on Node 3 (low-AEX victim)\n\
             F3_calib = {} ({:.4} x F_TSC), victim drift {:+.1} ms/s, \
             TA resets = {}, honest max |drift| = {:.1} ms, victim availability = {:.2}%\n",
            mhz(self.f3_calib_hz),
            self.f3_calib_hz / PAPER_TSC_HZ,
            self.victim_slope_ms_per_s,
            self.victim_ta_refs,
            self.honest_max_drift_ms,
            self.victim_availability * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_quick_reproduces_attack() {
        let opts = RunOpts::quick(std::env::temp_dir().join("triad_fig4_test"));
        let r = run(&opts);
        assert!((r.f3_calib_hz / PAPER_TSC_HZ - 1.1).abs() < 0.005, "{}", r.f3_calib_hz);
        assert!((r.victim_slope_ms_per_s + 91.0).abs() < 5.0, "{}", r.victim_slope_ms_per_s);
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
