//! E9 — Figure 5: F+ attack with all nodes under Triad-like AEXs.
//!
//! Same attack as Figure 4, but the victim now experiences frequent AEXs,
//! so it repeatedly fetches its (honest) peers' timestamps: its drift
//! oscillates between the peers' drift and the deficit its slow clock
//! accumulates over one inter-AEX gap — paper: down to −150 ms (one
//! 1.59 s gap × 91 ms/s ≈ −145 ms).

use attacks::DelayAttackMode;
use netsim::Addr;
use scenario::{AexSpec, AttackSpec, ScenarioSpec};
use sim::SimTime;
use tsc::PAPER_TSC_HZ;

use crate::common::{drift_chart, mhz, write_drift_csv};
use crate::output::{Comparison, RunOpts};

/// Results of the Figure 5 reproduction.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Victim's calibrated frequency (Hz).
    pub f3_calib_hz: f64,
    /// Victim's drift floor after calibration (ms).
    pub victim_floor_ms: f64,
    /// Victim's drift ceiling after calibration (ms).
    pub victim_ceiling_ms: f64,
    /// Peer adoptions by the victim (its oscillation resets).
    pub victim_adoptions: u64,
}

/// Runs the scenario and writes the drift CSV.
pub fn run(opts: &RunOpts) -> Fig5Result {
    let horizon = if opts.quick { SimTime::from_secs(180) } else { SimTime::from_secs(600) };
    let world = ScenarioSpec::new(3)
        .horizon(horizon)
        .all_nodes_aex(AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FPlus))
        .run(opts.seed ^ 0xF165);

    let dir = opts.dir_for("fig5");
    write_drift_csv(&dir, "fig5_drift.csv", &world);
    trace::write_text(&dir, "fig5_drift.txt", &drift_chart(&world, 100, 24)).expect("write chart");

    let victim = world.recorder.node(2);
    let settle = SimTime::from_secs(60);
    let band = victim.drift_ms.window(settle, horizon);
    let floor = band.iter().map(|&(_, d)| d).fold(f64::INFINITY, f64::min);
    let ceiling = band.iter().map(|&(_, d)| d).fold(f64::NEG_INFINITY, f64::max);

    Fig5Result {
        f3_calib_hz: victim.latest_calibrated_hz().unwrap_or(f64::NAN),
        victim_floor_ms: floor,
        victim_ceiling_ms: ceiling,
        victim_adoptions: victim.peer_adoptions.count(),
    }
}

impl Fig5Result {
    /// Paper-vs-measured rows.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let ratio = self.f3_calib_hz / PAPER_TSC_HZ;
        vec![
            Comparison::new(
                "fig5",
                "F3_calib (same as Fig.4's)",
                "3191.210 MHz",
                mhz(self.f3_calib_hz),
                (ratio - 1.1).abs() < 0.005,
            ),
            Comparison::new(
                "fig5",
                "victim oscillation floor",
                "about -150 ms (longest gap x 91 ms/s; deeper here by the peers' own drift)",
                format!("{:.0} ms", self.victim_floor_ms),
                self.victim_floor_ms > -400.0 && self.victim_floor_ms < -80.0,
            ),
            Comparison::new(
                "fig5",
                "victim oscillation ceiling",
                "peers' drift (near 0)",
                format!("{:.0} ms", self.victim_ceiling_ms),
                self.victim_ceiling_ms.abs() < 60.0,
            ),
            Comparison::new(
                "fig5",
                "oscillation mechanism",
                "peer timestamps adopted after each AEX",
                format!("{} adoptions", self.victim_adoptions),
                self.victim_adoptions > 20,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "Figure 5 — F+ on Node 3, all nodes Triad-like AEXs\n\
             F3_calib = {}, oscillation band [{:.0}, {:.0}] ms, {} peer adoptions\n",
            mhz(self.f3_calib_hz),
            self.victim_floor_ms,
            self.victim_ceiling_ms,
            self.victim_adoptions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_quick_reproduces_oscillation() {
        let opts = RunOpts::quick(std::env::temp_dir().join("triad_fig5_test"));
        let r = run(&opts);
        assert!(r.victim_floor_ms < -80.0, "floor {}", r.victim_floor_ms);
        assert!(r.victim_ceiling_ms > r.victim_floor_ms + 50.0);
        assert!(r.victim_adoptions > 10);
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
