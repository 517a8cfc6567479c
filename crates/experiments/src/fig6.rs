//! E10/E11 — Figure 6: F– attack on Node 3 and its propagation.
//!
//! The attacker adds 100 ms to the TA's immediate (0 s-sleep) responses:
//! `F_3^calib ≈ 2610 MHz` (0.9 × F^TSC), Node 3's clock runs +113 ms/s
//! fast. Honest Nodes 1–2 run on quiet cores until t = 104 s, then
//! experience Triad-like AEXs (dashed red line in the paper): from that
//! point they fetch timestamps from the compromised fast node, jump
//! forward, and keep ratcheting — the infection mechanism of §IV-B.2.
//! Figure 6b is the per-node cumulative AEX count.

use attacks::DelayAttackMode;
use netsim::Addr;
use scenario::{AexSpec, AttackSpec, ScenarioSpec};
use sim::SimTime;
use tsc::PAPER_TSC_HZ;

use crate::common::{drift_chart, mhz, write_counter_csv, write_drift_csv};
use crate::output::{Comparison, RunOpts};

/// Results of the Figure 6 reproduction.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Victim's calibrated frequency (Hz).
    pub f3_calib_hz: f64,
    /// Victim's drift rate (ms/s) measured before the switch.
    pub victim_slope_ms_per_s: f64,
    /// Honest nodes' max |drift| before the switch (ms).
    pub honest_pre_switch_ms: f64,
    /// Honest nodes' first forward jump after the switch (ms).
    pub honest_first_jump_ms: f64,
    /// Honest nodes' final drift (ms).
    pub honest_final_ms: f64,
    /// Honest per-node AEX counts (before switch, after switch).
    pub honest_aex_split: Vec<(u64, u64)>,
}

/// The switch instant (the paper's dashed red line).
pub const SWITCH_S: u64 = 104;

/// Runs the scenario; writes drift and AEX-count CSVs.
pub fn run(opts: &RunOpts) -> Fig6Result {
    let horizon = if opts.quick { SimTime::from_secs(240) } else { SimTime::from_secs(420) };
    let switch = SimTime::from_secs(SWITCH_S);
    let honest_env = AexSpec::SwitchAt {
        at: switch,
        before: Box::new(AexSpec::IsolatedCore),
        after: Box::new(AexSpec::TriadLike),
    };
    let world = ScenarioSpec::new(3)
        .horizon(horizon)
        .node_aex(0, honest_env.clone())
        .node_aex(1, honest_env)
        .node_aex(2, AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FMinus))
        .run(opts.seed ^ 0xF166);

    let dir = opts.dir_for("fig6");
    write_drift_csv(&dir, "fig6a_drift.csv", &world);
    write_counter_csv(&dir, "fig6b_aex_counts.csv", &world, |i| &world.recorder.node(i).aex_events);
    trace::write_text(&dir, "fig6a_drift.txt", &drift_chart(&world, 100, 24)).expect("write chart");

    let victim = world.recorder.node(2);
    let victim_slope =
        victim.drift_ms.slope_per_sec_in(SimTime::from_secs(40), switch).unwrap_or(f64::NAN);

    let honest_pre = (0..2)
        .map(|i| {
            world
                .recorder
                .node(i)
                .drift_ms
                .window(SimTime::from_secs(40), switch)
                .iter()
                .map(|&(_, d)| d.abs())
                .fold(0.0f64, f64::max)
        })
        .fold(0.0f64, f64::max);

    // First forward jump of node 1 after the switch.
    let node1 = world.recorder.node(0);
    let first_jump = node1
        .drift_ms
        .window(switch, horizon)
        .windows(2)
        .map(|w| w[1].1 - w[0].1)
        .find(|&d| d > 5.0)
        .unwrap_or(0.0);
    let honest_final = (0..2)
        .map(|i| world.recorder.node(i).drift_ms.last().map(|(_, d)| d).unwrap_or(0.0))
        .fold(f64::NEG_INFINITY, f64::max);
    let honest_aex_split = (0..2)
        .map(|i| {
            let c = &world.recorder.node(i).aex_events;
            let before = c.count_at(switch);
            (before, c.count() - before)
        })
        .collect();

    Fig6Result {
        f3_calib_hz: victim.latest_calibrated_hz().unwrap_or(f64::NAN),
        victim_slope_ms_per_s: victim_slope,
        honest_pre_switch_ms: honest_pre,
        honest_first_jump_ms: first_jump,
        honest_final_ms: honest_final,
        honest_aex_split,
    }
}

impl Fig6Result {
    /// Paper-vs-measured rows.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let ratio = self.f3_calib_hz / PAPER_TSC_HZ;
        let aex_shape =
            self.honest_aex_split.iter().all(|&(before, after)| before <= 3 && after > 50);
        vec![
            Comparison::new(
                "fig6",
                "F3_calib",
                "2609.951 MHz (0.900 x F_TSC)",
                format!("{} ({ratio:.3} x)", mhz(self.f3_calib_hz)),
                (ratio - 0.9).abs() < 0.005,
            ),
            Comparison::new(
                "fig6",
                "victim drift rate",
                "+113 ms/s",
                format!("{:+.1} ms/s", self.victim_slope_ms_per_s),
                (self.victim_slope_ms_per_s - 111.0).abs() < 5.0,
            ),
            Comparison::new(
                "fig6",
                "honest nodes clean before switch",
                "low drift for t < 104 s",
                format!("max |drift| {:.1} ms", self.honest_pre_switch_ms),
                self.honest_pre_switch_ms < 100.0,
            ),
            Comparison::new(
                "fig6",
                "forward jump at the switch",
                "jump forward (paper: ~35 ms first jump; magnitude is \
                 set by the victim's drift since its last reset)",
                format!("first jump {:+.0} ms", self.honest_first_jump_ms),
                self.honest_first_jump_ms > 5.0,
            ),
            Comparison::new(
                "fig6",
                "infection ratchets ever forward",
                "honest nodes skip arbitrarily far into the future",
                format!("final honest drift {:+.0} ms", self.honest_final_ms),
                self.honest_final_ms > 1_000.0,
            ),
            Comparison::new(
                "fig6b",
                "AEX counts: flat then linear for honest nodes",
                "Nodes 1-2 ~0 until 104 s, then linear; Node 3 linear throughout",
                format!("{:?}", self.honest_aex_split),
                aex_shape,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "Figure 6 — F− on Node 3, honest switch to Triad-like at t = {SWITCH_S} s\n\
             F3_calib = {} ({:.4} x F_TSC), victim drift {:+.1} ms/s\n\
             honest: pre-switch max |drift| {:.1} ms, first jump {:+.0} ms, final {:+.0} ms\n\
             honest AEX (before, after) = {:?}\n",
            mhz(self.f3_calib_hz),
            self.f3_calib_hz / PAPER_TSC_HZ,
            self.victim_slope_ms_per_s,
            self.honest_pre_switch_ms,
            self.honest_first_jump_ms,
            self.honest_final_ms,
            self.honest_aex_split,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_quick_reproduces_propagation() {
        let opts = RunOpts::quick(std::env::temp_dir().join("triad_fig6_test"));
        let r = run(&opts);
        assert!((r.f3_calib_hz / PAPER_TSC_HZ - 0.9).abs() < 0.005);
        assert!(r.honest_first_jump_ms > 5.0, "jump {}", r.honest_first_jump_ms);
        assert!(r.honest_final_ms > 500.0, "final {}", r.honest_final_ms);
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
