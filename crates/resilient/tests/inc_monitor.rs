//! The §IV-A.1 INC monitor's baseline rule, pinned for the paper's node
//! under `proto::ScriptedEnv`.
//!
//! The monitor learns TSC ticks per INC from its first uninterrupted
//! window and afterwards flags a *change* of that ratio beyond the
//! threshold. It never compares the ratio with what the platform should
//! give, so a ratio that is already wrong before the first window is
//! never detected (DESIGN.md, *What the INC monitor can see*).
//!
//! The script holds the TSC honest (`ScriptedEnv::tsc_hz`) and moves the
//! INC count per window instead: either way the ticks-per-INC ratio moves.

use netsim::Addr;
use proto::{node_addr, Effect, Input, Machine, ScriptedEnv, TA_ADDR};
use triad_core::{
    Node, Paper, TriadConfig, MONITOR_INTERVAL, MONITOR_THRESHOLD_PPM, POLICY_TIMERS,
};

/// The monitor chain's token in crash epoch 0.
const MONITOR: u64 = POLICY_TIMERS[0];

/// INC counted over one honest 100 ms window at 3.5 GHz (≈ 28.6 cycles
/// per loop iteration).
const HONEST_INC: u64 = 12_222_000;

/// `HONEST_INC` with the ticks-per-INC ratio shifted by `ppm`.
fn shifted(ppm: f64) -> u64 {
    (HONEST_INC as f64 / (1.0 + ppm * 1e-6)).round() as u64
}

struct Rig {
    node: Node<Paper>,
    env: ScriptedEnv,
}

impl Rig {
    fn boot() -> Self {
        assert_eq!(MONITOR_THRESHOLD_PPM, 100.0, "the shifts below straddle 100 ppm");
        let node = Node::<Paper>::new(node_addr(0), vec![Addr(2), Addr(3)], TriadConfig::default());
        let mut rig = Rig { node, env: ScriptedEnv::new(3, 7) };
        rig.node.on_start(&mut rig.env);
        rig.env.take_effects();
        rig
    }

    /// Fires the next monitor tick after a window in which the monitoring
    /// thread counted `inc`; returns whether it raised a detection.
    fn tick(&mut self, inc: u64) -> bool {
        let before = self.detections();
        self.env.advance(MONITOR_INTERVAL);
        self.env.inc_per_sample = inc;
        self.node.on_input(&mut self.env, Input::Timer { token: MONITOR });
        let effects = self.env.take_effects();
        let detected = self.detections() > before;
        let recalibrates = effects.iter().any(|e| matches!(e, Effect::Send { dst: TA_ADDR, .. }));
        assert_eq!(detected, recalibrates, "a detection and only a detection recalibrates");
        detected
    }

    fn detections(&self) -> u64 {
        self.env.recorder.node(0).monitor_detections.count()
    }
}

#[test]
fn the_baseline_is_learned_from_the_first_uninterrupted_window() {
    let mut rig = Rig::boot();
    let wrong = shifted(50_000.0);
    assert!(!rig.tick(wrong), "the first tick only opens a window");
    rig.node.on_input(&mut rig.env, Input::Aex { machine_wide: false });
    assert!(!rig.tick(wrong), "an AEX severed this window: nothing is learned from it");
    assert!(!rig.tick(HONEST_INC), "the first uninterrupted window sets the baseline");
    assert!(!rig.tick(HONEST_INC));
    assert!(rig.tick(wrong), "the baseline is the honest window's ratio, not the severed one's");
}

#[test]
fn a_later_change_above_the_threshold_is_detected_and_clears_the_baseline() {
    let mut rig = Rig::boot();
    rig.tick(HONEST_INC);
    assert!(!rig.tick(HONEST_INC), "baseline learned");
    assert!(!rig.tick(shifted(50.0)), "50 ppm is under the threshold");
    assert!(rig.tick(shifted(1_000.0)), "1 000 ppm is over it");
    // Cleared: the shifted ratio becomes the next baseline instead of
    // detecting again on every window.
    assert!(!rig.tick(shifted(1_000.0)), "the window after a detection relearns");
    assert!(!rig.tick(shifted(1_000.0)));
    assert!(rig.tick(HONEST_INC), "a change back is a change too");
    assert_eq!(rig.detections(), 2);
}

#[test]
fn a_ratio_wrong_before_the_first_window_is_never_detected() {
    let mut rig = Rig::boot();
    // A TSC rescaled by 10 % before boot: every window shows the same
    // wrong ratio, so there is no change to see.
    for _ in 0..50 {
        assert!(!rig.tick(shifted(100_000.0)));
    }
    assert_eq!(rig.detections(), 0);
}
