//! Pins the INC-monitor gap between the two node policies.
//!
//! The paper's node (`triad_core::Paper`) runs the §III-B / §IV-A.1
//! INC-vs-TSC monitor (`triad_core::MONITOR_INTERVAL`,
//! `MONITOR_THRESHOLD_PPM`); Hardened runs no monitor. Same spec, same
//! seed, same `set-rate-hz` — the committed
//! `drift-n5` manipulation without its TA outage: the paper's node sees
//! it, the hardened node does not.
//!
//! ROADMAP item 1(a) is the PR that switches the monitor on for
//! `Hardened`; it flips the hardened expectation below from `== 0` to
//! `>= 1` (one line, the convention of the corpus reproducers).

use faults::{FaultAction, FaultPlan};
use scenario::{AexSpec, FaultSpec, NodeImplSpec, ScenarioSpec};
use sim::SimTime;
use tsc::TscManipulation;

fn monitor_detections(node_impl: NodeImplSpec, seed: u64) -> u64 {
    let world = ScenarioSpec::new(5)
        .all_nodes_aex(AexSpec::TriadLike)
        .node_impl(node_impl)
        .faults(FaultSpec::Fixed(FaultPlan::new().at(
            SimTime::from_secs(20),
            FaultAction::ManipulateTsc {
                node: 2,
                manipulation: TscManipulation::SetRateHz(2_903_583_121.18),
            },
        )))
        .run(seed);
    world.recorder.iter().map(|node| node.monitor_detections.count()).sum()
}

#[test]
fn paper_node_detects_the_rate_manipulation_the_hardened_node_misses() {
    for seed in 1..=3 {
        let paper = monitor_detections(NodeImplSpec::Triad, seed);
        let hardened = monitor_detections(NodeImplSpec::Resilient(Box::default()), seed);
        assert!(paper >= 1, "seed {seed}: the paper's INC monitor must catch set-rate-hz");
        assert_eq!(hardened, 0, "seed {seed}: Hardened runs no INC monitor (ROADMAP item 1(a))");
    }
}
