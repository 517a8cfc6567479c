//! Property-based chaos tests: under *any* generated fault plan, the
//! client-facing clock of every honest node remains strictly monotonic —
//! across crash-recovery, partitions, TA outages, loss/duplication
//! episodes and AEX storms, for both the base Triad node and the §V
//! resilient node.
//!
//! The monotonicity contract is asserted inside the run: every
//! [`triad_tt::runtime::ClientWorkload`] panics the simulation on a
//! non-increasing timestamp or reading estimate, so each passing case is a
//! full end-to-end proof for its fault schedule.

use proptest::prelude::*;
use triad_tt::faults::{FaultPlan, RandomFaultConfig};
use triad_tt::resilient::ResilientConfig;
use triad_tt::scenario::{AexSpec, FaultSpec, NodeImplSpec, ScenarioSpec};
use triad_tt::sim::{SimDuration, SimTime};
use triad_tt::triad::{TriadConfig, READING_UNCERTAINTY_NS};

/// A compressed chaos window so every recovery lands inside the horizon.
fn fault_config(
    crashes: u32,
    ta_outages: u32,
    partitions: u32,
    loss: u32,
    storms: u32,
) -> RandomFaultConfig {
    RandomFaultConfig {
        window: (SimTime::from_secs(20), SimTime::from_secs(60)),
        crashes,
        crash_downtime: (SimDuration::from_secs(2), SimDuration::from_secs(8)),
        ta_outages,
        ta_outage_duration: (SimDuration::from_secs(5), SimDuration::from_secs(15)),
        partitions,
        partition_duration: (SimDuration::from_secs(5), SimDuration::from_secs(15)),
        loss_episodes: loss,
        loss_range: (0.3, 1.0),
        loss_duration: (SimDuration::from_secs(5), SimDuration::from_secs(15)),
        aex_storms: storms,
        aex_storm_len: (2, 6),
        aex_storm_spacing: SimDuration::from_millis(100),
    }
}

proptest! {
    /// Base Triad (hardened transport) under arbitrary fault mixes.
    #[test]
    fn triad_clients_stay_monotonic_under_any_fault_plan(
        seed in any::<u64>(),
        crashes in 0u32..3,
        ta_outages in 0u32..3,
        partitions in 0u32..3,
        loss in 0u32..3,
        storms in 0u32..3,
    ) {
        let cfg = fault_config(crashes, ta_outages, partitions, loss, storms);
        let plan = FaultPlan::randomized(&cfg, 3, seed);
        let n_faults = plan.len();
        let mut s = ScenarioSpec::new(3)
            .all_nodes_aex(AexSpec::TriadLike)
            .config(TriadConfig::hardened())
            .client(0, SimDuration::from_millis(50))
            .reading_client(0, SimDuration::from_millis(50))
            .client(1, SimDuration::from_millis(50))
            .faults(FaultSpec::Fixed(plan))
            .build(seed);
        // Any monotonicity violation panics inside the run.
        s.run_until(SimTime::from_secs(90));
        let w = s.world();
        // The driver applied the whole schedule.
        prop_assert_eq!(w.recorder.faults.len(), n_faults);
        // The cluster was alive: clients got answers before the first
        // fault could fire (calibration finishes well before t=20 s).
        prop_assert!(w.recorder.node(0).client_served.count() > 0);
        // Served reading uncertainties never drop below the honest floor.
        let floor = READING_UNCERTAINTY_NS as f64;
        for &(_, u) in w.recorder.node(0).reading_uncertainty_ns.points() {
            prop_assert!(u >= floor, "uncertainty {u} below floor {floor}");
        }
    }

    /// The §V resilient node under the same arbitrary fault mixes.
    #[test]
    fn resilient_clients_stay_monotonic_under_any_fault_plan(
        seed in any::<u64>(),
        crashes in 0u32..3,
        ta_outages in 0u32..3,
        partitions in 0u32..3,
        storms in 0u32..3,
    ) {
        let cfg = fault_config(crashes, ta_outages, partitions, 0, storms);
        let plan = FaultPlan::randomized(&cfg, 3, seed);
        let node_cfg = ResilientConfig { base: TriadConfig::hardened(), ..Default::default() };
        let mut s = ScenarioSpec::new(3)
            .all_nodes_aex(AexSpec::TriadLike)
            .node_impl(NodeImplSpec::Resilient(Box::new(node_cfg)))
            .client(0, SimDuration::from_millis(50))
            .reading_client(0, SimDuration::from_millis(50))
            .faults(FaultSpec::Fixed(plan))
            .build(seed);
        s.run_until(SimTime::from_secs(90));
        prop_assert!(s.world().recorder.node(0).client_served.count() > 0);
    }
}
