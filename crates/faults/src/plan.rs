//! Fault plans: deterministic, time-ordered scripts of fault actions.

use netsim::Addr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::{node_addr, TscManipulation, TA_ADDR};
use sim::{SimDuration, SimTime};

/// One adversary action to apply at a scheduled instant.
///
/// Network actions mutate the fabric directly and a TSC manipulation
/// rewrites the victim host's counter; TA outage/restore, crash, restart
/// and AEX actions are delivered to the TA or the target node actor as
/// ordinary events, so they compose with everything it was already doing.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Block both directions between `a` and `b`.
    PartitionPair {
        /// One endpoint.
        a: Addr,
        /// The other endpoint.
        b: Addr,
    },
    /// Block only the `src → dst` direction (asymmetric partition).
    PartitionLink {
        /// Sending side of the blocked direction.
        src: Addr,
        /// Receiving side of the blocked direction.
        dst: Addr,
    },
    /// Undo a [`FaultAction::PartitionPair`].
    HealPair {
        /// One endpoint.
        a: Addr,
        /// The other endpoint.
        b: Addr,
    },
    /// Undo a [`FaultAction::PartitionLink`].
    HealLink {
        /// Sending side of the healed direction.
        src: Addr,
        /// Receiving side of the healed direction.
        dst: Addr,
    },
    /// Override loss probability on one directed link (closed `[0, 1]`).
    SetLinkLoss {
        /// Sending side.
        src: Addr,
        /// Receiving side.
        dst: Addr,
        /// Drop probability while the episode lasts.
        loss: f64,
    },
    /// Remove a per-link loss override, restoring the fabric default.
    ClearLinkLoss {
        /// Sending side.
        src: Addr,
        /// Receiving side.
        dst: Addr,
    },
    /// Set the fabric-wide duplication probability.
    SetDuplication {
        /// Probability that a delivered datagram is delivered twice.
        probability: f64,
    },
    /// Set the fabric-wide reordering regime.
    SetReordering {
        /// Probability that a datagram is held back.
        probability: f64,
        /// Extra delay applied to held-back datagrams.
        window: SimDuration,
    },
    /// Take the Time Authority down (drops all TA traffic, including
    /// already-held responses).
    TaOutage,
    /// Bring the Time Authority back.
    TaRestore,
    /// Crash node `node` (0-based index): all enclave state is lost and the
    /// node ignores everything until restarted.
    CrashNode {
        /// 0-based node index.
        node: usize,
    },
    /// Restart a crashed node; it must re-run full calibration.
    RestartNode {
        /// 0-based node index.
        node: usize,
    },
    /// A burst of `count` AEX interrupts spaced `spacing` apart, hitting
    /// one node (`node = Some(i)`) or every node machine-wide (`None`, the
    /// correlated storms of §IV-A.2).
    AexStorm {
        /// Target node, or `None` for a machine-wide storm on all nodes.
        node: Option<usize>,
        /// Number of interrupts in the burst.
        count: u32,
        /// Gap between consecutive interrupts.
        spacing: SimDuration,
    },
    /// Make node `node` start lying: its serving front-end skews every
    /// served/attested timestamp by `offset_ns` (alternating sign when
    /// `equivocate`). The node's protocol stack stays honest — this is the
    /// compromised-serving-path threat the quorum reader must catch. A
    /// cluster without a serving layer logs it and is otherwise unchanged.
    StartLie {
        /// 0-based node index.
        node: usize,
        /// Planned skew in nanoseconds (signed).
        offset_ns: i64,
        /// Alternate the skew's sign per answer (equivocation).
        equivocate: bool,
    },
    /// Make node `node` honest again.
    StopLie {
        /// 0-based node index.
        node: usize,
    },
    /// The hypervisor changes node `node`'s TSC offset or rate (§III-A);
    /// the INC monitor is what should notice.
    ManipulateTsc {
        /// 0-based node index (the TA's clock is the reference and is
        /// never manipulated).
        node: usize,
        /// What is done to the counter.
        manipulation: TscManipulation,
    },
}

impl FaultAction {
    /// A short, stable label for fault-overlay timelines and reports.
    pub fn label(&self) -> String {
        match self {
            FaultAction::PartitionPair { a, b } => format!("partition {a}<->{b}"),
            FaultAction::PartitionLink { src, dst } => format!("partition {src}->{dst}"),
            FaultAction::HealPair { a, b } => format!("heal {a}<->{b}"),
            FaultAction::HealLink { src, dst } => format!("heal {src}->{dst}"),
            FaultAction::SetLinkLoss { src, dst, loss } => {
                format!("loss {src}->{dst} p={loss:.2}")
            }
            FaultAction::ClearLinkLoss { src, dst } => format!("loss-clear {src}->{dst}"),
            FaultAction::SetDuplication { probability } => format!("dup p={probability:.2}"),
            FaultAction::SetReordering { probability, window } => {
                format!("reorder p={probability:.2} w={window}")
            }
            FaultAction::TaOutage => "ta-outage".to_string(),
            FaultAction::TaRestore => "ta-restore".to_string(),
            FaultAction::CrashNode { node } => format!("crash node{}", node + 1),
            FaultAction::RestartNode { node } => format!("restart node{}", node + 1),
            FaultAction::AexStorm { node, count, spacing } => match node {
                Some(i) => format!("aex-storm node{} x{count} @{spacing}", i + 1),
                None => format!("aex-storm all x{count} @{spacing}"),
            },
            FaultAction::StartLie { node, offset_ns, equivocate } => {
                let mode = if *equivocate { "equivocate" } else { "skew" };
                format!("lie node{} {mode} {offset_ns}ns", node + 1)
            }
            FaultAction::StopLie { node } => format!("lie-stop node{}", node + 1),
            FaultAction::ManipulateTsc { node, manipulation } => {
                format!("tsc node{} {}", node + 1, manipulation.encode())
            }
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic script of faults, replayed by
/// [`crate::FaultDriver`].
///
/// Build one explicitly with [`FaultPlan::at`] and the window helpers, or
/// generate one from a seed with [`FaultPlan::randomized`]. Events may be
/// added in any order; the driver sorts them (stably) by time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `action` at absolute simulation time `at`.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// A TA outage window: down at `from`, back after `duration`.
    pub fn ta_outage(self, from: SimTime, duration: SimDuration) -> Self {
        self.at(from, FaultAction::TaOutage).at(from + duration, FaultAction::TaRestore)
    }

    /// A crash-recovery window for node index `node`: crash at `from`,
    /// restart after `downtime`.
    pub fn crash_window(self, node: usize, from: SimTime, downtime: SimDuration) -> Self {
        self.at(from, FaultAction::CrashNode { node })
            .at(from + downtime, FaultAction::RestartNode { node })
    }

    /// A bidirectional partition window between `a` and `b`.
    pub fn partition_window(self, a: Addr, b: Addr, from: SimTime, duration: SimDuration) -> Self {
        self.at(from, FaultAction::PartitionPair { a, b })
            .at(from + duration, FaultAction::HealPair { a, b })
    }

    /// A lying-node window for node index `node`: start serving skewed
    /// (or equivocating) timestamps at `from`, honest again after
    /// `duration`.
    pub fn lie_window(
        self,
        node: usize,
        offset_ns: i64,
        equivocate: bool,
        from: SimTime,
        duration: SimDuration,
    ) -> Self {
        self.at(from, FaultAction::StartLie { node, offset_ns, equivocate })
            .at(from + duration, FaultAction::StopLie { node })
    }

    /// A lossy episode on the directed link `src → dst`.
    pub fn loss_window(
        self,
        src: Addr,
        dst: Addr,
        loss: f64,
        from: SimTime,
        duration: SimDuration,
    ) -> Self {
        self.at(from, FaultAction::SetLinkLoss { src, dst, loss })
            .at(from + duration, FaultAction::ClearLinkLoss { src, dst })
    }

    /// Generates a randomized chaos plan for an `n_nodes` cluster.
    ///
    /// Determinism contract: the generator draws from its own
    /// seed-derived PRNG, so the same `(config, n_nodes, seed)` always
    /// yields the identical plan and the simulation's RNG stream is never
    /// touched.
    ///
    /// # Panics
    ///
    /// Panics on an invalid config (empty window, `n_nodes == 0` while
    /// node-targeting fault counts are non-zero, loss outside `[0, 1]`).
    pub fn randomized(config: &RandomFaultConfig, n_nodes: usize, seed: u64) -> Self {
        config.validate(n_nodes);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6661_756c_7470_6c6e); // "faultpln"
        let mut plan = FaultPlan::new();

        for _ in 0..config.ta_outages {
            let from = config.draw_start(&mut rng);
            let d = draw_duration(&mut rng, config.ta_outage_duration);
            plan = plan.ta_outage(from, d);
        }
        for _ in 0..config.crashes {
            let node = rng.gen_range(0..n_nodes);
            let from = config.draw_start(&mut rng);
            let d = draw_duration(&mut rng, config.crash_downtime);
            plan = plan.crash_window(node, from, d);
        }
        for _ in 0..config.partitions {
            // Partition a node either from the TA or from a distinct peer.
            let a = rng.gen_range(0..n_nodes);
            let other = rng.gen_range(0..n_nodes + 1);
            let b_addr = if other == n_nodes || other == a { TA_ADDR } else { node_addr(other) };
            let from = config.draw_start(&mut rng);
            let d = draw_duration(&mut rng, config.partition_duration);
            plan = plan.partition_window(node_addr(a), b_addr, from, d);
        }
        for _ in 0..config.loss_episodes {
            let node = rng.gen_range(0..n_nodes);
            let loss = rng.gen_range(config.loss_range.0..=config.loss_range.1);
            let from = config.draw_start(&mut rng);
            let d = draw_duration(&mut rng, config.loss_duration);
            // Loss on the TA→node direction: responses vanish, requests
            // arrive — the asymmetric case that exercises retry/backoff.
            plan = plan.loss_window(TA_ADDR, node_addr(node), loss, from, d);
        }
        for _ in 0..config.aex_storms {
            let machine_wide = rng.gen_range(0..4usize) == 0;
            let node = if machine_wide { None } else { Some(rng.gen_range(0..n_nodes)) };
            let count = rng.gen_range(config.aex_storm_len.0..=config.aex_storm_len.1);
            let from = config.draw_start(&mut rng);
            plan = plan
                .at(from, FaultAction::AexStorm { node, count, spacing: config.aex_storm_spacing });
        }
        plan
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Consumes the plan into a schedule sorted (stably) by firing time.
    pub fn into_schedule(self) -> Vec<FaultEvent> {
        let mut events = self.events;
        events.sort_by_key(|e| e.at);
        events
    }
}

fn draw_duration(rng: &mut StdRng, (lo, hi): (SimDuration, SimDuration)) -> SimDuration {
    SimDuration::from_nanos(rng.gen_range(lo.as_nanos()..=hi.as_nanos()))
}

/// Knobs for [`FaultPlan::randomized`]: how many faults of each class to
/// draw and the ranges their windows are drawn from. Lying nodes are not
/// among the classes: a lie only reaches clients through a serving layer,
/// so plans script it with [`FaultPlan::lie_window`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomFaultConfig {
    /// Faults start uniformly inside `[window.0, window.1)` — leave a
    /// margin after `window.1` for heal/restart events to land before the
    /// run ends.
    pub window: (SimTime, SimTime),
    /// Number of node crash-recovery cycles.
    pub crashes: u32,
    /// Downtime range for each crash.
    pub crash_downtime: (SimDuration, SimDuration),
    /// Number of TA outage windows.
    pub ta_outages: u32,
    /// Duration range for each TA outage.
    pub ta_outage_duration: (SimDuration, SimDuration),
    /// Number of pairwise partition windows (node↔node or node↔TA).
    pub partitions: u32,
    /// Duration range for each partition.
    pub partition_duration: (SimDuration, SimDuration),
    /// Number of per-link loss episodes (applied on TA→node links).
    pub loss_episodes: u32,
    /// Loss probability range for each episode (closed `[0, 1]`).
    pub loss_range: (f64, f64),
    /// Duration range for each loss episode.
    pub loss_duration: (SimDuration, SimDuration),
    /// Number of AEX storms (~1 in 4 drawn machine-wide).
    pub aex_storms: u32,
    /// Interrupt-count range per storm.
    pub aex_storm_len: (u32, u32),
    /// Gap between interrupts inside a storm.
    pub aex_storm_spacing: SimDuration,
}

impl Default for RandomFaultConfig {
    /// Moderate chaos over a 10-minute run: a couple of each fault class,
    /// scheduled in `[60 s, 480 s)` so recovery fits before minute ten.
    fn default() -> Self {
        RandomFaultConfig {
            window: (SimTime::from_secs(60), SimTime::from_secs(480)),
            crashes: 2,
            crash_downtime: (SimDuration::from_secs(5), SimDuration::from_secs(30)),
            ta_outages: 2,
            ta_outage_duration: (SimDuration::from_secs(10), SimDuration::from_secs(60)),
            partitions: 2,
            partition_duration: (SimDuration::from_secs(10), SimDuration::from_secs(45)),
            loss_episodes: 2,
            loss_range: (0.3, 1.0),
            loss_duration: (SimDuration::from_secs(10), SimDuration::from_secs(45)),
            aex_storms: 2,
            aex_storm_len: (3, 10),
            aex_storm_spacing: SimDuration::from_millis(200),
        }
    }
}

impl RandomFaultConfig {
    fn validate(&self, n_nodes: usize) {
        assert!(self.window.0 < self.window.1, "fault window must be non-empty");
        let targets_nodes =
            self.crashes + self.partitions + self.loss_episodes + self.aex_storms > 0;
        assert!(n_nodes > 0 || !targets_nodes, "node-targeting faults need at least one node");
        assert!(
            (0.0..=1.0).contains(&self.loss_range.0)
                && (0.0..=1.0).contains(&self.loss_range.1)
                && self.loss_range.0 <= self.loss_range.1,
            "loss_range must be an ordered sub-range of [0, 1]"
        );
        for &(lo, hi) in [
            &self.crash_downtime,
            &self.ta_outage_duration,
            &self.partition_duration,
            &self.loss_duration,
        ] {
            assert!(lo <= hi, "duration ranges must be ordered");
        }
        assert!(self.aex_storm_len.0 <= self.aex_storm_len.1, "aex_storm_len must be ordered");
    }

    fn draw_start(&self, rng: &mut StdRng) -> SimTime {
        SimTime::from_nanos(rng.gen_range(self.window.0.as_nanos()..self.window.1.as_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_windows_emit_paired_events() {
        let plan = FaultPlan::new()
            .ta_outage(SimTime::from_secs(10), SimDuration::from_secs(5))
            .crash_window(0, SimTime::from_secs(3), SimDuration::from_secs(2));
        assert_eq!(plan.len(), 4);
        let sched = plan.into_schedule();
        assert_eq!(sched[0].at, SimTime::from_secs(3));
        assert_eq!(sched[0].action, FaultAction::CrashNode { node: 0 });
        assert_eq!(sched[1].action, FaultAction::RestartNode { node: 0 });
        assert_eq!(sched[2].action, FaultAction::TaOutage);
        assert_eq!(sched[3].at, SimTime::from_secs(15));
        assert_eq!(sched[3].action, FaultAction::TaRestore);
    }

    #[test]
    fn schedule_sort_is_stable_for_simultaneous_events() {
        let t = SimTime::from_secs(1);
        let plan =
            FaultPlan::new().at(t, FaultAction::TaOutage).at(t, FaultAction::CrashNode { node: 0 });
        let sched = plan.into_schedule();
        assert_eq!(sched[0].action, FaultAction::TaOutage);
        assert_eq!(sched[1].action, FaultAction::CrashNode { node: 0 });
    }

    #[test]
    fn randomized_is_deterministic_per_seed() {
        let cfg = RandomFaultConfig::default();
        let a = FaultPlan::randomized(&cfg, 3, 42);
        let b = FaultPlan::randomized(&cfg, 3, 42);
        let c = FaultPlan::randomized(&cfg, 3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn randomized_respects_window_and_counts() {
        let cfg = RandomFaultConfig::default();
        let plan = FaultPlan::randomized(&cfg, 4, 7);
        // Every *onset* lies in the window; paired recovery events may
        // fall after it but never before the onset itself.
        let onsets = plan.events().iter().filter(|e| {
            matches!(
                e.action,
                FaultAction::TaOutage
                    | FaultAction::CrashNode { .. }
                    | FaultAction::PartitionPair { .. }
                    | FaultAction::SetLinkLoss { .. }
                    | FaultAction::AexStorm { .. }
            )
        });
        let mut n_onsets = 0;
        for e in onsets {
            assert!(e.at >= cfg.window.0 && e.at < cfg.window.1, "onset {} outside window", e.at);
            n_onsets += 1;
        }
        assert_eq!(
            n_onsets,
            (cfg.ta_outages + cfg.crashes + cfg.partitions + cfg.loss_episodes + cfg.aex_storms)
                as usize
        );
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels = [
            FaultAction::PartitionPair { a: Addr(1), b: Addr(2) }.label(),
            FaultAction::PartitionLink { src: Addr(1), dst: Addr(2) }.label(),
            FaultAction::HealPair { a: Addr(1), b: Addr(2) }.label(),
            FaultAction::HealLink { src: Addr(1), dst: Addr(2) }.label(),
            FaultAction::SetLinkLoss { src: Addr(0), dst: Addr(1), loss: 0.5 }.label(),
            FaultAction::ClearLinkLoss { src: Addr(0), dst: Addr(1) }.label(),
            FaultAction::SetDuplication { probability: 0.1 }.label(),
            FaultAction::SetReordering { probability: 0.1, window: SimDuration::from_millis(5) }
                .label(),
            FaultAction::TaOutage.label(),
            FaultAction::TaRestore.label(),
            FaultAction::CrashNode { node: 0 }.label(),
            FaultAction::RestartNode { node: 0 }.label(),
            FaultAction::AexStorm { node: None, count: 5, spacing: SimDuration::from_millis(1) }
                .label(),
            FaultAction::StartLie { node: 0, offset_ns: 100, equivocate: false }.label(),
            FaultAction::StartLie { node: 0, offset_ns: 100, equivocate: true }.label(),
            FaultAction::StopLie { node: 0 }.label(),
            FaultAction::ManipulateTsc { node: 0, manipulation: TscManipulation::OffsetJump(5) }
                .label(),
        ];
        let unique: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
        assert_eq!(FaultAction::CrashNode { node: 0 }.label(), "crash node1");
        assert_eq!(
            FaultAction::StartLie { node: 1, offset_ns: -250, equivocate: false }.label(),
            "lie node2 skew -250ns"
        );
        assert_eq!(
            FaultAction::ManipulateTsc { node: 2, manipulation: TscManipulation::ScaleRate(1.5) }
                .label(),
            "tsc node3 scale-rate 1.5"
        );
    }

    #[test]
    fn lie_window_emits_paired_events() {
        let plan = FaultPlan::new().lie_window(
            2,
            250_000_000,
            true,
            SimTime::from_secs(40),
            SimDuration::from_secs(30),
        );
        let sched = plan.into_schedule();
        assert_eq!(sched.len(), 2);
        assert_eq!(sched[0].at, SimTime::from_secs(40));
        assert_eq!(
            sched[0].action,
            FaultAction::StartLie { node: 2, offset_ns: 250_000_000, equivocate: true }
        );
        assert_eq!(sched[1].at, SimTime::from_secs(70));
        assert_eq!(sched[1].action, FaultAction::StopLie { node: 2 });
    }

    #[test]
    #[should_panic(expected = "ordered sub-range")]
    fn randomized_rejects_bad_loss_range() {
        let cfg = RandomFaultConfig { loss_range: (0.9, 0.2), ..Default::default() };
        FaultPlan::randomized(&cfg, 3, 1);
    }
}
