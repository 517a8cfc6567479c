//! The declarative scenario description: one cluster, its environment,
//! attacker, adversary schedule, clients and serving layer, as cloneable
//! data that [`harness::Cluster`] assembles.

use attacks::{CalibrationDelayAttack, DelayAttackMode};
use faults::{FaultPlan, Fields, RandomFaultConfig};
use harness::Cluster;
use netsim::{Addr, DelayModel, Network};
use resilient::{ResilientConfig, ResilientNode};
use runtime::{node_addr, ClientMode, MachineActor, SysEvent, World, TA_ADDR};
use service::ServiceSpec;
use sim::{Actor, SimDuration, SimTime, Simulation};
use triad_core::{TriadConfig, TriadNode};
use tsc::AexSpec;

/// A cloneable description of an on-path attacker.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackSpec {
    /// The paper's F+/F– calibration-delay interceptor.
    CalibrationDelay {
        /// The attacked node's address.
        victim: Addr,
        /// F+ (slow the victim) or F– (speed it up).
        mode: DelayAttackMode,
        /// Added hold on matched responses.
        added_delay: SimDuration,
        /// TA-side hold classification threshold.
        sleep_threshold: SimDuration,
    },
}

impl AttackSpec {
    /// The paper's parameters (+100 ms added delay, 500 ms threshold).
    pub fn calibration_delay_paper(victim: Addr, mode: DelayAttackMode) -> Self {
        AttackSpec::CalibrationDelay {
            victim,
            mode,
            added_delay: SimDuration::from_millis(100),
            sleep_threshold: SimDuration::from_millis(500),
        }
    }

    /// Encodes as a reproducer-file line, round-tripped exactly by
    /// [`AttackSpec::decode`].
    pub fn encode(&self) -> String {
        match self {
            AttackSpec::CalibrationDelay { victim, mode, added_delay, sleep_threshold } => {
                let mode = match mode {
                    DelayAttackMode::FPlus => "f+",
                    DelayAttackMode::FMinus => "f-",
                };
                format!(
                    "calibration-delay victim={} mode={mode} delay={} threshold={}",
                    victim.0,
                    added_delay.as_nanos(),
                    sleep_threshold.as_nanos(),
                )
            }
        }
    }

    /// Decodes one attack line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn decode(s: &str) -> Result<AttackSpec, String> {
        let (keyword, mut f) = Fields::after_keyword(s)?;
        if keyword != "calibration-delay" {
            return Err(format!("unknown attack {keyword:?}"));
        }
        let attack = AttackSpec::CalibrationDelay {
            victim: f.addr("victim")?,
            mode: match f.raw("mode")? {
                "f+" => DelayAttackMode::FPlus,
                "f-" => DelayAttackMode::FMinus,
                v => return Err(format!("unknown mode {v:?} (expected f+ or f-)")),
            },
            added_delay: f.duration("delay")?,
            sleep_threshold: f.duration("threshold")?,
        };
        f.finish()?;
        Ok(attack)
    }

    /// Bounds-checks against an `n_nodes` cluster: the victim must be a
    /// node address (`1..=n_nodes`).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated bound.
    pub fn validate(&self, n_nodes: usize) -> Result<(), String> {
        match self {
            AttackSpec::CalibrationDelay { victim, .. } => {
                if victim.0 == 0 || victim.0 as usize > n_nodes {
                    return Err(format!("victim {} outside 1..={n_nodes}", victim.0));
                }
                Ok(())
            }
        }
    }
}

/// Which protocol implementation the nodes run.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum NodeImplSpec {
    /// The base [`triad_core::TriadNode`] (configured via
    /// [`ScenarioSpec::config`]).
    #[default]
    Triad,
    /// The §V hardened [`resilient::ResilientNode`].
    Resilient(Box<ResilientConfig>),
}

/// A cloneable description of the fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Replay this exact plan.
    Fixed(FaultPlan),
    /// Generate a randomized plan from the *cell seed* at build time, so
    /// every cell of a multi-seed grid draws different faults.
    Randomized(RandomFaultConfig),
}

/// One client workload attached to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSpec {
    /// Node index the client queries.
    pub target: usize,
    /// Query period.
    pub period: SimDuration,
    /// `true` for the graceful-degradation reading API, `false` for plain
    /// timestamp requests.
    pub reading: bool,
}

/// A declarative, cloneable description of one simulation scenario.
///
/// Seeds are deliberately *not* part of the spec: the same spec is
/// instantiated once per [`crate::RunCell`] with that cell's derived
/// seed, which is what makes multi-seed grids and parallel replication
/// possible.
///
/// # Examples
///
/// ```
/// use scenario::{AexSpec, ScenarioSpec};
/// use sim::SimTime;
///
/// let spec = ScenarioSpec::new(3)
///     .horizon(SimTime::from_secs(30))
///     .all_nodes_aex(AexSpec::TriadLike);
/// let world = spec.run(42);
/// assert!(world.recorder.node(0).latest_calibrated_hz().is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Cluster size.
    pub n: usize,
    /// How long to drive the simulation.
    pub horizon: SimTime,
    /// Drift-sampling cadence.
    pub sample_interval: SimDuration,
    /// Network delay model.
    pub delay: DelayModel,
    /// I.i.d. datagram loss probability.
    pub loss: f64,
    /// Per-node core-local AEX environments (index = node index).
    pub node_aex: Vec<AexSpec>,
    /// Machine-wide correlated AEX environment.
    pub machine_aex: AexSpec,
    /// Protocol implementation.
    pub node_impl: NodeImplSpec,
    /// Base Triad configuration (also the transport config under
    /// [`NodeImplSpec::Resilient`], via its own `base`).
    pub config: TriadConfig,
    /// On-path attacker, if any.
    pub attack: Option<AttackSpec>,
    /// Scheduled adversary actions (faults and TSC manipulations), if any.
    pub faults: Option<FaultSpec>,
    /// Client workloads.
    pub clients: Vec<ClientSpec>,
    /// Trusted-timestamp serving layer (front-ends + load generators),
    /// if any.
    pub service: Option<ServiceSpec>,
}

impl ScenarioSpec {
    /// A quiet `n`-node cluster: LAN delays, no loss, no AEXs, no
    /// attacker, 250 ms sampling, 60 s horizon.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a cluster needs at least one node");
        ScenarioSpec {
            n,
            horizon: SimTime::from_secs(60),
            sample_interval: SimDuration::from_millis(250),
            delay: DelayModel::lan_default(),
            loss: 0.0,
            node_aex: vec![AexSpec::None; n],
            machine_aex: AexSpec::None,
            node_impl: NodeImplSpec::Triad,
            config: TriadConfig::default(),
            attack: None,
            faults: None,
            clients: Vec::new(),
            service: None,
        }
    }

    /// Sets the run horizon.
    #[must_use]
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the drift-sampling cadence.
    #[must_use]
    pub fn sample_interval(mut self, interval: SimDuration) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Sets the network delay model.
    #[must_use]
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the i.i.d. datagram loss probability.
    #[must_use]
    // tt-lint: allow(test-only-pub) — `tests/end_to_end.rs` and `core/tests/protocol_variants.rs` build lossy clusters with it
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets node index `i`'s core-local AEX environment.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn node_aex(mut self, i: usize, aex: AexSpec) -> Self {
        self.node_aex[i] = aex;
        self
    }

    /// Sets the same core-local AEX environment on every node.
    #[must_use]
    pub fn all_nodes_aex(mut self, aex: AexSpec) -> Self {
        self.node_aex = vec![aex; self.n];
        self
    }

    /// Sets the machine-wide correlated AEX environment.
    #[must_use]
    pub fn machine_aex(mut self, aex: AexSpec) -> Self {
        self.machine_aex = aex;
        self
    }

    /// Overrides the Triad node configuration.
    #[must_use]
    pub fn config(mut self, config: TriadConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the protocol implementation.
    #[must_use]
    pub fn node_impl(mut self, node_impl: NodeImplSpec) -> Self {
        self.node_impl = node_impl;
        self
    }

    /// Installs an on-path attacker.
    #[must_use]
    pub fn attack(mut self, attack: AttackSpec) -> Self {
        self.attack = Some(attack);
        self
    }

    /// Installs the adversary schedule: network faults, TA outages,
    /// crashes, AEX storms, lies and TSC manipulations alike.
    #[must_use]
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a timestamp-request client against node index `target`.
    #[must_use]
    pub fn client(mut self, target: usize, period: SimDuration) -> Self {
        self.clients.push(ClientSpec { target, period, reading: false });
        self
    }

    /// Attaches a graceful-degradation reading client against node index
    /// `target`.
    #[must_use]
    pub fn reading_client(mut self, target: usize, period: SimDuration) -> Self {
        self.clients.push(ClientSpec { target, period, reading: true });
        self
    }

    /// Installs a trusted-timestamp serving layer (one front-end per
    /// node plus the spec's load generators).
    ///
    /// # Panics
    ///
    /// Panics when a quorum loop's panel does not fit the cluster: a
    /// `2f + 1` panel needs at least `2f + 1` nodes, or the spec promises
    /// a liar tolerance the cluster cannot deliver.
    #[must_use]
    pub fn service(mut self, service: ServiceSpec) -> Self {
        for q in &service.quorum_loop {
            assert!(
                q.quorum.panel_size() <= self.n,
                "quorum f={} needs a {}-node panel but the cluster has {} node(s)",
                q.quorum.f,
                q.quorum.panel_size(),
                self.n,
            );
        }
        self.service = Some(service);
        self
    }

    /// Instantiates the spec into a runnable simulation with `seed`.
    ///
    /// Anything the spec cannot describe (another interceptor, an extra
    /// actor) is added to the returned simulation before its first run
    /// step, as [`service::install`] does.
    pub fn build(&self, seed: u64) -> Simulation<World, SysEvent> {
        let mut net = Network::new(self.delay, self.loss);
        if let Some(attack) = &self.attack {
            let AttackSpec::CalibrationDelay { victim, mode, added_delay, sleep_threshold } =
                attack;
            net.add_interceptor(Box::new(CalibrationDelayAttack::new(
                *victim,
                TA_ADDR,
                *mode,
                *added_delay,
                *sleep_threshold,
            )));
        }
        let nodes = (0..self.n)
            .map(|i| -> Box<dyn Actor<World, SysEvent>> {
                let me = node_addr(i);
                let peers = (0..self.n).filter(|&j| j != i).map(node_addr).collect();
                match &self.node_impl {
                    NodeImplSpec::Triad => {
                        Box::new(MachineActor::new(TriadNode::new(me, peers, self.config.clone())))
                    }
                    NodeImplSpec::Resilient(cfg) => {
                        Box::new(MachineActor::new(ResilientNode::new(me, peers, (**cfg).clone())))
                    }
                }
            })
            .collect();
        let faults = self.faults.as_ref().map(|faults| match faults {
            FaultSpec::Fixed(plan) => plan.clone(),
            FaultSpec::Randomized(cfg) => FaultPlan::randomized(cfg, self.n, seed),
        });
        let clients = self
            .clients
            .iter()
            .map(|c| {
                let mode = if c.reading { ClientMode::Reading } else { ClientMode::Timestamp };
                (c.target, c.period, mode)
            })
            .collect();
        let mut simulation = Cluster {
            net,
            nodes,
            node_aex: self.node_aex.clone(),
            machine_aex: self.machine_aex.clone(),
            sample_interval: self.sample_interval,
            clients,
            faults,
        }
        .assemble(seed);
        if let Some(svc) = &self.service {
            service::install(&mut simulation, svc);
        }
        simulation
    }

    /// Builds, runs to the horizon, and returns the measured world.
    pub fn run(&self, seed: u64) -> World {
        let mut s = self.build(seed);
        s.run_until(self.horizon);
        s.into_world()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultAction;

    #[test]
    fn spec_is_reusable_and_seed_deterministic() {
        let spec =
            ScenarioSpec::new(2).horizon(SimTime::from_secs(20)).all_nodes_aex(AexSpec::TriadLike);
        let summarize = |w: &World| {
            (0..2).map(|i| w.recorder.node(i).calibrations_hz.clone()).collect::<Vec<_>>()
        };
        let a = spec.run(7);
        let b = spec.run(7);
        let c = spec.run(8);
        assert_eq!(summarize(&a), summarize(&b));
        assert_ne!(summarize(&a), summarize(&c));
        assert!(a.recorder.node(0).latest_calibrated_hz().is_some());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ScenarioSpec::new(0);
    }

    #[test]
    fn client_workload_measures_availability() {
        let mut s = ScenarioSpec::new(3)
            .all_nodes_aex(AexSpec::TriadLike)
            .client(0, SimDuration::from_millis(20))
            .client(2, SimDuration::from_millis(20))
            .build(9);
        s.run_until(SimTime::from_secs(60));
        let w = s.world();
        for target in [0usize, 2] {
            let t = w.recorder.node(target);
            let served = t.client_served.count();
            let denied = t.client_denied.count();
            assert!(served > 1_000, "node {target} served {served}");
            // Denials happen (initial calibration at minimum).
            assert!(denied > 0, "node {target} denied {denied}");
            // Steady state (past the initial calibration): ≥ 95% of client
            // requests answered with a timestamp.
            let steady = SimTime::from_secs(30);
            let served_late = served - t.client_served.count_at(steady);
            let denied_late = denied - t.client_denied.count_at(steady);
            let ratio = served_late as f64 / (served_late + denied_late) as f64;
            assert!(ratio > 0.95, "client-observed availability {ratio}");
        }
        // The untargeted node saw no client traffic.
        assert_eq!(w.recorder.node(1).client_served.count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn client_target_validated() {
        let _ = ScenarioSpec::new(2).client(5, SimDuration::from_millis(10)).build(1);
    }

    #[test]
    fn crash_recovery_recalibrates_and_serves_monotonic_time() {
        let plan =
            FaultPlan::new().crash_window(0, SimTime::from_secs(20), SimDuration::from_secs(5));
        let mut s = ScenarioSpec::new(2)
            .client(0, SimDuration::from_millis(20))
            .reading_client(0, SimDuration::from_millis(20))
            .faults(FaultSpec::Fixed(plan))
            .build(11);
        // ClientWorkload panics on any monotonicity violation, so a clean
        // run is itself the assertion that the serving floor survived the
        // crash.
        s.run_until(SimTime::from_secs(60));
        let w = s.world();
        let t = w.recorder.node(0);
        assert_eq!(t.crashes.count(), 1);
        // One calibration before the crash, one forced re-FullCalib after.
        assert!(t.calibrations_hz.len() >= 2, "calibrations: {}", t.calibrations_hz.len());
        assert_eq!(w.recorder.faults.len(), 2);
        assert!(w.recorder.faults.events()[0].1.starts_with("crash"));
        // The node went down and came back: clients saw denials during the
        // window but service afterwards.
        assert!(t.client_denied.count() > 0);
        assert!(t.client_served.count() > t.client_served.count_at(SimTime::from_secs(30)));
    }

    #[test]
    fn hardened_cluster_rides_out_ta_outage() {
        // Node 0 restarts in the middle of a 60 s TA blackout: its forced
        // full calibration meets a dead TA, so it must retry with backoff
        // (opening the circuit breaker) until the TA returns.
        let plan = FaultPlan::new()
            .ta_outage(SimTime::from_secs(15), SimDuration::from_secs(60))
            .crash_window(0, SimTime::from_secs(18), SimDuration::from_secs(4));
        let mut s = ScenarioSpec::new(2)
            .config(TriadConfig::hardened())
            .all_nodes_aex(AexSpec::TriadLike)
            .faults(FaultSpec::Fixed(plan))
            .build(13);
        s.run_until(SimTime::from_secs(150));
        let w = s.world();
        let t = w.recorder.node(0);
        assert!(t.probe_retries.count() > 0, "expected retry pressure during the TA outage");
        assert!(t.breaker_opens.count() > 0, "expected the TA circuit breaker to open");
        // Recovery: the node re-calibrated once the TA came back, and the
        // quiet peer never lost its calibration.
        assert!(t.calibrations_hz.len() >= 2, "calibrations: {}", t.calibrations_hz.len());
        assert!(w.recorder.node(1).latest_calibrated_hz().is_some());
    }

    #[test]
    fn chaos_runs_are_bit_reproducible() {
        let run = |seed| {
            let cfg = RandomFaultConfig {
                window: (SimTime::from_secs(20), SimTime::from_secs(80)),
                ..Default::default()
            };
            let plan = FaultPlan::randomized(&cfg, 3, seed);
            let mut s = ScenarioSpec::new(3)
                .all_nodes_aex(AexSpec::TriadLike)
                .reading_client(1, SimDuration::from_millis(50))
                .faults(FaultSpec::Fixed(plan))
                .build(seed);
            s.run_until(SimTime::from_secs(120));
            let w = s.world();
            (
                w.recorder.faults.events().to_vec(),
                (0..3).map(|i| w.recorder.node(i).calibrations_hz.clone()).collect::<Vec<_>>(),
                w.recorder.node(1).client_served.count(),
                w.net.total_stats(),
            )
        };
        let a = run(77);
        let b = run(77);
        assert_eq!(a, b);
        assert!(!a.0.is_empty(), "randomized plan applied no faults");
    }

    #[test]
    fn attack_spec_codec_round_trips() {
        for spec in [
            AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FMinus),
            AttackSpec::CalibrationDelay {
                victim: Addr(1),
                mode: DelayAttackMode::FPlus,
                added_delay: SimDuration::from_nanos(17),
                sleep_threshold: SimDuration::from_millis(499),
            },
        ] {
            assert_eq!(AttackSpec::decode(&spec.encode()), Ok(spec.clone()));
            assert!(spec.validate(3).is_ok());
        }
        assert!(AttackSpec::decode("calibration-delay victim=1 mode=f*").is_err());
        assert!(AttackSpec::decode("replay-storm victim=1").is_err());
        assert!(AttackSpec::decode("calibration-delay victim=1 mode=f+ delay=5").is_err());
        let good = "calibration-delay victim=1 mode=f+ delay=5 threshold=9";
        assert!(AttackSpec::decode(good).is_ok());
        assert!(AttackSpec::decode(&format!("{good} bogus=2")).is_err(), "unknown key");
        assert!(AttackSpec::decode(&format!("{good} delay=5")).is_err(), "repeated key");
        let oob = AttackSpec::calibration_delay_paper(Addr(4), DelayAttackMode::FPlus);
        assert!(oob.validate(3).is_err());
        assert!(AttackSpec::calibration_delay_paper(Addr(0), DelayAttackMode::FPlus)
            .validate(3)
            .is_err());
    }

    #[test]
    fn switch_at_spec_builds() {
        let spec = ScenarioSpec::new(2).horizon(SimTime::from_secs(10)).node_aex(
            0,
            AexSpec::SwitchAt {
                at: SimTime::from_secs(5),
                before: Box::new(AexSpec::IsolatedCore),
                after: Box::new(AexSpec::TriadLike),
            },
        );
        let w = spec.run(3);
        assert_eq!(w.node_count(), 2);
    }

    #[test]
    #[should_panic(expected = "SwitchAt.before must be a real AEX model")]
    fn switch_at_rejects_none_arm() {
        let _ = ScenarioSpec::new(1)
            .node_aex(
                0,
                AexSpec::SwitchAt {
                    at: SimTime::from_secs(5),
                    before: Box::new(AexSpec::None),
                    after: Box::new(AexSpec::TriadLike),
                },
            )
            .build(3);
    }

    #[test]
    fn randomized_faults_draw_from_the_cell_seed() {
        let spec = ScenarioSpec::new(3)
            .horizon(SimTime::from_secs(60))
            .all_nodes_aex(AexSpec::TriadLike)
            .faults(FaultSpec::Randomized(RandomFaultConfig {
                window: (SimTime::from_secs(10), SimTime::from_secs(50)),
                ..Default::default()
            }));
        let a = spec.run(41);
        let b = spec.run(41);
        let c = spec.run(42);
        assert_eq!(a.recorder.faults, b.recorder.faults);
        assert!(!a.recorder.faults.is_empty());
        assert_ne!(a.recorder.faults, c.recorder.faults);
    }

    #[test]
    fn service_layer_installs_and_serves_through_the_spec() {
        let spec =
            ScenarioSpec::new(2).horizon(SimTime::from_secs(10)).service(ServiceSpec::default());
        let a = spec.run(5);
        let b = spec.run(5);
        assert!(a.recorder.service.offered.count() > 0);
        assert_eq!(a.recorder.service, b.recorder.service);
    }

    #[test]
    #[should_panic(expected = "needs a 3-node panel but the cluster has 2 node(s)")]
    fn quorum_panel_larger_than_the_cluster_is_rejected() {
        let svc = ServiceSpec::new().quorum_loop(service::QuorumLoopSpec::default());
        let _ = ScenarioSpec::new(2).service(svc);
    }

    #[test]
    fn quorum_service_with_a_lying_node_assembles_and_detects() {
        let cluster = ScenarioSpec::new(3)
            .horizon(SimTime::from_secs(30))
            .node_impl(NodeImplSpec::Resilient(Box::default()));
        let lie = FaultSpec::Fixed(FaultPlan::new().lie_window(
            0,
            250_000_000,
            false,
            SimTime::from_secs(18),
            SimDuration::from_secs(10),
        ));
        let svc = ServiceSpec::new().quorum_loop(service::QuorumLoopSpec::default());
        let w = cluster.clone().service(svc).faults(lie.clone()).run(13);
        let s = &w.recorder.service;
        assert!(s.quorum_accepted.count() > 0, "quorum reads must keep accepting");
        assert!(w.recorder.node(0).byzantine_suspected.count() > 0, "the liar must be flagged");
        assert_eq!(w.recorder.node(1).byzantine_suspected.count(), 0);
        assert_eq!(w.recorder.node(2).byzantine_suspected.count(), 0);

        // Without a serving layer no one hears the lie: both actions are
        // logged, and the run is otherwise the fault-free one.
        let mut lied = cluster.clone().faults(lie).run(13);
        let honest = cluster.run(13);
        let labels: Vec<_> = lied.recorder.faults.events().iter().map(|(_, l)| l.clone()).collect();
        assert_eq!(
            labels,
            [
                FaultAction::StartLie { node: 0, offset_ns: 250_000_000, equivocate: false }
                    .label(),
                FaultAction::StopLie { node: 0 }.label(),
            ]
        );
        assert!(honest.recorder.faults.is_empty());
        lied.recorder.faults = honest.recorder.faults.clone();
        assert_eq!(lied.recorder, honest.recorder);
        assert_eq!(lied.clocks, honest.clocks);
    }

    #[test]
    fn resilient_impl_and_attack_assemble() {
        let spec = ScenarioSpec::new(3)
            .horizon(SimTime::from_secs(30))
            .all_nodes_aex(AexSpec::TriadLike)
            .node_impl(NodeImplSpec::Resilient(Box::default()))
            .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FMinus))
            .client(0, SimDuration::from_millis(50));
        let w = spec.run(11);
        assert!(w.recorder.node(0).client_served.count() > 0);
    }
}
