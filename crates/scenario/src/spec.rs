//! The declarative scenario description: everything
//! [`harness::ClusterBuilder`] assembles, as cloneable data.

use attacks::{CalibrationDelayAttack, DelayAttackMode};
use faults::{FaultPlan, Fields, RandomFaultConfig};
use harness::ClusterBuilder;
use netsim::{Addr, DelayModel};
use resilient::{ResilientConfig, ResilientNode};
use runtime::{ClientMode, SysEvent, World};
use service::ServiceSpec;
use sim::{SimDuration, SimTime, Simulation};
use triad_core::TriadConfig;
use tsc::{AexModel, Exponential, IsolatedCore, Periodic, SwitchAt, TriadLike};

/// A cloneable description of an AEX environment (the data behind the
/// boxed [`tsc::AexModel`] trait objects the builder wants).
#[derive(Debug, Clone, PartialEq)]
pub enum AexSpec {
    /// No AEX source.
    None,
    /// The paper's Triad-like busy-core distribution.
    TriadLike,
    /// The paper's isolated-core (sparse) distribution.
    IsolatedCore,
    /// Memoryless arrivals with the given mean inter-AEX delay.
    Exponential {
        /// Mean inter-AEX delay.
        mean: SimDuration,
    },
    /// Deterministic fixed-period arrivals.
    Periodic {
        /// The constant inter-AEX delay.
        period: SimDuration,
    },
    /// Regime change at a reference instant (Fig. 6's honest nodes).
    SwitchAt {
        /// Instant of the regime change.
        at: SimTime,
        /// Environment while `now < at`. Must not be [`AexSpec::None`].
        before: Box<AexSpec>,
        /// Environment once `now >= at`. Must not be [`AexSpec::None`].
        after: Box<AexSpec>,
    },
}

impl AexSpec {
    /// Instantiates the model, or `None` for [`AexSpec::None`].
    ///
    /// # Panics
    ///
    /// Panics when a [`AexSpec::SwitchAt`] arm is [`AexSpec::None`] (the
    /// underlying [`SwitchAt`] model always needs both regimes).
    pub fn model(&self) -> Option<Box<dyn AexModel>> {
        match self {
            AexSpec::None => None,
            AexSpec::TriadLike => Some(Box::new(TriadLike::default())),
            AexSpec::IsolatedCore => Some(Box::new(IsolatedCore::default())),
            AexSpec::Exponential { mean } => Some(Box::new(Exponential { mean: *mean })),
            AexSpec::Periodic { period } => Some(Box::new(Periodic { period: *period })),
            AexSpec::SwitchAt { at, before, after } => Some(Box::new(SwitchAt {
                at: *at,
                before: before.model().expect("SwitchAt.before must be a real AEX model"),
                after: after.model().expect("SwitchAt.after must be a real AEX model"),
            })),
        }
    }
}

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
    pub fn build(&self, seed: u64) -> Simulation<World, SysEvent> {
        let mut builder = ClusterBuilder::new(self.n, seed)
            .delay(self.delay)
            .loss(self.loss)
            .sample_interval(self.sample_interval)
            .config(self.config.clone());
        for (i, aex) in self.node_aex.iter().enumerate() {
            if let Some(model) = aex.model() {
                builder = builder.node_aex(i, model);
            }
        }
        if let Some(model) = self.machine_aex.model() {
            builder = builder.machine_aex(model);
        }
        if let NodeImplSpec::Resilient(cfg) = &self.node_impl {
            let cfg = (**cfg).clone();
            builder = builder.node_factory(Box::new(move |me, peers| {
                Box::new(runtime::MachineActor::new(ResilientNode::new(me, peers, cfg.clone())))
            }));
        }
        if let Some(attack) = &self.attack {
            match attack {
                AttackSpec::CalibrationDelay { victim, mode, added_delay, sleep_threshold } => {
                    builder = builder.interceptor(Box::new(CalibrationDelayAttack::new(
                        *victim,
                        World::TA_ADDR,
                        *mode,
                        *added_delay,
                        *sleep_threshold,
                    )));
                }
            }
        }
        if let Some(faults) = &self.faults {
            let plan = match faults {
                FaultSpec::Fixed(plan) => plan.clone(),
                FaultSpec::Randomized(cfg) => FaultPlan::randomized(cfg, self.n, seed),
            };
            builder = builder.fault_plan(plan);
        }
        for c in &self.clients {
            let mode = if c.reading { ClientMode::Reading } else { ClientMode::Timestamp };
            builder = builder.client_with(c.target, c.period, mode);
        }
        let mut simulation = builder.build();
        if let Some(svc) = &self.service {
            service::install(&mut simulation, svc, seed);
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
        let _ = AexSpec::SwitchAt {
            at: SimTime::from_secs(5),
            before: Box::new(AexSpec::None),
            after: Box::new(AexSpec::TriadLike),
        }
        .model();
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
        let svc = ServiceSpec::new().quorum_loop(service::QuorumLoopSpec::default());
        let spec = ScenarioSpec::new(3)
            .horizon(SimTime::from_secs(30))
            .node_impl(NodeImplSpec::Resilient(Box::default()))
            .service(svc)
            .faults(FaultSpec::Fixed(FaultPlan::new().lie_window(
                0,
                250_000_000,
                false,
                SimTime::from_secs(18),
                SimDuration::from_secs(10),
            )));
        let w = spec.run(13);
        let s = &w.recorder.service;
        assert!(s.quorum_accepted.count() > 0, "quorum reads must keep accepting");
        assert!(w.recorder.node(0).byzantine_suspected.count() > 0, "the liar must be flagged");
        assert_eq!(w.recorder.node(1).byzantine_suspected.count(), 0);
        assert_eq!(w.recorder.node(2).byzantine_suspected.count(), 0);
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
