//! # harness — scenario assembly for Triad experiments
//!
//! Every experiment in the paper is "a cluster of Triad nodes + a Time
//! Authority + an AEX environment + (optionally) an attacker, run for a
//! while, measurements collected". [`ClusterBuilder`] assembles exactly
//! that and returns a ready [`sim::Simulation`] whose world carries the
//! [`trace::Recorder`] with all results.
//!
//! The builder is protocol-agnostic: by default it spawns
//! [`triad_core::TriadNode`]s, but a custom [`NodeFactory`] can substitute
//! any actor with the same network contract (the hardened protocol of
//! `resilient` uses this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use authority::TimeAuthority;
use faults::FaultDriver;
/// The adversary schedule [`ClusterBuilder::fault_plan`] takes.
pub use faults::{FaultAction, FaultPlan};
use netsim::{Addr, DelayModel, Interceptor, Network};
use runtime::{
    ClientMode, ClientWorkload, EnvDriver, Host, MachineActor, Sampler, SysEvent, World,
};
use sim::{Actor, SimDuration, Simulation};
use triad_core::{TriadConfig, TriadNode};
use tsc::AexModel;

/// Builds one protocol node given its address and its cluster peers.
pub type NodeFactory = Box<dyn FnMut(Addr, Vec<Addr>) -> Box<dyn Actor<World, SysEvent>>>;

/// Assembles a Triad deployment into a runnable simulation.
///
/// # Examples
///
/// ```
/// use harness::ClusterBuilder;
/// use sim::SimTime;
///
/// let mut simulation = ClusterBuilder::new(3, 42).build();
/// simulation.run_until(SimTime::from_secs(30));
/// let world = simulation.world();
/// assert!(world.recorder.node(0).latest_calibrated_hz().is_some());
/// ```
pub struct ClusterBuilder {
    n: usize,
    seed: u64,
    delay: DelayModel,
    loss: f64,
    per_node_aex: Vec<Option<Box<dyn AexModel>>>,
    machine_aex: Option<Box<dyn AexModel>>,
    config: TriadConfig,
    sample_interval: SimDuration,
    interceptors: Vec<Box<dyn Interceptor>>,
    node_factory: Option<NodeFactory>,
    hosts: Option<Vec<Host>>,
    clients: Vec<(usize, SimDuration, ClientMode)>,
    fault_plan: Option<FaultPlan>,
}

impl ClusterBuilder {
    /// A cluster of `n` nodes (the paper uses 3) with the default quiet
    /// environment: LAN delays, no loss, no AEXs, no attacker.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 1, "a cluster needs at least one node");
        ClusterBuilder {
            n,
            seed,
            delay: DelayModel::lan_default(),
            loss: 0.0,
            per_node_aex: (0..n).map(|_| None).collect(),
            machine_aex: None,
            config: TriadConfig::default(),
            sample_interval: SimDuration::from_millis(250),
            interceptors: Vec::new(),
            node_factory: None,
            hosts: None,
            clients: Vec::new(),
            fault_plan: None,
        }
    }

    /// Sets the default network delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the i.i.d. datagram loss probability.
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the core-local AEX model for node index `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn node_aex(mut self, i: usize, model: Box<dyn AexModel>) -> Self {
        self.per_node_aex[i] = Some(model);
        self
    }

    /// Sets the same core-local AEX model (via `factory`) on every node.
    pub fn all_nodes_aex(mut self, mut factory: impl FnMut() -> Box<dyn AexModel>) -> Self {
        for slot in &mut self.per_node_aex {
            *slot = Some(factory());
        }
        self
    }

    /// Sets the machine-wide (simultaneous, correlated) AEX model.
    pub fn machine_aex(mut self, model: Box<dyn AexModel>) -> Self {
        self.machine_aex = Some(model);
        self
    }

    /// Overrides the Triad node configuration.
    pub fn config(mut self, config: TriadConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the drift-sampling cadence.
    pub fn sample_interval(mut self, interval: SimDuration) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Installs an on-path interceptor (attacker) into the fabric.
    pub fn interceptor(mut self, interceptor: Box<dyn Interceptor>) -> Self {
        self.interceptors.push(interceptor);
        self
    }

    /// Attaches a client application workload querying node index
    /// `target` every `period`; outcomes land in that node's trace
    /// (`client_served` / `client_denied`).
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn client(self, target: usize, period: SimDuration) -> Self {
        self.client_with(target, period, ClientMode::Timestamp)
    }

    /// Like [`ClusterBuilder::client`], but the workload uses the
    /// graceful-degradation reading API (`TimeReadingRequest`), which is
    /// answered — with an explicit uncertainty bound — even while the node
    /// is tainted or recalibrating.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn reading_client(self, target: usize, period: SimDuration) -> Self {
        self.client_with(target, period, ClientMode::Reading)
    }

    /// Attaches a client workload with an explicit [`ClientMode`].
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn client_with(mut self, target: usize, period: SimDuration, mode: ClientMode) -> Self {
        assert!(target < self.n, "client target {target} out of range");
        self.clients.push((target, period, mode));
        self
    }

    /// Installs the adversary schedule — faults and TSC manipulations —
    /// replayed by a [`faults::FaultDriver`] riding the event loop. Every
    /// applied action is logged into `world.recorder.faults`.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Substitutes the node implementation (hardened protocol, baselines).
    pub fn node_factory(mut self, factory: NodeFactory) -> Self {
        self.node_factory = Some(factory);
        self
    }

    /// Overrides the per-node host platforms.
    ///
    /// # Panics
    ///
    /// Panics if the count differs from the cluster size.
    pub fn hosts(mut self, hosts: Vec<Host>) -> Self {
        assert_eq!(hosts.len(), self.n, "one host per node");
        self.hosts = Some(hosts);
        self
    }

    /// Assembles the simulation. Drive it with
    /// [`sim::Simulation::run_until`]; the environment driver reschedules
    /// forever, so an unbounded `run()` would not terminate.
    pub fn build(self) -> Simulation<World, SysEvent> {
        let ClusterBuilder {
            n,
            seed,
            delay,
            loss,
            per_node_aex,
            machine_aex,
            config,
            sample_interval,
            interceptors,
            mut node_factory,
            hosts,
            clients,
            fault_plan,
        } = self;

        let mut net = Network::new(delay, loss);
        for ic in interceptors {
            net.add_interceptor(ic);
        }
        let hosts = hosts.unwrap_or_else(|| (0..n).map(|_| Host::paper_default()).collect());
        let mut world = World::new(net, hosts);
        world.provision_all_keys(seed);

        let mut simulation = Simulation::new(world, seed);
        let ta = simulation.add_actor(Box::new(MachineActor::new(TimeAuthority::new())));
        let mut node_ids = Vec::with_capacity(n);
        for i in 0..n {
            let me = World::node_addr(i);
            let peers: Vec<Addr> = (0..n).filter(|&j| j != i).map(World::node_addr).collect();
            let actor: Box<dyn Actor<World, SysEvent>> = match node_factory.as_mut() {
                Some(f) => f(me, peers),
                None => Box::new(MachineActor::new(TriadNode::new(me, peers, config.clone()))),
            };
            node_ids.push(simulation.add_actor(actor));
        }
        simulation.add_actor(Box::new(EnvDriver::new(node_ids.clone(), per_node_aex, machine_aex)));
        simulation.add_actor(Box::new(Sampler { interval: sample_interval }));
        let mut client_regs = Vec::new();
        for (i, &(target, period, mode)) in clients.iter().enumerate() {
            let client_addr = Addr(1000 + u16::try_from(i).expect("client count fits u16"));
            let target_addr = World::node_addr(target);
            let key = {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x636c_6e74 ^ i as u64);
                let mut key = [0u8; 32];
                rng.fill(&mut key);
                key
            };
            simulation.world_mut().keys.provision_pair(client_addr, target_addr, key);
            let workload = ClientWorkload::with_mode(client_addr, target_addr, period, mode);
            let id = simulation.add_actor(Box::new(MachineActor::new(workload)));
            client_regs.push((client_addr, id));
        }
        if let Some(plan) = fault_plan {
            simulation.add_actor(Box::new(FaultDriver::new(plan)));
        }

        simulation.world_mut().register_actor(World::TA_ADDR, ta);
        for (i, &id) in node_ids.iter().enumerate() {
            simulation.world_mut().register_actor(World::node_addr(i), id);
        }
        for (addr, id) in client_regs {
            simulation.world_mut().register_actor(addr, id);
        }
        simulation
    }
}

impl std::fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("n", &self.n)
            .field("seed", &self.seed)
            .field("interceptors", &self.interceptors.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimTime;
    use tsc::TriadLike;

    #[test]
    fn default_build_runs_and_calibrates() {
        let mut s = ClusterBuilder::new(2, 1).build();
        s.run_until(SimTime::from_secs(20));
        for i in 0..2 {
            assert!(s.world().recorder.node(i).latest_calibrated_hz().is_some());
        }
    }

    #[test]
    fn same_seed_same_results() {
        let run = |seed| {
            let mut s = ClusterBuilder::new(3, seed)
                .all_nodes_aex(|| Box::new(TriadLike::default()))
                .build();
            s.run_until(SimTime::from_secs(30));
            (0..3).map(|i| s.world().recorder.node(i).latest_calibrated_hz()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn custom_factory_is_used() {
        struct Dud;
        impl Actor<World, SysEvent> for Dud {
            fn on_event(&mut self, _: &mut sim::Ctx<'_, World, SysEvent>, _: SysEvent) {}
        }
        let mut s = ClusterBuilder::new(2, 1).node_factory(Box::new(|_, _| Box::new(Dud))).build();
        s.run_until(SimTime::from_secs(5));
        // Dud nodes never calibrate.
        assert!(s.world().recorder.node(0).latest_calibrated_hz().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterBuilder::new(0, 1);
    }

    #[test]
    fn client_workload_measures_availability() {
        let mut s = ClusterBuilder::new(3, 9)
            .all_nodes_aex(|| Box::new(TriadLike::default()))
            .client(0, SimDuration::from_millis(20))
            .client(2, SimDuration::from_millis(20))
            .build();
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
        let _ = ClusterBuilder::new(2, 1).client(5, SimDuration::from_millis(10));
    }

    #[test]
    fn crash_recovery_recalibrates_and_serves_monotonic_time() {
        use sim::SimTime;
        let plan =
            FaultPlan::new().crash_window(0, SimTime::from_secs(20), SimDuration::from_secs(5));
        let mut s = ClusterBuilder::new(2, 11)
            .client(0, SimDuration::from_millis(20))
            .reading_client(0, SimDuration::from_millis(20))
            .fault_plan(plan)
            .build();
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
        use sim::SimTime;
        use triad_core::TriadConfig;
        // Node 0 restarts in the middle of a 60 s TA blackout: its forced
        // full calibration meets a dead TA, so it must retry with backoff
        // (opening the circuit breaker) until the TA returns.
        let plan = FaultPlan::new()
            .ta_outage(SimTime::from_secs(15), SimDuration::from_secs(60))
            .crash_window(0, SimTime::from_secs(18), SimDuration::from_secs(4));
        let mut s = ClusterBuilder::new(2, 13)
            .config(TriadConfig::hardened())
            .all_nodes_aex(|| Box::new(TriadLike::default()))
            .fault_plan(plan)
            .build();
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
        use faults::RandomFaultConfig;
        use sim::SimTime;
        let run = |seed| {
            let cfg = RandomFaultConfig {
                window: (SimTime::from_secs(20), SimTime::from_secs(80)),
                ..Default::default()
            };
            let plan = FaultPlan::randomized(&cfg, 3, seed);
            let mut s = ClusterBuilder::new(3, seed)
                .all_nodes_aex(|| Box::new(TriadLike::default()))
                .reading_client(1, SimDuration::from_millis(50))
                .fault_plan(plan)
                .build();
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
}
