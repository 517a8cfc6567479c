//! # harness — cluster assembly behind `scenario::ScenarioSpec::build`
//!
//! Every experiment in the paper is "a cluster of Triad nodes + a Time
//! Authority + an AEX environment + (optionally) an attacker, run for a
//! while, measurements collected". `scenario::ScenarioSpec` describes
//! that as data and instantiates its parts; [`Cluster::assemble`] wires
//! the instantiated parts into one ready [`sim::Simulation`] whose world
//! carries the [`trace::Recorder`] with all results. It fixes the actor
//! order — TA, nodes, environment driver, sampler, clients, fault
//! driver — that every seeded run depends on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use authority::TimeAuthority;
use faults::{FaultDriver, FaultPlan};
use netsim::Network;
use runtime::{
    client_addr, node_addr, ClientMode, ClientWorkload, EnvDriver, Host, MachineActor, Sampler,
    SysEvent, World, TA_ADDR,
};
use sim::{Actor, SimDuration, Simulation};
use tsc::AexModel;

/// The instantiated parts of one cluster, ready to be assembled.
pub struct Cluster {
    /// The fabric, with any on-path attacker already installed.
    pub net: Network,
    /// One protocol node actor per node index, at `proto::node_addr(i)`.
    pub nodes: Vec<Box<dyn Actor<World, SysEvent>>>,
    /// Core-local AEX model per node index (`None` = no AEXs).
    pub node_aex: Vec<Option<Box<dyn AexModel>>>,
    /// Machine-wide correlated AEX model.
    pub machine_aex: Option<Box<dyn AexModel>>,
    /// Drift-sampling cadence.
    pub sample_interval: SimDuration,
    /// Client workloads: target node index, query period, request mode.
    /// Client `i` lives at [`runtime::client_addr`]`(i)`.
    pub clients: Vec<(usize, SimDuration, ClientMode)>,
    /// The adversary schedule, replayed by a [`faults::FaultDriver`].
    pub faults: Option<FaultPlan>,
}

impl Cluster {
    /// Assembles the simulation with `seed`. Drive it with
    /// [`sim::Simulation::run_until`]; the environment driver reschedules
    /// forever, so an unbounded `run()` would not terminate.
    ///
    /// # Panics
    ///
    /// Panics if a client targets a node index past the cluster.
    pub fn assemble(self, seed: u64) -> Simulation<World, SysEvent> {
        let Cluster { net, nodes, node_aex, machine_aex, sample_interval, clients, faults } = self;
        let n = nodes.len();
        for &(target, _, _) in &clients {
            assert!(target < n, "client target {target} out of range");
        }

        let mut world = World::new(net, (0..n).map(|_| Host::paper_default()).collect());
        world.provision_all_keys(seed);

        let mut simulation = Simulation::new(world, seed);
        let ta = simulation.add_actor(Box::new(MachineActor::new(TimeAuthority::new())));
        let node_ids: Vec<_> = nodes.into_iter().map(|node| simulation.add_actor(node)).collect();
        simulation.add_actor(Box::new(EnvDriver::new(node_ids.clone(), node_aex, machine_aex)));
        simulation.add_actor(Box::new(Sampler { interval: sample_interval }));
        let mut client_regs = Vec::new();
        for (i, (target, period, mode)) in clients.into_iter().enumerate() {
            let client_addr = client_addr(i);
            let target_addr = node_addr(target);
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
        if let Some(plan) = faults {
            simulation.add_actor(Box::new(FaultDriver::new(plan)));
        }

        simulation.world_mut().register_actor(TA_ADDR, ta);
        for (i, &id) in node_ids.iter().enumerate() {
            simulation.world_mut().register_actor(node_addr(i), id);
        }
        for (addr, id) in client_regs {
            simulation.world_mut().register_actor(addr, id);
        }
        simulation
    }
}
