//! # service — the trusted-timestamp serving layer
//!
//! The protocol crates keep a node's clock trustworthy; this crate makes
//! the cluster a *service* and measures it like one:
//!
//! - [`OpenLoopGen`] / [`ClosedLoopGen`]: seeded load generators — an
//!   aggregated open-loop arrival process standing in for a large client
//!   population (exponential gaps at a constant rate), and a closed-loop
//!   think-time population that self-throttles;
//! - [`Frontend`]: the per-node serving front-end — bounded admission
//!   queue, request batching (one enclave timestamp read amortized over a
//!   whole batch), load shedding with explicit `Overloaded` replies, and
//!   degraded-mode `TimeReading` answers while the node is tainted or
//!   recalibrating;
//! - [`Router`]: client-side failover routing with per-node health
//!   tracking driven by timeouts and overload signals — hard-down
//!   (timed-out) and soft-down (overloaded) nodes are distinguished, and
//!   an all-hard-down cluster fails fast instead of burning retries;
//! - [`QuorumGen`]: quorum-attested reads — each arrival fans an
//!   attestation request to a `2f + 1` panel, accepts on `f + 1`
//!   mutually overlapping uncertainty intervals (Marzullo agreement over
//!   Cristian-projected attestations), flags disjoint outliers as
//!   Byzantine suspects, and quarantines repeat offenders behind a
//!   seeded probation/half-open rejoin policy;
//! - SLO accounting into [`trace::ServiceTrace`]: an end-to-end latency
//!   histogram (p50/p95/p99/p99.9) plus goodput, shed, timeout,
//!   failover, and quorum/suspect/quarantine counters.
//!
//! Everything is declarative data ([`ServiceSpec`]) instantiated by
//! [`install`] onto an already-assembled cluster simulation, and fully
//! deterministic: all randomness flows from the simulation's seeded RNG.
//!
//! Address conventions extend the runtime's: front-end `i` serves from
//! `Addr(2000 + i)` beside node `Addr(i + 1)`; generator `g` sends from
//! `Addr(3000 + g)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frontend;
mod gen;
mod quorum;
mod router;
mod spec;

use netsim::Addr;
use runtime::{MachineActor, SysEvent, World};
use sim::Simulation;

pub use frontend::Frontend;
pub use gen::{ClosedLoopGen, OpenLoopGen};
pub use quorum::{
    decide, AttestSample, QuorumDecision, QuorumGen, QuorumHealth, MAX_CLUSTER_NODES,
};
pub use router::Router;
pub use spec::{
    ClosedLoopSpec, FrontendSpec, OpenLoopSpec, QuorumLoopSpec, QuorumSpec, RouterSpec, ServiceSpec,
};

/// The serving address of the front-end beside node index `i`.
pub fn frontend_addr(i: usize) -> Addr {
    Addr(2000 + u16::try_from(i).expect("node count fits the frontend address range"))
}

/// The node index whose front-end serves from `addr`: the inverse of
/// [`frontend_addr`], `None` for node, client and generator addresses.
pub fn frontend_index(addr: Addr) -> Option<usize> {
    (2000..3000).contains(&addr.0).then(|| usize::from(addr.0 - 2000))
}

/// The source address of generator index `g`.
pub fn generator_addr(g: usize) -> Addr {
    Addr(3000 + u16::try_from(g).expect("generator count fits the address range"))
}

/// Installs the serving layer onto an assembled cluster simulation: one
/// [`Frontend`] per node, every generator in `spec`, and the pairwise
/// generator↔front-end keys (derived deterministically from `seed`).
///
/// Call after `scenario::ScenarioSpec::build` and before the first run
/// step; `ScenarioSpec::service` does so for you.
///
/// # Panics
///
/// Panics when called twice on one simulation (serving addresses would
/// be registered twice) or when `spec` has no generators.
pub fn install(simulation: &mut Simulation<World, SysEvent>, spec: &ServiceSpec, seed: u64) {
    use rand::{Rng, SeedableRng};

    assert!(spec.generator_count() > 0, "a serving layer without generators measures nothing");
    let n = simulation.world().node_count();

    let mut frontends = Vec::with_capacity(n);
    for i in 0..n {
        let addr = frontend_addr(i);
        let id = simulation.add_actor(Box::new(MachineActor::new(Frontend::new(
            addr,
            i,
            spec.frontend,
        ))));
        simulation.world_mut().register_actor(addr, id);
        frontends.push(addr);
    }

    let mut key_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7365_7276); // "serv"
    let mut register = |simulation: &mut Simulation<World, SysEvent>, g: usize, id| {
        let addr = generator_addr(g);
        for &fe in &frontends {
            let mut key = [0u8; 32];
            key_rng.fill(&mut key);
            simulation.world_mut().keys.provision_pair(addr, fe, key);
        }
        simulation.world_mut().register_actor(addr, id);
    };

    let mut g = 0;
    for open in &spec.open_loop {
        let id = simulation.add_actor(Box::new(MachineActor::new(OpenLoopGen::new(
            generator_addr(g),
            frontends.clone(),
            *open,
            spec.router,
        ))));
        register(simulation, g, id);
        g += 1;
    }
    for closed in &spec.closed_loop {
        let id = simulation.add_actor(Box::new(MachineActor::new(ClosedLoopGen::new(
            generator_addr(g),
            frontends.clone(),
            *closed,
            spec.router,
        ))));
        register(simulation, g, id);
        g += 1;
    }
    for quorum in &spec.quorum_loop {
        let id = simulation.add_actor(Box::new(MachineActor::new(QuorumGen::new(
            generator_addr(g),
            frontends.clone(),
            *quorum,
        ))));
        register(simulation, g, id);
        g += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_index_inverts_frontend_addr_only() {
        for i in 0..64 {
            assert_eq!(frontend_index(frontend_addr(i)), Some(i));
            // Node i, client i (`Addr(1000 + i)`) and generator i are not
            // front-ends.
            assert_eq!(frontend_index(proto::node_addr(i)), None);
            assert_eq!(frontend_index(Addr(1000 + i as u16)), None);
            assert_eq!(frontend_index(generator_addr(i)), None);
        }
        assert_eq!(frontend_index(proto::TA_ADDR), None);
    }
}
