//! The environment driver: injects AEX events into node actors.
//!
//! AEX arrival is OS behaviour, i.e. *outside* the protocol — so it is
//! driven by a dedicated actor rather than by the nodes themselves. The
//! driver holds one [`AexSpec`] per node (per-core interruptions) plus a
//! machine-wide one whose events hit **all** nodes at the same
//! instant — the correlated simultaneous AEXs that §IV-A.2 identifies as
//! the cause of Figure 2a's sawtooth (all nodes taint together, peer
//! untainting fails, everyone goes back to the TA).

use sim::{Actor, ActorId, Ctx, SimDuration};
use tsc::AexSpec;

use crate::event::SysEvent;
use crate::world::World;

const MACHINE_TOKEN: u64 = u64::MAX;

/// Drives per-node and machine-wide AEX injection.
#[derive(Debug)]
pub struct EnvDriver {
    node_actors: Vec<ActorId>,
    per_node: Vec<AexSpec>,
    machine_wide: AexSpec,
}

impl EnvDriver {
    /// Creates a driver for the given node actors.
    ///
    /// `per_node[i]` generates core-local AEXs for `node_actors[i]`
    /// ([`AexSpec::None`] = that node's core is perfectly isolated);
    /// `machine_wide` generates interrupts hitting every node
    /// simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if the model list length differs from the actor list, or
    /// on an [`AexSpec::SwitchAt`] with an [`AexSpec::None`] arm.
    pub fn new(node_actors: Vec<ActorId>, per_node: Vec<AexSpec>, machine_wide: AexSpec) -> Self {
        assert_eq!(node_actors.len(), per_node.len(), "one AEX model slot per node actor");
        per_node.iter().chain([&machine_wide]).for_each(AexSpec::assert_valid);
        EnvDriver { node_actors, per_node, machine_wide }
    }

    fn arm(&self, ctx: &mut Ctx<'_, World, SysEvent>, token: u64) {
        let spec = if token == MACHINE_TOKEN {
            &self.machine_wide
        } else {
            &self.per_node[token as usize]
        };
        if let Some(d) = spec.next_delay(ctx.now(), ctx.rng) {
            ctx.schedule_in(d, SysEvent::timer(token));
        }
    }
}

impl Actor<World, SysEvent> for EnvDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_, World, SysEvent>) {
        for i in 0..self.node_actors.len() {
            self.arm(ctx, i as u64);
        }
        self.arm(ctx, MACHINE_TOKEN);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, World, SysEvent>, ev: SysEvent) {
        let SysEvent::Timer { token } = ev else {
            return;
        };
        if token == MACHINE_TOKEN {
            for &actor in &self.node_actors {
                ctx.send(actor, SimDuration::ZERO, SysEvent::Aex { machine_wide: true });
            }
        } else {
            let actor = self.node_actors[token as usize];
            ctx.send(actor, SimDuration::ZERO, SysEvent::Aex { machine_wide: false });
        }
        self.arm(ctx, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Host;
    use netsim::{DelayModel, Network};
    use sim::{SimTime, Simulation};

    #[derive(Default)]
    struct AexCounter {
        local: u32,
        machine: u32,
    }

    impl Actor<World, SysEvent> for AexCounter {
        fn on_event(&mut self, _ctx: &mut Ctx<'_, World, SysEvent>, ev: SysEvent) {
            if let SysEvent::Aex { machine_wide } = ev {
                if machine_wide {
                    self.machine += 1;
                } else {
                    self.local += 1;
                }
            }
        }
    }

    fn build(n: usize) -> (Simulation<World, SysEvent>, Vec<ActorId>) {
        let net = Network::new(DelayModel::Constant(SimDuration::ZERO), 0.0);
        let world = World::new(net, (0..n).map(|_| Host::paper_default()).collect());
        let mut s = Simulation::new(world, 7);
        let ids: Vec<ActorId> =
            (0..n).map(|_| s.add_actor(Box::new(AexCounter::default()))).collect();
        (s, ids)
    }

    #[test]
    fn periodic_per_node_aex_delivery() {
        let (mut s, ids) = build(2);
        let driver = EnvDriver::new(
            ids.clone(),
            vec![
                AexSpec::Periodic { period: SimDuration::from_secs(1) },
                AexSpec::Periodic { period: SimDuration::from_secs(2) },
            ],
            AexSpec::None,
        );
        s.add_actor(Box::new(driver));
        s.run_until(SimTime::from_secs_f64(10.5));
        // Node 0: AEX at 1..10 → 10; node 1: at 2,4,6,8,10 → 5.
        assert!(s.dispatched() >= 15);
    }

    #[test]
    fn machine_wide_hits_all_nodes_simultaneously() {
        let (mut s, ids) = build(3);
        let driver = EnvDriver::new(
            ids,
            vec![AexSpec::None, AexSpec::None, AexSpec::None],
            AexSpec::Periodic { period: SimDuration::from_secs(5) },
        );
        s.add_actor(Box::new(driver));
        s.run_until(SimTime::from_secs(11));
        // 2 machine-wide rounds × 3 nodes of Aex + 2 driver timers (+start).
        assert!(s.dispatched() >= 8);
    }

    #[test]
    #[should_panic(expected = "one AEX model slot per node actor")]
    fn mismatched_lengths_rejected() {
        let (mut s, ids) = build(2);
        let driver = EnvDriver::new(ids, vec![AexSpec::None], AexSpec::None);
        s.add_actor(Box::new(driver));
    }
}
