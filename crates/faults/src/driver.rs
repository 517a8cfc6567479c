//! The actor that replays a [`FaultPlan`] through the event loop.

use netsim::Addr;
use runtime::{frontend_addr, node_addr, Lie, SysEvent, World, TA_ADDR};
use sim::{Actor, Ctx, SimDuration};

use crate::plan::{FaultAction, FaultEvent, FaultPlan};

/// Replays a [`FaultPlan`] against the running simulation: the one actor
/// that applies scheduled adversary actions.
///
/// The driver arms one timer per distinct firing time; when it wakes it
/// applies every due action in plan order, logs each into
/// `world.recorder.faults`, and re-arms for the next. Network actions
/// mutate the fabric in place (affecting datagrams sent from that instant
/// on) and TSC manipulations re-anchor the victim host's counter at that
/// instant; TA outages and restores, node crashes and restarts, AEX
/// interrupts and serving-path lies are delivered to the TA, node and
/// front-end actors as ordinary [`SysEvent`]s (`Crash`, `Restart`, `Aex`,
/// `Lie`) with zero delay, so they interleave deterministically with
/// protocol traffic scheduled at the same instant.
///
/// Schedule one via `scenario::ScenarioSpec::faults`, or add it as an
/// extra actor by hand.
#[derive(Debug)]
pub struct FaultDriver {
    schedule: Vec<FaultEvent>,
    next: usize,
}

impl FaultDriver {
    /// Creates a driver that will replay `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultDriver { schedule: plan.into_schedule(), next: 0 }
    }

    /// Number of fault events not yet applied.
    pub fn remaining(&self) -> usize {
        self.schedule.len() - self.next
    }

    fn arm_next(&self, ctx: &mut Ctx<'_, World, SysEvent>) {
        if let Some(ev) = self.schedule.get(self.next) {
            ctx.schedule_at(ev.at, SysEvent::timer(0));
        }
    }

    /// Delivers `ev` now to whoever owns `addr`, if anyone does: a world
    /// without a TA (E19's T3E deployment) or without a serving layer has
    /// no one to tell.
    fn signal(ctx: &mut Ctx<'_, World, SysEvent>, addr: Addr, ev: SysEvent) {
        if let Some(actor) = ctx.world.try_actor_of(addr) {
            ctx.send(actor, SimDuration::ZERO, ev);
        }
    }

    /// Node `node`'s front-end address; panics past the cluster, as
    /// `CrashNode` does.
    fn frontend_of(world: &World, node: usize) -> Addr {
        let n = world.node_count();
        assert!(node < n, "no node{node} to lie through: cluster has {n} node(s)");
        frontend_addr(node)
    }

    fn apply(&self, ctx: &mut Ctx<'_, World, SysEvent>, action: &FaultAction) {
        match *action {
            FaultAction::PartitionPair { a, b } => ctx.world.net.partition_pair(a, b),
            FaultAction::PartitionLink { src, dst } => ctx.world.net.block_link(src, dst),
            FaultAction::HealPair { a, b } => ctx.world.net.heal_pair(a, b),
            FaultAction::HealLink { src, dst } => ctx.world.net.heal_link(src, dst),
            FaultAction::SetLinkLoss { src, dst, loss } => {
                ctx.world.net.set_link_loss(src, dst, loss);
            }
            FaultAction::ClearLinkLoss { src, dst } => {
                ctx.world.net.clear_link_loss(src, dst);
            }
            FaultAction::SetDuplication { probability } => {
                ctx.world.net.set_duplication(probability);
            }
            FaultAction::SetReordering { probability, window } => {
                ctx.world.net.set_reordering(probability, window);
            }
            FaultAction::TaOutage => Self::signal(ctx, TA_ADDR, SysEvent::Crash),
            FaultAction::TaRestore => Self::signal(ctx, TA_ADDR, SysEvent::Restart),
            FaultAction::CrashNode { node } => {
                let actor = ctx.world.actor_of(node_addr(node));
                ctx.send(actor, SimDuration::ZERO, SysEvent::Crash);
            }
            FaultAction::RestartNode { node } => {
                let actor = ctx.world.actor_of(node_addr(node));
                ctx.send(actor, SimDuration::ZERO, SysEvent::Restart);
            }
            FaultAction::StartLie { node, offset_ns, equivocate } => {
                let lie = Some(Lie { offset_ns, equivocate });
                Self::signal(ctx, Self::frontend_of(ctx.world, node), SysEvent::Lie(lie));
            }
            FaultAction::StopLie { node } => {
                Self::signal(ctx, Self::frontend_of(ctx.world, node), SysEvent::Lie(None));
            }
            FaultAction::ManipulateTsc { node, manipulation } => {
                let now = ctx.now();
                ctx.world.host_mut(node_addr(node)).tsc.manipulate(now, manipulation);
            }
            FaultAction::AexStorm { node, count, spacing } => {
                let machine_wide = node.is_none();
                let targets: Vec<_> = match node {
                    Some(i) => vec![ctx.world.actor_of(node_addr(i))],
                    None => (0..ctx.world.node_count())
                        .map(|i| ctx.world.actor_of(node_addr(i)))
                        .collect(),
                };
                let now = ctx.now();
                for k in 0..count {
                    let at = now + spacing * u64::from(k);
                    for &target in &targets {
                        ctx.send_at(target, at, SysEvent::Aex { machine_wide });
                    }
                }
            }
        }
    }
}

impl Actor<World, SysEvent> for FaultDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_, World, SysEvent>) {
        self.arm_next(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, World, SysEvent>, ev: SysEvent) {
        if !matches!(ev, SysEvent::Timer { .. }) {
            return;
        }
        let now = ctx.now();
        while let Some(fault) = self.schedule.get(self.next) {
            if fault.at > now {
                break;
            }
            let fault = fault.clone();
            self.apply(ctx, &fault.action);
            ctx.world.recorder.faults.push(now, fault.action.label());
            self.next += 1;
        }
        self.arm_next(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{DelayModel, Network};
    use runtime::{Host, TscManipulation};
    use sim::{SimTime, Simulation};

    #[test]
    fn a_ta_outage_without_a_ta_is_logged_and_otherwise_a_no_op() {
        let mut s = one_host();
        let plan = FaultPlan::new().ta_outage(SimTime::from_secs(1), SimDuration::from_secs(1));
        s.add_actor(Box::new(FaultDriver::new(plan)));
        s.run();
        assert_eq!(s.world().recorder.faults.len(), 2);
        assert_eq!(s.dispatched(), 2, "the driver's own two wake-ups, nothing delivered");
    }

    #[test]
    #[should_panic(expected = "no node1 to lie through: cluster has 1 node(s)")]
    fn a_lie_on_a_node_past_the_cluster_panics() {
        let mut s = one_host();
        let lie = FaultAction::StartLie { node: 1, offset_ns: 1_000, equivocate: false };
        s.add_actor(Box::new(FaultDriver::new(FaultPlan::new().at(SimTime::from_secs(1), lie))));
        s.run();
    }

    fn one_host() -> Simulation<World, SysEvent> {
        let net = Network::new(DelayModel::Constant(SimDuration::ZERO), 0.0);
        Simulation::new(World::new(net, vec![Host::paper_default()]), 1)
    }

    fn tsc(manipulation: TscManipulation) -> FaultAction {
        FaultAction::ManipulateTsc { node: 0, manipulation }
    }

    #[test]
    fn a_tsc_action_changes_the_victim_host_at_its_instant_and_is_logged() {
        let nominal = Host::paper_default().tsc.rate_hz();
        let mut s = one_host();
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(10), tsc(TscManipulation::ScaleRate(1.1)))
            .at(SimTime::from_secs(5), tsc(TscManipulation::OffsetJump(1_000_000)));
        s.add_actor(Box::new(FaultDriver::new(plan)));
        let host = |s: &Simulation<World, SysEvent>| s.world().host(Addr(1)).tsc.clone();
        s.run_until(SimTime::from_secs(4));
        assert_eq!(host(&s).manipulation_count(), 0);
        s.run_until(SimTime::from_secs(6));
        assert_eq!(host(&s).manipulation_count(), 1);
        assert_eq!(host(&s).rate_hz(), nominal);
        s.run_until(SimTime::from_secs(11));
        assert_eq!(host(&s).manipulation_count(), 2);
        assert!((host(&s).rate_hz() - nominal * 1.1).abs() < 1.0);
        assert_eq!(
            s.world().recorder.faults.events()[..],
            [
                (SimTime::from_secs(5), "tsc node1 offset-jump 1000000".to_string()),
                (SimTime::from_secs(10), "tsc node1 scale-rate 1.1".to_string()),
            ]
        );
    }

    /// Actions sharing an instant apply in the order the plan lists them:
    /// here the final rate is 2 × 1 GHz one way round and 1 GHz the other.
    #[test]
    fn actions_at_one_instant_apply_in_plan_order() {
        let t = SimTime::from_secs(3);
        let set = tsc(TscManipulation::SetRateHz(1e9));
        let double = tsc(TscManipulation::ScaleRate(2.0));
        for (plan, rate) in [
            (FaultPlan::new().at(t, set.clone()).at(t, double.clone()), 2e9),
            (FaultPlan::new().at(t, double.clone()).at(t, set.clone()), 1e9),
        ] {
            let first = plan.events()[0].action.label();
            let mut s = one_host();
            s.add_actor(Box::new(FaultDriver::new(plan)));
            s.run();
            assert_eq!(s.world().host(Addr(1)).tsc.rate_hz(), rate);
            assert_eq!(s.world().recorder.faults.events()[0].1, first);
            assert_eq!(s.dispatched(), 1, "one wake-up for the shared instant");
        }
    }

    #[test]
    fn driver_orders_schedule_and_tracks_remaining() {
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(9), FaultAction::TaRestore)
            .at(SimTime::from_secs(2), FaultAction::TaOutage);
        let driver = FaultDriver::new(plan);
        assert_eq!(driver.remaining(), 2);
        assert_eq!(driver.schedule[0].action, FaultAction::TaOutage);
        assert_eq!(driver.schedule[1].action, FaultAction::TaRestore);
    }
}
