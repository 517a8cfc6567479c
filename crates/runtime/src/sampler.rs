//! Periodic drift sampling against the reference clock.

use sim::{Actor, Ctx, SimDuration};

use crate::event::SysEvent;
use crate::world::World;

/// Samples every node's clock drift at a fixed reference-time cadence.
///
/// Drift is `node_timestamp − reference_time` in milliseconds, evaluated
/// from the node's published [`crate::ClockState`] — the simulation
/// equivalent of the paper's external measurement harness comparing node
/// timestamps against the TA's clock. Nodes that have not calibrated yet
/// produce no sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    /// Sampling period (the figures use 250 ms – 1 s).
    pub interval: SimDuration,
}

impl Actor<World, SysEvent> for Sampler {
    fn on_start(&mut self, ctx: &mut Ctx<'_, World, SysEvent>) {
        ctx.schedule_in(self.interval, SysEvent::Sample);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, World, SysEvent>, ev: SysEvent) {
        if !matches!(ev, SysEvent::Sample) {
            return;
        }
        let now = ctx.now();
        let ref_ns = now.as_nanos() as f64;
        for i in 0..ctx.world.node_count() {
            let ticks = ctx.world.host(proto::node_addr(i)).read_tsc(now);
            if let Some(node_ns) = ctx.world.clocks[i].now_ns(ticks) {
                let drift_ms = (node_ns - ref_ns) / 1e6;
                ctx.world.recorder.node_mut(i).drift_ms.push(now, drift_ms);
            }
        }
        ctx.schedule_in(self.interval, SysEvent::Sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{ClockState, Host};
    use netsim::{DelayModel, Network};
    use sim::{SimTime, Simulation};

    #[test]
    fn sampler_records_drift_from_published_clock_state() {
        let net = Network::new(DelayModel::Constant(SimDuration::ZERO), 0.0);
        let mut world = World::new(net, vec![Host::paper_default(), Host::paper_default()]);
        // Node 1: perfectly calibrated → ~0 drift.
        world.clocks[0] = ClockState {
            valid: true,
            anchor_ref_ns: 0.0,
            anchor_ticks: 0,
            f_calib_hz: tsc::PAPER_TSC_HZ,
            uncertainty_ns: 0.0,
        };
        // Node 2: calibrated 10% high (an F+ victim) → ≈ −91 ms/s drift.
        world.clocks[1] = ClockState {
            valid: true,
            anchor_ref_ns: 0.0,
            anchor_ticks: 0,
            f_calib_hz: tsc::PAPER_TSC_HZ * 1.1,
            uncertainty_ns: 0.0,
        };
        let mut s = Simulation::new(world, 1);
        s.add_actor(Box::new(Sampler { interval: SimDuration::from_millis(500) }));
        s.run_until(SimTime::from_secs(10));

        let w = s.world();
        let d0 = w.recorder.node(0).drift_ms.clone();
        let d1 = w.recorder.node(1).drift_ms.clone();
        assert_eq!(d0.len(), 20);
        assert_eq!(d1.len(), 20);
        let (_, last0) = d0.last().unwrap();
        let (_, last1) = d1.last().unwrap();
        assert!(last0.abs() < 0.001, "honest node drift {last0} ms");
        assert!((last1 + 909.1).abs() < 1.0, "victim drift after 10 s: {last1} ms");
        let slope = d1.slope_per_sec().unwrap();
        assert!((slope + 90.9).abs() < 0.2, "drift rate {slope} ms/s");
    }

    #[test]
    fn uncalibrated_nodes_are_skipped() {
        let net = Network::new(DelayModel::Constant(SimDuration::ZERO), 0.0);
        let world = World::new(net, vec![Host::paper_default()]);
        let mut s = Simulation::new(world, 1);
        s.add_actor(Box::new(Sampler { interval: SimDuration::from_secs(1) }));
        s.run_until(SimTime::from_secs(5));
        assert!(s.world().recorder.node(0).drift_ms.is_empty());
    }
}
