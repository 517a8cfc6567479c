//! Property-based tests for the simulation kernel's core guarantees.

use proptest::prelude::*;
use sim::{Actor, Ctx, SimDuration, SimTime, Simulation};

/// An actor that schedules a random tree of future events and logs every
/// delivery.
struct Spammer {
    fanout: Vec<(u64, u32)>, // (delay ns, payload)
}

impl Actor<Vec<(u64, u32)>, u32> for Spammer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Vec<(u64, u32)>, u32>) {
        for &(delay, tag) in &self.fanout {
            ctx.schedule_in(SimDuration::from_nanos(delay), tag);
        }
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_, Vec<(u64, u32)>, u32>, ev: u32) {
        ctx.world.push((ctx.now().as_nanos(), ev));
        // Fan out two children per event, bounded by the payload value.
        if ev > 0 {
            ctx.schedule_in(SimDuration::from_nanos(u64::from(ev)), ev / 2);
            ctx.schedule_in(SimDuration::from_nanos(u64::from(ev) * 2 + 1), ev / 3);
        }
    }
}

proptest! {
    /// Delivered timestamps are non-decreasing regardless of the schedule
    /// shape, and identical inputs give identical logs.
    #[test]
    fn time_is_monotone_and_deterministic(
        fanout in proptest::collection::vec((1u64..1_000_000, 0u32..64), 1..20),
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut s = Simulation::new(Vec::new(), seed);
            s.add_actor(Box::new(Spammer { fanout: fanout.clone() }));
            s.run();
            (s.dispatched(), s.into_world())
        };
        let (n1, log1) = run();
        let (n2, log2) = run();
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(&log1, &log2);
        for w in log1.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards: {:?}", w);
        }
    }

    /// `run_until` never dispatches past the horizon and always leaves the
    /// clock exactly at it.
    #[test]
    fn run_until_respects_the_horizon(
        fanout in proptest::collection::vec((1u64..1_000_000, 1u32..64), 1..10),
        horizon_ns in 1u64..2_000_000,
    ) {
        let mut s = Simulation::new(Vec::new(), 0);
        s.add_actor(Box::new(Spammer { fanout }));
        let horizon = SimTime::from_nanos(horizon_ns);
        s.run_until(horizon);
        prop_assert_eq!(s.now(), horizon);
        for &(t, _) in s.world() {
            prop_assert!(t <= horizon_ns);
        }
    }

    /// The dispatch sequence equals the schedule stable-sorted by time with
    /// cancelled entries removed — the full ordering oracle through the
    /// public API, covering same-time FIFO and cancellation.
    #[test]
    fn dispatch_order_matches_sorted_oracle(
        schedule in proptest::collection::vec((0u64..5_000, any::<bool>()), 1..64),
    ) {
        struct Setup {
            schedule: Vec<(u64, bool)>,
        }
        impl Actor<Vec<(u64, u32)>, u32> for Setup {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Vec<(u64, u32)>, u32>) {
                let mut doomed = Vec::new();
                for (tag, &(delay, cancel)) in self.schedule.iter().enumerate() {
                    let id = ctx.schedule_in(SimDuration::from_nanos(delay), tag as u32);
                    if cancel {
                        doomed.push(id);
                    }
                }
                // Cancel after all scheduling so recycled slots interleave
                // with live ones.
                for id in doomed {
                    ctx.cancel(id);
                }
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_, Vec<(u64, u32)>, u32>, ev: u32) {
                ctx.world.push((ctx.now().as_nanos(), ev));
            }
        }
        let mut s = Simulation::new(Vec::new(), 0);
        s.add_actor(Box::new(Setup { schedule: schedule.clone() }));
        s.run();
        let mut expected: Vec<(u64, u32)> = schedule
            .iter()
            .enumerate()
            .filter(|(_, &(_, cancel))| !cancel)
            .map(|(tag, &(delay, _))| (delay, tag as u32))
            .collect();
        expected.sort_by_key(|&(delay, _)| delay); // stable: FIFO within a tick
        prop_assert_eq!(s.into_world(), expected);
    }

    /// Splitting a run into two `run_until` halves is equivalent to one.
    #[test]
    fn run_until_composes(
        fanout in proptest::collection::vec((1u64..1_000_000, 1u32..64), 1..10),
        split_ns in 1u64..1_000_000,
    ) {
        let horizon = SimTime::from_nanos(2_000_000);
        let one_shot = {
            let mut s = Simulation::new(Vec::new(), 0);
            s.add_actor(Box::new(Spammer { fanout: fanout.clone() }));
            s.run_until(horizon);
            s.into_world()
        };
        let two_shot = {
            let mut s = Simulation::new(Vec::new(), 0);
            s.add_actor(Box::new(Spammer { fanout }));
            s.run_until(SimTime::from_nanos(split_ns.min(2_000_000)));
            s.run_until(horizon);
            s.into_world()
        };
        prop_assert_eq!(one_shot, two_shot);
    }
}
