//! The deterministic discrete-event scheduler.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, ActorId};
use crate::event::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// A single-threaded, seeded discrete-event simulation.
///
/// Owns the shared world `W`, all registered actors, the event queue, and
/// one [`StdRng`] seeded at construction: two runs with identical actors,
/// world, and seed produce identical event sequences.
///
/// The queue (`crate::event`) is a 4-ary min-heap of small fixed-size
/// records ordered by `(time, seq)`, indexed by the generation-stamped
/// slab that holds the payloads. Scheduling, dispatch, and cancellation
/// are each one short sift (O(log n) at the few dozen live events real
/// workloads hold); a cancelled event leaves the queue at once, so the
/// queue length *is* the live-event count, and steady-state execution is
/// allocation-free.
///
/// Lifecycle: construct with [`Simulation::new`], register actors with
/// [`Simulation::add_actor`], then drive with [`Simulation::run`],
/// [`Simulation::run_until`], or [`Simulation::step`]. Results are read back
/// from the world ([`Simulation::world`] / [`Simulation::into_world`]).
pub struct Simulation<W, M> {
    now: SimTime,
    queue: EventQueue<M>,
    actors: Vec<Option<Box<dyn Actor<W, M>>>>,
    world: W,
    rng: StdRng,
    dispatched: u64,
    started: bool,
}

/// Per-dispatch context handed to actor callbacks.
///
/// Grants access to the current time, the shared world, the deterministic
/// RNG, and the scheduling interface. Events scheduled through a `Ctx` enter
/// the queue immediately; dispatch order depends only on their `(time, seq)`
/// keys, never on when they were pushed.
pub struct Ctx<'a, W, M> {
    now: SimTime,
    self_id: ActorId,
    /// The shared simulation world (environment state).
    pub world: &'a mut W,
    /// The simulation-wide deterministic RNG.
    pub rng: &'a mut StdRng,
    queue: &'a mut EventQueue<M>,
}

impl<'a, W, M> Ctx<'a, W, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` for this actor after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: M) -> EventId {
        self.queue.push(self.now + delay, self.self_id, payload)
    }

    /// Schedules `payload` for this actor at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn schedule_at(&mut self, time: SimTime, payload: M) -> EventId {
        self.send_at(self.self_id, time, payload)
    }

    /// Schedules `payload` for another actor after `delay`.
    pub fn send(&mut self, target: ActorId, delay: SimDuration, payload: M) -> EventId {
        self.queue.push(self.now + delay, target, payload)
    }

    /// Schedules `payload` for another actor at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn send_at(&mut self, target: ActorId, time: SimTime, payload: M) -> EventId {
        assert!(time >= self.now, "cannot schedule into the past ({time} < {})", self.now);
        self.queue.push(time, target, payload)
    }

    /// Cancels a previously scheduled event: removes it from the queue,
    /// drops the payload, and recycles its slab slot immediately.
    ///
    /// Cancelling an event that has already fired (or was already cancelled)
    /// is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id);
    }
}

impl<W, M> Simulation<W, M> {
    /// Creates an empty simulation over `world`, with all randomness derived
    /// from `seed`.
    pub fn new(world: W, seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            actors: Vec::new(),
            world,
            rng: StdRng::seed_from_u64(seed),
            dispatched: 0,
            started: false,
        }
    }

    /// Registers an actor and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started running; the actor set
    /// is fixed at start.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<W, M>>) -> ActorId {
        assert!(!self.started, "actors must be registered before the simulation runs");
        let id = ActorId(self.actors.len());
        self.actors.push(Some(actor));
        id
    }

    /// Current simulated time (the timestamp of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of events currently scheduled and not yet fired or cancelled.
    pub fn live_events(&self) -> usize {
        self.queue.len()
    }

    /// Payload-slab high-water mark, in slots. A long cancel/fire loop must
    /// hold this flat (slot reuse); growth here is a leak.
    pub fn pool_slots(&self) -> usize {
        self.queue.slot_count()
    }

    /// Shared world, immutably.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Shared world, mutably (e.g. to reconfigure between phases).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation and returns the world for result extraction.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event from outside any actor (scenario setup).
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn schedule(&mut self, time: SimTime, target: ActorId, payload: M) -> EventId {
        assert!(time >= self.now, "cannot schedule into the past ({time} < {})", self.now);
        self.queue.push(time, target, payload)
    }

    /// Cancels an event scheduled via [`Simulation::schedule`] or a `Ctx`.
    pub fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id);
    }

    /// Lends actor `idx` a [`Ctx`] for one callback.
    fn with_actor(
        &mut self,
        idx: usize,
        call: impl FnOnce(&mut dyn Actor<W, M>, &mut Ctx<'_, W, M>),
    ) {
        let mut actor = self
            .actors
            .get_mut(idx)
            .unwrap_or_else(|| panic!("event targets unknown {}", ActorId(idx)))
            .take()
            .expect("actor is not re-entrant");
        let mut ctx = Ctx {
            now: self.now,
            self_id: ActorId(idx),
            world: &mut self.world,
            rng: &mut self.rng,
            queue: &mut self.queue,
        };
        call(actor.as_mut(), &mut ctx);
        self.actors[idx] = Some(actor);
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.actors.len() {
            self.with_actor(idx, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Dispatches the single next event, if any.
    ///
    /// Returns the timestamp of the dispatched event, or `None` when the
    /// queue is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if an event targets an actor id that was never registered.
    pub fn step(&mut self) -> Option<SimTime> {
        self.start_if_needed();
        let (ev, payload) = self.queue.pop()?;
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        self.dispatched += 1;
        self.with_actor(ev.target.0, |actor, ctx| actor.on_event(ctx, payload));
        Some(self.now)
    }

    /// Runs until the queue is empty.
    pub fn run(&mut self) {
        while self.step().is_some() {}
    }

    /// Runs until the queue is empty or the next event is strictly after
    /// `horizon`. Events at exactly `horizon` are dispatched; the clock
    /// then advances to `horizon` even if the last event was earlier.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.start_if_needed();
        while self.queue.peek_time().is_some_and(|t| t <= horizon) {
            self.step();
        }
        if self.now < horizon {
            self.now = horizon;
        }
    }
}

impl<W: std::fmt::Debug, M> std::fmt::Debug for Simulation<W, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("actors", &self.actors.len())
            .field("live", &self.queue.len())
            .field("dispatched", &self.dispatched)
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::BTreeMap;

    #[derive(Default, Debug)]
    struct Log {
        entries: Vec<(SimTime, usize, u32)>,
    }

    struct Emitter {
        tag: u32,
        period: SimDuration,
        remaining: u32,
    }

    impl Actor<Log, u32> for Emitter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Log, u32>) {
            ctx.schedule_in(self.period, self.tag);
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_, Log, u32>, event: u32) {
            ctx.world.entries.push((ctx.now(), ctx.self_id.index(), event));
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.schedule_in(self.period, self.tag);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut s = Simulation::new(Log::default(), 1);
        s.add_actor(Box::new(Emitter {
            tag: 1,
            period: SimDuration::from_millis(30),
            remaining: 3,
        }));
        s.add_actor(Box::new(Emitter {
            tag: 2,
            period: SimDuration::from_millis(20),
            remaining: 3,
        }));
        s.run();
        let times: Vec<u64> = s.world().entries.iter().map(|e| e.0.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert_eq!(s.world().entries.len(), 6);
        assert_eq!(s.now(), SimTime::from_nanos(90_000_000));
    }

    #[test]
    fn same_time_events_are_fifo_by_scheduling_order() {
        struct Burst;
        impl Actor<Log, u32> for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Log, u32>) {
                for i in 0..5 {
                    ctx.schedule_in(SimDuration::from_secs(1), i);
                }
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_, Log, u32>, event: u32) {
                ctx.world.entries.push((ctx.now(), 0, event));
            }
        }
        let mut s = Simulation::new(Log::default(), 1);
        s.add_actor(Box::new(Burst));
        s.run();
        let tags: Vec<u32> = s.world().entries.iter().map(|e| e.2).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cancellation_prevents_delivery() {
        struct Canceller;
        impl Actor<Log, u32> for Canceller {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Log, u32>) {
                let doomed = ctx.schedule_in(SimDuration::from_secs(2), 99);
                ctx.schedule_in(SimDuration::from_secs(1), 1);
                ctx.cancel(doomed);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_, Log, u32>, event: u32) {
                ctx.world.entries.push((ctx.now(), 0, event));
            }
        }
        let mut s = Simulation::new(Log::default(), 1);
        s.add_actor(Box::new(Canceller));
        s.run();
        assert_eq!(s.world().entries.len(), 1);
        assert_eq!(s.world().entries[0].2, 1);
    }

    #[test]
    fn run_until_stops_at_horizon_and_advances_clock() {
        let mut s = Simulation::new(Log::default(), 1);
        s.add_actor(Box::new(Emitter {
            tag: 7,
            period: SimDuration::from_secs(1),
            remaining: 100,
        }));
        s.run_until(SimTime::from_secs_f64(3.5));
        assert_eq!(s.world().entries.len(), 3);
        assert_eq!(s.now(), SimTime::from_secs_f64(3.5));
        // Events at exactly the horizon are included.
        s.run_until(SimTime::from_secs(4));
        assert_eq!(s.world().entries.len(), 4);
    }

    #[test]
    fn ping_pong_between_actors() {
        struct Ping {
            peer: Option<ActorId>,
        }
        impl Actor<Log, u32> for Ping {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Log, u32>) {
                if let Some(peer) = self.peer {
                    ctx.send(peer, SimDuration::from_millis(10), 0);
                }
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_, Log, u32>, event: u32) {
                ctx.world.entries.push((ctx.now(), ctx.self_id.index(), event));
                if event < 5 {
                    if let Some(peer) = self.peer {
                        ctx.send(peer, SimDuration::from_millis(10), event + 1);
                    } else {
                        // Reply to the other actor: ids are 0 and 1.
                        let me = ctx.self_id.index();
                        let other = ActorId(1 - me);
                        ctx.send(other, SimDuration::from_millis(10), event + 1);
                    }
                }
            }
        }
        let mut s = Simulation::new(Log::default(), 1);
        let _a = s.add_actor(Box::new(Ping { peer: None }));
        s.add_actor(Box::new(Ping { peer: Some(ActorId(0)) }));
        s.run();
        assert_eq!(s.world().entries.len(), 6);
        // Alternating receivers.
        let receivers: Vec<usize> = s.world().entries.iter().map(|e| e.1).collect();
        assert_eq!(receivers, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn identical_seeds_are_bit_deterministic() {
        struct RandomWalk;
        impl Actor<Log, u32> for RandomWalk {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Log, u32>) {
                ctx.schedule_in(SimDuration::from_millis(1), 0);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_, Log, u32>, event: u32) {
                let jitter: u64 = ctx.rng.gen_range(1..1000);
                ctx.world.entries.push((ctx.now(), jitter as usize, event));
                if event < 50 {
                    ctx.schedule_in(SimDuration::from_micros(jitter), event + 1);
                }
            }
        }
        let run = |seed| {
            let mut s = Simulation::new(Log::default(), seed);
            s.add_actor(Box::new(RandomWalk));
            s.run();
            s.into_world().entries
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "before the simulation runs")]
    fn adding_actor_after_start_panics() {
        let mut s: Simulation<Log, u32> = Simulation::new(Log::default(), 1);
        s.add_actor(Box::new(Emitter { tag: 0, period: SimDuration::from_secs(1), remaining: 1 }));
        s.run();
        s.add_actor(Box::new(Emitter { tag: 0, period: SimDuration::from_secs(1), remaining: 1 }));
    }

    #[test]
    fn external_schedule_reaches_actor() {
        struct Sink;
        impl Actor<Log, u32> for Sink {
            fn on_event(&mut self, ctx: &mut Ctx<'_, Log, u32>, event: u32) {
                ctx.world.entries.push((ctx.now(), 0, event));
            }
        }
        let mut s = Simulation::new(Log::default(), 1);
        let id = s.add_actor(Box::new(Sink));
        s.schedule(SimTime::from_secs(5), id, 42);
        let doomed = s.schedule(SimTime::from_secs(6), id, 43);
        s.cancel(doomed);
        s.run();
        assert_eq!(s.world().entries, vec![(SimTime::from_secs(5), 0, 42)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past (t=1.000000s < t=5.000000s)")]
    fn external_past_schedule_names_both_instants() {
        struct Sink;
        impl Actor<Log, u32> for Sink {
            fn on_event(&mut self, ctx: &mut Ctx<'_, Log, u32>, event: u32) {
                ctx.world.entries.push((ctx.now(), 0, event));
            }
        }
        let mut s = Simulation::new(Log::default(), 1);
        let id = s.add_actor(Box::new(Sink));
        s.schedule(SimTime::from_secs(5), id, 1);
        s.run();
        assert_eq!(s.now(), SimTime::from_secs(5));
        s.schedule(SimTime::from_secs(1), id, 2);
    }

    #[test]
    fn cancel_then_fire_loop_holds_memory_flat() {
        // The no-leak regression: a long loop of schedule/cancel/fire must
        // keep the slab at a handful of slots and leave nothing queued.
        struct Churn {
            remaining: u32,
        }
        impl Actor<Log, u32> for Churn {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Log, u32>) {
                ctx.schedule_in(SimDuration::from_micros(1), 0);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_, Log, u32>, _event: u32) {
                self.remaining -= 1;
                if self.remaining > 0 {
                    let doomed = ctx.schedule_in(SimDuration::from_micros(2), 1);
                    ctx.schedule_in(SimDuration::from_micros(1), 0);
                    ctx.cancel(doomed);
                }
            }
        }
        let mut s = Simulation::new(Log::default(), 1);
        s.add_actor(Box::new(Churn { remaining: 1_000_000 }));
        s.run();
        assert_eq!(s.dispatched(), 1_000_000);
        assert!(
            s.pool_slots() <= 4,
            "slab grew to {} slots over a 1M cancel/fire loop",
            s.pool_slots()
        );
        assert_eq!(s.live_events(), 0);
        s.queue.assert_consistent();
    }

    #[test]
    fn dense_population_dispatches_exactly_and_recycles_slots() {
        // The only test that holds the heap five levels deep (2 000 live
        // events): 1 000 ping chains interleaved with 500 probe loops that
        // arm a far timeout and cancel it on every near response.
        const CHAINS: usize = 1_000;
        const CHAIN_EVENTS: u64 = 101;
        const PROBERS: usize = 500;
        const PROBE_ROUNDS: u64 = 200;
        const TIMEOUT: u64 = u64::MAX;

        struct Pinger {
            peer: Option<ActorId>,
        }
        impl Actor<(), u64> for Pinger {
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), u64>) {
                self.on_event(ctx, 0);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_, (), u64>, received: u64) {
                if received < CHAIN_EVENTS {
                    let peer = self.peer.unwrap_or(ctx.self_id);
                    ctx.send(peer, SimDuration::from_micros(1), received + 1);
                }
            }
        }

        struct Prober {
            remaining: u64,
            timeout: Option<EventId>,
        }
        impl Prober {
            fn probe(&mut self, ctx: &mut Ctx<'_, (), u64>) {
                self.timeout = Some(ctx.schedule_in(SimDuration::from_secs(10), TIMEOUT));
                ctx.schedule_in(SimDuration::from_micros(3), 0);
            }
        }
        impl Actor<(), u64> for Prober {
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), u64>) {
                self.probe(ctx);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_, (), u64>, event: u64) {
                assert_ne!(event, TIMEOUT, "a cancelled timeout fired");
                ctx.cancel(self.timeout.take().expect("every response has a timeout armed"));
                self.remaining -= 1;
                if self.remaining > 0 {
                    self.probe(ctx);
                }
            }
        }

        let mut s = Simulation::new((), 1);
        // Each chain pings its predecessor, so all of them stay live.
        let mut prev = s.add_actor(Box::new(Pinger { peer: None }));
        for _ in 1..CHAINS {
            prev = s.add_actor(Box::new(Pinger { peer: Some(prev) }));
        }
        for _ in 0..PROBERS {
            s.add_actor(Box::new(Prober { remaining: PROBE_ROUNDS, timeout: None }));
        }
        let mut peak_live = 0;
        while s.step().is_some() {
            peak_live = peak_live.max(s.live_events());
        }
        assert_eq!(s.dispatched(), CHAINS as u64 * CHAIN_EVENTS + PROBERS as u64 * PROBE_ROUNDS);
        assert_eq!(peak_live, CHAINS + 2 * PROBERS);
        assert!(s.pool_slots() <= peak_live, "slab grew to {} slots", s.pool_slots());
        assert_eq!(s.live_events(), 0);
        s.queue.assert_consistent();
    }

    #[test]
    fn recycled_slot_never_delivers_stale_payload() {
        // ABA guard at the scheduler level: cancel an event, schedule a new
        // one that recycles its slot, then cancel via the *stale* handle.
        // The new event must still fire with its own payload.
        struct Aba {
            stale: Option<EventId>,
        }
        impl Actor<Log, u32> for Aba {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Log, u32>) {
                let doomed = ctx.schedule_in(SimDuration::from_secs(1), 111);
                ctx.cancel(doomed);
                // Recycles the slot `doomed` occupied.
                ctx.schedule_in(SimDuration::from_secs(2), 222);
                self.stale = Some(doomed);
            }
            fn on_event(&mut self, ctx: &mut Ctx<'_, Log, u32>, event: u32) {
                ctx.world.entries.push((ctx.now(), 0, event));
            }
        }
        let mut s = Simulation::new(Log::default(), 1);
        s.add_actor(Box::new(Aba { stale: None }));
        s.step();
        // Fire the stale cancel from outside: must be a no-op.
        s.cancel(EventId::pack(0, 0));
        s.run();
        assert_eq!(s.world().entries, vec![(SimTime::from_secs(2), 0, 222)]);
    }

    /// What a scripted event does when it fires (see
    /// [`scheduler_matches_sorted_vec_model`]).
    #[derive(Debug, Clone)]
    enum Inner {
        /// Schedule a script-less event this many ns ahead.
        Schedule(u64),
        /// Cancel the n-th handle ever issued (mod the count): live, stale,
        /// or already fired — including the event being dispatched.
        Cancel(usize),
        /// Schedule, cancel, schedule again (recycling the slot), then
        /// cancel through the stale first handle.
        Recycle(u64),
    }

    #[derive(Debug, Clone)]
    enum Op {
        Schedule(u64, Vec<Inner>),
        Cancel(usize),
        Step,
        RunUntil(u64),
    }

    /// World of the scripted simulation. Every event's payload is the index
    /// of its own handle in `handles`.
    #[derive(Default)]
    struct Scripted {
        handles: Vec<EventId>,
        scripts: BTreeMap<u64, Vec<Inner>>,
        log: Vec<(u64, u64)>,
    }

    struct ScriptRunner;

    impl ScriptRunner {
        fn schedule(ctx: &mut Ctx<'_, Scripted, u64>, delay: u64) -> EventId {
            let tag = ctx.world.handles.len() as u64;
            let id = ctx.schedule_in(SimDuration::from_nanos(delay), tag);
            ctx.world.handles.push(id);
            id
        }
    }

    impl Actor<Scripted, u64> for ScriptRunner {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Scripted, u64>, tag: u64) {
            ctx.world.log.push((ctx.now().as_nanos(), tag));
            for inner in ctx.world.scripts.remove(&tag).unwrap_or_default() {
                match inner {
                    Inner::Schedule(delay) => {
                        Self::schedule(ctx, delay);
                    }
                    Inner::Cancel(n) => {
                        let id = ctx.world.handles[n % ctx.world.handles.len()];
                        ctx.cancel(id);
                    }
                    Inner::Recycle(delay) => {
                        let stale = Self::schedule(ctx, delay);
                        ctx.cancel(stale);
                        let fresh = Self::schedule(ctx, delay);
                        assert_eq!(fresh.slot(), stale.slot(), "slot was not recycled");
                        ctx.cancel(stale);
                    }
                }
            }
        }
    }

    /// The specification: live events as a `(time, tag)`-sorted `Vec`, tags
    /// issued in scheduling order.
    #[derive(Default)]
    struct Model {
        now: u64,
        issued: u64,
        live: Vec<(u64, u64)>,
        scripts: BTreeMap<u64, Vec<Inner>>,
        log: Vec<(u64, u64)>,
    }

    impl Model {
        fn schedule(&mut self, time: u64) -> u64 {
            let tag = self.issued;
            self.issued += 1;
            let at = self.live.partition_point(|&e| e < (time, tag));
            self.live.insert(at, (time, tag));
            tag
        }

        fn cancel(&mut self, tag: u64) {
            self.live.retain(|e| e.1 != tag);
        }

        fn step(&mut self) -> Option<u64> {
            if self.live.is_empty() {
                return None;
            }
            let (time, tag) = self.live.remove(0);
            self.now = time;
            self.log.push((time, tag));
            for inner in self.scripts.remove(&tag).unwrap_or_default() {
                match inner {
                    Inner::Schedule(delay) => {
                        self.schedule(time + delay);
                    }
                    Inner::Cancel(n) => self.cancel(n as u64 % self.issued),
                    Inner::Recycle(delay) => {
                        let stale = self.schedule(time + delay);
                        self.cancel(stale);
                        self.schedule(time + delay);
                    }
                }
            }
            Some(time)
        }

        fn run_until(&mut self, horizon: u64) {
            while self.live.first().is_some_and(|e| e.0 <= horizon) {
                self.step();
            }
            self.now = self.now.max(horizon);
        }
    }

    fn schedule_strategy(delays: std::ops::Range<u64>) -> impl Strategy<Value = Op> {
        let inner = prop_oneof![
            delays.clone().prop_map(Inner::Schedule),
            any::<usize>().prop_map(Inner::Cancel),
            delays.clone().prop_map(Inner::Recycle),
        ];
        (delays, proptest::collection::vec(inner, 0..4))
            .prop_map(|(delay, script)| Op::Schedule(delay, script))
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Scheduling outweighs draining so the heap grows several levels
        // deep; the dense delays force same-instant FIFO ties and the
        // sparse ones scatter cancels across every heap position.
        prop_oneof![
            schedule_strategy(0..40),
            schedule_strategy(0..5_000),
            schedule_strategy(0..5_000),
            any::<usize>().prop_map(Op::Cancel),
            Just(Op::Step),
            (0u64..300).prop_map(Op::RunUntil),
        ]
    }

    proptest! {
        /// Any interleaving of schedule / cancel / step / run_until — with
        /// cancels of live, stale, already-fired, and recycled-in-callback
        /// handles — dispatches exactly what the sorted-`Vec` model does,
        /// and the queue never holds anything but the live events.
        #[test]
        fn scheduler_matches_sorted_vec_model(
            ops in proptest::collection::vec(op_strategy(), 1..400),
        ) {
            let mut s = Simulation::new(Scripted::default(), 0);
            let actor = s.add_actor(Box::new(ScriptRunner));
            let mut model = Model::default();
            for op in ops {
                match op {
                    Op::Schedule(delay, script) => {
                        let time = s.now() + SimDuration::from_nanos(delay);
                        let tag = model.schedule(time.as_nanos());
                        let id = s.schedule(time, actor, tag);
                        s.world_mut().handles.push(id);
                        s.world_mut().scripts.insert(tag, script.clone());
                        model.scripts.insert(tag, script);
                    }
                    Op::Cancel(n) => {
                        if model.issued > 0 {
                            let tag = n as u64 % model.issued;
                            model.cancel(tag);
                            let id = s.world().handles[tag as usize];
                            s.cancel(id);
                        }
                    }
                    Op::Step => {
                        let stepped = s.step().map(SimTime::as_nanos);
                        prop_assert_eq!(stepped, model.step());
                    }
                    Op::RunUntil(span) => {
                        let horizon = s.now() + SimDuration::from_nanos(span);
                        s.run_until(horizon);
                        model.run_until(horizon.as_nanos());
                    }
                }
                s.queue.assert_consistent();
                prop_assert_eq!(s.live_events(), model.live.len());
                prop_assert_eq!(s.now().as_nanos(), model.now);
                prop_assert_eq!(&s.world().log, &model.log);
                prop_assert_eq!(s.world().handles.len() as u64, model.issued);
            }
            s.run();
            model.run_until(u64::MAX);
            prop_assert_eq!(&s.world().log, &model.log);
            prop_assert_eq!(s.live_events(), 0);
        }
    }
}
