//! The live UDP driver for [`proto::Machine`] state machines.
//!
//! One driver per machine, one thread per driver: the loop multiplexes
//! an [`Endpoint`] (sealed datagrams in the [`crate::frame`] format) with
//! the machine's timers, translating both into [`proto::Input`]s. The
//! timers arm in a [`sim::EventQueue`] keyed by monotonic deadline — the
//! simulation's own queue type — so they follow the simulation's rule
//! exactly: each arming fires unless its id is cancelled, and equal
//! deadlines fire in arming order. Every [`proto::Env`] effect is
//! interpreted inline in emission order, exactly like the simulation
//! adapter — the machine cannot tell which driver it is riding. The
//! `conformance` tests below hold the simulation adapter, this driver and
//! `proto::ScriptedEnv` to one `Env` contract.

use netsim::Addr;
use proto::{ClockState, Env, Input, Machine, TimerId};
use rand::rngs::StdRng;
use sim::{EventId, EventQueue, SimDuration, SimTime};
use trace::{NodeStateTag, ProtoEvent, Recorder};
use wire::Message;

use crate::board::Boards;
use crate::clock::MonoClock;
use crate::endpoint::{Endpoint, Recv, MAX_IDLE_NS, MIN_WAIT_NS};

/// Everything one live driver thread owns.
pub(crate) struct DriverConfig {
    /// The machine's bound address.
    pub(crate) endpoint: Endpoint,
    /// The machine's seeded randomness stream.
    pub(crate) rng: StdRng,
}

/// Runs `machine` against real sockets and wall-clock timers until the
/// boards request shutdown. Returns the thread's [`Recorder`] — the same
/// traces the simulation driver would have produced into the `World`.
pub(crate) fn run_machine(
    mut machine: Box<dyn Machine + Send>,
    cfg: DriverConfig,
    boards: &Boards,
    clock: MonoClock,
) -> Recorder {
    let mut env = LiveEnv::new(machine.node_index(), cfg, boards, clock);
    machine.on_start(&mut env);

    loop {
        // Fire everything due before blocking on the socket again.
        while let Some(token) = env.timers.pop_due(clock.now()) {
            machine.on_input(&mut env, Input::timer(token));
        }
        if boards.shutting_down() {
            break;
        }
        let wait = env
            .timers
            .peek_time()
            .map(|d| d.as_nanos().saturating_sub(clock.now_ns()))
            .unwrap_or(MAX_IDLE_NS)
            .clamp(MIN_WAIT_NS, MAX_IDLE_NS);
        let received = env.endpoint.recv(wait);
        if machine.crashed() {
            continue; // a downed platform hears nothing, not even a drop
        }
        match received {
            Recv::Message { src, msg } => machine.on_input(&mut env, Input::Message { src, msg }),
            // Every pre-machine drop is typed and counted, mirroring the
            // simulation's open_delivery accounting.
            Recv::Dropped(reason) => {
                env.recorder.apply(clock.now(), None, ProtoEvent::Drop(reason))
            }
            Recv::Idle => {}
        }
    }
    env.recorder
}

/// The live [`Env`]: wall clock, real sockets, shared boards. One value
/// per driver thread, alive for the whole loop.
struct LiveEnv<'a> {
    node_index: Option<usize>,
    clock: MonoClock,
    boards: &'a Boards,
    endpoint: Endpoint,
    timers: EventQueue<u64>,
    rng: StdRng,
    recorder: Recorder,
}

impl<'a> LiveEnv<'a> {
    fn new(
        node_index: Option<usize>,
        cfg: DriverConfig,
        boards: &'a Boards,
        clock: MonoClock,
    ) -> Self {
        LiveEnv {
            node_index,
            clock,
            boards,
            endpoint: cfg.endpoint,
            timers: EventQueue::new(),
            rng: cfg.rng,
            recorder: Recorder::for_nodes(boards.nodes()),
        }
    }

    fn index(&self) -> usize {
        // tt-lint: allow(panic-surface) — a node-only capability invoked by
        // a machine wired without a node index is a local construction
        // error, never reachable from network input (mirrors SimEnv).
        self.node_index.expect("machine has no co-located node for this capability")
    }
}

impl Env for LiveEnv<'_> {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn send(&mut self, dst: Addr, msg: &Message) -> bool {
        self.endpoint.send(dst, msg)
    }

    fn set_timer(&mut self, token: u64, after: SimDuration) -> TimerId {
        let deadline = SimTime::from_nanos(self.clock.now_ns().saturating_add(after.as_nanos()));
        TimerId::new(token, self.timers.arm(deadline, token).to_bits())
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.timers.cancel(EventId::from_bits(id.handle()));
    }

    fn read_tsc(&mut self) -> u64 {
        self.boards.host(self.index()).read_tsc(self.clock.now())
    }

    fn sample_inc(&mut self, wall: SimDuration) -> u64 {
        self.boards.host(self.index()).sample_inc(wall, &mut self.rng)
    }

    fn publish_clock(&mut self, clock: ClockState) {
        let i = self.index();
        self.boards.publish_clock(i, clock);
    }

    fn clock(&self) -> ClockState {
        self.boards.clock(self.index())
    }

    fn node_state(&self) -> Option<NodeStateTag> {
        self.boards.state(self.index())
    }

    /// A node's own [`ProtoEvent::State`] also goes to the shared board
    /// as it happens, so co-located front-ends (separate threads, separate
    /// recorders) observe it through [`proto::Env::node_state`].
    fn emit(&mut self, event: ProtoEvent) {
        if let (ProtoEvent::State(state), Some(i)) = (event, self.node_index) {
            self.boards.publish_state(i, Some(state));
        }
        self.recorder.apply(self.clock.now(), self.node_index, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::tests::{hostile_datagrams, raw_peer};
    use proto::node_addr;
    use rand::SeedableRng;
    use runtime::Host;
    use std::time::Duration;

    /// Sends one `PeerTimeRequest` per timer tick and counts answers
    /// through the service trace.
    struct EchoClient {
        me: Addr,
        peer: Addr,
    }

    impl Machine for EchoClient {
        fn addr(&self) -> Addr {
            self.me
        }
        fn on_start(&mut self, env: &mut dyn Env) {
            env.set_timer(1, SimDuration::from_millis(1));
        }
        fn on_input(&mut self, env: &mut dyn Env, input: Input) {
            match input {
                Input::Timer { token: 1 } => {
                    env.send(self.peer, &Message::PeerTimeRequest { nonce: 7 });
                    env.set_timer(1, SimDuration::from_millis(1));
                }
                Input::Message { msg: Message::PeerTimeResponse { .. }, .. } => {
                    env.emit(ProtoEvent::ServedOk { latency: SimDuration::ZERO });
                }
                _ => {}
            }
        }
    }

    /// Answers every request with the echoed nonce.
    struct EchoServer {
        me: Addr,
    }

    impl Machine for EchoServer {
        fn addr(&self) -> Addr {
            self.me
        }
        fn on_input(&mut self, env: &mut dyn Env, input: Input) {
            if let Input::Message { src, msg: Message::PeerTimeRequest { nonce } } = input {
                env.send(src, &Message::PeerTimeResponse { nonce, timestamp_ns: nonce });
            }
        }
    }

    fn config(endpoint: Endpoint, seed: u64) -> DriverConfig {
        DriverConfig { endpoint, rng: StdRng::seed_from_u64(seed) }
    }

    fn boards() -> Boards {
        Boards::new(vec![Host::paper_default()])
    }

    /// The live host is the simulation's: `read_tsc` is its host's TSC at
    /// the monotonic instant of the call, and `sample_inc` its `IncModel`
    /// at the core's current frequency.
    #[test]
    fn live_env_reads_the_simulation_host_at_monotonic_time() {
        let clock = MonoClock::start();
        let boards = boards();
        let host = boards.host(0);
        let (_raw, _keys, _directory, endpoint) = raw_peer(Addr(10), node_addr(0));
        let mut env = LiveEnv::new(Some(0), config(endpoint, 3), &boards, clock);

        for _ in 0..20 {
            let before = host.read_tsc(clock.now());
            let ticks = env.read_tsc();
            let after = host.read_tsc(clock.now());
            assert!(before <= ticks && ticks <= after, "{before} <= {ticks} <= {after}");
        }
        let wall = SimDuration::from_millis(100);
        let expected = host.inc.expected_count(wall, host.core.current_hz());
        let band = host.inc.jitter_inc as f64 + 0.5; // ± jitter around the rounded mean
        for _ in 0..50 {
            let inc = env.sample_inc(wall) as f64;
            assert!((inc - expected).abs() <= band, "{inc} outside {expected} ± {band}");
        }
    }

    /// A node's own `State` event reaches the board as it is emitted; a
    /// node-indexed machine that emits other events, as a front-end does,
    /// leaves its board empty.
    #[test]
    fn only_an_emitted_state_reaches_the_board() {
        let clock = MonoClock::start();
        let boards = Boards::new(vec![Host::paper_default(); 2]);
        let (_node_raw, _, _, node_endpoint) = raw_peer(Addr(10), node_addr(0));
        let (_frontend_raw, _, _, frontend_endpoint) = raw_peer(Addr(11), node_addr(1));
        let mut node = LiveEnv::new(Some(0), config(node_endpoint, 1), &boards, clock);
        let mut frontend = LiveEnv::new(Some(1), config(frontend_endpoint, 2), &boards, clock);

        node.emit(ProtoEvent::State(NodeStateTag::Ok));
        frontend.emit(ProtoEvent::FrontendServed);
        assert_eq!(boards.state(0), Some(NodeStateTag::Ok));
        assert_eq!(boards.state(1), None);

        node.emit(ProtoEvent::State(NodeStateTag::Tainted));
        assert_eq!(boards.state(0), Some(NodeStateTag::Tainted));
        assert_eq!(node.recorder.node(0).states.transitions().len(), 2);
    }

    #[test]
    fn sealed_round_trips_over_loopback() {
        let clock = MonoClock::start();
        let boards = boards();
        let (a, keys_a, directory, b) = raw_peer(Addr(10), Addr(20));
        let a = Endpoint::new(Addr(10), a, keys_a, directory);

        let recorders = crossbeam::thread::scope(|s| {
            let client = s.spawn(|_| {
                let machine = Box::new(EchoClient { me: Addr(10), peer: Addr(20) });
                run_machine(machine, config(a, 1), &boards, clock)
            });
            let server = s.spawn(|_| {
                run_machine(Box::new(EchoServer { me: Addr(20) }), config(b, 2), &boards, clock)
            });
            std::thread::sleep(Duration::from_millis(150));
            boards.request_shutdown();
            (client.join().expect("client"), server.join().expect("server"))
        })
        .expect("scope");

        assert!(
            recorders.0.service.served_ok.count() >= 5,
            "expected several sealed round trips, saw {}",
            recorders.0.service.served_ok.count()
        );
    }

    #[test]
    fn hostile_datagrams_land_in_the_three_drop_counters() {
        let clock = MonoClock::start();
        let boards = boards();
        let (raw, mut keys, directory, server) = raw_peer(Addr(10), Addr(20));
        let target = directory[&Addr(20)];
        // One runt, two forged prefixes, three undecodable seals: the
        // counts tell the kinds apart.
        let hostile = hostile_datagrams(&mut keys, Addr(10), Addr(20));

        let recorder = crossbeam::thread::scope(|s| {
            let server = s.spawn(|_| {
                let machine = Box::new(EchoServer { me: Addr(20) });
                run_machine(machine, config(server, 2), &boards, clock)
            });
            for (datagram, copies) in hostile.iter().zip(1..) {
                for _ in 0..copies {
                    raw.send_to(datagram, target).expect("send");
                }
            }
            // One socket, FIFO on loopback: the echo proves the six bad
            // datagrams were consumed first and did not wedge the loop.
            let mut client = Endpoint::new(Addr(10), raw, keys, directory);
            assert!(client.send(Addr(20), &Message::PeerTimeRequest { nonce: 9 }));
            let answer = client.recv(1_000_000_000);
            boards.request_shutdown();
            let msg = Message::PeerTimeResponse { nonce: 9, timestamp_ns: 9 };
            assert_eq!(answer, Recv::Message { src: Addr(20), msg });
            server.join().expect("server")
        })
        .expect("scope");

        let drops = &recorder.service;
        assert_eq!(
            (drops.drops_frame.count(), drops.drops_auth.count(), drops.drops_decode.count()),
            (1, 2, 3)
        );
    }
}

/// The `Env` conformance suite: one probe machine and one generic body,
/// run against all three `Env`s — the simulation's `SimEnv` (through
/// `runtime::MachineActor`), this driver's `LiveEnv` on a loopback
/// endpoint, and `proto::ScriptedEnv`. The body asserts order and counts,
/// and that no timer fires before its deadline — never how long anything
/// took — so the live instance is as repeatable as the other two. An
/// `Env` that cannot express a case names it in [`Driver::SKIPS`] and the
/// run prints the skip.
#[cfg(test)]
mod conformance {
    use super::*;
    use crate::endpoint::tests::raw_peer;
    use netsim::{DelayModel, Network};
    use proto::{ScriptedEnv, TA_ADDR};
    use rand::SeedableRng;
    use runtime::{Host, MachineActor, World};
    use sim::Simulation;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    /// The cases, by the names failures and skips use.
    const CASES: [&str; 8] = [
        "arm",
        "rearm_keeps_both_armings",
        "stale_cancel_is_a_no_op",
        "equal_deadlines_fire_in_arming_order",
        "now_never_decreases",
        "emit_folds_to_the_same_recorder",
        "publish_clock_round_trips",
        "failed_send_is_silent",
    ];

    const ARM: u64 = 1;
    /// Armed twice while armed: both fire.
    const REARM: u64 = 2;
    /// Armed twice; the first arming is cancelled by its id.
    const KEPT: u64 = 3;
    /// Cancelled twice before it is due.
    const CANCELLED: u64 = 4;
    /// Re-armed as it fires (into the queue slot the firing freed), after
    /// which the fired id and the cancelled one are cancelled again.
    const STALE: u64 = 5;
    /// Armed in this order with one delay. Descending, so a queue that
    /// broke ties by token would fire them backwards.
    const TIES: [u64; 5] = [15, 14, 13, 12, 11];
    /// Every firing the rule allows: ARM once, REARM twice, KEPT once,
    /// STALE twice, each tie once.
    const FIRINGS: usize = 11;

    const CLOCK: ClockState = ClockState {
        valid: true,
        anchor_ref_ns: 5e8,
        anchor_ticks: 42,
        f_calib_hz: 2.9e9,
        uncertainty_ns: 1e3,
    };

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// What the probe saw; shared, because the live driver runs the probe
    /// on a thread of its own.
    #[derive(Debug, Default)]
    struct Seen {
        start: SimTime,
        /// Every input with [`Env::now`] as its step began, in order.
        inputs: Vec<(SimTime, Input)>,
        clock: Option<ClockState>,
        sent: Option<bool>,
    }

    impl Seen {
        fn firings(&self, token: u64) -> Vec<SimTime> {
            self.inputs
                .iter()
                .filter(|(_, i)| *i == Input::Timer { token })
                .map(|&(t, _)| t)
                .collect()
        }

        fn timer_count(&self) -> usize {
            self.inputs.iter().filter(|(_, i)| matches!(i, Input::Timer { .. })).count()
        }
    }

    /// Sets every case up on start; STALE's second arming happens as it
    /// first fires.
    struct Probe {
        seen: Arc<Mutex<Seen>>,
        /// Whether to try `failed_send_is_silent`'s send.
        send: bool,
        stale: Option<TimerId>,
        cancelled: Option<TimerId>,
    }

    impl Machine for Probe {
        fn addr(&self) -> Addr {
            proto::node_addr(0)
        }

        fn node_index(&self) -> Option<usize> {
            Some(0)
        }

        fn on_start(&mut self, env: &mut dyn Env) {
            let mut seen = self.seen.lock().expect("seen");
            seen.start = env.now();
            env.set_timer(ARM, ms(2));
            env.set_timer(REARM, ms(3));
            env.set_timer(REARM, ms(5));
            let first = env.set_timer(KEPT, ms(4));
            env.set_timer(KEPT, ms(6));
            env.cancel_timer(first);
            let doomed = env.set_timer(CANCELLED, ms(1));
            env.cancel_timer(doomed);
            env.cancel_timer(doomed);
            self.cancelled = Some(doomed);
            self.stale = Some(env.set_timer(STALE, ms(1)));
            for token in TIES {
                env.set_timer(token, ms(7));
            }
            env.emit(ProtoEvent::State(NodeStateTag::Ok));
            env.emit(ProtoEvent::FrontendServed);
            env.emit(ProtoEvent::ServedOk { latency: ms(1) });
            env.publish_clock(CLOCK);
            seen.clock = Some(env.clock());
            if self.send {
                seen.sent = Some(env.send(TA_ADDR, &Message::PeerTimeRequest { nonce: 1 }));
            }
        }

        fn on_input(&mut self, env: &mut dyn Env, input: Input) {
            let now = env.now();
            if input == (Input::Timer { token: STALE }) {
                if let Some(fired) = self.stale.take() {
                    // First thing in the step, so the new arming reuses
                    // the fired one's slot: only the generation tells
                    // the two ids apart.
                    env.set_timer(STALE, ms(1));
                    env.cancel_timer(fired);
                    env.cancel_timer(self.cancelled.expect("armed on start"));
                }
            }
            self.seen.lock().expect("seen").inputs.push((now, input));
        }
    }

    /// One `Env` under test.
    trait Driver {
        const NAME: &'static str;
        /// Cases this `Env` cannot express, each with the reason.
        const SKIPS: &'static [(&'static str, &'static str)] = &[];
        /// Runs `probe` until its timers are done and returns the
        /// recorder its events were folded into.
        fn run(probe: Probe) -> Recorder;
    }

    /// The generic body.
    fn conformance<D: Driver>() {
        let skip = |case: &str| D::SKIPS.iter().find(|(c, _)| *c == case).map(|&(_, why)| why);
        for (case, _) in D::SKIPS {
            assert!(CASES.contains(case), "{} skips unknown case `{case}`", D::NAME);
        }
        let seen = Arc::new(Mutex::new(Seen::default()));
        let send = skip("failed_send_is_silent").is_none();
        let probe = Probe { seen: Arc::clone(&seen), send, stale: None, cancelled: None };
        let recorder = D::run(probe);
        let seen = seen.lock().expect("seen");
        for case in CASES {
            match skip(case) {
                Some(why) => eprintln!("{}: skipped `{case}`: {why}", D::NAME),
                None => check(case, &seen, &recorder),
            }
        }
    }

    fn check(case: &str, seen: &Seen, recorder: &Recorder) {
        let after = |d: u64| seen.start + ms(d);
        // `token` fired once per deadline, and never before it.
        let fires = |token: u64, deadlines: &[SimTime]| {
            let fired = seen.firings(token);
            assert_eq!(fired.len(), deadlines.len(), "{case}: token {token} fired at {fired:?}");
            for (at, due) in fired.iter().zip(deadlines) {
                assert!(at >= due, "{case}: token {token} fired at {at}, before {due}");
            }
        };
        match case {
            "arm" => fires(ARM, &[after(2)]),
            "rearm_keeps_both_armings" => {
                fires(REARM, &[after(3), after(5)]);
                fires(KEPT, &[after(6)]);
            }
            "stale_cancel_is_a_no_op" => {
                fires(CANCELLED, &[]);
                let first = seen.firings(STALE).first().copied();
                let first = first.unwrap_or_else(|| panic!("{case}: token {STALE} never fired"));
                fires(STALE, &[after(1), first + ms(1)]);
            }
            "equal_deadlines_fire_in_arming_order" => {
                let order: Vec<u64> = seen
                    .inputs
                    .iter()
                    .filter_map(|(_, input)| match *input {
                        Input::Timer { token } if TIES.contains(&token) => Some(token),
                        _ => None,
                    })
                    .collect();
                assert_eq!(order, TIES, "{case}");
                for token in TIES {
                    fires(token, &[after(7)]);
                }
            }
            "now_never_decreases" => {
                let mut last = seen.start;
                for (at, input) in &seen.inputs {
                    assert!(*at >= last, "{case}: {input:?} at {at}, after {last}");
                    last = *at;
                }
                assert_eq!(seen.timer_count(), FIRINGS, "{case}: {:?}", seen.inputs);
            }
            "emit_folds_to_the_same_recorder" => {
                let node = recorder.node(0);
                let states: Vec<NodeStateTag> =
                    node.states.transitions().iter().map(|&(_, state)| state).collect();
                assert_eq!(states, [NodeStateTag::Ok], "{case}");
                assert_eq!(node.frontend_served.count(), 1, "{case}");
                assert_eq!(recorder.service.served_ok.count(), 1, "{case}");
            }
            "publish_clock_round_trips" => assert_eq!(seen.clock, Some(CLOCK), "{case}"),
            "failed_send_is_silent" => {
                assert_eq!(seen.sent, Some(false), "{case}");
                let heard = seen.inputs.iter().find(|(_, i)| matches!(i, Input::Message { .. }));
                assert_eq!(heard, None, "{case}");
                assert_eq!(recorder.service.drops(), 0, "{case}");
            }
            other => unreachable!("case `{other}` has no check"),
        }
    }

    struct Sim;

    impl Driver for Sim {
        const NAME: &'static str = "SimEnv";

        fn run(probe: Probe) -> Recorder {
            let me = probe.addr();
            let net = Network::new(DelayModel::Constant(ms(1)), 0.0);
            let mut world = World::new(net, vec![Host::paper_default()]);
            world.provision_all_keys(1);
            // The fabric drops the probe's send at the source.
            world.net.block_link(me, TA_ADDR);
            let mut s = Simulation::new(world, 1);
            let id = s.add_actor(Box::new(MachineActor::new(probe)));
            s.world_mut().register_actor(me, id);
            s.run();
            s.into_world().recorder
        }
    }

    struct Live;

    impl Driver for Live {
        const NAME: &'static str = "LiveEnv";

        fn run(probe: Probe) -> Recorder {
            let clock = MonoClock::start();
            let boards = Boards::new(vec![Host::paper_default()]);
            // The directory names the probe and a raw peer only, so the
            // TA is unreachable.
            let (_raw, _keys, _directory, endpoint) = raw_peer(Addr(10), probe.addr());
            let cfg = DriverConfig { endpoint, rng: StdRng::seed_from_u64(1) };
            let seen = Arc::clone(&probe.seen);
            crossbeam::thread::scope(|s| {
                let driver = s.spawn(|_| run_machine(Box::new(probe), cfg, &boards, clock));
                // Stop at the rule's last firing; the bound only keeps a
                // broken queue from hanging the test.
                let give_up = Instant::now() + Duration::from_secs(10);
                while seen.lock().expect("seen").timer_count() < FIRINGS && Instant::now() < give_up
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                boards.request_shutdown();
                driver.join().expect("driver")
            })
            .expect("scope")
        }
    }

    struct Scripted;

    impl Driver for Scripted {
        const NAME: &'static str = "ScriptedEnv";
        const SKIPS: &'static [(&'static str, &'static str)] = &[(
            "failed_send_is_silent",
            "ScriptedEnv records every send as an effect and reports it sent",
        )];

        fn run(mut probe: Probe) -> Recorder {
            let mut env = ScriptedEnv::new(1, 1);
            probe.on_start(&mut env);
            while let Some(input) = env.fire_next() {
                probe.on_input(&mut env, input);
            }
            env.recorder
        }
    }

    #[test]
    fn sim_env_conforms() {
        conformance::<Sim>();
    }

    #[test]
    fn live_env_conforms() {
        conformance::<Live>();
    }

    #[test]
    fn scripted_env_conforms() {
        conformance::<Scripted>();
    }
}
