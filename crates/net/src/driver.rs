//! The live UDP driver for [`proto::Machine`] state machines.
//!
//! One driver per machine, one thread per driver: the loop multiplexes
//! an [`Endpoint`] (sealed datagrams in the [`crate::frame`] format) with
//! a monotonic-deadline [`TimerQueue`], translating both into
//! [`proto::Input`]s. Every [`proto::Env`] effect is interpreted
//! inline in emission order, exactly like the simulation adapter — the
//! machine cannot tell which driver it is riding.

use netsim::Addr;
use proto::{ClockState, Env, Input, Lie, Machine, TimerId, AEX_RESUME_TOKEN};
use rand::rngs::StdRng;
use sim::{SimDuration, SimTime};
use trace::{NodeStateTag, Recorder};
use wire::Message;

use crate::board::Boards;
use crate::clock::MonoClock;
use crate::endpoint::{Dropped, Endpoint, Recv, MAX_IDLE_NS, MIN_WAIT_NS};
use crate::timers::TimerQueue;

/// Everything one live driver thread owns.
pub(crate) struct DriverConfig {
    /// The machine's bound address.
    pub(crate) endpoint: Endpoint,
    /// The machine's seeded randomness stream.
    pub(crate) rng: StdRng,
    /// Whether this machine's recorder is the authority for its node's
    /// protocol state (true for protocol nodes, false for front-ends and
    /// generators, which only *read* the state board).
    pub(crate) publishes_state: bool,
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
    env.sync_state();

    loop {
        // Fire everything due before blocking on the socket again.
        while let Some(token) = env.timers.pop_due(clock.now_ns()) {
            let input =
                if token == AEX_RESUME_TOKEN { Input::AexResume } else { Input::Timer { token } };
            machine.on_input(&mut env, input);
            env.sync_state();
        }
        if boards.shutting_down() {
            break;
        }
        let wait = env
            .timers
            .next_deadline()
            .map(|d| d.saturating_sub(clock.now_ns()))
            .unwrap_or(MAX_IDLE_NS)
            .clamp(MIN_WAIT_NS, MAX_IDLE_NS);
        let received = env.endpoint.recv(wait);
        if machine.crashed() {
            continue; // a downed platform hears nothing, not even a drop
        }
        match received {
            Recv::Message { src, msg } => {
                machine.on_input(&mut env, Input::Message { src, msg });
                env.sync_state();
            }
            // Every pre-machine drop is typed and counted, mirroring the
            // simulation's open_delivery accounting.
            Recv::Dropped(kind) => {
                let drops = &mut env.recorder.service;
                match kind {
                    Dropped::Frame => drops.drops_frame.increment(clock.now()),
                    Dropped::Auth => drops.drops_auth.increment(clock.now()),
                    Dropped::Decode => drops.drops_decode.increment(clock.now()),
                }
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
    publishes_state: bool,
    clock: MonoClock,
    boards: &'a Boards,
    endpoint: Endpoint,
    timers: TimerQueue,
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
            publishes_state: cfg.publishes_state,
            clock,
            boards,
            endpoint: cfg.endpoint,
            timers: TimerQueue::new(),
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

    /// Protocol nodes publish their recorder's state timeline to the
    /// shared board after every step, so co-located front-ends (separate
    /// threads, separate recorders) observe it through
    /// [`proto::Env::node_state`].
    fn sync_state(&self) {
        if self.publishes_state {
            if let Some(i) = self.node_index {
                let state = self.recorder.node(i).states.state_at(self.clock.now());
                self.boards.publish_state(i, state);
            }
        }
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
        self.timers.arm(token, self.clock.now_ns().saturating_add(after.as_nanos()))
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.timers.cancel(id);
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

    fn clock(&self, i: usize) -> ClockState {
        self.boards.clock(i)
    }

    fn node_state(&self, i: usize) -> Option<NodeStateTag> {
        self.boards.state(i)
    }

    fn lie(&self, _i: usize) -> Option<Lie> {
        None // the live runtime carries no fault injector
    }

    fn recorder(&mut self) -> &mut Recorder {
        &mut self.recorder
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
                    let now = env.now();
                    env.recorder().service.served_ok.increment(now);
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
        DriverConfig { endpoint, rng: StdRng::seed_from_u64(seed), publishes_state: false }
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
