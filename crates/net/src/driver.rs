//! The live UDP driver for [`proto::Machine`] state machines.
//!
//! One driver per machine, one thread per driver: the loop multiplexes a
//! `std::net::UdpSocket` (sealed datagrams in the [`crate::frame`]
//! format) with a monotonic-deadline [`TimerQueue`], translating both
//! into [`proto::Input`]s. Every [`proto::Env`] effect is interpreted
//! inline in emission order, exactly like the simulation adapter — the
//! machine cannot tell which driver it is riding.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use netsim::Addr;
use proto::{ClockState, Env, Input, Lie, Machine, AEX_RESUME_TOKEN};
use rand::rngs::StdRng;
use sim::{SimDuration, SimTime};
use trace::{NodeStateTag, Recorder};
use wire::Message;

use crate::board::Boards;
use crate::clock::MonoClock;
use crate::frame::{frame_into, parse_frame};
use crate::timers::TimerQueue;
use runtime::KeyTable;

/// Shortest socket wait (keeps timer precision ~tens of µs).
const MIN_WAIT_NS: u64 = 50_000;
/// Longest socket wait (bounds shutdown latency).
const MAX_IDLE_NS: u64 = 2_000_000;

/// Everything one live driver thread owns.
pub struct DriverConfig {
    /// The machine's bound socket (its directory entry).
    pub socket: UdpSocket,
    /// This endpoint's provisioned AEAD sessions.
    pub keys: KeyTable,
    /// The machine's seeded randomness stream.
    pub rng: StdRng,
    /// Whether this machine's recorder is the authority for its node's
    /// protocol state (true for protocol nodes, false for front-ends and
    /// generators, which only *read* the state board).
    pub publishes_state: bool,
}

/// Runs `machine` against real sockets and wall-clock timers until the
/// boards request shutdown. Returns the thread's [`Recorder`] — the same
/// traces the simulation driver would have produced into the `World`.
pub fn run_machine(
    mut machine: Box<dyn Machine + Send>,
    cfg: DriverConfig,
    directory: &HashMap<Addr, SocketAddr>,
    boards: &Boards,
    clock: MonoClock,
) -> Recorder {
    let DriverConfig { socket, mut keys, mut rng, publishes_state } = cfg;
    let me = machine.addr();
    let node_index = machine.node_index();
    let mut timers = TimerQueue::new();
    let mut recorder = Recorder::for_nodes(boards.nodes());
    let mut plain = Vec::new();
    let mut wire_buf = Vec::new();
    let mut open_buf = Vec::new();
    let mut buf = [0u8; 2048];

    {
        let mut env = LiveEnv {
            me,
            node_index,
            clock,
            boards,
            directory,
            socket: &socket,
            keys: &mut keys,
            timers: &mut timers,
            rng: &mut rng,
            recorder: &mut recorder,
            plain: &mut plain,
            wire_buf: &mut wire_buf,
        };
        machine.on_start(&mut env);
    }
    sync_state(publishes_state, node_index, &recorder, boards, &clock);

    loop {
        // Fire everything due before blocking on the socket again.
        while let Some(token) = timers.pop_due(clock.now_ns()) {
            let input =
                if token == AEX_RESUME_TOKEN { Input::AexResume } else { Input::Timer { token } };
            step(
                machine.as_mut(),
                input,
                me,
                node_index,
                clock,
                boards,
                directory,
                &socket,
                &mut keys,
                &mut timers,
                &mut rng,
                &mut recorder,
                &mut plain,
                &mut wire_buf,
            );
            sync_state(publishes_state, node_index, &recorder, boards, &clock);
        }
        if boards.shutting_down() {
            break;
        }
        let wait = timers
            .next_deadline()
            .map(|d| d.saturating_sub(clock.now_ns()))
            .unwrap_or(MAX_IDLE_NS)
            .clamp(MIN_WAIT_NS, MAX_IDLE_NS);
        // tt-lint: allow(panic-surface) — not the decode path: `wait` is
        // clamped to MIN_WAIT_NS above, so the only failure is a dead fd,
        // which no amount of network input can cause.
        socket.set_read_timeout(Some(Duration::from_nanos(wait))).expect("nonzero read timeout");
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => {
                if machine.crashed() {
                    continue; // a downed platform does not even open seals
                }
                // Every pre-machine drop is typed and counted, mirroring
                // the simulation's open_delivery accounting.
                let Some((src, sealed)) = parse_frame(&buf[..n]) else {
                    recorder.service.drops_frame.increment(clock.now());
                    continue;
                };
                open_buf.clear();
                if keys.open_into(me, src, sealed, &mut open_buf).is_err() {
                    recorder.service.drops_auth.increment(clock.now());
                    continue; // forged, tampered, or misrouted datagram
                }
                let Ok(msg) = Message::decode(&open_buf) else {
                    recorder.service.drops_decode.increment(clock.now());
                    continue;
                };
                step(
                    machine.as_mut(),
                    Input::Message { src, msg },
                    me,
                    node_index,
                    clock,
                    boards,
                    directory,
                    &socket,
                    &mut keys,
                    &mut timers,
                    &mut rng,
                    &mut recorder,
                    &mut plain,
                    &mut wire_buf,
                );
                sync_state(publishes_state, node_index, &recorder, boards, &clock);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {} // transient socket error: UDP semantics, drop and go on
        }
    }
    recorder
}

#[allow(clippy::too_many_arguments)]
fn step(
    machine: &mut dyn Machine,
    input: Input,
    me: Addr,
    node_index: Option<usize>,
    clock: MonoClock,
    boards: &Boards,
    directory: &HashMap<Addr, SocketAddr>,
    socket: &UdpSocket,
    keys: &mut KeyTable,
    timers: &mut TimerQueue,
    rng: &mut StdRng,
    recorder: &mut Recorder,
    plain: &mut Vec<u8>,
    wire_buf: &mut Vec<u8>,
) {
    let mut env = LiveEnv {
        me,
        node_index,
        clock,
        boards,
        directory,
        socket,
        keys,
        timers,
        rng,
        recorder,
        plain,
        wire_buf,
    };
    machine.on_input(&mut env, input);
}

/// Protocol nodes publish their recorder's state timeline to the shared
/// board after every step, so co-located front-ends (separate threads,
/// separate recorders) observe it through [`proto::Env::node_state`].
fn sync_state(
    publishes: bool,
    node_index: Option<usize>,
    recorder: &Recorder,
    boards: &Boards,
    clock: &MonoClock,
) {
    if publishes {
        if let Some(i) = node_index {
            boards.publish_state(i, recorder.node(i).states.state_at(clock.now()));
        }
    }
}

/// The live [`Env`]: wall clock, real sockets, shared boards.
struct LiveEnv<'a> {
    me: Addr,
    node_index: Option<usize>,
    clock: MonoClock,
    boards: &'a Boards,
    directory: &'a HashMap<Addr, SocketAddr>,
    socket: &'a UdpSocket,
    keys: &'a mut KeyTable,
    timers: &'a mut TimerQueue,
    rng: &'a mut StdRng,
    recorder: &'a mut Recorder,
    plain: &'a mut Vec<u8>,
    wire_buf: &'a mut Vec<u8>,
}

impl LiveEnv<'_> {
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
        self.rng
    }

    fn send(&mut self, dst: Addr, msg: &Message) -> bool {
        if !self.keys.has_session(self.me, dst) {
            return false;
        }
        let Some(&target) = self.directory.get(&dst) else {
            return false;
        };
        frame_into(self.keys, self.me, dst, msg, self.plain, self.wire_buf);
        self.socket.send_to(self.wire_buf, target).is_ok()
    }

    fn set_timer(&mut self, token: u64, after: SimDuration) {
        self.timers.arm(token, self.clock.now_ns().saturating_add(after.as_nanos()));
    }

    fn cancel_timer(&mut self, token: u64) {
        self.timers.cancel(token);
    }

    fn read_tsc(&mut self) -> u64 {
        self.boards.tsc(self.index()).read(self.clock.now_ns())
    }

    fn sample_inc(&mut self, wall: SimDuration) -> u64 {
        self.boards.inc().sample(wall, self.rng)
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
        self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SyntheticInc, SyntheticTsc};
    use rand::SeedableRng;

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

    #[test]
    fn sealed_round_trips_over_loopback() {
        let clock = MonoClock::start();
        let boards = Boards::new(vec![SyntheticTsc::new(3.0e9)], SyntheticInc::new(20_000.0, 10.0));
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let mut directory = HashMap::new();
        directory.insert(Addr(10), a.local_addr().expect("addr"));
        directory.insert(Addr(20), b.local_addr().expect("addr"));
        let mut keys_a = KeyTable::new();
        keys_a.provision_pair(Addr(10), Addr(20), [7u8; 32]);
        let mut keys_b = KeyTable::new();
        keys_b.provision_pair(Addr(10), Addr(20), [7u8; 32]);

        let recorders = crossbeam::thread::scope(|s| {
            let client = s.spawn(|_| {
                run_machine(
                    Box::new(EchoClient { me: Addr(10), peer: Addr(20) }),
                    DriverConfig {
                        socket: a,
                        keys: keys_a,
                        rng: StdRng::seed_from_u64(1),
                        publishes_state: false,
                    },
                    &directory,
                    &boards,
                    clock,
                )
            });
            let server = s.spawn(|_| {
                run_machine(
                    Box::new(EchoServer { me: Addr(20) }),
                    DriverConfig {
                        socket: b,
                        keys: keys_b,
                        rng: StdRng::seed_from_u64(2),
                        publishes_state: false,
                    },
                    &directory,
                    &boards,
                    clock,
                )
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
}
