//! Live cluster orchestration: sockets, keys, threads, and reports.
//!
//! [`run_cluster`] is the real-runtime counterpart of the simulation's
//! harness builders. It binds one loopback UDP socket per endpoint,
//! derives the pairwise AEAD keys every link needs from the cluster seed,
//! spawns one scoped thread per protocol machine (plus the Time
//! Authority), runs a caller-supplied body on the main thread while the
//! cluster is live, and joins everything back into a [`LiveReport`]
//! carrying the same per-thread [`Recorder`] traces the simulation
//! driver fills in.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use netsim::Addr;
use proto::{node_addr, ClockState, NonceWindow, RetryPolicy, TA_ADDR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use runtime::KeyTable;
pub use service::{frontend_addr, generator_addr};
use service::{
    Frontend, FrontendSpec, OpenLoopGen, OpenLoopSpec, QuorumGen, QuorumLoopSpec, RouterSpec,
};
use trace::{NodeStateTag, Recorder};
use triad_core::{TriadConfig, TriadNode};
use wire::{Message, ServeOutcome};

use crate::authority::{run_authority, AuthorityReport};
use crate::board::Boards;
use crate::clock::{MonoClock, SyntheticInc, SyntheticTsc};
use crate::driver::{run_machine, DriverConfig};
use crate::frame::{frame_into, parse_frame};

/// Address of external blocking client `c` (matches the simulated layout).
pub fn client_addr(c: usize) -> Addr {
    Addr(u16::try_from(1000 + c).expect("client address fits u16"))
}

/// Everything needed to stand up one live loopback cluster.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    /// Protocol node count.
    pub nodes: usize,
    /// Cluster seed: drives pairwise key derivation and every thread's
    /// private RNG stream.
    pub seed: u64,
    /// Protocol configuration for each node.
    pub node_cfg: TriadConfig,
    /// When true, no TA and no protocol-node threads run: the clock and
    /// state boards are pre-anchored valid/Ok, so front-ends serve from
    /// the first datagram. Used by the repo benchmark's `live_closed`
    /// workload and by serving-only tests.
    pub precalibrated: bool,
    /// Per-node serving front-end parameters.
    pub frontend: FrontendSpec,
    /// Routing policy shared by the load generators.
    pub router: RouterSpec,
    /// Optional open-loop serve-load generator.
    pub open_loop: Option<OpenLoopSpec>,
    /// Optional open-loop quorum-read generator.
    pub quorum_loop: Option<QuorumLoopSpec>,
    /// Nominal TSC frequency; node `i` runs at a deterministic per-node
    /// offset around it so calibration has real skews to discover.
    pub tsc_nominal_hz: f64,
    /// Half-spread (ppm) of the per-node true-frequency offsets.
    pub tsc_spread_ppm: f64,
    /// Synthetic interrupt-counter rate for the §IV-A.1 monitor.
    pub inc_rate_hz: f64,
    /// Relative INC jitter (ppm) per monitor sample.
    pub inc_jitter_ppm: f64,
    /// Pre-bound external blocking clients handed to the body via
    /// [`LiveHandle::client`].
    pub external_clients: usize,
}

impl Default for LiveSpec {
    fn default() -> Self {
        LiveSpec {
            nodes: 3,
            seed: 7,
            node_cfg: TriadConfig::default(),
            precalibrated: false,
            frontend: FrontendSpec::default(),
            router: RouterSpec::default(),
            open_loop: None,
            quorum_loop: None,
            tsc_nominal_hz: 3.0e9,
            tsc_spread_ppm: 40.0,
            // High enough that integer quantization over a 100 ms monitor
            // window (±1 count) stays far below the 100 ppm detection
            // threshold: 5 MHz → 500k counts → ~2 ppm quantization.
            inc_rate_hz: 5_000_000.0,
            inc_jitter_ppm: 10.0,
            external_clients: 0,
        }
    }
}

impl LiveSpec {
    /// Node `i`'s true TSC frequency: the nominal rate offset by a
    /// deterministic, centered per-node skew.
    pub fn true_hz(&self, i: usize) -> f64 {
        let centered = i as f64 - (self.nodes as f64 - 1.0) / 2.0;
        self.tsc_nominal_hz * (1.0 + self.tsc_spread_ppm * 1e-6 * centered)
    }
}

/// What one live run produced: the per-thread trace recorders, in the
/// same vocabulary the simulation harness reports.
#[derive(Debug)]
pub struct LiveReport {
    /// One recorder per protocol-node thread (empty when precalibrated).
    pub nodes: Vec<Recorder>,
    /// One recorder per front-end thread.
    pub frontends: Vec<Recorder>,
    /// One recorder per generator thread.
    pub generators: Vec<Recorder>,
    /// TA service counters (absent when precalibrated).
    pub authority: Option<AuthorityReport>,
    /// Each node's true TSC frequency, for judging calibration accuracy.
    pub true_hz: Vec<f64>,
}

/// The body's view of a running cluster.
pub struct LiveHandle<'a> {
    /// The cluster's shared monotonic epoch.
    pub clock: MonoClock,
    boards: &'a Boards,
    frontends: Vec<Addr>,
    clients: Vec<LiveClient>,
}

impl LiveHandle<'_> {
    /// Addresses of the serving front-ends, in node order.
    pub fn frontends(&self) -> &[Addr] {
        &self.frontends
    }

    /// Node `i`'s currently published clock parameters.
    pub fn published_clock(&self, i: usize) -> ClockState {
        self.boards.clock(i)
    }

    /// Node `i`'s currently published protocol state.
    pub fn node_state(&self, i: usize) -> Option<NodeStateTag> {
        self.boards.state(i)
    }

    /// External blocking client `c` (panics when out of range).
    pub fn client(&mut self, c: usize) -> &mut LiveClient {
        &mut self.clients[c]
    }
}

/// A synchronous request/response client over a real socket — the live
/// analogue of the simulated `ClientWorkload`, sharing its dedup
/// ([`NonceWindow`]) and backoff ([`RetryPolicy`]) types.
#[derive(Debug)]
pub struct LiveClient {
    me: Addr,
    socket: UdpSocket,
    keys: KeyTable,
    clock: MonoClock,
    window: NonceWindow,
    retry: RetryPolicy,
    rng: StdRng,
    next_nonce: u64,
    plain: Vec<u8>,
    wire_buf: Vec<u8>,
    open_buf: Vec<u8>,
    directory: HashMap<Addr, SocketAddr>,
}

impl LiveClient {
    /// One serve round-trip against `frontend`: sends a `ServeRequest`,
    /// resends it (same nonce — the dedup key) with backoff on timeout,
    /// and returns the served latency in nanoseconds. `None` when every
    /// attempt timed out or the cluster answered overloaded/unavailable.
    pub fn serve(&mut self, frontend: Addr, per_attempt: Duration, attempts: u32) -> Option<u64> {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.window.insert(nonce);
        let target = *self.directory.get(&frontend)?;
        let msg = Message::ServeRequest { nonce, accept_degraded: true };
        let started = self.clock.now_ns();
        let mut buf = [0u8; 2048];
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                // Losses are real here: back off with the shared policy
                // before hammering the same nonce again.
                let pause = self.retry.backoff(
                    sim::SimDuration::from_nanos(per_attempt.as_nanos() as u64 / 4),
                    attempt - 1,
                    &mut self.rng,
                );
                std::thread::sleep(Duration::from_nanos(pause.as_nanos()));
            }
            frame_into(
                &mut self.keys,
                self.me,
                frontend,
                &msg,
                &mut self.plain,
                &mut self.wire_buf,
            );
            if self.socket.send_to(&self.wire_buf, target).is_err() {
                continue;
            }
            let deadline = self.clock.now_ns() + per_attempt.as_nanos() as u64;
            loop {
                let left = deadline.saturating_sub(self.clock.now_ns());
                if left == 0 {
                    break;
                }
                self.socket
                    .set_read_timeout(Some(Duration::from_nanos(left.max(50_000))))
                    .expect("nonzero read timeout");
                let Ok((n, _)) = self.socket.recv_from(&mut buf) else { break };
                let Some((src, sealed)) = parse_frame(&buf[..n]) else { continue };
                self.open_buf.clear();
                if self.keys.open_into(self.me, src, sealed, &mut self.open_buf).is_err() {
                    continue;
                }
                let Ok(Message::ServeResponse { nonce: answered, outcome }) =
                    Message::decode(&self.open_buf)
                else {
                    continue;
                };
                if !self.window.take(answered) {
                    continue; // duplicate, stale straggler, or never issued
                }
                if answered != nonce {
                    continue; // an evicted predecessor's late answer
                }
                return match outcome {
                    ServeOutcome::Time(_) | ServeOutcome::Reading(_) => {
                        Some(self.clock.now_ns().saturating_sub(started))
                    }
                    ServeOutcome::Overloaded | ServeOutcome::Unavailable => None,
                };
            }
        }
        None
    }
}

/// Deterministic pairwise link key: both endpoints derive the same 32
/// bytes from the cluster seed and the unordered address pair.
fn pair_key(seed: u64, a: Addr, b: Addr) -> [u8; 32] {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    let mut rng = StdRng::seed_from_u64(
        seed ^ (u64::from(lo) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ ((u64::from(hi) + 1) << 17),
    );
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    key
}

/// Per-thread RNG stream, decorrelated by endpoint address.
fn thread_rng_for(seed: u64, addr: Addr) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_add(0x5851_f42d_4c95_7f2d).wrapping_mul(u64::from(addr.0) + 3),
    )
}

fn keys_for(seed: u64, me: Addr, peers: &[Addr]) -> KeyTable {
    let mut keys = KeyTable::new();
    for &p in peers {
        keys.provision_pair(me, p, pair_key(seed, me, p));
    }
    keys
}

fn bind_endpoint(directory: &mut HashMap<Addr, SocketAddr>, addr: Addr) -> UdpSocket {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket");
    directory.insert(addr, socket.local_addr().expect("bound socket has an address"));
    socket
}

/// Stands up the cluster described by `spec`, runs `body` on the calling
/// thread while it is live, then shuts every driver down and collects
/// their traces. Returns the report alongside the body's own result.
pub fn run_cluster<R>(
    spec: &LiveSpec,
    body: impl FnOnce(&mut LiveHandle<'_>) -> R,
) -> (LiveReport, R) {
    let clock = MonoClock::start();
    let n = spec.nodes;
    let true_hz: Vec<f64> = (0..n).map(|i| spec.true_hz(i)).collect();
    let boards = Boards::new(
        true_hz.iter().map(|&hz| SyntheticTsc::new(hz)).collect(),
        SyntheticInc::new(spec.inc_rate_hz, spec.inc_jitter_ppm),
    );

    let node_addrs: Vec<Addr> = (0..n).map(node_addr).collect();
    let frontend_addrs: Vec<Addr> = (0..n).map(frontend_addr).collect();
    let mut generators: Vec<Addr> = Vec::new();
    if spec.open_loop.is_some() {
        generators.push(generator_addr(generators.len()));
    }
    if spec.quorum_loop.is_some() {
        generators.push(generator_addr(generators.len()));
    }
    let client_addrs: Vec<Addr> = (0..spec.external_clients).map(client_addr).collect();

    // Bind every endpoint before spawning anything: the directory must be
    // complete (and immutable) when the first datagram flies.
    let mut directory = HashMap::new();
    let ta_socket = (!spec.precalibrated).then(|| bind_endpoint(&mut directory, TA_ADDR));
    let node_sockets: Vec<UdpSocket> = if spec.precalibrated {
        Vec::new()
    } else {
        node_addrs.iter().map(|&a| bind_endpoint(&mut directory, a)).collect()
    };
    let frontend_sockets: Vec<UdpSocket> =
        frontend_addrs.iter().map(|&a| bind_endpoint(&mut directory, a)).collect();
    let generator_sockets: Vec<UdpSocket> =
        generators.iter().map(|&a| bind_endpoint(&mut directory, a)).collect();
    let client_sockets: Vec<UdpSocket> =
        client_addrs.iter().map(|&a| bind_endpoint(&mut directory, a)).collect();

    if spec.precalibrated {
        // No protocol threads: anchor every node's clock at the shared
        // epoch with its true frequency and pin its state to Ok, exactly
        // what a converged calibration would have published.
        for (i, &hz) in true_hz.iter().enumerate() {
            boards.publish_clock(
                i,
                ClockState {
                    valid: true,
                    anchor_ref_ns: 0.0,
                    anchor_ticks: 0,
                    f_calib_hz: hz,
                    uncertainty_ns: 1_000.0,
                },
            );
            boards.publish_state(i, Some(NodeStateTag::Ok));
        }
    }

    // Who talks to whom (and therefore which pairwise keys each endpoint
    // carries): nodes ↔ TA, nodes ↔ nodes, front-ends ↔ generators and
    // external clients.
    let frontend_peers: Vec<Addr> = generators.iter().chain(client_addrs.iter()).copied().collect();

    let clients: Vec<LiveClient> = client_addrs
        .iter()
        .zip(client_sockets)
        .map(|(&me, socket)| LiveClient {
            me,
            socket,
            keys: keys_for(spec.seed, me, &frontend_addrs),
            clock,
            window: NonceWindow::new(64),
            retry: RetryPolicy::hardened(),
            rng: thread_rng_for(spec.seed, me),
            next_nonce: 1,
            plain: Vec::new(),
            wire_buf: Vec::new(),
            open_buf: Vec::new(),
            directory: directory.clone(),
        })
        .collect();

    let scope_result = crossbeam::thread::scope(|s| {
        let ta_handle = ta_socket.map(|socket| {
            let keys = keys_for(spec.seed, TA_ADDR, &node_addrs);
            let (directory, boards) = (&directory, &boards);
            s.spawn(move |_| run_authority(socket, keys, directory, boards, clock))
        });

        let node_handles: Vec<_> = node_sockets
            .into_iter()
            .enumerate()
            .map(|(i, socket)| {
                let me = node_addrs[i];
                let peers: Vec<Addr> = node_addrs.iter().copied().filter(|&p| p != me).collect();
                let mut key_peers = peers.clone();
                key_peers.push(TA_ADDR);
                let cfg = DriverConfig {
                    socket,
                    keys: keys_for(spec.seed, me, &key_peers),
                    rng: thread_rng_for(spec.seed, me),
                    publishes_state: true,
                };
                let machine = Box::new(TriadNode::new(me, peers, spec.node_cfg.clone()));
                let (directory, boards) = (&directory, &boards);
                s.spawn(move |_| run_machine(machine, cfg, directory, boards, clock))
            })
            .collect();

        let frontend_handles: Vec<_> = frontend_sockets
            .into_iter()
            .enumerate()
            .map(|(i, socket)| {
                let me = frontend_addrs[i];
                let cfg = DriverConfig {
                    socket,
                    keys: keys_for(spec.seed, me, &frontend_peers),
                    rng: thread_rng_for(spec.seed, me),
                    publishes_state: false,
                };
                let machine = Box::new(Frontend::new(me, i, spec.frontend));
                let (directory, boards) = (&directory, &boards);
                s.spawn(move |_| run_machine(machine, cfg, directory, boards, clock))
            })
            .collect();

        let mut generator_sockets = generator_sockets.into_iter();
        let mut generator_handles = Vec::new();
        let mut next_gen = 0usize;
        if let Some(open) = spec.open_loop {
            let me = generators[next_gen];
            next_gen += 1;
            let socket = generator_sockets.next().expect("socket per generator");
            let cfg = DriverConfig {
                socket,
                keys: keys_for(spec.seed, me, &frontend_addrs),
                rng: thread_rng_for(spec.seed, me),
                publishes_state: false,
            };
            let machine = Box::new(OpenLoopGen::new(me, frontend_addrs.clone(), open, spec.router));
            let (directory, boards) = (&directory, &boards);
            generator_handles
                .push(s.spawn(move |_| run_machine(machine, cfg, directory, boards, clock)));
        }
        if let Some(quorum) = spec.quorum_loop {
            let me = generators[next_gen];
            let socket = generator_sockets.next().expect("socket per generator");
            let cfg = DriverConfig {
                socket,
                keys: keys_for(spec.seed, me, &frontend_addrs),
                rng: thread_rng_for(spec.seed, me),
                publishes_state: false,
            };
            let machine = Box::new(QuorumGen::new(me, frontend_addrs.clone(), quorum));
            let (directory, boards) = (&directory, &boards);
            generator_handles
                .push(s.spawn(move |_| run_machine(machine, cfg, directory, boards, clock)));
        }

        let mut handle =
            LiveHandle { clock, boards: &boards, frontends: frontend_addrs.clone(), clients };
        let body_result = body(&mut handle);
        boards.request_shutdown();

        let report = LiveReport {
            nodes: node_handles.into_iter().map(|h| h.join().expect("node thread")).collect(),
            frontends: frontend_handles
                .into_iter()
                .map(|h| h.join().expect("frontend thread"))
                .collect(),
            generators: generator_handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect(),
            authority: ta_handle.map(|h| h.join().expect("TA thread")),
            true_hz: true_hz.clone(),
        };
        (report, body_result)
    })
    .expect("cluster scope");
    scope_result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_keys_are_symmetric_and_distinct() {
        assert_eq!(pair_key(7, Addr(1), Addr(2)), pair_key(7, Addr(2), Addr(1)));
        assert_ne!(pair_key(7, Addr(1), Addr(2)), pair_key(7, Addr(1), Addr(3)));
        assert_ne!(pair_key(7, Addr(1), Addr(2)), pair_key(8, Addr(1), Addr(2)));
    }

    #[test]
    fn true_frequencies_are_centered_around_nominal() {
        let spec = LiveSpec::default();
        let mean: f64 = (0..spec.nodes).map(|i| spec.true_hz(i)).sum::<f64>() / spec.nodes as f64;
        assert!((mean - spec.tsc_nominal_hz).abs() < 1.0);
        assert!(spec.true_hz(0) < spec.true_hz(spec.nodes - 1));
    }

    #[test]
    fn precalibrated_cluster_serves_external_clients() {
        let spec = LiveSpec {
            nodes: 1,
            precalibrated: true,
            external_clients: 1,
            frontend: FrontendSpec {
                batch_window: sim::SimDuration::from_micros(200),
                ..FrontendSpec::default()
            },
            ..LiveSpec::default()
        };
        let (report, served) = run_cluster(&spec, |handle| {
            let frontend = handle.frontends()[0];
            let client = handle.client(0);
            let mut ok = 0u32;
            for _ in 0..10 {
                if client.serve(frontend, Duration::from_millis(250), 3).is_some() {
                    ok += 1;
                }
            }
            ok
        });
        assert!(served >= 8, "expected most serve rounds to land, got {served}/10");
        assert!(report.frontends[0].node(0).frontend_served.count() >= u64::from(served));
        assert!(report.nodes.is_empty() && report.authority.is_none());
    }
}
