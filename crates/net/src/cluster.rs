//! Live cluster orchestration: sockets, keys, threads, and reports.
//!
//! [`run_cluster`] is the real-runtime counterpart of
//! `scenario::ScenarioSpec::build`. It binds one loopback UDP socket per
//! endpoint, seeds each endpoint's key table with the cluster seed, spawns
//! one scoped thread per protocol machine (plus the Time Authority), runs
//! a caller-supplied body on the main thread while the cluster is live,
//! and joins everything back into a [`LiveReport`] carrying the same
//! per-thread [`Recorder`] traces the simulation driver fills in.

use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

use netsim::Addr;
use proto::{node_addr, ClockState, Machine, NonceWindow, RetryPolicy, TA_ADDR};
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtime::{Host, KeyTable};
use service::{
    Frontend, FrontendSpec, OpenLoopGen, OpenLoopSpec, QuorumGen, QuorumLoopSpec, RouterSpec,
};
use trace::{NodeStateTag, Recorder};
use triad_core::{TriadConfig, TriadNode};
use wire::{Message, ServeOutcome};

use crate::authority::{run_authority, AuthorityReport};
use crate::board::Boards;
use crate::clock::MonoClock;
use crate::driver::{run_machine, DriverConfig};
use crate::endpoint::{Endpoint, Recv};

/// The simulated address layout, shared by the live cluster.
pub use proto::{client_addr, frontend_addr, generator_addr};

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
    /// Optional open-loop serve-load generator.
    pub open_loop: Option<OpenLoopSpec>,
    /// Optional open-loop quorum-read generator.
    pub quorum_loop: Option<QuorumLoopSpec>,
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
            open_loop: None,
            quorum_loop: None,
            external_clients: 0,
        }
    }
}

/// What one live run produced: the per-thread trace recorders, in the
/// same vocabulary the simulation reports.
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
    /// Each node's true TSC frequency (its host's nominal rate), for
    /// judging calibration accuracy.
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
    endpoint: Endpoint,
    clock: MonoClock,
    window: NonceWindow,
    retry: RetryPolicy,
    rng: StdRng,
    next_nonce: u64,
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
        if !self.endpoint.knows(frontend) {
            return None;
        }
        let msg = Message::ServeRequest { nonce, accept_degraded: true };
        let started = self.clock.now_ns();
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
            if !self.endpoint.send(frontend, &msg) {
                continue;
            }
            let deadline = self.clock.now_ns() + per_attempt.as_nanos() as u64;
            loop {
                let left = deadline.saturating_sub(self.clock.now_ns());
                if left == 0 {
                    break;
                }
                let (answered, outcome) = match self.endpoint.recv(left) {
                    Recv::Message {
                        msg: Message::ServeResponse { nonce: answered, outcome },
                        ..
                    } => (answered, outcome),
                    Recv::Idle => break,
                    _ => continue,
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

/// Per-thread RNG stream, decorrelated by endpoint address.
fn thread_rng_for(seed: u64, addr: Addr) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_add(0x5851_f42d_4c95_7f2d).wrapping_mul(u64::from(addr.0) + 3),
    )
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
    // Every node runs on the simulation's default platform.
    let boards = Boards::new(vec![Host::paper_default(); n]);
    let true_hz: Vec<f64> = (0..n).map(|i| boards.host(i).tsc.nominal_hz()).collect();

    let node_addrs: Vec<Addr> =
        if spec.precalibrated { Vec::new() } else { (0..n).map(node_addr).collect() };
    let frontend_addrs: Vec<Addr> = (0..n).map(frontend_addr).collect();
    let mut generators: Vec<Box<dyn Machine + Send>> = Vec::new();
    if let Some(open) = spec.open_loop {
        let me = generator_addr(generators.len());
        let router = RouterSpec::default();
        generators.push(Box::new(OpenLoopGen::new(me, frontend_addrs.clone(), open, router)));
    }
    if let Some(quorum) = spec.quorum_loop {
        let me = generator_addr(generators.len());
        generators.push(Box::new(QuorumGen::new(me, frontend_addrs.clone(), quorum)));
    }
    let generator_addrs: Vec<Addr> = generators.iter().map(|g| g.addr()).collect();
    let client_addrs: Vec<Addr> = (0..spec.external_clients).map(client_addr).collect();

    // Bind every endpoint before spawning anything: the directory must be
    // complete (and immutable) when the first datagram flies.
    let mut sockets: HashMap<Addr, UdpSocket> = (!spec.precalibrated)
        .then_some(TA_ADDR)
        .into_iter()
        .chain(node_addrs.iter().copied())
        .chain(frontend_addrs.iter().copied())
        .chain(generator_addrs.iter().copied())
        .chain(client_addrs.iter().copied())
        .map(|a| (a, UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket")))
        .collect();
    let directory = Arc::new(
        sockets
            .iter()
            .map(|(&a, socket)| (a, socket.local_addr().expect("bound socket has an address")))
            .collect::<HashMap<_, _>>(),
    );
    // `me`'s endpoint. Who talks to whom is `proto::linked`: a session
    // derives on the first frame to or from a linked directory address.
    let mut endpoint = |me: Addr| {
        let socket = sockets.remove(&me).expect("every address was bound above");
        Endpoint::new(me, socket, KeyTable::seeded(spec.seed), Arc::clone(&directory))
    };

    if spec.precalibrated {
        // No protocol threads: anchor every node's clock at the shared
        // epoch with its host's true frequency and pin its state to Ok,
        // exactly what a converged calibration would have published.
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

    let clients: Vec<LiveClient> = client_addrs
        .iter()
        .map(|&me| LiveClient {
            endpoint: endpoint(me),
            clock,
            window: NonceWindow::new(64),
            retry: RetryPolicy::hardened(),
            rng: thread_rng_for(spec.seed, me),
            next_nonce: 1,
        })
        .collect();

    let scope_result = crossbeam::thread::scope(|s| {
        let boards = &boards;
        let ta_handle = (!spec.precalibrated).then(|| {
            let endpoint = endpoint(TA_ADDR);
            s.spawn(move |_| run_authority(endpoint, boards, clock))
        });

        // One driver thread per machine.
        let mut spawn = |machine: Box<dyn Machine + Send>| {
            let me = machine.addr();
            let cfg = DriverConfig { endpoint: endpoint(me), rng: thread_rng_for(spec.seed, me) };
            s.spawn(move |_| run_machine(machine, cfg, boards, clock))
        };

        let node_handles: Vec<_> = node_addrs
            .iter()
            .map(|&me| {
                let peers: Vec<Addr> = node_addrs.iter().copied().filter(|&p| p != me).collect();
                spawn(Box::new(TriadNode::new(me, peers, spec.node_cfg.clone())))
            })
            .collect();
        let frontend_handles: Vec<_> = frontend_addrs
            .iter()
            .enumerate()
            .map(|(i, &me)| spawn(Box::new(Frontend::new(me, i, spec.frontend))))
            .collect();
        let generator_handles: Vec<_> = generators.into_iter().map(spawn).collect();

        let mut handle = LiveHandle { clock, boards, frontends: frontend_addrs.clone(), clients };
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
            true_hz,
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
