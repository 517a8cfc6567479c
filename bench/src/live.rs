//! `live_closed`: one blocking client against a one-node live cluster on
//! loopback UDP, plus the bare-socket echo baselines its latency is
//! judged against.
//!
//! Closed loop, one client, one request in flight: the client thread and
//! the front-end's driver thread are the only two threads that run.

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use net::{frame_into, parse_frame, run_cluster, LiveSpec};
use runtime::KeyTable;
use service::FrontendSpec;
use sim::SimDuration;
use wire::{Message, ServeOutcome};

use crate::procfs;
use crate::spans::SpanLog;

/// Per-attempt reply timeout handed to `LiveClient::serve`.
const PER_ATTEMPT: Duration = Duration::from_secs(1);
/// Attempts per round trip (same nonce, shared backoff policy).
const ATTEMPTS: u32 = 3;
/// Round trips before the measured window opens.
pub const WARMUP_ROUND_TRIPS: usize = 100;
/// Cluster bring-ups whose time-to-first-answer is sampled for `setup_s`
/// (the last one is the cluster the window runs on). Each costs ~0.15 ms
/// plus its idle lead-in and teardown, so 49 fit in a quarter second and
/// their median repeats within a few percent.
pub const BRING_UPS: usize = 49;

fn spec(seed: u64) -> LiveSpec {
    LiveSpec {
        nodes: 1,
        seed,
        precalibrated: true,
        external_clients: 1,
        frontend: FrontendSpec {
            batch_window: SimDuration::from_micros(200),
            ..FrontendSpec::default()
        },
        ..LiveSpec::default()
    }
}

/// What one measured window produced.
#[derive(Debug, Clone, Default)]
pub struct LiveRun {
    /// Host nanoseconds of every answered round trip, in issue order.
    pub rtt_ns: Vec<f64>,
    /// Round trips that returned `None`.
    pub failed: u64,
    /// Wall seconds of the window.
    pub window_s: f64,
    /// CPU seconds (all threads) consumed inside the window.
    pub cpu_s: f64,
    /// Seconds from `run_cluster` entry to the first answered round trip,
    /// one per bring-up.
    pub bring_up_s: Vec<f64>,
    /// Answered round trips over the measured cluster's whole life.
    pub answered_total: u64,
    /// Round trips slower than one attempt's timeout (so a resend — and a
    /// second front-end answer to the same nonce — is legitimate).
    pub slow_total: u64,
    /// Requests the front-end answered over the cluster's whole life.
    pub frontend_served: u64,
    /// Datagrams the front-end dropped (frame, auth or decode).
    pub frontend_drops: u64,
}

impl LiveRun {
    /// Every request was answered exactly once: the front-end served as
    /// many requests as the client completed, allowing one extra answer
    /// per resend a slow round trip legitimately caused, and dropped
    /// nothing.
    pub fn answered_exactly_once(&self) -> bool {
        let extra = self.frontend_served.saturating_sub(self.answered_total);
        self.frontend_served >= self.answered_total
            && extra <= self.slow_total * u64::from(ATTEMPTS - 1)
            && self.frontend_drops == 0
    }
}

/// Idle time before every bring-up. Back-to-back bring-ups flip between
/// a hot mode (the other CPU is still polling from the last one: ~40 µs
/// to the first answer) and a cold one (~140 µs), in streaks that last
/// whole runs; a few idle milliseconds make every bring-up a cold start,
/// which is also what a user bringing a cluster up on a quiet host gets.
const IDLE_BEFORE_BRING_UP: Duration = Duration::from_millis(3);

/// Brings a cluster up, waits for its first answer, and tears it down;
/// returns the seconds from entry to that answer.
fn bring_up_once(seed: u64) -> f64 {
    std::thread::sleep(IDLE_BEFORE_BRING_UP);
    let started = Instant::now();
    let (_, ready) = run_cluster(&spec(seed), |handle| {
        let frontend = handle.frontends()[0];
        let client = handle.client(0);
        while client.serve(frontend, PER_ATTEMPT, ATTEMPTS).is_none() {}
        started.elapsed().as_secs_f64()
    });
    ready
}

/// Runs the closed loop for `window` after [`BRING_UPS`] bring-ups and
/// [`WARMUP_ROUND_TRIPS`] warm-up round trips. With a `log`, every
/// `serve` call in the window is recorded as a span.
pub fn run(
    seed: u64,
    window: Duration,
    bring_ups: usize,
    mut log: Option<&mut SpanLog>,
) -> LiveRun {
    let mut out = LiveRun::default();
    for i in 1..bring_ups {
        out.bring_up_s.push(bring_up_once(seed.wrapping_add(i as u64)));
    }
    std::thread::sleep(IDLE_BEFORE_BRING_UP);
    let entered = Instant::now();
    let (report, ()) = run_cluster(&spec(seed), |handle| {
        let frontend = handle.frontends()[0];
        let client = handle.client(0);
        let mut round_trip = |out: &mut LiveRun| {
            let t = Instant::now();
            let answered = client.serve(frontend, PER_ATTEMPT, ATTEMPTS).is_some();
            let end = Instant::now();
            if answered {
                out.answered_total += 1;
                out.slow_total += u64::from(end - t >= PER_ATTEMPT);
            }
            (t, end, answered)
        };
        while !round_trip(&mut out).2 {}
        out.bring_up_s.push(entered.elapsed().as_secs_f64());
        for _ in 0..WARMUP_ROUND_TRIPS {
            round_trip(&mut out);
        }
        let parent = log.as_deref_mut().and_then(|l| l.open("window", None));
        let cpu_before = procfs::cpu_seconds();
        let opened = Instant::now();
        while opened.elapsed() < window {
            let (t, end, answered) = round_trip(&mut out);
            if answered {
                out.rtt_ns.push((end - t).as_nanos() as f64);
            } else {
                out.failed += 1;
            }
            if let Some(l) = log.as_deref_mut() {
                l.leaf("serve", t, end, parent);
            }
        }
        out.window_s = opened.elapsed().as_secs_f64();
        if let (Some(a), Some(b)) = (cpu_before, procfs::cpu_seconds()) {
            out.cpu_s = b - a;
        }
        if let Some(l) = log {
            l.close(parent);
        }
    });
    let frontend = &report.frontends[0];
    out.frontend_served = frontend.node(0).frontend_served.count();
    out.frontend_drops = frontend.service.drops();
    out
}

/// Round-trip times (ns) of `n` datagrams bounced off a benchmark-owned
/// echo thread on loopback. Bare: 46 opaque bytes each way. Sealed: each
/// side frames a real message (`frame_into`) and parses, authenticates and
/// decodes what it receives — the live hot path with no driver, no timer
/// queue and no batching window in between.
pub fn echo_rtts(sealed: bool, n: usize) -> Vec<f64> {
    let server = UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket");
    let client = UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket");
    let server_addr = server.local_addr().expect("bound socket has an address");
    // The echo thread polls the stop flag between datagrams.
    server.set_read_timeout(Some(Duration::from_millis(20))).expect("nonzero timeout");
    client.set_read_timeout(Some(Duration::from_secs(1))).expect("nonzero timeout");
    let (me, peer) = (net::client_addr(0), net::frontend_addr(0));
    let key = [0x42u8; 32];
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            let mut keys = KeyTable::new();
            keys.provision_pair(me, peer, key);
            let (mut buf, mut plain, mut wire_buf) = ([0u8; 2048], Vec::new(), Vec::new());
            while !stop.load(Ordering::SeqCst) {
                let Ok((len, from)) = server.recv_from(&mut buf) else { continue };
                if !sealed {
                    server.send_to(&buf[..len], from).expect("loopback send");
                    continue;
                }
                let Some((src, body)) = parse_frame(&buf[..len]) else { continue };
                plain.clear();
                if keys.open_into(peer, src, body, &mut plain).is_err() {
                    continue;
                }
                let Ok(Message::ServeRequest { nonce, .. }) = Message::decode(&plain) else {
                    continue;
                };
                let reply = Message::ServeResponse { nonce, outcome: ServeOutcome::Time(nonce) };
                frame_into(&mut keys, peer, src, &reply, &mut plain, &mut wire_buf);
                server.send_to(&wire_buf, from).expect("loopback send");
            }
        });

        let mut keys = KeyTable::new();
        keys.provision_pair(me, peer, key);
        let (mut buf, mut plain, mut wire_buf) = ([0u8; 2048], Vec::new(), vec![0xabu8; 46]);
        let mut rtts = Vec::with_capacity(n);
        for nonce in 0..n as u64 {
            let t = Instant::now();
            if sealed {
                let msg = Message::ServeRequest { nonce, accept_degraded: true };
                frame_into(&mut keys, me, peer, &msg, &mut plain, &mut wire_buf);
            }
            client.send_to(&wire_buf, server_addr).expect("loopback send");
            let (len, _) = client.recv_from(&mut buf).expect("the echo thread answers within 1 s");
            if sealed {
                let (src, body) = parse_frame(&buf[..len]).expect("framed reply");
                plain.clear();
                keys.open_into(me, src, body, &mut plain).expect("authentic reply");
                let reply = Message::decode(&plain).expect("decodable reply");
                assert!(
                    matches!(reply, Message::ServeResponse { nonce: n, .. } if n == nonce),
                    "echo answered {reply:?} to nonce {nonce}"
                );
            } else {
                assert_eq!(len, wire_buf.len(), "echo returns the datagram unchanged");
            }
            rtts.push(t.elapsed().as_nanos() as f64);
        }
        stop.store(true, Ordering::SeqCst);
        echo.join().expect("echo thread");
        rtts
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_baselines_answer_every_datagram() {
        for sealed in [false, true] {
            let rtts = echo_rtts(sealed, 50);
            assert_eq!(rtts.len(), 50);
            assert!(rtts.iter().all(|&ns| ns > 0.0 && ns < 1e9));
        }
    }

    #[test]
    fn a_short_window_answers_every_request_exactly_once() {
        let mut log = SpanLog::new(4096);
        let run = run(3, Duration::from_millis(300), 2, Some(&mut log));
        assert_eq!(run.bring_up_s.len(), 2);
        assert_eq!(run.failed, 0);
        assert!(run.rtt_ns.len() >= 10, "got {} round trips", run.rtt_ns.len());
        assert!(run.answered_exactly_once(), "{run:?}");
        assert_eq!(
            run.answered_total as usize,
            run.rtt_ns.len() + WARMUP_ROUND_TRIPS + 1,
            "first answer + warm-up + window"
        );
        // One window span plus one span per round trip.
        assert_eq!(log.len(), run.rtt_ns.len() + 1);
    }

    #[test]
    fn exactly_once_accounting_allows_only_legitimate_resends() {
        let base = LiveRun { answered_total: 10, frontend_served: 10, ..Default::default() };
        assert!(base.answered_exactly_once());
        assert!(!LiveRun { frontend_served: 9, ..base.clone() }.answered_exactly_once());
        assert!(!LiveRun { frontend_served: 11, ..base.clone() }.answered_exactly_once());
        assert!(
            LiveRun { frontend_served: 11, slow_total: 1, ..base.clone() }.answered_exactly_once()
        );
        assert!(!LiveRun { frontend_drops: 1, ..base }.answered_exactly_once());
    }
}
