//! # tt-bench — benchmark harness for the Triad reproduction
//!
//! The library holds the shared scheduler/messaging workloads so the same
//! code backs three consumers:
//!
//! - the Criterion benches (`benches/kernel.rs`, `benches/timer_storm.rs`,
//!   `benches/sealed_fabric.rs`, plus `benches/micro.rs` and
//!   `benches/figures.rs` for substrate and per-figure timings);
//! - the `bench-gate` binary, which replays a workload and compares its
//!   median events/s against a committed `results/BENCH_*.json` baseline
//!   (CI fails on >15% regression);
//! - baseline regeneration (`bench-gate update`).
//!
//! Every workload is a closed deterministic simulation that returns its
//! dispatched-event count, so throughput is events / wall-clock and the
//! work cannot be elided.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netsim::{Addr, DelayModel, Network};
use sim::{Actor, ActorId, Ctx, SimDuration, Simulation};
use wire::Message;

/// A named benchmark workload: one full run returns the number of events
/// it dispatched.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Stable identifier, also the `"benchmark"` field of its baseline
    /// JSON (e.g. `kernel/ping_storm_1k_actors`).
    pub name: &'static str,
    /// Events dispatched by one run — the throughput denominator.
    pub events_per_run: u64,
    /// Executes one run and returns the dispatched-event count.
    pub run: fn() -> u64,
    /// Default measured samples per capture (`bench-gate --samples`
    /// overrides). Crypto-bound workloads take more: their historical
    /// min/max spread is wide relative to the 15% gate tolerance, and a
    /// deeper sample pool steadies the median.
    pub samples: usize,
    /// Unmeasured warm-up runs before sampling, so one-time costs —
    /// backend detection, key schedules, page faults, branch training —
    /// never land in the first measured sample.
    pub warmup: usize,
}

// ---------------------------------------------------------------------------
// kernel: 1 000-actor ping storm
// ---------------------------------------------------------------------------

/// Concurrent event chains (one per actor) in the kernel storm.
pub const KERNEL_ACTORS: usize = 1_000;
/// Ping rounds each kernel-storm actor plays.
pub const KERNEL_ROUNDS: u64 = 100;

/// One storm participant: pings `peer` (itself when `None`) every
/// simulated microsecond until its round budget is spent.
struct Pinger {
    peer: Option<ActorId>,
    rounds: u64,
}

impl Pinger {
    fn ping(&self, ctx: &mut Ctx<'_, (), u64>, round: u64) {
        let peer = self.peer.unwrap_or_else(|| ctx.self_id());
        ctx.send(peer, SimDuration::from_micros(1), round);
    }
}

impl Actor<(), u64> for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_, (), u64>) {
        self.ping(ctx, 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, (), u64>, round: u64) {
        if round < self.rounds {
            self.ping(ctx, round + 1);
        }
    }
}

/// Builds and drains one kernel ping storm.
///
/// Every actor maintains its own event chain, so each simulated instant
/// has ~1 000 live events interleaved in the queue — the access pattern
/// the scenario runner's per-cell simulations produce, concentrated in
/// one process.
pub fn ping_storm() -> u64 {
    let mut s = Simulation::with_capacity((), 1, KERNEL_ACTORS + 1);
    // Actor 0 pings itself; every later actor pings its predecessor, so
    // all 1 000 chains stay live for the whole run.
    let mut prev = s.add_actor(Box::new(Pinger { peer: None, rounds: KERNEL_ROUNDS }));
    for _ in 1..KERNEL_ACTORS {
        prev = s.add_actor(Box::new(Pinger { peer: Some(prev), rounds: KERNEL_ROUNDS }));
    }
    s.run();
    s.dispatched()
}

/// The kernel ping-storm workload (the committed headline baseline).
pub const KERNEL: Workload = Workload {
    name: "kernel/ping_storm_1k_actors",
    events_per_run: KERNEL_ACTORS as u64 * (KERNEL_ROUNDS + 1),
    run: ping_storm,
    samples: 10,
    warmup: 1,
};

// ---------------------------------------------------------------------------
// sim: timer-heavy calibration storm
// ---------------------------------------------------------------------------

/// Actors in the timer storm.
pub const TIMER_ACTORS: usize = 500;
/// Timer ticks each timer-storm actor fires.
pub const TIMER_TICKS: u64 = 200;

/// A periodic timer with an actor-specific period.
struct PeriodicTimer {
    period: SimDuration,
    remaining: u64,
}

impl Actor<(), u64> for PeriodicTimer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, (), u64>) {
        ctx.schedule_in(self.period, 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, (), u64>, tick: u64) {
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.schedule_in(self.period, tick + 1);
        }
    }
}

/// Timer-heavy storm: periodic timers with periods spanning 1 µs to ~0.5 s.
///
/// This is the calibration-tick/AEX-arrival shape from the experiments —
/// few message chains, many self-timers at heterogeneous horizons — but
/// at 500 live events it is 12–35× denser than any workload in
/// `BENCHMARK.json` (14–42 live), so it measures the scheduler heap five
/// levels deep rather than the two or three the real runs see.
pub fn timer_storm() -> u64 {
    let mut s = Simulation::with_capacity((), 2, TIMER_ACTORS + 1);
    for i in 0..TIMER_ACTORS {
        // Periods cover 20 binary decades: 1 µs (1024 ns) up to ~0.5 s.
        let period = SimDuration::from_nanos(1u64 << (10 + (i as u32 % 20)));
        s.add_actor(Box::new(PeriodicTimer { period, remaining: TIMER_TICKS }));
    }
    s.run();
    s.dispatched()
}

/// The timer-storm workload.
pub const TIMER_STORM: Workload = Workload {
    name: "sim/timer_storm",
    events_per_run: TIMER_ACTORS as u64 * TIMER_TICKS,
    run: timer_storm,
    samples: 10,
    warmup: 1,
};

// ---------------------------------------------------------------------------
// sim: cancel-heavy workload
// ---------------------------------------------------------------------------

/// Actors in the cancel storm.
pub const CANCEL_ACTORS: usize = 500;
/// Request/response rounds each cancel-storm actor plays.
pub const CANCEL_ROUNDS: u64 = 200;

/// Plays the protocol's timeout pattern: every round arms a far-future
/// timeout and a near response; the response cancels the timeout.
struct TimeoutLoop {
    remaining: u64,
    timeout: Option<sim::EventId>,
}

impl Actor<(), u64> for TimeoutLoop {
    fn on_start(&mut self, ctx: &mut Ctx<'_, (), u64>) {
        self.timeout = Some(ctx.schedule_in(SimDuration::from_secs(10), u64::MAX));
        ctx.schedule_in(SimDuration::from_micros(3), 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, (), u64>, round: u64) {
        assert_ne!(round, u64::MAX, "a cancelled timeout fired");
        if let Some(t) = self.timeout.take() {
            ctx.cancel(t);
        }
        self.remaining -= 1;
        if self.remaining > 0 {
            self.timeout = Some(ctx.schedule_in(SimDuration::from_secs(10), u64::MAX));
            ctx.schedule_in(SimDuration::from_micros(3), round + 1);
        }
    }
}

/// Cancel-heavy storm: one cancellation per dispatched event.
///
/// The shape of every probe/retry in the protocol crates (arm a timeout,
/// cancel it when the response lands): each cancel unlinks the timeout's
/// record from the scheduler heap and recycles its slab slot on the spot.
pub fn cancel_storm() -> u64 {
    let mut s = Simulation::with_capacity((), 3, CANCEL_ACTORS * 2 + 1);
    for _ in 0..CANCEL_ACTORS {
        s.add_actor(Box::new(TimeoutLoop { remaining: CANCEL_ROUNDS, timeout: None }));
    }
    s.run();
    s.dispatched()
}

/// The cancel-storm workload.
pub const CANCEL_STORM: Workload = Workload {
    name: "sim/cancel_storm",
    events_per_run: CANCEL_ACTORS as u64 * CANCEL_ROUNDS,
    run: cancel_storm,
    samples: 10,
    warmup: 1,
};

// ---------------------------------------------------------------------------
// fabric: sealed round trips
// ---------------------------------------------------------------------------

/// Requester/responder pairs in the sealed-fabric workload.
pub const FABRIC_PAIRS: usize = 4;
/// Round trips each pair plays.
pub const FABRIC_ROUNDS: u64 = 250;

use runtime::{open_delivery, send_message, Host, SysEvent, World};

/// Answers every `PeerTimeRequest` with a `PeerTimeResponse`.
struct EchoResponder {
    me: Addr,
}

impl Actor<World, SysEvent> for EchoResponder {
    fn on_event(&mut self, ctx: &mut Ctx<'_, World, SysEvent>, ev: SysEvent) {
        if let SysEvent::Deliver(d) = ev {
            let now = ctx.now();
            if let Ok(Message::PeerTimeRequest { nonce }) =
                open_delivery(ctx.world, self.me, now, &d)
            {
                send_message(
                    ctx,
                    self.me,
                    d.src,
                    &Message::PeerTimeResponse { nonce, timestamp_ns: nonce },
                );
            }
        }
    }
}

/// Fires `rounds` sequential sealed request/response exchanges.
struct EchoRequester {
    me: Addr,
    peer: Addr,
    remaining: u64,
}

impl EchoRequester {
    fn request(&self, ctx: &mut Ctx<'_, World, SysEvent>) {
        send_message(ctx, self.me, self.peer, &Message::PeerTimeRequest { nonce: self.remaining });
    }
}

impl Actor<World, SysEvent> for EchoRequester {
    fn on_start(&mut self, ctx: &mut Ctx<'_, World, SysEvent>) {
        // Delay the first send past start so actor registration exists.
        ctx.schedule_in(SimDuration::from_millis(1), SysEvent::timer(0));
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, World, SysEvent>, ev: SysEvent) {
        match ev {
            SysEvent::Timer { .. } => self.request(ctx),
            SysEvent::Deliver(d) => {
                let now = ctx.now();
                if let Ok(Message::PeerTimeResponse { .. }) =
                    open_delivery(ctx.world, self.me, now, &d)
                {
                    self.remaining -= 1;
                    if self.remaining > 0 {
                        self.request(ctx);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Sealed-fabric round trips: encode → AES-256-GCM seal → fabric dispatch
/// → deliver → open → decode, end to end on every message.
///
/// Exercises the whole messaging hot path — the scratch buffers, the
/// per-session GHASH tables, and the allocation-free delivery staging —
/// under the scheduler, exactly as the protocol actors drive it.
pub fn sealed_fabric() -> u64 {
    let hosts = (0..FABRIC_PAIRS * 2).map(|_| Host::paper_default()).collect();
    let net = Network::new(DelayModel::Constant(SimDuration::from_micros(200)), 0.0);
    let mut world = World::new(net, hosts);
    world.provision_all_keys(4);
    let mut s = Simulation::with_capacity(world, 4, FABRIC_PAIRS * 4 + 1);
    for p in 0..FABRIC_PAIRS {
        let req = Addr(u16::try_from(p * 2 + 1).expect("pair fits u16"));
        let resp = Addr(u16::try_from(p * 2 + 2).expect("pair fits u16"));
        let req_actor =
            s.add_actor(Box::new(EchoRequester { me: req, peer: resp, remaining: FABRIC_ROUNDS }));
        let resp_actor = s.add_actor(Box::new(EchoResponder { me: resp }));
        s.world_mut().register_actor(req, req_actor);
        s.world_mut().register_actor(resp, resp_actor);
    }
    s.run();
    s.dispatched()
}

/// The sealed-fabric workload.
pub const SEALED_FABRIC: Workload = Workload {
    name: "fabric/sealed_round_trips",
    // Per pair: one kick-off timer plus two deliveries per round trip.
    events_per_run: FABRIC_PAIRS as u64 * (1 + 2 * FABRIC_ROUNDS),
    run: sealed_fabric,
    // Crypto-bound: deeper pool + warm-up (backend detection, key
    // schedules) keep the median out of the historical 294k-487k spread.
    samples: 15,
    warmup: 3,
};

// ---------------------------------------------------------------------------
// service: trusted-timestamp serving storm
// ---------------------------------------------------------------------------

/// Nodes (and thus front-ends) in the serving storm.
pub const SERVING_NODES: usize = 2;
/// Open-loop offered load (requests per second).
pub const SERVING_RATE: f64 = 2_000.0;
/// Simulated horizon of one serving-storm run.
pub const SERVING_HORIZON_S: u64 = 2;

use runtime::ClockState;
use sim::SimTime;

/// Serving-layer storm: open-loop clients → router → sealed requests →
/// batching front-ends → one enclave read per batch → sealed replies →
/// SLO accounting, with no protocol actors underneath (both node clocks
/// are pre-calibrated and pinned `Ok`), so the measured cost is the
/// serving path itself: admission, batching, pacing timers, and the
/// histogram/counter recording on every settled request.
pub fn serving_storm() -> u64 {
    use trace::NodeStateTag;

    let hosts: Vec<Host> = (0..SERVING_NODES).map(|_| Host::paper_default()).collect();
    let net = Network::new(DelayModel::Constant(SimDuration::from_micros(200)), 0.0);
    let mut world = World::new(net, hosts);
    for i in 0..SERVING_NODES {
        // Hand-calibrate: anchor each published clock at t=0 against the
        // host's true TSC so every flush finds a valid, monotonic clock.
        let addr = World::node_addr(i);
        world.clocks[i] = ClockState {
            valid: true,
            anchor_ref_ns: 0.0,
            anchor_ticks: world.read_tsc(addr, SimTime::ZERO),
            f_calib_hz: world.host(addr).tsc.nominal_hz(),
            uncertainty_ns: 0.0,
        };
        world.recorder.node_mut(i).states.enter(SimTime::ZERO, NodeStateTag::Ok);
    }
    let mut s = Simulation::with_capacity(world, 5, SERVING_NODES + 2);
    let spec = service::ServiceSpec::new()
        .open_loop(service::OpenLoopSpec { rate_per_s: SERVING_RATE, ..Default::default() });
    service::install(&mut s, &spec, 5);
    s.run_until(SimTime::from_secs(SERVING_HORIZON_S));
    s.dispatched()
}

/// The serving-storm workload.
///
/// `events_per_run` is the exact dispatched count of the seeded run
/// (asserted by `workload_event_counts_are_exact` and re-checked on
/// every gate replay).
pub const SERVING_STORM: Workload = Workload {
    name: "service/serving_storm",
    events_per_run: 13_919,
    run: serving_storm,
    // Crypto-bound (sealed request/response per served answer).
    samples: 15,
    warmup: 3,
};

// ---------------------------------------------------------------------------
// service: quorum-read storm
// ---------------------------------------------------------------------------

/// Nodes (a full `2f + 1` panel at `f = 1`) in the quorum storm.
pub const QUORUM_NODES: usize = 3;
/// Open-loop quorum-read rate (reads per second).
pub const QUORUM_RATE: f64 = 1_500.0;
/// Simulated horizon of one quorum-storm run.
pub const QUORUM_HORIZON_S: u64 = 2;

/// Quorum-read storm: every arrival fans an attestation request out to a
/// three-node panel, each front-end batches and answers with a sealed
/// interval attestation, and the generator projects the intervals,
/// runs Marzullo agreement, and settles the read — the full E22 hot path
/// (fan-out, per-read deadline timers, overlap decision, health
/// bookkeeping) with pre-calibrated clocks so no protocol actors run
/// underneath.
pub fn quorum_storm() -> u64 {
    use trace::NodeStateTag;

    let hosts: Vec<Host> = (0..QUORUM_NODES).map(|_| Host::paper_default()).collect();
    let net = Network::new(DelayModel::Constant(SimDuration::from_micros(200)), 0.0);
    let mut world = World::new(net, hosts);
    for i in 0..QUORUM_NODES {
        let addr = World::node_addr(i);
        world.clocks[i] = ClockState {
            valid: true,
            anchor_ref_ns: 0.0,
            anchor_ticks: world.read_tsc(addr, SimTime::ZERO),
            f_calib_hz: world.host(addr).tsc.nominal_hz(),
            uncertainty_ns: 0.0,
        };
        world.recorder.node_mut(i).states.enter(SimTime::ZERO, NodeStateTag::Ok);
    }
    let mut s = Simulation::with_capacity(world, 6, QUORUM_NODES + 2);
    let spec = service::ServiceSpec::new()
        .quorum_loop(service::QuorumLoopSpec { rate_per_s: QUORUM_RATE, ..Default::default() });
    service::install(&mut s, &spec, 6);
    s.run_until(SimTime::from_secs(QUORUM_HORIZON_S));
    s.dispatched()
}

/// The quorum-storm workload.
///
/// `events_per_run` is the exact dispatched count of the seeded run
/// (asserted by `workload_event_counts_are_exact` and re-checked on
/// every gate replay).
pub const QUORUM_STORM: Workload = Workload {
    name: "service/quorum_storm",
    events_per_run: 24_075,
    run: quorum_storm,
    // Crypto-bound (sealed fan-out and attestations per read).
    samples: 15,
    warmup: 3,
};

// ---------------------------------------------------------------------------
// live: real-UDP serve round trips
// ---------------------------------------------------------------------------

/// Completed serve round trips per live-loopback run.
pub const LIVE_ROUNDS: u64 = 400;

/// Live serve round trips over real loopback UDP: a pre-calibrated
/// single-node cluster (front-end thread only — no TA, no protocol
/// actors) answers a blocking external client until `LIVE_ROUNDS`
/// requests have been served.
///
/// Each round trip crosses the full live hot path twice: encode →
/// AES-256-GCM seal → `sendto` → kernel loopback → `recvfrom` → open →
/// decode, plus the front-end's admission/batching/timer machinery in
/// between. Unlike the simulated storms this measures real syscall and
/// scheduling cost, so the committed baseline carries more variance —
/// the 15% gate tolerance is doing real work here.
pub fn live_loopback() -> u64 {
    let spec = net::LiveSpec {
        nodes: 1,
        precalibrated: true,
        external_clients: 1,
        frontend: service::FrontendSpec {
            // Tight flush window: latency per round trip, not batching
            // throughput, is what a blocking client measures.
            batch_window: SimDuration::from_micros(200),
            ..service::FrontendSpec::default()
        },
        ..net::LiveSpec::default()
    };
    let (_, served) = net::run_cluster(&spec, |handle| {
        let frontend = handle.frontends()[0];
        let client = handle.client(0);
        let mut ok = 0u64;
        // Count completed rounds, not attempts: the gate requires the
        // run to produce exactly `events_per_run` events even if a
        // round trip times out and is retried under load.
        while ok < LIVE_ROUNDS {
            if client.serve(frontend, std::time::Duration::from_millis(100), 5).is_some() {
                ok += 1;
            }
        }
        ok
    });
    served
}

/// The live-loopback workload (real sockets; see [`live_loopback`]).
pub const LIVE_LOOPBACK: Workload = Workload {
    name: "live/serve_round_trips",
    events_per_run: LIVE_ROUNDS,
    run: live_loopback,
    // Latency-bound on real sockets: more samples would only lengthen
    // the capture, and the first run already opens every socket.
    samples: 10,
    warmup: 1,
};

/// All gate-eligible workloads.
pub const WORKLOADS: [Workload; 7] =
    [KERNEL, TIMER_STORM, CANCEL_STORM, SEALED_FABRIC, SERVING_STORM, QUORUM_STORM, LIVE_LOOPBACK];

/// Looks a workload up by its baseline `"benchmark"` name.
pub fn find_workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Baseline measurement and JSON (de)serialization for `bench-gate`.
pub mod baseline {
    use super::Workload;

    /// Median/min/max throughput over a sample loop.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Summary {
        /// Samples taken.
        pub samples: usize,
        /// Median events/s.
        pub median_events_per_sec: f64,
        /// Slowest sample.
        pub min_events_per_sec: f64,
        /// Fastest sample.
        pub max_events_per_sec: f64,
    }

    /// Runs `workload` `samples` times (after its declared unmeasured
    /// warm-up runs) and summarizes events/s.
    ///
    /// # Panics
    ///
    /// Panics if a run dispatches a different event count than the
    /// workload declares (the workload definition drifted).
    pub fn measure(workload: &Workload, samples: usize) -> Summary {
        assert!(samples > 0, "at least one sample");
        for _ in 0..workload.warmup {
            std::hint::black_box((workload.run)());
        }
        let mut rates: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let n = std::hint::black_box((workload.run)());
                let elapsed = t0.elapsed().as_secs_f64();
                assert_eq!(
                    n, workload.events_per_run,
                    "{} must dispatch exactly {} events",
                    workload.name, workload.events_per_run
                );
                n as f64 / elapsed
            })
            .collect();
        rates.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN rate"));
        Summary {
            samples,
            median_events_per_sec: rates[rates.len() / 2],
            min_events_per_sec: rates[0],
            max_events_per_sec: rates[rates.len() - 1],
        }
    }

    /// Renders the committed baseline JSON for a workload.
    pub fn to_json(workload: &Workload, s: &Summary) -> String {
        format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"events_per_run\": {},\n  \
             \"samples\": {},\n  \"median_events_per_sec\": {:.0},\n  \
             \"min_events_per_sec\": {:.0},\n  \"max_events_per_sec\": {:.0}\n}}\n",
            workload.name,
            workload.events_per_run,
            s.samples,
            s.median_events_per_sec,
            s.min_events_per_sec,
            s.max_events_per_sec,
        )
    }

    /// Extracts a string field from the flat baseline JSON.
    pub fn json_str_field(json: &str, field: &str) -> Option<String> {
        let key = format!("\"{field}\"");
        let rest = &json[json.find(&key)? + key.len()..];
        let rest = &rest[rest.find(':')? + 1..];
        let open = rest.find('"')?;
        let rest = &rest[open + 1..];
        Some(rest[..rest.find('"')?].to_string())
    }

    /// Extracts a numeric field from the flat baseline JSON.
    pub fn json_num_field(json: &str, field: &str) -> Option<f64> {
        let key = format!("\"{field}\"");
        let rest = &json[json.find(&key)? + key.len()..];
        let rest = rest[rest.find(':')? + 1..].trim_start();
        let end = rest.find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())?;
        rest[..end].parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_event_counts_are_exact() {
        // Shrunk copies would drift silently; assert the declared counts on
        // the real workloads (cheap enough to run in the test suite).
        for w in &WORKLOADS {
            assert_eq!((w.run)(), w.events_per_run, "{}", w.name);
        }
    }

    #[test]
    fn find_workload_by_name() {
        assert!(find_workload("kernel/ping_storm_1k_actors").is_some());
        assert!(find_workload("no/such_bench").is_none());
    }

    #[test]
    fn baseline_json_round_trips() {
        let s = baseline::Summary {
            samples: 10,
            median_events_per_sec: 16_000_000.0,
            min_events_per_sec: 14_000_000.0,
            max_events_per_sec: 17_500_000.0,
        };
        let json = baseline::to_json(&KERNEL, &s);
        assert_eq!(baseline::json_str_field(&json, "benchmark").as_deref(), Some(KERNEL.name));
        assert_eq!(baseline::json_num_field(&json, "median_events_per_sec"), Some(16_000_000.0));
        assert_eq!(baseline::json_num_field(&json, "samples"), Some(10.0));
        assert_eq!(baseline::json_num_field(&json, "absent"), None);
    }

    #[test]
    fn json_parse_tolerates_committed_format() {
        // The seed-era baseline format (extra fields, no events_per_run)
        // must still parse: the gate reads old baselines.
        let json = "{\n  \"benchmark\": \"kernel/ping_storm_1k_actors\",\n  \
                    \"actors\": 1000,\n  \"median_events_per_sec\": 10790221,\n}\n";
        assert_eq!(baseline::json_num_field(json, "median_events_per_sec"), Some(10_790_221.0));
    }
}
