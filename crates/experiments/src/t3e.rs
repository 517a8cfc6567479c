//! A T3E-style TPM-based trusted-time baseline, the comparator of E19
//! ([`crate::baseline`]).
//!
//! The paper's related work (§II-A) contrasts Triad with **T3E** (Hamidy,
//! Philippaerts, Joosen, NSS'23): instead of a remote Time Authority, the
//! enclave uses a *colocated TPM* as its time source. The OS still relays
//! TPM messages, so an attacker can delay them; T3E's defence is to limit
//! how many times one TPM timestamp may be served and to **stall** the
//! enclave when the budget is depleted — turning a delay attack into a
//! *visible throughput drop* instead of silently skewed timestamps.
//!
//! This module implements that design faithfully enough for a head-to-head
//! with Triad (experiment E19):
//!
//! - [`Tpm`]: a response-on-request time source with its own drift — the
//!   TPM spec tolerates up to ±32.5% rate deviation, and the TPM's owner
//!   (the attacker, §II-A) may configure it anywhere in that range;
//! - [`T3eNode`]: serves timestamps from the latest TPM reading, at most
//!   `MAX_USES` times per reading, stalling (unavailable)
//!   when depleted until a fresh reading arrives.
//!
//! The trade-off the paper describes falls out measurably: under a
//! time-source delay attack, T3E loses *availability* while its served
//! timestamps stay near the TPM's time; Triad keeps availability but loses
//! *correctness* (F± skew). Neither dominates — which is the paper's point.

use netsim::{Addr, DelayModel, InterceptAction, Interceptor, MsgMeta, Network};
use proto::{
    client_addr, node_addr, node_index, ClockState, Env, Input, Machine, ServingFloor, TimerId,
    TA_ADDR,
};
use runtime::{ClientWorkload, Host, MachineActor, Sampler, SysEvent, World};
use sim::{SimDuration, SimTime, Simulation};
use trace::{NodeStateTag, ProtoEvent};
use wire::Message;

/// Largest TPM rate deviation the TPM 2.0 spec tolerates (±32.5%,
/// cited by the paper as `±32.5%` drift-rate).
pub(crate) const TPM_SPEC_MAX_DRIFT_PPM: f64 = 325_000.0;

/// A colocated TPM acting as a time source.
///
/// Responds to [`Message::CalibrationRequest`]s immediately (the hold
/// field is ignored — TPMs answer `TPM2_ReadClock` right away) with its
/// own, possibly drifting, notion of time.
#[derive(Debug)]
struct Tpm {
    me: Addr,
    drift_ppm: f64,
}

impl Tpm {
    /// Creates a TPM at `me` whose clock runs `drift_ppm` fast (negative =
    /// slow) relative to reference time.
    ///
    /// # Panics
    ///
    /// Panics if the drift exceeds the spec's ±32.5%.
    fn new(me: Addr, drift_ppm: f64) -> Self {
        assert!(
            drift_ppm.abs() <= TPM_SPEC_MAX_DRIFT_PPM,
            "TPM drift {drift_ppm} ppm exceeds the spec's ±32.5%"
        );
        Tpm { me, drift_ppm }
    }
}

impl Machine for Tpm {
    fn addr(&self) -> Addr {
        self.me
    }

    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        let Input::Message { src, msg: Message::CalibrationRequest { nonce, .. } } = input else {
            return;
        };
        let now_ns = env.now().as_nanos() as f64;
        let tpm_time_ns = (now_ns * (1.0 + self.drift_ppm * 1e-6)) as u64;
        env.send(
            src,
            &Message::CalibrationResponse { nonce, ta_time_ns: tpm_time_ns, slept_ns: 0 },
        );
    }
}

/// Proactive TPM polling period.
const POLL_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// How many timestamps one TPM reading may serve before the node stalls
/// (the paper: "limiting how many times the same timestamp can be used by
/// the TEE and by stalling TEE execution if uses are depleted").
const MAX_USES: u32 = 32;
const _: () = assert!(MAX_USES > 0, "a zero-use budget can never serve");
/// Retransmit an unanswered TPM request after this long.
const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(50);

const TOKEN_POLL: u64 = 1;
const TOKEN_RETRY: u64 = 2;

/// A TEE node using a T3E-style TPM time source.
///
/// State mapping onto the shared timeline vocabulary: `Ok` = serving,
/// `Tainted` = stalled (budget depleted, waiting for a fresh TPM reading).
#[derive(Debug)]
struct T3eNode {
    me: Addr,
    index: usize,
    tpm: Addr,
    tsc_hz: f64,
    state: NodeStateTag,
    last_reading_ns: Option<u64>,
    uses_left: u32,
    floor: ServingFloor,
    pending_retry: Option<TimerId>,
    next_nonce: u64,
}

impl T3eNode {
    /// Creates a node at `me` (a regular node address, so its trace lands
    /// in the recorder) backed by the TPM at `tpm`, on a host whose TSC
    /// runs at the nominal `tsc_hz`.
    ///
    /// # Panics
    ///
    /// Panics when `me` is not a node address.
    fn new(me: Addr, tpm: Addr, tsc_hz: f64) -> Self {
        T3eNode {
            me,
            index: node_index(me).expect("a T3E node serves from a node address"),
            tpm,
            tsc_hz,
            state: NodeStateTag::Tainted,
            last_reading_ns: None,
            uses_left: 0,
            floor: ServingFloor::default(),
            pending_retry: None,
            next_nonce: 0,
        }
    }

    fn enter_state(&mut self, env: &mut dyn Env, state: NodeStateTag) {
        self.state = state;
        env.emit(ProtoEvent::State(state));
    }

    fn request_reading(&mut self, env: &mut dyn Env) {
        if let Some(retry) = self.pending_retry.take() {
            env.cancel_timer(retry);
        }
        self.next_nonce += 1;
        env.send(self.tpm, &Message::CalibrationRequest { nonce: self.next_nonce, sleep_ns: 0 });
        self.pending_retry = Some(env.set_timer(TOKEN_RETRY, REQUEST_TIMEOUT));
    }

    fn on_reading(&mut self, env: &mut dyn Env, ta_time_ns: u64) {
        if let Some(retry) = self.pending_retry.take() {
            env.cancel_timer(retry);
        }
        // Monotone TPM readings only (a delayed older reading must not
        // roll time back).
        if self.last_reading_ns.is_some_and(|prev| ta_time_ns <= prev) {
            return;
        }
        self.last_reading_ns = Some(ta_time_ns);
        self.uses_left = MAX_USES;
        if self.state != NodeStateTag::Ok {
            self.enter_state(env, NodeStateTag::Ok);
        }
        // Publish for the drift sampler: the node's notion of time is the
        // reading, held constant until the next one (zero-rate clock).
        let anchor_ticks = env.read_tsc();
        env.publish_clock(ClockState {
            valid: true,
            anchor_ref_ns: ta_time_ns as f64,
            anchor_ticks,
            f_calib_hz: self.tsc_hz,
            uncertainty_ns: 0.0,
        });
    }

    fn serve(&mut self) -> Option<u64> {
        if self.state != NodeStateTag::Ok || self.uses_left == 0 {
            return None;
        }
        let reading = self.last_reading_ns.expect("Ok implies a reading");
        self.uses_left -= 1;
        Some(self.floor.serve(reading as f64))
    }
}

impl Machine for T3eNode {
    fn addr(&self) -> Addr {
        self.me
    }

    fn node_index(&self) -> Option<usize> {
        Some(self.index)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        self.enter_state(env, NodeStateTag::Tainted);
        self.request_reading(env);
        env.set_timer(TOKEN_POLL, POLL_INTERVAL);
    }

    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            Input::Timer { token: TOKEN_POLL } => {
                self.request_reading(env);
                env.set_timer(TOKEN_POLL, POLL_INTERVAL);
            }
            // The outstanding request went unanswered (delayed or dropped
            // by the OS): try again.
            Input::Timer { token: TOKEN_RETRY } => self.request_reading(env),
            Input::Message { msg: Message::CalibrationResponse { ta_time_ns, .. }, .. } => {
                self.on_reading(env, ta_time_ns);
            }
            Input::Message { src, msg: Message::ClientTimeRequest { nonce } } => {
                let timestamp_ns = self.serve();
                let depleted = self.uses_left == 0 && self.state == NodeStateTag::Ok;
                env.send(src, &Message::ClientTimeResponse { nonce, timestamp_ns });
                if depleted {
                    // Budget exhausted: stall until a fresh reading
                    // arrives (and ask for one now).
                    self.enter_state(env, NodeStateTag::Tainted);
                    self.request_reading(env);
                }
            }
            _ => {}
        }
    }
}

/// The TPM's address in [`deployment`]: it plays the Time Authority.
const TPM: Addr = TA_ADDR;

/// Rations TPM → node readings to one per `min_gap`, each delayed by
/// 100 ms; surplus readings are dropped, as an OS simply not scheduling
/// the driver would do. Uniform per-message delays alone do not starve
/// the node — pipelined polls hide them — so a real §II-A attacker
/// rations readings instead.
#[derive(Debug)]
struct ThrottleTpm {
    min_gap: SimDuration,
    last: Option<SimTime>,
}

impl Interceptor for ThrottleTpm {
    fn on_message(&mut self, now: SimTime, meta: &MsgMeta, _ct: &[u8]) -> InterceptAction {
        if meta.src != TPM || meta.dst != node_addr(0) {
            return InterceptAction::Deliver;
        }
        if self.last.is_some_and(|last| now.saturating_duration_since(last) < self.min_gap) {
            return InterceptAction::Drop;
        }
        self.last = Some(now);
        InterceptAction::Delay(SimDuration::from_millis(100))
    }
}

/// The E19 deployment: one T3E node (node index 0) on a paper-default
/// host, backed by a TPM whose clock runs `tpm_drift_ppm` fast, one
/// client asking it for a timestamp every `client_period`, and drift
/// sampled every 250 ms. With `throttle`, an on-path attacker rations
/// TPM readings to one per that gap (§II-A's delay attack).
pub(crate) fn deployment(
    tpm_drift_ppm: f64,
    throttle: Option<SimDuration>,
    client_period: SimDuration,
    seed: u64,
) -> Simulation<World, SysEvent> {
    let mut net = Network::new(DelayModel::lan_default(), 0.0);
    if let Some(min_gap) = throttle {
        net.add_interceptor(Box::new(ThrottleTpm { min_gap, last: None }));
    }
    let host = Host::paper_default();
    let tsc_hz = host.tsc.nominal_hz();
    let mut world = World::new(net, vec![host]);
    world.provision_all_keys(seed);
    let (me, client) = (node_addr(0), client_addr(0));
    let mut s = Simulation::new(world, seed);
    let node = T3eNode::new(me, TPM, tsc_hz);
    let node = s.add_actor(Box::new(MachineActor::new(node)));
    let tpm = s.add_actor(Box::new(MachineActor::new(Tpm::new(TPM, tpm_drift_ppm))));
    let workload = ClientWorkload::new(client, me, client_period);
    let workload = s.add_actor(Box::new(MachineActor::new(workload)));
    s.add_actor(Box::new(Sampler { interval: SimDuration::from_millis(250) }));
    s.world_mut().register_actor(me, node);
    s.world_mut().register_actor(TPM, tpm);
    s.world_mut().register_actor(client, workload);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proto::{Effect, ScriptedEnv};

    #[test]
    fn tpm_drift_bounds_enforced() {
        let _ = Tpm::new(TPM, 325_000.0);
        let _ = Tpm::new(TPM, -325_000.0);
    }

    #[test]
    #[should_panic(expected = "exceeds the spec")]
    fn excessive_tpm_drift_rejected() {
        let _ = Tpm::new(TPM, 400_000.0);
    }

    fn reading(env: &mut ScriptedEnv, node: &mut T3eNode, ta_time_ns: u64) {
        let msg = Message::CalibrationResponse { nonce: 0, ta_time_ns, slept_ns: 0 };
        node.on_input(env, Input::Message { src: TPM, msg });
    }

    /// Asks once; returns the answer and whether the node asked the TPM
    /// for a fresh reading in the same step.
    fn ask(env: &mut ScriptedEnv, node: &mut T3eNode, nonce: u64) -> (Option<u64>, bool) {
        let msg = Message::ClientTimeRequest { nonce };
        node.on_input(env, Input::Message { src: client_addr(0), msg });
        let effects = env.take_effects();
        let answer = effects.iter().find_map(|e| match e {
            Effect::Send { dst, msg: Message::ClientTimeResponse { timestamp_ns, .. } }
                if *dst == client_addr(0) =>
            {
                Some(*timestamp_ns)
            }
            _ => None,
        });
        let refresh = effects.iter().any(|e| {
            matches!(e, Effect::Send { dst: TPM, msg: Message::CalibrationRequest { .. } })
        });
        (answer.expect("every request is answered"), refresh)
    }

    #[test]
    fn a_depleted_budget_stalls_until_a_fresh_reading_arrives() {
        let mut env = ScriptedEnv::new(1, 1);
        let mut node = T3eNode::new(node_addr(0), TPM, env.tsc_hz);
        node.on_start(&mut env);
        env.take_effects();
        assert_eq!(ask(&mut env, &mut node, 1), (None, false), "no reading yet");
        reading(&mut env, &mut node, 5_000);
        assert!(env.clocks[0].valid && env.clocks[0].anchor_ref_ns == 5_000.0);
        // `MAX_USES` uses of one reading, strictly increasing; the last
        // depletes the budget and asks the TPM again.
        for k in 0..u64::from(MAX_USES) {
            let last = k + 1 == u64::from(MAX_USES);
            assert_eq!(ask(&mut env, &mut node, 2 + k), (Some(5_000 + k), last));
        }
        assert_eq!(ask(&mut env, &mut node, 100), (None, false), "stalled");
        // A reading no newer than the last one does not refresh it.
        reading(&mut env, &mut node, 5_000);
        assert_eq!(ask(&mut env, &mut node, 101), (None, false));
        reading(&mut env, &mut node, 9_000);
        assert_eq!(ask(&mut env, &mut node, 102), (Some(9_000), false));
        let states: Vec<_> =
            env.recorder.node(0).states.transitions().iter().map(|&(_, s)| s).collect();
        use NodeStateTag::{Ok, Tainted};
        assert_eq!(states, [Tainted, Ok, Tainted, Ok]);
    }

    // End-to-end: the availability-vs-integrity trade-off the paper's
    // related work describes.

    fn build(
        tpm_drift_ppm: f64,
        source_throttle: Option<SimDuration>,
        client_period: SimDuration,
    ) -> Simulation<World, SysEvent> {
        deployment(tpm_drift_ppm, source_throttle, client_period, 61)
    }

    #[test]
    fn fault_free_t3e_serves_and_tracks_the_tpm() {
        // Honest-ish TPM at +200 ppm; light client load within the use budget.
        let mut s = build(200.0, None, SimDuration::from_millis(20));
        s.run_until(SimTime::from_secs(120));
        let w = s.world();
        let trace = w.recorder.node(0);
        let served = trace.client_served.count();
        let denied = trace.client_denied.count();
        assert!(served > 5_000, "served {served}");
        assert!(denied < served / 50, "fault-free T3E rarely stalls: {denied} denials vs {served}");
        // The node's drift follows the TPM (≈ +0.2 ms/s → +24 ms at 120 s).
        let slope = trace
            .drift_ms
            .slope_per_sec_in(SimTime::from_secs(10), SimTime::from_secs(120))
            .unwrap();
        assert!((slope - 0.2).abs() < 0.05, "drift slope {slope} ms/s (TPM at +200 ppm)");
    }

    #[test]
    fn source_delay_attack_costs_availability_not_correctness() {
        // Readings rationed to one per 500 ms (plus 100 ms of delay), heavy
        // client load: the 32-use budget depletes in ~64 ms, then the node
        // stalls until the next rationed reading — a visible throughput
        // collapse (demand 500/s vs budgeted 64/s).
        let mut s = build(0.0, Some(SimDuration::from_millis(500)), SimDuration::from_millis(2));
        s.run_until(SimTime::from_secs(60));
        let w = s.world();
        let trace = w.recorder.node(0);
        let served = trace.client_served.count();
        let denied = trace.client_denied.count();
        let success = served as f64 / (served + denied) as f64;
        assert!(
            success < 0.5,
            "the delay attack must show up as lost throughput: {success:.3} success rate"
        );
        // But the timestamps that *are* served stay near the TPM's time: the
        // node's drift is bounded by reading staleness (≲ delay + poll),
        // never the unbounded skew Triad's F– produces.
        let (lo, hi) = trace.drift_ms.value_range().unwrap();
        assert!(lo > -1_000.0 && hi < 1_000.0, "staleness-bounded drift, got [{lo}, {hi}] ms");
        // Stalling is visible in the state timeline.
        let avail = trace.states.availability(SimTime::from_secs(5), SimTime::from_secs(60));
        assert!(avail < 0.9, "stalls must register: availability {avail}");
    }

    #[test]
    fn tpm_owner_can_skew_time_within_spec_undetected() {
        // §II-A: "the TPM can be configured by an attacker owning it (leading
        // to up to a ±32.5% drift-rate)". T3E has no root of trust to check
        // against, so the node simply follows.
        let mut s = build(TPM_SPEC_MAX_DRIFT_PPM, None, SimDuration::from_millis(20));
        s.run_until(SimTime::from_secs(30));
        let w = s.world();
        let trace = w.recorder.node(0);
        let slope =
            trace.drift_ms.slope_per_sec_in(SimTime::from_secs(5), SimTime::from_secs(30)).unwrap();
        // +32.5% = +325 ms/s, nearly 3× the strongest F– in the paper.
        assert!((slope - 325.0).abs() < 10.0, "drift slope {slope} ms/s");
        // And availability is perfect while it happens.
        let denied = trace.client_denied.count();
        let served = trace.client_served.count();
        assert!(denied < served / 50, "no stalls while skewing: {denied}/{served}");
    }

    #[test]
    fn delayed_stale_readings_never_roll_time_back() {
        // A reading delayed past its successor must be ignored (monotonicity
        // of the reading stream); rationed readings with added delay exercise
        // the interleaving.
        let mut s = build(0.0, Some(SimDuration::from_millis(200)), SimDuration::from_millis(10));
        s.run_until(SimTime::from_secs(30));
        // The ClientWorkload asserts served-timestamp monotonicity internally;
        // surviving the run is the property.
        let w = s.world();
        assert!(w.recorder.node(0).client_served.count() > 100);
    }
}
