//! # t3e — a T3E-style TPM-based trusted-time baseline
//!
//! The paper's related work (§II-A) contrasts Triad with **T3E** (Hamidy,
//! Philippaerts, Joosen, NSS'23): instead of a remote Time Authority, the
//! enclave uses a *colocated TPM* as its time source. The OS still relays
//! TPM messages, so an attacker can delay them; T3E's defence is to limit
//! how many times one TPM timestamp may be served and to **stall** the
//! enclave when the budget is depleted — turning a delay attack into a
//! *visible throughput drop* instead of silently skewed timestamps.
//!
//! This crate implements that design faithfully enough for a head-to-head
//! with Triad (experiment E19):
//!
//! - [`Tpm`]: a response-on-request time source with its own drift — the
//!   TPM spec tolerates up to ±32.5% rate deviation, and the TPM's owner
//!   (the attacker, §II-A) may configure it anywhere in that range;
//! - [`T3eNode`]: serves timestamps from the latest TPM reading, at most
//!   [`T3eConfig::max_uses`] times per reading, stalling (unavailable)
//!   when depleted until a fresh reading arrives.
//!
//! The trade-off the paper describes falls out measurably: under a
//! time-source delay attack, T3E loses *availability* while its served
//! timestamps stay near the TPM's time; Triad keeps availability but loses
//! *correctness* (F± skew). Neither dominates — which is the paper's point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netsim::{Addr, DelayModel, InterceptAction, Interceptor, MsgMeta, Network};
use runtime::{
    client_addr, node_addr, node_index, ClientWorkload, ClockState, Env, Host, Input, Machine,
    MachineActor, Sampler, SysEvent, TimerId, World, TA_ADDR,
};
use sim::{SimDuration, SimTime, Simulation};
use trace::{NodeStateTag, ProtoEvent};
use wire::Message;

/// Largest TPM rate deviation the TPM 2.0 spec tolerates (±32.5%,
/// cited by the paper as `±32.5%` drift-rate).
pub const TPM_SPEC_MAX_DRIFT_PPM: f64 = 325_000.0;

/// A colocated TPM acting as a time source.
///
/// Responds to [`Message::CalibrationRequest`]s immediately (the hold
/// field is ignored — TPMs answer `TPM2_ReadClock` right away) with its
/// own, possibly drifting, notion of time.
#[derive(Debug)]
pub struct Tpm {
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
    pub fn new(me: Addr, drift_ppm: f64) -> Self {
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

/// T3E node parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct T3eConfig {
    /// Proactive TPM polling period.
    pub poll_interval: SimDuration,
    /// How many timestamps one TPM reading may serve before the node
    /// stalls (the paper: "limiting how many times the same timestamp can
    /// be used by the TEE and by stalling TEE execution if uses are
    /// depleted").
    pub max_uses: u32,
    /// Retransmit an unanswered TPM request after this long.
    pub request_timeout: SimDuration,
}

impl Default for T3eConfig {
    fn default() -> Self {
        T3eConfig {
            poll_interval: SimDuration::from_millis(100),
            max_uses: 32,
            request_timeout: SimDuration::from_millis(50),
        }
    }
}

const TOKEN_POLL: u64 = 1;
const TOKEN_RETRY: u64 = 2;

/// A TEE node using a T3E-style TPM time source.
///
/// State mapping onto the shared timeline vocabulary: `Ok` = serving,
/// `Tainted` = stalled (budget depleted, waiting for a fresh TPM reading).
#[derive(Debug)]
pub struct T3eNode {
    me: Addr,
    index: usize,
    tpm: Addr,
    cfg: T3eConfig,
    tsc_hz: f64,
    state: NodeStateTag,
    last_reading_ns: Option<u64>,
    uses_left: u32,
    last_served_ns: u64,
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
    /// Panics when `me` is not a node address, or on a zero-use budget.
    pub fn new(me: Addr, tpm: Addr, cfg: T3eConfig, tsc_hz: f64) -> Self {
        assert!(cfg.max_uses > 0, "a zero-use budget can never serve");
        T3eNode {
            me,
            index: node_index(me).expect("a T3E node serves from a node address"),
            tpm,
            cfg,
            tsc_hz,
            state: NodeStateTag::Tainted,
            last_reading_ns: None,
            uses_left: 0,
            last_served_ns: 0,
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
        self.pending_retry = Some(env.set_timer(TOKEN_RETRY, self.cfg.request_timeout));
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
        self.uses_left = self.cfg.max_uses;
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
        let served = reading.max(self.last_served_ns + 1);
        self.last_served_ns = served;
        Some(served)
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
        env.set_timer(TOKEN_POLL, self.cfg.poll_interval);
    }

    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            Input::Timer { token: TOKEN_POLL } => {
                self.request_reading(env);
                env.set_timer(TOKEN_POLL, self.cfg.poll_interval);
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
pub fn deployment(
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
    let node = T3eNode::new(me, TPM, T3eConfig::default(), tsc_hz);
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
    use runtime::{Effect, ScriptedEnv};

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

    #[test]
    #[should_panic(expected = "zero-use budget")]
    fn zero_uses_rejected() {
        let cfg = T3eConfig { max_uses: 0, ..Default::default() };
        let _ = T3eNode::new(node_addr(0), TPM, cfg, 3e9);
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
        let cfg = T3eConfig { max_uses: 3, ..Default::default() };
        let mut node = T3eNode::new(node_addr(0), TPM, cfg, env.tsc_hz);
        node.on_start(&mut env);
        env.take_effects();
        assert_eq!(ask(&mut env, &mut node, 1), (None, false), "no reading yet");
        reading(&mut env, &mut node, 5_000);
        assert!(env.clocks[0].valid && env.clocks[0].anchor_ref_ns == 5_000.0);
        // Three uses of one reading, strictly increasing; the third
        // depletes the budget and asks the TPM again.
        assert_eq!(ask(&mut env, &mut node, 2), (Some(5_000), false));
        assert_eq!(ask(&mut env, &mut node, 3), (Some(5_001), false));
        assert_eq!(ask(&mut env, &mut node, 4), (Some(5_002), true));
        assert_eq!(ask(&mut env, &mut node, 5), (None, false), "stalled");
        // A reading no newer than the last one does not refresh it.
        reading(&mut env, &mut node, 5_000);
        assert_eq!(ask(&mut env, &mut node, 6), (None, false));
        reading(&mut env, &mut node, 9_000);
        assert_eq!(ask(&mut env, &mut node, 7), (Some(9_000), false));
        let states: Vec<_> =
            env.recorder.node(0).states.transitions().iter().map(|&(_, s)| s).collect();
        use NodeStateTag::{Ok, Tainted};
        assert_eq!(states, [Tainted, Ok, Tainted, Ok]);
    }
}
