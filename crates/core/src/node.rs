//! The Triad node lifecycle, written once.
//!
//! The paper states its §V hardening as *changes to* Triad: the same
//! calibrate → serve → taint-on-AEX → refresh-via-peers-or-TA lifecycle
//! (§III-B/C/D) with a different rule for whom to believe. [`Node`] is
//! that lifecycle as a pure [`proto::Machine`] over the effect boundary —
//! the same type runs under the deterministic simulation
//! (`runtime::MachineActor`) and the live UDP runtime:
//!
//! - **FullCalib**: regression-based TSC frequency calibration against the
//!   TA, followed by a time-reference exchange;
//! - **OK**: serving monotonic timestamps, answering peer requests;
//! - **Tainted**: an AEX severed time continuity; on resume (AEX-Notify)
//!   the node asks its peers for a timestamp;
//! - **RefCalib**: no peer answered — refresh the time reference with the
//!   TA.
//!
//! [`Core`] is the state and the steps every variant shares; a [`Policy`]
//! supplies the rule: how a TA sample becomes an anchor, how a concluded
//! peer round untaints, which periodic checks run inside the TCB, and
//! what error bound the node claims. [`crate::Paper`] is the paper's
//! protocol; `resilient::Hardened` is its §V hardening.

use std::ops::RangeInclusive;

use netsim::Addr;
use proto::{
    ClockState, Env, Input, Machine, ProtoEvent, ServingFloor, TimerId, AEX_RESUME_TOKEN,
    EPSILON_NS, STANDING_ERROR_BOUND, TA_ADDR,
};
use rand::Rng;
use sim::{SimDuration, SimTime};
use trace::NodeStateTag;
use wire::Message;

use crate::calib::Calibrator;
use crate::config::TriadConfig;

const TOKEN_PEER_TIMEOUT: u64 = 1 << 62;
const TOKEN_PROBE_RETRY: u64 = 1 << 61;
const TOKEN_BREAKER: u64 = 1 << 60;
/// The timer kinds a policy may arm through [`Core::arm_policy_timer`].
pub const POLICY_TIMERS: [u64; 2] = [1 << 59, 1 << 58];
/// The low token bits carry a nonce (probe retry, round timeout) or the
/// crash epoch (every periodic chain).
const TOKEN_MASK: u64 = (1 << 58) - 1;

// Dispatch reads a token as exactly one kind bit over a masked payload.
const KINDS: u64 =
    TOKEN_PEER_TIMEOUT | TOKEN_PROBE_RETRY | TOKEN_BREAKER | POLICY_TIMERS[0] | POLICY_TIMERS[1];
const _: () = assert!(KINDS.count_ones() == 5 && KINDS & TOKEN_MASK == 0);

/// Extra wait beyond the requested sleep before a calibration probe is
/// retransmitted (covers loss and attacker drops).
const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// How long (ns) the enclave thread stays suspended per AEX (interrupt
/// handling plus rescheduling), drawn uniformly.
const AEX_PAUSE_NS: RangeInclusive<u64> = 10_000..=120_000;
/// Base half-width (ns) of the uncertainty attached to degraded-mode
/// [`wire::TimeReading`]s when the policy claims no error bound:
/// [`proto::STANDING_ERROR_BOUND`].
pub const READING_UNCERTAINTY_NS: u64 = STANDING_ERROR_BOUND.as_nanos();
/// Widening rate of the reading uncertainty while the node is degraded
/// (Tainted / recalibrating), in parts-per-million of elapsed staleness:
/// `uncertainty += ppm · 1e-6 · ns_since_degraded`.
const READING_DRIFT_PPM: f64 = 200.0;

/// What an outstanding TA exchange is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Frequency calibration sample for sleep index `i`.
    Speed(usize),
    /// (Re-)anchoring the time reference (node is unavailable meanwhile).
    Anchor,
    /// Background consistency check while serving (node stays available).
    CrossCheck,
}

/// An in-flight exchange with the Time Authority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingProbe {
    nonce: u64,
    kind: ProbeKind,
    send_ticks: u64,
    aex_count_at_send: u64,
    /// 0-based retransmission count within the current burst (0 = the
    /// initial transmission); drives the backoff schedule.
    attempt: u32,
    /// The retry timer guarding this exchange.
    retry: TimerId,
}

/// A completed, AEX-free [`ProbeKind::Anchor`] or [`ProbeKind::CrossCheck`]
/// exchange, handed to [`Policy::on_ta_sample`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaSample {
    /// Which of the two exchanges this was.
    pub kind: ProbeKind,
    /// The round trip on the local clock.
    pub rtt_ns: f64,
    /// Local TSC when the answer arrived.
    pub recv_ticks: u64,
    /// The TA's reference time in the answer.
    pub ta_time_ns: u64,
}

/// One peer's answer within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerSample {
    /// The answering peer.
    pub from: Addr,
    /// Its timestamp.
    pub timestamp_ns: u64,
    /// Its self-assessed error bound (0 when the protocol carries none).
    pub error_bound_ns: u64,
}

/// A peer round: one request to every peer, concluded by the last answer
/// or by the peer timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerRound {
    nonce: u64,
    /// The round's timeout.
    timeout: TimerId,
    /// True for a check the policy started while serving; false for the
    /// untaint round after an AEX.
    pub proactive: bool,
    /// The usable answers so far.
    pub responses: Vec<PeerSample>,
}

/// The rule a [`Node`] applies at each point where Triad variants differ.
///
/// Every hook is called from exactly one place in the shared lifecycle
/// (DESIGN.md, *One node lifecycle, two policies*).
pub trait Policy: Sized {
    /// The node configuration this policy is constructed from.
    type Config;

    /// Validates `cfg` (panicking when it is invalid) and splits it into
    /// the shared lifecycle parameters and the policy's initial state.
    fn new(cfg: Self::Config) -> (TriadConfig, Self);

    /// The self-assessed half-width error bound `secs_since_anchor` after
    /// the last anchor; `None` when the protocol claims none (the clock is
    /// published with uncertainty 0 and readings fall back to the
    /// configured floor).
    fn error_bound_ns(&self, _secs_since_anchor: f64) -> Option<f64> {
        None
    }

    /// Arms the policy's periodic in-TCB timers (boot and every restart).
    fn arm_timers(&mut self, core: &mut Core, env: &mut dyn Env);

    /// A timer armed through [`Core::arm_policy_timer`] fired in the
    /// current crash epoch; `kind` is the [`POLICY_TIMERS`] entry.
    fn on_timer(&mut self, core: &mut Core, env: &mut dyn Env, kind: u64);

    /// An AEX interrupted the monitoring thread.
    fn on_aex(&mut self) {}

    /// The platform crashed: drop everything an enclave loses.
    fn reset(&mut self);

    /// The TA answered an Anchor or CrossCheck exchange with an
    /// uninterrupted round trip.
    fn on_ta_sample(&mut self, core: &mut Core, env: &mut dyn Env, sample: TaSample);

    /// The request a round sends to each peer.
    fn peer_request(nonce: u64) -> Message;

    /// A message the shared lifecycle does not handle itself. Returns the
    /// round this message completed, if any (see [`Core::peer_answer`]).
    fn on_message(
        &mut self,
        core: &mut Core,
        env: &mut dyn Env,
        from: Addr,
        msg: Message,
    ) -> Option<PeerRound>;

    /// Applies the untaint rule to a concluded round. For an untaint
    /// (non-proactive) round the node is Tainted and `round.responses` is
    /// non-empty; a proactive round comes as it ended.
    fn conclude_round(&mut self, core: &mut Core, env: &mut dyn Env, round: PeerRound);
}

/// The state and steps every Triad variant shares; policies drive it
/// through the methods below.
#[derive(Debug)]
pub struct Core {
    me: Addr,
    index: usize,
    peers: Vec<Addr>,
    cfg: TriadConfig,
    state: NodeStateTag,

    // Clock: anchor + calibrated frequency (published through the Env).
    anchor_ref_ns: f64,
    anchor_ticks: u64,
    f_calib_hz: Option<f64>,
    clock_valid: bool,
    floor: ServingFloor,

    calibrator: Calibrator,
    pending_probe: Option<PendingProbe>,
    pending_round: Option<PeerRound>,
    taint_snapshot_ns: Option<f64>,
    resume_pending: bool,
    aex_count: u64,

    // Fault tolerance: crash-recovery, retry bookkeeping, degradation.
    crashed: bool,
    /// Bumped on every crash so timer chains armed before the crash are
    /// recognizably stale after the restart.
    timer_epoch: u64,
    /// Consecutive probe timeouts without a TA answer (feeds the breaker).
    probe_failures: u32,
    /// `Some` while the TA circuit breaker is open: the probe stage to
    /// resume on the half-open trial.
    breaker_stage: Option<ProbeKind>,
    /// When the node last left the OK state (staleness anchor for the
    /// widening reading uncertainty); `None` while serving normally.
    degraded_since: Option<SimTime>,

    next_nonce: u64,
}

impl Core {
    fn new(me: Addr, peers: Vec<Addr>, cfg: TriadConfig) -> Self {
        Core {
            me,
            index: proto::node_index(me).expect("a Triad node serves from a node address"),
            peers,
            calibrator: Calibrator::new(cfg.calib_sleeps.clone(), cfg.samples_per_sleep),
            cfg,
            state: NodeStateTag::FullCalib,
            anchor_ref_ns: 0.0,
            anchor_ticks: 0,
            f_calib_hz: None,
            clock_valid: false,
            floor: ServingFloor::default(),
            pending_probe: None,
            pending_round: None,
            taint_snapshot_ns: None,
            resume_pending: false,
            aex_count: 0,
            crashed: false,
            timer_epoch: 0,
            probe_failures: 0,
            breaker_stage: None,
            degraded_since: None,
            next_nonce: 0,
        }
    }

    /// The node's own address.
    pub fn me(&self) -> Addr {
        self.me
    }

    /// The cluster peers.
    pub fn peers(&self) -> &[Addr] {
        &self.peers
    }

    /// The shared lifecycle parameters.
    pub fn cfg(&self) -> &TriadConfig {
        &self.cfg
    }

    /// The node's current protocol state.
    pub fn state(&self) -> NodeStateTag {
        self.state
    }

    /// The calibrated TSC frequency, once a calibration completed.
    pub fn frequency_hz(&self) -> Option<f64> {
        self.f_calib_hz
    }

    /// The clock at TSC value `ticks`; `None` while it is invalid.
    pub fn clock_ns(&self, ticks: u64) -> Option<f64> {
        let f = self.f_calib_hz.filter(|_| self.clock_valid)?;
        let dticks = ticks as f64 - self.anchor_ticks as f64;
        Some(self.anchor_ref_ns + dticks / f * 1e9)
    }

    /// Seconds of local clock progress between the anchor and `ticks`.
    pub fn secs_since_anchor(&self, ticks: u64) -> f64 {
        self.f_calib_hz.map_or(0.0, |f| ((ticks as f64 - self.anchor_ticks as f64) / f).abs())
    }

    /// The lowest timestamp the node may still serve.
    pub fn serving_floor_ns(&self) -> f64 {
        self.floor.next_ns() as f64
    }

    fn publish_clock(&self, env: &mut dyn Env, bound: Option<f64>) {
        env.publish_clock(ClockState {
            valid: self.clock_valid,
            anchor_ref_ns: self.anchor_ref_ns,
            anchor_ticks: self.anchor_ticks,
            f_calib_hz: self.f_calib_hz.unwrap_or(1.0),
            // With no self-assessed bound the serving layer substitutes
            // its configured floor; readers widen a published bound for
            // staleness (ticks since the anchor).
            uncertainty_ns: bound.unwrap_or(0.0),
        });
    }

    /// Re-anchors the clock and publishes it. `bound` is the policy's
    /// error bound evaluated *at the new anchor* (drift term zero).
    pub fn set_anchor(&mut self, env: &mut dyn Env, ticks: u64, ref_ns: f64, bound: Option<f64>) {
        self.anchor_ref_ns = ref_ns;
        self.anchor_ticks = ticks;
        self.clock_valid = true;
        self.publish_clock(env, bound);
    }

    /// Replaces the calibrated frequency, re-anchoring at the current
    /// instant so the slope change does not retroactively move the clock.
    pub fn refit_frequency(&mut self, env: &mut dyn Env, hz: f64, bound: Option<f64>) {
        let ticks = env.read_tsc();
        let own = self.clock_ns(ticks);
        self.f_calib_hz = Some(hz);
        if let Some(own) = own {
            self.set_anchor(env, ticks, own, bound);
        }
    }

    /// Anchors to a TA sample and returns to OK.
    pub fn anchor_to_ta(&mut self, env: &mut dyn Env, ticks: u64, ref_ns: f64, bound: Option<f64>) {
        self.set_anchor(env, ticks, ref_ns, bound);
        env.emit(ProtoEvent::TaReference);
        self.taint_snapshot_ns = None;
        self.enter_state(env, NodeStateTag::Ok);
    }

    /// The all-or-nothing serving rule: a timestamp only while OK.
    fn serve_if_ok(&mut self, env: &mut dyn Env) -> Option<u64> {
        if self.state != NodeStateTag::Ok {
            return None; // Tainted/calibrating nodes stay silent (§III-D)
        }
        let ticks = env.read_tsc();
        self.serve_ns(ticks)
    }

    /// A monotonic timestamp for serving (peer or client). `None` while
    /// the clock is invalid.
    pub fn serve_ns(&mut self, ticks: u64) -> Option<u64> {
        Some(self.floor.serve(self.clock_ns(ticks)?))
    }

    fn enter_state(&mut self, env: &mut dyn Env, state: NodeStateTag) {
        self.state = state;
        let now = env.now();
        // Track degradation staleness: the reading uncertainty widens from
        // the instant the node left OK and collapses when it returns.
        if state == NodeStateTag::Ok {
            self.degraded_since = None;
        } else {
            self.degraded_since.get_or_insert(now);
        }
        env.emit(ProtoEvent::State(state));
    }

    fn fresh_nonce(&mut self) -> u64 {
        self.next_nonce += 1;
        self.next_nonce & TOKEN_MASK
    }

    /// Arms one of the [`POLICY_TIMERS`], stamped with the crash epoch so
    /// a chain armed before a crash dies out after the restart.
    pub fn arm_policy_timer(&self, env: &mut dyn Env, kind: u64, after: SimDuration) {
        env.set_timer(kind | (self.timer_epoch & TOKEN_MASK), after);
    }

    /// Starts a full calibration from scratch, abandoning anything in
    /// flight.
    pub fn begin_full_calibration(&mut self, env: &mut dyn Env) {
        self.enter_state(env, NodeStateTag::FullCalib);
        self.calibrator.reset();
        self.abandon_probe(env);
        self.abandon_round(env);
        self.send_next_speed_probe(env);
    }

    fn abandon_probe(&mut self, env: &mut dyn Env) {
        if let Some(p) = self.pending_probe.take() {
            env.cancel_timer(p.retry);
        }
    }

    fn abandon_round(&mut self, env: &mut dyn Env) {
        if let Some(r) = self.pending_round.take() {
            env.cancel_timer(r.timeout);
        }
    }

    fn send_next_speed_probe(&mut self, env: &mut dyn Env) {
        match self.calibrator.next_probe() {
            Some(idx) => self.send_probe(env, ProbeKind::Speed(idx)),
            None => {
                // Speed fit complete → F^calib, then anchor the reference.
                let fit = self.calibrator.fit().expect("two distinct sleeps are configured");
                self.f_calib_hz = Some(fit.slope);
                env.emit(ProtoEvent::Calibration { hz: fit.slope });
                self.send_probe(env, ProbeKind::Anchor);
            }
        }
    }

    /// Starts a background check against the TA, unless the node is not
    /// serving or a TA exchange is already outstanding.
    pub fn cross_check(&mut self, env: &mut dyn Env) {
        if self.state == NodeStateTag::Ok && self.pending_probe.is_none() {
            self.send_probe(env, ProbeKind::CrossCheck);
        }
    }

    /// Starts a TA exchange, replacing any outstanding one.
    pub fn send_probe(&mut self, env: &mut dyn Env, kind: ProbeKind) {
        self.send_probe_attempt(env, kind, 0);
    }

    fn send_probe_attempt(&mut self, env: &mut dyn Env, kind: ProbeKind, attempt: u32) {
        self.abandon_probe(env);
        let nonce = self.fresh_nonce();
        let sleep = match kind {
            ProbeKind::Speed(idx) => self.calibrator.sleep_at(idx),
            _ => SimDuration::ZERO,
        };
        // The order send → backoff draw → timer → TSC read fixes the
        // seeded stream and the measured round trip; keep it.
        env.send(TA_ADDR, &Message::CalibrationRequest { nonce, sleep_ns: sleep.as_nanos() });
        let backoff = self.cfg.probe_retry.backoff(PROBE_TIMEOUT, attempt, env.rng());
        let retry = env.set_timer(TOKEN_PROBE_RETRY | nonce, sleep + backoff);
        self.pending_probe = Some(PendingProbe {
            nonce,
            kind,
            send_ticks: env.read_tsc(),
            aex_count_at_send: self.aex_count,
            attempt,
            retry,
        });
    }

    /// The retry timer fired and the probe is still outstanding: the TA
    /// did not answer in time (response lost, attacker-dropped, or the TA
    /// is down). Retransmit under the backoff schedule, or trip the
    /// circuit breaker after too many consecutive failures.
    fn on_probe_timeout(&mut self, env: &mut dyn Env, kind: ProbeKind, attempt: u32) {
        self.probe_failures = self.probe_failures.saturating_add(1);
        env.emit(ProtoEvent::ProbeRetry);
        self.pending_probe = None;

        if let Some(breaker) = self.cfg.ta_breaker {
            if self.probe_failures >= breaker.failure_threshold {
                // Stop hammering an unreachable TA; try again once per
                // cooldown until it answers (half-open trials).
                self.breaker_stage = Some(kind);
                env.emit(ProtoEvent::BreakerOpen);
                env.set_timer(TOKEN_BREAKER | (self.timer_epoch & TOKEN_MASK), breaker.cooldown);
                return;
            }
        }
        let next = attempt + 1;
        // A burst that exhausts its attempt budget restarts from attempt 0
        // (the backoff re-tightens); giving up entirely is the breaker's
        // job, not the retry schedule's.
        let next = if self.cfg.probe_retry.exhausted(next) { 0 } else { next };
        self.send_probe_attempt(env, kind, next);
    }

    /// Cooldown elapsed: close the breaker and send one trial probe for
    /// the stalled stage. A further timeout re-opens it immediately
    /// (`probe_failures` is still above the threshold).
    fn on_breaker_timer(&mut self, env: &mut dyn Env) {
        if let Some(kind) = self.breaker_stage.take() {
            self.send_probe_attempt(env, kind, 0);
        }
    }

    /// Gives up on the peers: refresh the time reference with the TA.
    pub fn fall_back_to_ta(&mut self, env: &mut dyn Env) {
        self.enter_state(env, NodeStateTag::RefCalib);
        self.send_probe(env, ProbeKind::Anchor);
    }

    fn schedule_resume(&mut self, env: &mut dyn Env) {
        if self.resume_pending {
            return;
        }
        self.resume_pending = true;
        let pause = SimDuration::from_nanos(env.rng().gen_range(AEX_PAUSE_NS));
        env.set_timer(AEX_RESUME_TOKEN, pause);
    }

    /// True while a peer round is collecting answers.
    pub fn round_pending(&self) -> bool {
        self.pending_round.is_some()
    }

    /// Sends `request(nonce)` to every peer and arms the round timeout,
    /// replacing any round in flight. Without peers an untaint round goes
    /// straight to the TA and a proactive one is skipped.
    pub fn start_round(&mut self, env: &mut dyn Env, proactive: bool, request: fn(u64) -> Message) {
        self.abandon_round(env);
        if self.peers.is_empty() {
            if !proactive {
                self.fall_back_to_ta(env);
            }
            return;
        }
        let nonce = self.fresh_nonce();
        let request = request(nonce);
        for &peer in &self.peers {
            env.send(peer, &request);
        }
        let timeout = env.set_timer(TOKEN_PEER_TIMEOUT | nonce, self.cfg.peer_timeout);
        self.pending_round = Some(PeerRound { nonce, timeout, proactive, responses: Vec::new() });
    }

    /// Books one peer's answer to round `nonce` and returns the round if
    /// that completed it. An answer with no usable `sample` (a tainted
    /// peer) does not count toward completion, so that round ends by
    /// timeout. Stale nonces are ignored.
    pub fn peer_answer(
        &mut self,
        env: &mut dyn Env,
        nonce: u64,
        sample: Option<PeerSample>,
    ) -> Option<PeerRound> {
        let round = self.pending_round.as_mut().filter(|r| r.nonce == nonce)?;
        round.responses.extend(sample);
        if round.responses.len() < self.peers.len() {
            return None;
        }
        env.cancel_timer(round.timeout);
        self.pending_round.take()
    }

    /// The paper's §III-D untaint rule: a peer timestamp higher than the
    /// local pre-interrupt one is adopted wholesale; otherwise the local
    /// clock is kept, ε-bumped if needed for monotonicity. This is what
    /// makes every node follow the fastest clock in the cluster and what
    /// the F– attack exploits.
    pub fn max_adopt(&mut self, env: &mut dyn Env, responses: &[PeerSample], bound: Option<f64>) {
        let ticks = env.read_tsc();
        let local_pre_interrupt =
            self.taint_snapshot_ns.expect("tainted state always has a snapshot");
        let best_peer = responses.iter().map(|r| r.timestamp_ns).max().expect("non-empty") as f64;

        if best_peer > local_pre_interrupt {
            // "the incoming timestamp becomes the new reference"
            self.set_anchor(env, ticks, best_peer, bound);
            env.emit(ProtoEvent::PeerAdoption);
        } else if self.clock_ns(ticks).expect("clock was valid before the taint")
            <= local_pre_interrupt
        {
            // "the local timestamp is increased by the smallest possible
            // increment to ensure monotonicity"
            self.set_anchor(env, ticks, local_pre_interrupt + EPSILON_NS as f64, bound);
        }
        self.untainted_by_peers(env);
    }

    /// The peers vouched for the clock (possibly after a correction):
    /// back to OK.
    pub fn untainted_by_peers(&mut self, env: &mut dyn Env) {
        env.emit(ProtoEvent::PeerUntaint);
        self.taint_snapshot_ns = None;
        self.enter_state(env, NodeStateTag::Ok);
    }
}

/// One Triad protocol node: the shared lifecycle ([`Core`]) under the
/// untaint and calibration rule `P`.
#[derive(Debug)]
pub struct Node<P: Policy> {
    core: Core,
    policy: P,
}

impl<P: Policy> Node<P> {
    /// Creates a node at `me` with the given cluster peers.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a node address, appears in `peers`, or the
    /// configuration is invalid.
    pub fn new(me: Addr, peers: Vec<Addr>, cfg: P::Config) -> Self {
        assert!(!peers.contains(&me), "a node is not its own peer");
        let (cfg, policy) = P::new(cfg);
        Node { core: Core::new(me, peers, cfg), policy }
    }

    fn on_calibration_response(&mut self, env: &mut dyn Env, nonce: u64, ta_time_ns: u64) {
        let core = &mut self.core;
        let Some(probe) = core.pending_probe.filter(|p| p.nonce == nonce) else {
            return; // stale response from an abandoned probe
        };
        core.abandon_probe(env);
        core.probe_failures = 0; // the TA is reachable again
        let recv_ticks = env.read_tsc();

        if probe.aex_count_at_send != core.aex_count {
            // The monitoring thread was interrupted mid-round-trip: the
            // measurement is unbounded and must be discarded (§III-C). A
            // background cross-check is dropped, not resent — the next
            // periodic check retries.
            if probe.kind != ProbeKind::CrossCheck {
                core.send_probe(env, probe.kind);
            }
            return;
        }
        match probe.kind {
            ProbeKind::Speed(idx) => {
                core.calibrator.record(idx, recv_ticks.saturating_sub(probe.send_ticks));
                core.send_next_speed_probe(env);
            }
            kind => {
                let f = core.f_calib_hz.expect("anchor/check follows the speed fit");
                let rtt_ns = recv_ticks.saturating_sub(probe.send_ticks) as f64 / f * 1e9;
                let sample = TaSample { kind, rtt_ns, recv_ticks, ta_time_ns };
                self.policy.on_ta_sample(core, env, sample);
            }
        }
    }

    fn on_aex(&mut self, env: &mut dyn Env) {
        let core = &mut self.core;
        core.aex_count += 1;
        env.emit(ProtoEvent::Aex);
        self.policy.on_aex();

        match core.state {
            NodeStateTag::Ok => {
                let ticks = env.read_tsc();
                core.taint_snapshot_ns = core.clock_ns(ticks);
                core.enter_state(env, NodeStateTag::Tainted);
                core.schedule_resume(env);
            }
            NodeStateTag::RefCalib => {
                // Abandon the TA exchange; go back through the peer path
                // once the enclave resumes.
                core.abandon_probe(env);
                core.enter_state(env, NodeStateTag::Tainted);
                core.schedule_resume(env);
            }
            NodeStateTag::Tainted => {
                // Another AEX while already tainted (e.g. machine-wide on
                // top of core-local): ensure a resume is on its way.
                core.schedule_resume(env);
            }
            // Calibration probes self-invalidate via the AEX counter; a
            // crashed platform takes no interrupts (dropped before dispatch).
            NodeStateTag::FullCalib | NodeStateTag::Crashed => {}
        }
    }

    fn on_resume(&mut self, env: &mut dyn Env) {
        self.core.resume_pending = false;
        if self.core.state == NodeStateTag::Tainted {
            self.core.start_round(env, false, P::peer_request);
        }
    }

    fn conclude_round(&mut self, env: &mut dyn Env, round: PeerRound) {
        if !round.proactive {
            if self.core.state != NodeStateTag::Tainted {
                return;
            }
            if round.responses.is_empty() {
                // §III-D: "only asks the TA upon failure to receive any
                // responses from peers".
                self.core.fall_back_to_ta(env);
                return;
            }
        }
        self.policy.conclude_round(&mut self.core, env, round);
    }

    /// The platform goes down: all enclave state is lost. Only
    /// the serving floor survives — Triad seals the monotonic serving floor
    /// outside the enclave, so a rebooted node can never serve a timestamp
    /// below one it already handed out.
    fn on_crash(&mut self, env: &mut dyn Env) {
        let core = &mut self.core;
        if core.crashed {
            return;
        }
        core.crashed = true;
        core.timer_epoch += 1; // orphan every timer chain armed pre-crash
        core.abandon_probe(env);
        core.abandon_round(env);
        core.calibrator.reset();
        core.f_calib_hz = None;
        core.clock_valid = false;
        core.taint_snapshot_ns = None;
        core.resume_pending = false;
        core.aex_count = 0;
        core.probe_failures = 0;
        core.breaker_stage = None;
        self.policy.reset();
        core.publish_clock(env, self.policy.error_bound_ns(0.0));
        env.emit(ProtoEvent::Crash);
        core.enter_state(env, NodeStateTag::Crashed);
    }

    /// Serves a degraded-tolerant reading: unlike the all-or-nothing
    /// client API, a Tainted or recalibrating node keeps answering with a
    /// monotonic estimate and an honestly widening uncertainty — the
    /// policy's error bound (or the configured floor), widened linearly
    /// with staleness while degraded, so clients watch the bound grow
    /// under faults and snap back after recalibration.
    fn serve_reading(&mut self, env: &mut dyn Env) -> Option<wire::TimeReading> {
        let core = &mut self.core;
        let now = env.now();
        let ticks = env.read_tsc();
        let floor = READING_UNCERTAINTY_NS as f64;
        let mut uncertainty =
            self.policy.error_bound_ns(core.secs_since_anchor(ticks)).unwrap_or(floor);
        if let Some(t0) = core.degraded_since {
            uncertainty += READING_DRIFT_PPM * 1e-6 * (now - t0).as_nanos() as f64;
        }
        let estimate_ns = core.serve_ns(ticks)?;
        let uncertainty_ns = uncertainty as u64;
        env.emit(ProtoEvent::ReadingUncertainty { ns: uncertainty_ns });
        let degraded = core.state != NodeStateTag::Ok;
        Some(wire::TimeReading { estimate_ns, uncertainty_ns, degraded })
    }

    fn on_message(&mut self, env: &mut dyn Env, from: Addr, msg: Message) {
        match msg {
            Message::CalibrationResponse { nonce, ta_time_ns, .. } if from == TA_ADDR => {
                self.on_calibration_response(env, nonce, ta_time_ns);
            }
            // Base-protocol peers may coexist with any policy in mixed
            // clusters; a request the node may not answer is dropped.
            Message::PeerTimeRequest { nonce } => {
                if let Some(timestamp_ns) = self.core.serve_if_ok(env) {
                    env.send(from, &Message::PeerTimeResponse { nonce, timestamp_ns });
                }
            }
            Message::ClientTimeRequest { nonce } => {
                let timestamp_ns = self.core.serve_if_ok(env);
                env.send(from, &Message::ClientTimeResponse { nonce, timestamp_ns });
            }
            Message::TimeReadingRequest { nonce } => {
                let reading = self.serve_reading(env);
                env.send(from, &Message::TimeReadingResponse { nonce, reading });
            }
            msg => {
                if let Some(round) = self.policy.on_message(&mut self.core, env, from, msg) {
                    self.conclude_round(env, round);
                }
            }
        }
    }
}

impl<P: Policy> Machine for Node<P> {
    fn addr(&self) -> Addr {
        self.core.me
    }

    fn node_index(&self) -> Option<usize> {
        Some(self.core.index)
    }

    fn crashed(&self) -> bool {
        self.core.crashed
    }

    /// Boot, and reboot after a crash: the node must (re-)earn a clock
    /// through a full calibration before serving anything.
    fn on_start(&mut self, env: &mut dyn Env) {
        self.core.crashed = false;
        self.core.begin_full_calibration(env);
        self.policy.arm_timers(&mut self.core, env);
    }

    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            Input::Aex { .. } => self.on_aex(env),
            Input::AexResume => self.on_resume(env),
            Input::Crash => self.on_crash(env),
            Input::Restart if self.core.crashed => self.on_start(env),
            // A node's protocol stack stays honest; lies live on its
            // serving edge.
            Input::Restart | Input::Lie(_) => {}
            Input::Message { src, msg } => self.on_message(env, src, msg),
            Input::Timer { token } => {
                let low = token & TOKEN_MASK;
                match token & !TOKEN_MASK {
                    TOKEN_PEER_TIMEOUT => {
                        if let Some(round) = self.core.pending_round.take_if(|r| r.nonce == low) {
                            self.conclude_round(env, round);
                        }
                    }
                    TOKEN_PROBE_RETRY => {
                        if let Some(p) = self.core.pending_probe.filter(|p| p.nonce == low) {
                            self.core.on_probe_timeout(env, p.kind, p.attempt);
                        }
                    }
                    // Stale chains from before a crash die out silently.
                    _ if low != self.core.timer_epoch & TOKEN_MASK => {}
                    TOKEN_BREAKER => self.core.on_breaker_timer(env),
                    kind => self.policy.on_timer(&mut self.core, env, kind),
                }
            }
        }
    }
}
