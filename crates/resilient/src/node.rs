//! The paper's §V protocol changes as a [`Policy`] over the shared Triad
//! lifecycle.

use std::collections::VecDeque;

use netsim::Addr;
use proto::{Env, ProtoEvent, STANDING_ERROR_BOUND};
use sim::SimDuration;
use stats::{marzullo, Interval, Regression};
use trace::NodeStateTag;
use wire::Message;

use triad_core::{
    Core, Node, PeerRound, PeerSample, Policy, ProbeKind, TaSample, TriadConfig, POLICY_TIMERS,
};

use crate::config::ResilientConfig;

const DEADLINE: u64 = POLICY_TIMERS[0];
const TA_CHECK: u64 = POLICY_TIMERS[1];

/// Clock progress between proactive (deadline) checks.
const DEADLINE_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Cadence of TA cross-check exchanges.
const TA_CHECK_INTERVAL: SimDuration = SimDuration::from_secs(15);
/// Largest acceptable TA round trip before a sample is retried.
const MAX_RTT: SimDuration = SimDuration::from_millis(10);
/// Consecutive RTT rejections before accepting anyway (liveness), with the
/// error bound widened by the observed round trip.
const MAX_RTT_REJECTS: u32 = 3;
/// Assumed drift bound before long-window refinement (ppm).
const DRIFT_BOUND_PPM_INITIAL: f64 = 400.0;
/// Assumed drift bound after refinement (ppm).
const DRIFT_BOUND_PPM_REFINED: f64 = 40.0;
const _: () = assert!(DRIFT_BOUND_PPM_INITIAL >= DRIFT_BOUND_PPM_REFINED);
/// Minimum sample span before a long-window refit.
const NTP_MIN_WINDOW: SimDuration = SimDuration::from_secs(60);
/// Maximum retained TA samples (ring buffer).
const NTP_MAX_SAMPLES: usize = 64;
// `maybe_refit` needs eight retained samples.
const _: () = assert!(NTP_MAX_SAMPLES >= 8);

/// A Triad node hardened with the countermeasures of §V.
pub type ResilientNode = Node<Hardened>;

/// The §V rule for whom a Triad node believes.
///
/// Shares the base protocol's lifecycle — calibrate, serve, taint on AEX,
/// refresh via peers or TA — but changes *whom it believes*:
///
/// - peer timestamps carry error bounds and are accepted only when a
///   strict majority of clock intervals mutually intersect (Marzullo's
///   true-chimers), so a single fast clock is outvoted instead of
///   followed;
/// - refresh checks also fire from an in-TCB deadline, not only from
///   attacker-controlled AEXs;
/// - the TSC frequency is continuously refined over a long sample window
///   (NTP-style), erasing a poisoned initial calibration;
/// - TA anchors with implausible round-trips are retried, bounding
///   message-delay offsets.
///
/// **Hardened runs no monitor**: the §III-B / §IV-A.1 INC-vs-TSC check
/// is [`triad_core::Paper`]'s alone, so a TSC rate manipulation that stays
/// inside the node's own error bound (the committed `drift-n5`
/// reproducer) raises no detection on a hardened node while the paper's
/// node catches it. Switching it on changes `results/` and the corpus
/// and is ROADMAP item 1(a); `crates/scenario/tests/monitor_gap.rs` pins
/// the gap until then.
#[derive(Debug)]
pub struct Hardened {
    cfg: ResilientConfig,
    rtt_rejects: u32,
    /// Bound widening carried by the last TA sample that was accepted
    /// despite an implausible round trip.
    extra_bound_ns: f64,
    ta_samples: VecDeque<(f64, f64)>, // (recv ticks, estimated reference ns)
    drift_bound_ppm: f64,
    /// True once the long-window refinement replaced the bootstrap fit.
    refined: bool,
    /// Announcement counter. It goes on the wire, so unlike the rest of
    /// the enclave state it is not rewound by a crash.
    epoch: u64,
    gossip_suspicion: u32,
}

impl Hardened {
    /// NTP-style long-window frequency refinement: once TA samples span
    /// the configured window, a robust fit of reference time over TSC
    /// ticks replaces the short-window bootstrap estimate (§V: "calibration
    /// phases with short-duration measurements ... can be replaced by more
    /// mature synchronization protocols like NTPsec").
    fn maybe_refit(&mut self, core: &mut Core, env: &mut dyn Env) {
        if !self.cfg.enable_long_window || self.ta_samples.len() < 8 {
            return;
        }
        let f = core.frequency_hz().expect("samples only exist after bootstrap");
        let span_ticks = self.ta_samples.back().expect("non-empty").0
            - self.ta_samples.front().expect("non-empty").0;
        let span_ns = span_ticks / f * 1e9;
        if span_ns < NTP_MIN_WINDOW.as_nanos() as f64 {
            return;
        }
        let reg: Regression = self.ta_samples.iter().copied().collect();
        // Theil–Sen resists the occasional attacker-delayed sample.
        let Some(fit) = reg.theil_sen() else { return };
        if fit.slope <= 0.0 {
            return;
        }
        let f_new = 1e9 / fit.slope; // slope is ns of reference per tick
        let changed = (f_new / f - 1.0).abs();
        // Sanity: reject fits wildly off the current estimate (a poisoned
        // majority of samples cannot silently take over).
        if changed > 0.2 {
            return;
        }
        if !self.refined || changed * 1e6 > 1.0 {
            core.refit_frequency(env, f_new, self.error_bound_ns(0.0));
            self.drift_bound_ppm = DRIFT_BOUND_PPM_REFINED;
            self.refined = true;
            env.emit(ProtoEvent::Calibration { hz: f_new });
        }
    }

    /// The self-assessed half-width error bound `secs` after the anchor.
    fn bound_ns(&self, secs_since_anchor: f64) -> f64 {
        STANDING_ERROR_BOUND.as_nanos() as f64
            + self.drift_bound_ppm * 1e-6 * secs_since_anchor * 1e9
            + self.extra_bound_ns
    }

    /// Runs the Marzullo majority test over peer intervals plus our own
    /// clock. Returns `true` when a majority agreement existed (whether or
    /// not our clock needed correcting).
    fn apply_consistency(&mut self, core: &mut Core, env: &mut dyn Env, round: &PeerRound) -> bool {
        let responses = &round.responses;
        let ticks = env.read_tsc();
        // A small allowance for the network delay on peer responses.
        let net_margin_ns = core.cfg().peer_timeout.as_nanos() as f64;

        let mut intervals: Vec<Interval> = responses
            .iter()
            .map(|r| {
                Interval::around(r.timestamp_ns as f64, r.error_bound_ns as f64 + net_margin_ns)
            })
            .collect();
        let own_idx = intervals.len();
        let Some(own_now) = core.clock_ns(ticks) else { return false };
        intervals.push(Interval::around(own_now, self.bound_ns(core.secs_since_anchor(ticks))));

        let Some(agreement) = marzullo(&intervals) else { return false };
        let total = intervals.len();
        if !agreement.is_majority_of(total) {
            return false;
        }
        // Flag the outvoted clocks (false-chimers) — the paper's §V
        // suggestion of publishing true-chimer lists reduces to counting
        // them here.
        for _ in agreement.support..total {
            env.emit(ProtoEvent::ChimerRejection);
        }
        // §V: publish the true-chimer set ("Nodes may publish ... their
        // list of true-chimers"). Peers excluded by all of their peers
        // self-check against the TA.
        if self.cfg.enable_gossip {
            self.epoch += 1;
            let chimers = (0..total)
                .filter(|&idx| agreement.chimers & 1 << idx != 0)
                .map(|idx| {
                    wire::NodeId(if idx == own_idx { core.me().0 } else { responses[idx].from.0 })
                })
                .collect();
            let announcement = Message::ChimerAnnouncement { epoch: self.epoch, chimers };
            for &peer in core.peers() {
                env.send(peer, &announcement);
            }
        }
        if agreement.chimers & 1 << own_idx == 0 {
            // Outvoted: correct toward the agreement midpoint, monotonic.
            // (A clock consistent with the majority is kept as it is.)
            let target = agreement.interval.center().max(core.serving_floor_ns());
            core.set_anchor(env, ticks, target, self.error_bound_ns(0.0));
            env.emit(ProtoEvent::Correction);
        }
        true
    }
}

impl Policy for Hardened {
    type Config = ResilientConfig;

    fn new(cfg: ResilientConfig) -> (TriadConfig, Self) {
        cfg.base.validate();
        let policy = Hardened {
            rtt_rejects: 0,
            extra_bound_ns: 0.0,
            ta_samples: VecDeque::new(),
            drift_bound_ppm: DRIFT_BOUND_PPM_INITIAL,
            refined: false,
            epoch: 0,
            gossip_suspicion: 0,
            cfg,
        };
        (policy.cfg.base.clone(), policy)
    }

    fn error_bound_ns(&self, secs_since_anchor: f64) -> Option<f64> {
        Some(self.bound_ns(secs_since_anchor))
    }

    fn arm_timers(&mut self, core: &mut Core, env: &mut dyn Env) {
        if self.cfg.enable_deadline {
            core.arm_policy_timer(env, DEADLINE, DEADLINE_INTERVAL);
        }
        if self.cfg.enable_ta_cross_check {
            core.arm_policy_timer(env, TA_CHECK, TA_CHECK_INTERVAL);
        }
    }

    fn on_timer(&mut self, core: &mut Core, env: &mut dyn Env, kind: u64) {
        if kind == DEADLINE {
            if core.state() == NodeStateTag::Ok && !core.round_pending() {
                env.emit(ProtoEvent::DeadlineCheck);
                core.start_round(env, true, Self::peer_request);
            }
            core.arm_policy_timer(env, DEADLINE, DEADLINE_INTERVAL);
        } else if kind == TA_CHECK {
            core.cross_check(env);
            core.arm_policy_timer(env, TA_CHECK, TA_CHECK_INTERVAL);
        }
    }

    fn reset(&mut self) {
        self.rtt_rejects = 0;
        self.extra_bound_ns = 0.0;
        self.ta_samples.clear();
        self.drift_bound_ppm = DRIFT_BOUND_PPM_INITIAL;
        self.refined = false;
        self.gossip_suspicion = 0;
    }

    fn on_ta_sample(&mut self, core: &mut Core, env: &mut dyn Env, sample: TaSample) {
        let TaSample { kind, rtt_ns, recv_ticks, ta_time_ns } = sample;
        let implausible = self.cfg.enable_rtt_filter && rtt_ns > MAX_RTT.as_nanos() as f64;
        if implausible && self.rtt_rejects < MAX_RTT_REJECTS {
            // An on-path attacker is (or congestion is) stretching the
            // exchange: retry rather than anchor to a skewed estimate.
            self.rtt_rejects += 1;
            core.send_probe(env, kind);
            return;
        }
        // Out of retries (liveness): accept, with the bound widened by the
        // observed round trip.
        self.rtt_rejects = 0;
        let est_ns = ta_time_ns as f64 + rtt_ns / 2.0;
        let sample_extra_bound = if implausible { rtt_ns } else { 0.0 };

        // Feed the long-window (NTP-style) refinement.
        self.ta_samples.push_back((recv_ticks as f64, est_ns));
        while self.ta_samples.len() > NTP_MAX_SAMPLES {
            self.ta_samples.pop_front();
        }
        self.maybe_refit(core, env);

        // Both anchors below publish the bound with the *previous*
        // `extra_bound_ns`; this sample's widening applies from the next
        // publication on.
        if kind == ProbeKind::Anchor {
            core.anchor_to_ta(env, recv_ticks, est_ns, self.error_bound_ns(0.0));
            self.extra_bound_ns = sample_extra_bound;
            return;
        }
        let own = core.clock_ns(recv_ticks).expect("checked only while serving");
        let bound = self.bound_ns(core.secs_since_anchor(recv_ticks)) + sample_extra_bound;
        if (est_ns - own).abs() > bound {
            // The clock fell outside its own confidence interval against
            // the root of trust: correct it.
            let target = est_ns.max(core.serving_floor_ns());
            core.set_anchor(env, recv_ticks, target, self.error_bound_ns(0.0));
            self.extra_bound_ns = sample_extra_bound;
            env.emit(ProtoEvent::Correction);
            env.emit(ProtoEvent::TaReference);
        }
    }

    fn peer_request(nonce: u64) -> Message {
        Message::IntervalRequest { nonce }
    }

    fn on_message(
        &mut self,
        core: &mut Core,
        env: &mut dyn Env,
        from: Addr,
        msg: Message,
    ) -> Option<PeerRound> {
        match msg {
            Message::IntervalRequest { nonce } if core.state() == NodeStateTag::Ok => {
                let ticks = env.read_tsc();
                let error_bound_ns = self.bound_ns(core.secs_since_anchor(ticks)) as u64;
                if let Some(timestamp_ns) = core.serve_ns(ticks) {
                    let tainted = false;
                    let reply =
                        Message::IntervalResponse { nonce, timestamp_ns, error_bound_ns, tainted };
                    env.send(from, &reply);
                }
            }
            Message::IntervalResponse { nonce, timestamp_ns, error_bound_ns, tainted } => {
                let sample = PeerSample { from, timestamp_ns, error_bound_ns };
                return core.peer_answer(env, nonce, (!tainted).then_some(sample));
            }
            Message::ChimerAnnouncement { chimers, .. } if self.cfg.enable_gossip => {
                if chimers.contains(&wire::NodeId(core.me().0)) {
                    self.gossip_suspicion = 0;
                    return None;
                }
                env.emit(ProtoEvent::GossipAlert);
                self.gossip_suspicion += 1;
                if self.gossip_suspicion as usize >= core.peers().len().max(1) {
                    self.gossip_suspicion = 0;
                    // Every peer thinks our clock is off: verify against
                    // the root of trust right away.
                    core.cross_check(env);
                }
            }
            _ => {}
        }
        None
    }

    fn conclude_round(&mut self, core: &mut Core, env: &mut dyn Env, round: PeerRound) {
        if round.proactive {
            if core.state() == NodeStateTag::Ok {
                self.apply_consistency(core, env, &round);
            }
        } else if !self.cfg.enable_chimer_filter {
            // Base Triad policy (ablation baseline).
            core.max_adopt(env, &round.responses, self.error_bound_ns(0.0));
        } else if self.apply_consistency(core, env, &round) {
            core.untainted_by_peers(env);
        } else {
            core.fall_back_to_ta(env);
        }
    }
}
