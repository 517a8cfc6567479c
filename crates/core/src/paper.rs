//! The paper's Triad (§III) as a [`Policy`]: anchor on one TA exchange,
//! follow the fastest peer, watch the TSC with the INC monitor.

use netsim::Addr;
use proto::{Env, ProtoEvent};
use sim::SimTime;
use wire::Message;

use crate::config::TriadConfig;
use crate::node::{Core, PeerRound, PeerSample, Policy, TaSample, POLICY_TIMERS};

const MONITOR: u64 = POLICY_TIMERS[0];

/// Base Triad, the paper's primary artifact.
///
/// A single time-reference exchange anchors the clock (optionally
/// compensating RTT/2), a concluded peer round untaints by the §III-D
/// max-adopt rule, and the monitoring thread cross-checks TSC against INC
/// (§III-B / §IV-A.1). The node claims no error bound of its own.
#[derive(Debug, Default)]
pub struct Paper {
    /// Start of the current uninterrupted monitoring window.
    monitor_anchor: Option<(SimTime, u64)>,
    /// TSC ticks per INC, learnt from the first clean window.
    inc_ticks_per_inc: Option<f64>,
}

impl Policy for Paper {
    type Config = TriadConfig;

    fn new(cfg: TriadConfig) -> (TriadConfig, Self) {
        cfg.validate();
        (cfg, Paper::default())
    }

    fn arm_timers(&mut self, core: &mut Core, env: &mut dyn Env) {
        core.arm_policy_timer(env, MONITOR, core.cfg().monitor_interval);
    }

    /// One tick of the INC-vs-TSC cross-check (§IV-A.1): a TSC-per-INC
    /// ratio off its baseline by more than the threshold means the TSC was
    /// manipulated, and the node recalibrates from scratch.
    fn on_timer(&mut self, core: &mut Core, env: &mut dyn Env, _monitor: u64) {
        let now = env.now();
        let ticks_now = env.read_tsc();
        let mut detected = false;
        // Only windows with uninterrupted execution count; AEXs clear the
        // anchor. `sample_inc` draws from the seeded stream, so it runs
        // only for a non-empty window with an anchor.
        if let Some((t0, ticks0)) = self.monitor_anchor.filter(|&(t0, _)| now > t0) {
            let inc = env.sample_inc(now - t0);
            if inc > 0 {
                let ratio = ticks_now.saturating_sub(ticks0) as f64 / inc as f64;
                match self.inc_ticks_per_inc {
                    None => self.inc_ticks_per_inc = Some(ratio),
                    Some(baseline) => {
                        let ppm = (ratio / baseline - 1.0).abs() * 1e6;
                        if ppm > core.cfg().monitor_threshold_ppm {
                            env.emit(ProtoEvent::MonitorDetection);
                            self.inc_ticks_per_inc = None;
                            detected = true;
                        }
                    }
                }
            }
        }
        self.monitor_anchor = Some((now, ticks_now));
        // Re-arm before recalibrating: the events a detection schedules
        // keep their order (monitor timer first, then the probe's).
        self.arm_timers(core, env);
        if detected {
            core.begin_full_calibration(env);
        }
    }

    fn on_aex(&mut self) {
        self.monitor_anchor = None; // the monitoring window is severed
    }

    fn reset(&mut self) {
        *self = Paper::default();
    }

    fn on_ta_sample(&mut self, core: &mut Core, env: &mut dyn Env, sample: TaSample) {
        // Base Triad only ever sends the time-reference exchange: anchor
        // to the TA timestamp.
        let correction_ns = if core.cfg().rtt_half_correction { sample.rtt_ns / 2.0 } else { 0.0 };
        core.anchor_to_ta(env, sample.recv_ticks, sample.ta_time_ns as f64 + correction_ns, None);
    }

    fn peer_request(nonce: u64) -> Message {
        Message::PeerTimeRequest { nonce }
    }

    fn on_message(
        &mut self,
        core: &mut Core,
        env: &mut dyn Env,
        from: Addr,
        msg: Message,
    ) -> Option<PeerRound> {
        match msg {
            Message::PeerTimeResponse { nonce, timestamp_ns } => {
                let sample = PeerSample { from, timestamp_ns, error_bound_ns: 0 };
                core.peer_answer(env, nonce, Some(sample))
            }
            // Hardened-protocol messages are ignored by the base node.
            _ => None,
        }
    }

    fn conclude_round(&mut self, core: &mut Core, env: &mut dyn Env, round: PeerRound) {
        core.max_adopt(env, &round.responses, None);
    }
}
