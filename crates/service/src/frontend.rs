//! The per-node serving front-end: bounded admission, request batching,
//! load shedding, and degraded-mode answers.

use std::collections::VecDeque;

use netsim::Addr;
use proto::{Env, Input, Lie, Machine, ProtoEvent, ServingFloor, STANDING_ERROR_BOUND};
use sim::{SimDuration, SimTime};
use trace::NodeStateTag;
use wire::{AttestOutcome, Message, ServeOutcome, TimeReading};

use crate::spec::FrontendSpec;

/// Timer token for the batch-window flush (machine-private).
const TOKEN_FLUSH: u64 = 1 << 63;

/// Floor half-width of quorum attestations. The attested uncertainty is the
/// node's published self-assessed bound (plus staleness widening), but
/// never below this floor — it must cover the honest inter-node clock
/// divergence or honest panels will false-positive.
const ATTEST_FLOOR_UNCERTAINTY: SimDuration = SimDuration::from_millis(2);

/// What a queued request is asking for.
#[derive(Debug, Clone, Copy)]
enum ReqKind {
    /// A plain timestamp read ([`Message::ServeRequest`]).
    Serve {
        /// Whether the client tolerates degraded `TimeReading` answers.
        accept_degraded: bool,
    },
    /// A quorum attestation ([`Message::AttestRequest`]): always answered
    /// with an interval, never a bare timestamp.
    Attest,
}

/// One queued request awaiting the next batch.
#[derive(Debug, Clone, Copy)]
struct Queued {
    client: Addr,
    nonce: u64,
    kind: ReqKind,
}

/// The serving front-end co-located with one Triad node.
///
/// Requests are admitted into a bounded queue and drained in batches:
/// each flush performs **one** enclave timestamp read (`rdtsc` plus the
/// published calibration) and answers every request in the batch from
/// it, with per-request ε-bumps preserving strict monotonicity. Flushes
/// are paced — at most one batch per `batch_window` — so the drain rate
/// is bounded at `batch_max / batch_window` and sustained excess load
/// fills the queue instead of being served for free. A full queue sheds
/// new arrivals with an immediate [`ServeOutcome::Overloaded`] reply; a
/// crashed node's front-end goes silent (clients discover it by timeout,
/// exactly as with a dead machine).
///
/// While the node is degraded (tainted, recalibrating) the front-end
/// answers `accept_degraded` requests with a [`TimeReading`] whose
/// uncertainty widens with time spent degraded, mirroring the hardened
/// node's staleness-aware readings; all other requests get
/// [`ServeOutcome::Unavailable`].
///
/// A lying-node fault ([`Input::Lie`]) skews every timestamp the
/// front-end hands out until the fault stops; the node underneath stays
/// honest.
///
/// Implemented as a pure [`proto::Machine`]: the co-located node's TSC,
/// published clock and protocol state arrive through the [`Env`]
/// capabilities, so the same front-end serves under the simulation and
/// the live UDP runtime.
#[derive(Debug)]
pub struct Frontend {
    me: Addr,
    node_index: usize,
    spec: FrontendSpec,
    queue: VecDeque<Queued>,
    flush_armed: bool,
    /// Earliest instant the next batch may run (pacing: one enclave read
    /// per `batch_window`).
    next_allowed: SimTime,
    /// No answer, full or degraded, ever goes backwards or repeats.
    floor: ServingFloor,
    /// When the node's current degraded stretch started, as observed at
    /// flush time; drives the widening uncertainty term.
    degraded_since: Option<SimTime>,
    /// The active lying-node fault, if any.
    lie: Option<Lie>,
    /// Answers served while a lying-node fault is active; drives the
    /// equivocation alternation in [`Lie::skew_ns`].
    lie_seq: u64,
}

impl Frontend {
    /// Creates the front-end for node index `node_index`, serving from
    /// address `me`.
    pub fn new(me: Addr, node_index: usize, spec: FrontendSpec) -> Self {
        assert!(spec.queue_cap >= 1, "admission queue needs capacity");
        assert!(spec.batch_max >= 1, "batches need at least one request");
        Frontend {
            me,
            node_index,
            spec,
            queue: VecDeque::with_capacity(spec.queue_cap),
            flush_armed: false,
            next_allowed: SimTime::ZERO,
            floor: ServingFloor::default(),
            degraded_since: None,
            lie: None,
            lie_seq: 0,
        }
    }

    fn on_request(&mut self, env: &mut dyn Env, client: Addr, nonce: u64, kind: ReqKind) {
        if env.node_state() == Some(NodeStateTag::Crashed) {
            // The machine is down: nothing answers. Clients find out the
            // honest way — by timing out and failing over.
            return;
        }
        if self.queue.len() >= self.spec.queue_cap {
            env.emit(ProtoEvent::FrontendShed);
            let shed = match kind {
                ReqKind::Serve { .. } => {
                    Message::ServeResponse { nonce, outcome: ServeOutcome::Overloaded }
                }
                ReqKind::Attest => {
                    Message::AttestResponse { nonce, outcome: AttestOutcome::Overloaded }
                }
            };
            env.send(client, &shed);
            return;
        }
        self.queue.push_back(Queued { client, nonce, kind });
        if !self.flush_armed {
            // An under-full batch waits for the window boundary; after an
            // idle stretch `next_allowed` is in the past and the flush
            // fires immediately.
            let delay = self.next_allowed.saturating_duration_since(env.now());
            env.set_timer(TOKEN_FLUSH, delay);
            self.flush_armed = true;
        }
    }

    /// Answers up to `batch_max` queued requests from a single enclave
    /// timestamp read.
    fn flush(&mut self, env: &mut dyn Env) {
        if self.queue.is_empty() {
            return;
        }
        let now = env.now();
        self.next_allowed = now + self.spec.batch_window;
        let state = env.node_state();
        if state == Some(NodeStateTag::Crashed) {
            // Crashed between admission and flush: the queue dies with
            // the machine.
            self.queue.clear();
            return;
        }
        if state == Some(NodeStateTag::Ok) {
            self.degraded_since = None;
        } else if self.degraded_since.is_none() {
            self.degraded_since = Some(now);
        }

        // The whole batch shares one enclave read.
        let ticks = env.read_tsc();
        let clock = env.clock();
        let clock_ns = clock.now_ns(ticks);
        env.emit(ProtoEvent::FrontendBatch);

        let degraded_uncertainty_ns = {
            let base = STANDING_ERROR_BOUND.as_nanos() as f64;
            let staleness = self.degraded_since.map_or(0.0, |t0| (now - t0).as_nanos() as f64);
            (base + self.spec.degraded_drift_ppm * 1e-6 * staleness) as u64
        };
        // Attested half-width: the node's published §V self-assessed bound,
        // widened for the calibration's age (the published bound is an
        // anchor-instant figure) and for any degraded stretch, floored so
        // it always covers honest inter-node divergence.
        let attest_uncertainty_ns = {
            let published = if clock.valid && clock.f_calib_hz > 0.0 {
                let age_ns =
                    ticks.saturating_sub(clock.anchor_ticks) as f64 / clock.f_calib_hz * 1e9;
                clock.uncertainty_ns + self.spec.degraded_drift_ppm * 1e-6 * age_ns
            } else {
                0.0
            };
            let widened = if state == Some(NodeStateTag::Ok) {
                published
            } else {
                published + degraded_uncertainty_ns as f64
            };
            widened.max(ATTEST_FLOOR_UNCERTAINTY.as_nanos() as f64) as u64
        };
        let drained = self.queue.len().min(self.spec.batch_max);
        for _ in 0..drained {
            let Queued { client, nonce, kind } =
                self.queue.pop_front().expect("drained within queue length");
            let answer = match kind {
                ReqKind::Serve { accept_degraded } => {
                    let outcome = match (state, clock_ns) {
                        (Some(NodeStateTag::Ok), Some(ns)) => {
                            let ts = self.floor.serve(ns);
                            ServeOutcome::Time(self.apply_lie(ts))
                        }
                        (Some(_), Some(ns)) if accept_degraded => {
                            let ts = self.floor.serve(ns);
                            ServeOutcome::Reading(TimeReading {
                                estimate_ns: self.apply_lie(ts),
                                uncertainty_ns: degraded_uncertainty_ns,
                                degraded: true,
                            })
                        }
                        _ => ServeOutcome::Unavailable,
                    };
                    if matches!(outcome, ServeOutcome::Time(_) | ServeOutcome::Reading(_)) {
                        env.emit(ProtoEvent::FrontendServed);
                    }
                    Message::ServeResponse { nonce, outcome }
                }
                ReqKind::Attest => {
                    let outcome = match (state, clock_ns) {
                        (Some(s), Some(ns)) if s != NodeStateTag::Crashed => {
                            let ts = self.floor.serve(ns);
                            env.emit(ProtoEvent::FrontendAttest);
                            AttestOutcome::Attestation(TimeReading {
                                estimate_ns: self.apply_lie(ts),
                                uncertainty_ns: attest_uncertainty_ns,
                                degraded: s != NodeStateTag::Ok,
                            })
                        }
                        _ => AttestOutcome::Unavailable,
                    };
                    Message::AttestResponse { nonce, outcome }
                }
            };
            env.send(client, &answer);
        }
        if !self.queue.is_empty() {
            // Backlog remains: drain it at the paced batch rate rather
            // than instantly, so a saturated node sheds instead of
            // pretending to be infinitely fast.
            env.set_timer(TOKEN_FLUSH, self.spec.batch_window);
            self.flush_armed = true;
        }
    }

    /// Applies the active lying-node fault, if any, to an outgoing
    /// timestamp. The monotonic floor tracks the *honest* value — a liar
    /// skews at the edge, it does not corrupt its own bookkeeping.
    fn apply_lie(&mut self, ts: u64) -> u64 {
        match self.lie {
            Some(l) => {
                let skew = l.skew_ns(self.lie_seq);
                self.lie_seq += 1;
                ts.saturating_add_signed(skew)
            }
            None => ts,
        }
    }
}

impl Machine for Frontend {
    fn addr(&self) -> Addr {
        self.me
    }

    fn node_index(&self) -> Option<usize> {
        Some(self.node_index)
    }

    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            Input::Message { src, msg } => match msg {
                Message::ServeRequest { nonce, accept_degraded } => {
                    self.on_request(env, src, nonce, ReqKind::Serve { accept_degraded });
                }
                Message::AttestRequest { nonce } => {
                    self.on_request(env, src, nonce, ReqKind::Attest);
                }
                _ => {}
            },
            Input::Timer { token } if token == TOKEN_FLUSH => {
                self.flush_armed = false;
                self.flush(env);
            }
            Input::Lie(lie) => self.lie = lie,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use proto::{ClockState, Effect, ScriptedEnv};
    use sim::SimDuration;

    use super::*;

    #[test]
    fn flush_sends_one_answer_per_request_in_admission_order_then_rearms() {
        let spec = FrontendSpec { batch_max: 3, ..FrontendSpec::default() };
        let mut fe = Frontend::new(crate::frontend_addr(0), 0, spec);
        let mut env = ScriptedEnv::new(1, 7);
        env.states[0] = Some(NodeStateTag::Ok);
        let asks = [(Addr(1003), 40), (Addr(1001), 41), (Addr(1002), 42), (Addr(1000), 43)];
        for (i, &(src, nonce)) in asks.iter().enumerate() {
            let msg = if i == 1 {
                Message::AttestRequest { nonce }
            } else {
                Message::ServeRequest { nonce, accept_degraded: false }
            };
            fe.on_input(&mut env, Input::Message { src, msg });
        }
        // Admission arms the flush once and sends nothing.
        assert!(matches!(env.take_effects()[..], [Effect::SetTimer { token: TOKEN_FLUSH, .. }]));

        let answered = |effects: &[Effect]| -> Vec<(Addr, u64)> {
            effects
                .iter()
                .map(|e| match e {
                    Effect::Send {
                        dst,
                        msg:
                            Message::ServeResponse { nonce, .. } | Message::AttestResponse { nonce, .. },
                    } => (*dst, *nonce),
                    other => panic!("expected an answer, got {other:?}"),
                })
                .collect()
        };
        fe.on_input(&mut env, Input::Timer { token: TOKEN_FLUSH });
        let first = env.take_effects();
        assert_eq!(answered(&first[..3]), asks[..3]);
        assert_eq!(first[3..], [Effect::SetTimer { token: TOKEN_FLUSH, after: spec.batch_window }]);

        // The backlog drains on the re-armed flush, which arms nothing more.
        fe.on_input(&mut env, Input::Timer { token: TOKEN_FLUSH });
        assert_eq!(answered(&env.take_effects()), asks[3..]);
    }

    /// A lying-node fault arrives as an input and skews only what the
    /// front-end tells clients: equivocation alternates sign per answer,
    /// within a batch and across batches, the monotonic floor keeps
    /// tracking the honest reading, and `Lie(None)` restores honest
    /// answers.
    #[test]
    fn a_lie_input_skews_answers_while_the_floor_stays_honest() {
        let spec = FrontendSpec { batch_max: 3, ..FrontendSpec::default() };
        let mut fe = Frontend::new(crate::frontend_addr(0), 0, spec);
        let mut env = ScriptedEnv::new(1, 7);
        // One tick per ns, so the honest reading is exactly `env.now`.
        env.tsc_hz = 1e9;
        env.clocks[0] = ClockState { valid: true, f_calib_hz: 1e9, ..ClockState::default() };
        env.states[0] = Some(NodeStateTag::Ok);
        env.advance(SimDuration::from_secs(1));
        let t = env.now.as_nanos() as i64;

        // Serves `asks` requests in one batch at a frozen clock; returns
        // each answer's offset from `t`.
        let batch = |fe: &mut Frontend, env: &mut ScriptedEnv, asks: u64| -> Vec<i64> {
            for nonce in 0..asks {
                let msg = Message::ServeRequest { nonce, accept_degraded: false };
                fe.on_input(env, Input::Message { src: Addr(1000), msg });
            }
            fe.on_input(env, Input::Timer { token: TOKEN_FLUSH });
            env.take_effects()
                .iter()
                .filter_map(|e| match e {
                    Effect::Send {
                        msg: Message::ServeResponse { outcome: ServeOutcome::Time(ts), .. },
                        ..
                    } => Some(*ts as i64 - t),
                    _ => None,
                })
                .collect()
        };
        let lie = |offset_ns, equivocate| Input::Lie(Some(Lie { offset_ns, equivocate }));

        fe.on_input(&mut env, lie(1_000, true));
        assert_eq!(batch(&mut fe, &mut env, 3), [1_000, 1 - 1_000, 2 + 1_000]);
        assert_eq!(batch(&mut fe, &mut env, 1), [3 - 1_000], "alternation spans batches");
        fe.on_input(&mut env, lie(-500, false));
        assert_eq!(batch(&mut fe, &mut env, 2), [4 - 500, 5 - 500]);
        // Honest again, one past the honest floor (5), not past the
        // largest skewed answer (1 002).
        fe.on_input(&mut env, Input::Lie(None));
        assert_eq!(batch(&mut fe, &mut env, 1), [6]);
    }
}
