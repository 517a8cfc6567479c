//! # authority — the Time Authority (TA)
//!
//! The root of trust of the Triad protocol (§III-B): a remote service —
//! an NTP-server stand-in — whose clock *is* reference time. Nodes send it
//! [`wire::Message::CalibrationRequest`]s carrying a requested hold time
//! `s`; the TA waits exactly `s` of reference time and answers with its
//! current timestamp. Immediate (`s = 0`) exchanges double as
//! time-reference refreshes.
//!
//! In the simulation the TA's clock is the simulation clock itself, which
//! makes "drift vs the TA" and "drift vs reference time" the same metric,
//! exactly as in the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use netsim::{Addr, DelayModel};
use runtime::{Env, Input, Machine, TA_ADDR};
use sim::SimDuration;
use wire::Message;

/// The OS sleep's overshoot: scheduling latency, ≈150 µs ± 130 µs and
/// never negative.
const HOLD_JITTER: DelayModel = DelayModel::NormalClamped {
    mean: SimDuration::from_micros(150),
    std: SimDuration::from_micros(130),
    min: SimDuration::ZERO,
};

/// A pending held response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hold {
    reply_to: Addr,
    nonce: u64,
    slept_ns: u64,
}

/// The Time Authority machine.
///
/// Listens at [`TA_ADDR`]; every node shares a pairwise AEAD key
/// with it.
///
/// ## Hold jitter
///
/// The requested hold is implemented with an OS sleep, which only ever
/// *overshoots* — by scheduling-latency amounts. This jitter is what limits
/// Triad's short-window calibration precision: with ≈150 µs ± 130 µs of
/// overshoot and three round-trips per sleep value, the regression slope
/// error lands in the paper's ~110–210 ppm effective drift band (§IV-A.2),
/// an order of magnitude above NTP's 15 ppm bound.
///
/// ## Outages
///
/// A TA outage arrives as [`Input::Crash`] and ends with
/// [`Input::Restart`]. While down, the TA answers nothing: requests that
/// arrive are dropped, and so is every held response whose sleep ends
/// inside the outage. A hold that spans the whole outage — asked before
/// it, due after it — is answered on time.
#[derive(Debug, Default)]
pub struct TimeAuthority {
    holds: BTreeMap<u64, Hold>,
    next_token: u64,
    down: bool,
}

impl TimeAuthority {
    /// Creates a TA with the paper-calibrated hold jitter.
    pub fn new() -> Self {
        TimeAuthority::default()
    }

    fn respond(env: &mut dyn Env, hold: Hold) {
        let ta_time_ns = env.now().as_nanos();
        env.send(
            hold.reply_to,
            &Message::CalibrationResponse {
                nonce: hold.nonce,
                ta_time_ns,
                slept_ns: hold.slept_ns,
            },
        );
    }
}

impl Machine for TimeAuthority {
    fn addr(&self) -> Addr {
        TA_ADDR
    }

    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            // In-flight requests die silently while the TA is down; the
            // sender's retry/backoff path has to cope.
            Input::Message { src, msg: Message::CalibrationRequest { nonce, sleep_ns } }
                if !self.down =>
            {
                let hold = Hold { reply_to: src, nonce, slept_ns: sleep_ns };
                // OS sleeps only ever overshoot: jitter applies to
                // immediate responses (scheduling latency) too.
                let effective = SimDuration::from_nanos(sleep_ns) + HOLD_JITTER.sample(env.rng());
                if effective.is_zero() {
                    Self::respond(env, hold);
                } else {
                    let token = self.next_token;
                    self.next_token += 1;
                    self.holds.insert(token, hold);
                    env.set_timer(token, effective);
                }
            }
            Input::Timer { token } => {
                if let Some(hold) = self.holds.remove(&token).filter(|_| !self.down) {
                    Self::respond(env, hold);
                }
            }
            Input::Crash => self.down = true,
            Input::Restart => self.down = false,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::{Effect, ScriptedEnv};

    const NODE: Addr = Addr(1);

    fn request(env: &mut ScriptedEnv, ta: &mut TimeAuthority, nonce: u64, sleep_ns: u64) {
        let msg = Message::CalibrationRequest { nonce, sleep_ns };
        ta.on_input(env, Input::Message { src: NODE, msg });
    }

    /// The hold the TA armed for the last request: `(token, after)`.
    fn armed(env: &mut ScriptedEnv) -> (u64, SimDuration) {
        match env.take_effects()[..] {
            [Effect::SetTimer { token, after }] => (token, after),
            ref other => panic!("expected one held response, got {other:?}"),
        }
    }

    /// Advances to the hold's end and fires it; returns what the TA sent.
    fn expire(
        env: &mut ScriptedEnv,
        ta: &mut TimeAuthority,
        (token, after): (u64, SimDuration),
    ) -> Vec<Effect> {
        env.advance(after);
        ta.on_input(env, Input::Timer { token });
        env.take_effects()
    }

    fn answer(nonce: u64, ta_time_ns: u64, slept_ns: u64) -> Effect {
        Effect::Send {
            dst: NODE,
            msg: Message::CalibrationResponse { nonce, ta_time_ns, slept_ns },
        }
    }

    #[test]
    fn zero_sleep_is_answered_at_once_when_the_overshoot_draw_is_zero() {
        let (mut env, mut ta) = (ScriptedEnv::new(1, 3), TimeAuthority::new());
        env.advance(SimDuration::from_millis(7));
        // The overshoot clamps to zero on about one draw in eight.
        for nonce in 0..100 {
            request(&mut env, &mut ta, nonce, 0);
            match &env.take_effects()[..] {
                [Effect::SetTimer { after, .. }] => assert!(!after.is_zero()),
                [sent] => {
                    assert_eq!(*sent, answer(nonce, 7_000_000, 0), "stamped with the TA's now");
                    return;
                }
                other => panic!("unexpected effects {other:?}"),
            }
        }
        panic!("no zero-overshoot draw in 100 requests");
    }

    #[test]
    fn a_hold_is_the_sleep_plus_an_overshoot_never_below_it() {
        let (mut env, mut ta) = (ScriptedEnv::new(1, 5), TimeAuthority::new());
        let sleep = SimDuration::from_secs(1);
        let mut overshoots = Vec::new();
        for nonce in 0..2_000 {
            request(&mut env, &mut ta, nonce, sleep.as_nanos());
            let hold = armed(&mut env);
            assert!(hold.1 >= sleep, "a hold undershot: {:?}", hold.1);
            overshoots.push((hold.1 - sleep).as_secs_f64());
            let start = env.now;
            let sent = expire(&mut env, &mut ta, hold);
            assert_eq!(sent, [answer(nonce, (start + hold.1).as_nanos(), sleep.as_nanos())]);
        }
        // Mean ≈ 150 µs (clamping skews it slightly upward), spread
        // ≈ 110–130 µs: the source of the paper's ~110 ppm band.
        let n = overshoots.len() as f64;
        let mean = overshoots.iter().sum::<f64>() / n;
        let sd = (overshoots.iter().map(|h| (h - mean).powi(2)).sum::<f64>() / n).sqrt();
        assert!((mean - 165e-6).abs() < 30e-6, "mean overshoot {mean}");
        assert!((90e-6..150e-6).contains(&sd), "overshoot sd {sd}");
    }

    #[test]
    fn a_request_arriving_during_an_outage_is_dropped() {
        let (mut env, mut ta) = (ScriptedEnv::new(1, 6), TimeAuthority::new());
        ta.on_input(&mut env, Input::Crash);
        request(&mut env, &mut ta, 1, 0);
        request(&mut env, &mut ta, 2, 1_000_000_000);
        assert_eq!(env.take_effects(), []);
        ta.on_input(&mut env, Input::Restart);
        request(&mut env, &mut ta, 3, 1_000_000_000);
        armed(&mut env);
    }

    #[test]
    fn a_hold_ending_inside_an_outage_is_dropped() {
        let (mut env, mut ta) = (ScriptedEnv::new(1, 7), TimeAuthority::new());
        request(&mut env, &mut ta, 1, 1_000_000_000);
        let hold = armed(&mut env);
        ta.on_input(&mut env, Input::Crash);
        assert_eq!(expire(&mut env, &mut ta, hold), []);
        // Restored, the TA does not answer the lost hold late either.
        ta.on_input(&mut env, Input::Restart);
        assert_eq!(expire(&mut env, &mut ta, hold), []);
    }

    #[test]
    fn a_hold_spanning_a_short_outage_is_answered() {
        let (mut env, mut ta) = (ScriptedEnv::new(1, 8), TimeAuthority::new());
        request(&mut env, &mut ta, 1, 1_000_000_000);
        let hold = armed(&mut env);
        ta.on_input(&mut env, Input::Crash);
        env.advance(SimDuration::from_millis(200));
        ta.on_input(&mut env, Input::Restart);
        let sent = expire(&mut env, &mut ta, (hold.0, hold.1 - SimDuration::from_millis(200)));
        assert_eq!(sent, [answer(1, hold.1.as_nanos(), 1_000_000_000)]);
    }
}
