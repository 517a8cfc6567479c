//! The F+ / F– calibration delay attacks (§III-C).
//!
//! The attacker controls the victim node's OS, so it sits on-path between
//! that node and the Time Authority. It cannot read the encrypted
//! calibration messages — in particular not the requested hold time `s` —
//! but it *can* time them: the gap between a request passing outbound and
//! its response passing inbound is `s + d_net`, so a threshold cleanly
//! classifies 0 s-sleep vs 1 s-sleep exchanges.
//!
//! - **F+**: add delay to high-`s` responses → steeper regression →
//!   `F^calib > F^TSC` → the victim's clock runs *slow* (the paper's
//!   −91 ms/s at +100 ms on 1 s-sleeps);
//! - **F–**: add delay to low-`s` responses → flatter regression →
//!   `F^calib < F^TSC` → the victim's clock runs *fast* (+113 ms/s), which
//!   §IV-B.2 shows propagates to honest peers.

use std::collections::VecDeque;

use netsim::{Addr, InterceptAction, Interceptor, MsgMeta};
use sim::{SimDuration, SimTime};

/// Which side of the regression the attacker tilts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayAttackMode {
    /// Delay high-sleep responses: victim clock slows down.
    FPlus,
    /// Delay low-sleep responses: victim clock speeds up (propagates!).
    FMinus,
}

/// On-path interceptor implementing F+ or F– against one victim node.
///
/// Works purely from metadata and timing: requests from the victim to the
/// TA are queued FIFO (the Triad node runs one TA exchange at a time), and
/// each TA→victim response is matched to the oldest outstanding request to
/// estimate the TA-side hold.
#[derive(Debug)]
pub struct CalibrationDelayAttack {
    victim: Addr,
    ta: Addr,
    mode: DelayAttackMode,
    added_delay: SimDuration,
    sleep_threshold: SimDuration,
    outstanding: VecDeque<SimTime>,
    delayed: u64,
    observed_responses: u64,
}

impl CalibrationDelayAttack {
    /// Creates the attack with the paper's parameters: +100 ms added
    /// delay, 500 ms hold-classification threshold.
    pub fn paper_default(victim: Addr, ta: Addr, mode: DelayAttackMode) -> Self {
        Self::new(victim, ta, mode, SimDuration::from_millis(100), SimDuration::from_millis(500))
    }

    /// Creates the attack with explicit parameters.
    pub fn new(
        victim: Addr,
        ta: Addr,
        mode: DelayAttackMode,
        added_delay: SimDuration,
        sleep_threshold: SimDuration,
    ) -> Self {
        CalibrationDelayAttack {
            victim,
            ta,
            mode,
            added_delay,
            sleep_threshold,
            outstanding: VecDeque::new(),
            delayed: 0,
            observed_responses: 0,
        }
    }
}

impl Interceptor for CalibrationDelayAttack {
    fn on_message(&mut self, now: SimTime, meta: &MsgMeta, _ct: &[u8]) -> InterceptAction {
        if meta.src == self.victim && meta.dst == self.ta {
            self.outstanding.push_back(now);
            return InterceptAction::Deliver;
        }
        if meta.src == self.ta && meta.dst == self.victim {
            self.observed_responses += 1;
            let Some(request_at) = self.outstanding.pop_front() else {
                return InterceptAction::Deliver; // response with no request seen
            };
            let estimated_hold = now.saturating_duration_since(request_at);
            let is_high_sleep = estimated_hold >= self.sleep_threshold;
            let hit = match self.mode {
                DelayAttackMode::FPlus => is_high_sleep,
                DelayAttackMode::FMinus => !is_high_sleep,
            };
            if hit {
                self.delayed += 1;
                return InterceptAction::Delay(self.added_delay);
            }
        }
        InterceptAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(src: u16, dst: u16, t: SimTime) -> MsgMeta {
        MsgMeta { src: Addr(src), dst: Addr(dst), size: 48, send_time: t }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn f_plus_delays_only_long_holds() {
        let mut atk =
            CalibrationDelayAttack::paper_default(Addr(3), Addr(0), DelayAttackMode::FPlus);
        // Short exchange: request at 0, response at 1 ms.
        assert_eq!(atk.on_message(t(0), &meta(3, 0, t(0)), &[]), InterceptAction::Deliver);
        assert_eq!(atk.on_message(t(1), &meta(0, 3, t(1)), &[]), InterceptAction::Deliver);
        // Long exchange: request at 10, response at 1010 ms.
        assert_eq!(atk.on_message(t(10), &meta(3, 0, t(10)), &[]), InterceptAction::Deliver);
        assert_eq!(
            atk.on_message(t(1010), &meta(0, 3, t(1010)), &[]),
            InterceptAction::Delay(SimDuration::from_millis(100))
        );
        assert_eq!(atk.delayed, 1);
        assert_eq!(atk.observed_responses, 2);
    }

    #[test]
    fn f_minus_delays_only_short_holds() {
        let mut atk =
            CalibrationDelayAttack::paper_default(Addr(3), Addr(0), DelayAttackMode::FMinus);
        atk.on_message(t(0), &meta(3, 0, t(0)), &[]);
        assert_eq!(
            atk.on_message(t(1), &meta(0, 3, t(1)), &[]),
            InterceptAction::Delay(SimDuration::from_millis(100))
        );
        atk.on_message(t(10), &meta(3, 0, t(10)), &[]);
        assert_eq!(atk.on_message(t(1010), &meta(0, 3, t(1010)), &[]), InterceptAction::Deliver);
        assert_eq!(atk.delayed, 1);
    }

    #[test]
    fn other_traffic_is_untouched() {
        let mut atk =
            CalibrationDelayAttack::paper_default(Addr(3), Addr(0), DelayAttackMode::FMinus);
        // Honest node 1 ↔ TA traffic passes freely.
        assert_eq!(atk.on_message(t(0), &meta(1, 0, t(0)), &[]), InterceptAction::Deliver);
        assert_eq!(atk.on_message(t(1), &meta(0, 1, t(1)), &[]), InterceptAction::Deliver);
        // Peer-to-peer traffic of the victim too.
        assert_eq!(atk.on_message(t(2), &meta(3, 1, t(2)), &[]), InterceptAction::Deliver);
        assert_eq!(atk.delayed, 0);
        assert_eq!(atk.observed_responses, 0);
    }

    #[test]
    fn unmatched_response_passes() {
        let mut atk =
            CalibrationDelayAttack::paper_default(Addr(3), Addr(0), DelayAttackMode::FMinus);
        assert_eq!(atk.on_message(t(5), &meta(0, 3, t(5)), &[]), InterceptAction::Deliver);
    }
}
