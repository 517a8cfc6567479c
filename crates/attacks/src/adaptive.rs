//! An adaptive variant of the F+/F– attack.
//!
//! [`crate::CalibrationDelayAttack`] needs the operator to guess a
//! hold-classification threshold (the paper uses 500 ms, knowing the
//! protocol's 0 s/1 s schedule). The adaptive attacker instead *learns*
//! the victim's calibration schedule from observed round-trip timing
//! alone — §III-C: "the attacker is able to measure network delays between
//! its machine and the TA, as well as roundtrip times part of Triad's
//! calibration protocol, so the attacker can estimate s".
//!
//! It passively observes a warm-up batch of request→response gaps, splits
//! them at the widest gap between sorted observations (a 1-D two-cluster
//! split), and then delays whichever class its mode targets. Paired with a
//! TSC nudge that forces the victim to recalibrate (a scheduled
//! `faults::FaultAction::ManipulateTsc`),
//! this mounts the full attack with *zero* protocol knowledge.

use std::collections::VecDeque;

use netsim::{Addr, InterceptAction, Interceptor, MsgMeta};
use sim::{SimDuration, SimTime};

use crate::fdelay::DelayAttackMode;

/// Self-calibrating F+/F– interceptor.
#[derive(Debug)]
pub struct AdaptiveDelayAttack {
    victim: Addr,
    ta: Addr,
    mode: DelayAttackMode,
    added_delay: SimDuration,
    warmup: usize,
    observed_holds: Vec<f64>,
    threshold_s: Option<f64>,
    outstanding: VecDeque<SimTime>,
    delayed: u64,
}

impl AdaptiveDelayAttack {
    /// Creates the attack; it stays passive until `warmup` responses have
    /// been observed (at least 4).
    ///
    /// # Panics
    ///
    /// Panics when `warmup < 4` (two observations per class are the
    /// minimum for a meaningful split).
    pub fn new(
        victim: Addr,
        ta: Addr,
        mode: DelayAttackMode,
        added_delay: SimDuration,
        warmup: usize,
    ) -> Self {
        assert!(warmup >= 4, "warm-up needs at least 4 observations");
        AdaptiveDelayAttack {
            victim,
            ta,
            mode,
            added_delay,
            warmup,
            observed_holds: Vec::new(),
            threshold_s: None,
            outstanding: VecDeque::new(),
            delayed: 0,
        }
    }

    /// Splits sorted observations at the widest gap; returns the midpoint,
    /// or `None` when the spread is too small to distinguish classes.
    fn split(mut holds: Vec<f64>) -> Option<f64> {
        holds.sort_by(|a, b| a.partial_cmp(b).expect("holds are finite"));
        let (lo, hi) = (holds[0], holds[holds.len() - 1]);
        if hi - lo < 0.05 {
            return None; // all one class: nothing to discriminate yet
        }
        let mut best_gap = 0.0;
        let mut best_mid = (lo + hi) / 2.0;
        for w in holds.windows(2) {
            let gap = w[1] - w[0];
            if gap > best_gap {
                best_gap = gap;
                best_mid = (w[0] + w[1]) / 2.0;
            }
        }
        Some(best_mid)
    }
}

impl Interceptor for AdaptiveDelayAttack {
    fn on_message(&mut self, now: SimTime, meta: &MsgMeta, _ct: &[u8]) -> InterceptAction {
        if meta.src == self.victim && meta.dst == self.ta {
            self.outstanding.push_back(now);
            return InterceptAction::Deliver;
        }
        if meta.src == self.ta && meta.dst == self.victim {
            let Some(request_at) = self.outstanding.pop_front() else {
                return InterceptAction::Deliver;
            };
            let hold = now.saturating_duration_since(request_at).as_secs_f64();
            match self.threshold_s {
                None => {
                    self.observed_holds.push(hold);
                    if self.observed_holds.len() >= self.warmup {
                        self.threshold_s = Self::split(self.observed_holds.clone());
                    }
                    InterceptAction::Deliver
                }
                Some(threshold) => {
                    let is_high = hold >= threshold;
                    let hit = match self.mode {
                        DelayAttackMode::FPlus => is_high,
                        DelayAttackMode::FMinus => !is_high,
                    };
                    if hit {
                        self.delayed += 1;
                        InterceptAction::Delay(self.added_delay)
                    } else {
                        InterceptAction::Deliver
                    }
                }
            }
        } else {
            InterceptAction::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(src: u16, dst: u16) -> MsgMeta {
        MsgMeta { src: Addr(src), dst: Addr(dst), size: 48, send_time: SimTime::ZERO }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn learns_the_schedule_then_attacks() {
        let mut atk = AdaptiveDelayAttack::new(
            Addr(3),
            Addr(0),
            DelayAttackMode::FMinus,
            SimDuration::from_millis(100),
            4,
        );
        // Warm-up: two short (≈1 ms) and two long (≈1001 ms) exchanges.
        let mut t = 0;
        for hold in [1u64, 1001, 1, 1001] {
            atk.on_message(at(t), &meta(3, 0), &[]);
            atk.on_message(at(t + hold), &meta(0, 3), &[]);
            t += hold + 10;
        }
        let learned = SimDuration::from_secs_f64(atk.threshold_s.expect("threshold learned"));
        let s = learned.as_secs_f64();
        assert!(s > 0.1 && s < 0.9, "threshold {s} should sit between classes");
        assert_eq!(atk.delayed, 0, "passive during warm-up");

        // Now a short exchange gets the F– treatment…
        atk.on_message(at(t), &meta(3, 0), &[]);
        assert_eq!(
            atk.on_message(at(t + 1), &meta(0, 3), &[]),
            InterceptAction::Delay(SimDuration::from_millis(100))
        );
        // …and a long one passes.
        atk.on_message(at(t + 10), &meta(3, 0), &[]);
        assert_eq!(atk.on_message(at(t + 1011), &meta(0, 3), &[]), InterceptAction::Deliver);
        assert_eq!(atk.delayed, 1);
    }

    #[test]
    fn refuses_to_attack_indistinct_traffic() {
        let mut atk = AdaptiveDelayAttack::new(
            Addr(3),
            Addr(0),
            DelayAttackMode::FMinus,
            SimDuration::from_millis(100),
            4,
        );
        // All observations near 1 ms: no second class to find.
        let mut t = 0;
        for _ in 0..6 {
            atk.on_message(at(t), &meta(3, 0), &[]);
            atk.on_message(at(t + 1), &meta(0, 3), &[]);
            t += 20;
        }
        assert!(atk.threshold_s.is_none());
        assert_eq!(atk.delayed, 0);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_warmup_rejected() {
        AdaptiveDelayAttack::new(
            Addr(3),
            Addr(0),
            DelayAttackMode::FPlus,
            SimDuration::from_millis(100),
            2,
        );
    }
}
