//! Datagram replay (§III-A: the attacker controls the OS and can capture
//! and re-inject any traffic it has seen).
//!
//! The replayed bytes are authentic — they decrypt and authenticate
//! perfectly, because they *are* a genuine message. What must stop them is
//! the protocol layer: nonce matching for request/response exchanges and
//! round bookkeeping for peer untainting. [`ReplayAttack`] re-injects
//! every matching message after a configurable delay so tests can verify
//! exactly that.

use netsim::{Addr, InterceptAction, Interceptor, MsgMeta};
use sim::{SimDuration, SimTime};

/// Which traffic to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayTarget {
    /// Replay messages sent *to* the victim (e.g. old TA responses and
    /// peer timestamps — attempts to feed it stale time).
    TowardVictim,
    /// Replay messages sent *by* the victim (e.g. duplicate its requests).
    FromVictim,
}

/// Replays a victim's traffic after a fixed delay.
#[derive(Debug)]
pub struct ReplayAttack {
    victim: Addr,
    target: ReplayTarget,
    delay: SimDuration,
    replayed: u64,
}

impl ReplayAttack {
    /// Creates the attack; each matching datagram is re-injected once,
    /// `delay` after its normal delivery.
    pub fn new(victim: Addr, target: ReplayTarget, delay: SimDuration) -> Self {
        ReplayAttack { victim, target, delay, replayed: 0 }
    }
}

impl Interceptor for ReplayAttack {
    fn on_message(&mut self, _now: SimTime, meta: &MsgMeta, _ct: &[u8]) -> InterceptAction {
        let hit = match self.target {
            ReplayTarget::TowardVictim => meta.dst == self.victim,
            ReplayTarget::FromVictim => meta.src == self.victim,
        };
        if hit {
            self.replayed += 1;
            InterceptAction::Replay(self.delay)
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

    #[test]
    fn replays_only_the_selected_direction() {
        let mut toward =
            ReplayAttack::new(Addr(3), ReplayTarget::TowardVictim, SimDuration::from_secs(1));
        assert!(matches!(
            toward.on_message(SimTime::ZERO, &meta(0, 3), &[]),
            InterceptAction::Replay(_)
        ));
        assert_eq!(toward.on_message(SimTime::ZERO, &meta(3, 0), &[]), InterceptAction::Deliver);
        assert_eq!(toward.on_message(SimTime::ZERO, &meta(1, 2), &[]), InterceptAction::Deliver);
        assert_eq!(toward.replayed, 1);

        let mut from =
            ReplayAttack::new(Addr(3), ReplayTarget::FromVictim, SimDuration::from_secs(1));
        assert!(matches!(
            from.on_message(SimTime::ZERO, &meta(3, 1), &[]),
            InterceptAction::Replay(_)
        ));
        assert_eq!(from.on_message(SimTime::ZERO, &meta(1, 3), &[]), InterceptAction::Deliver);
    }
}
