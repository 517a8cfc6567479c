//! A client application workload against one Triad node.
//!
//! The paper measures availability from the node's state machine; this
//! machine measures it the way a *user* would — by asking for timestamps
//! and counting answers — and enforces the serving contract
//! (monotonicity) from outside the TCB.

use netsim::Addr;
use proto::{node_index, Env, Input, Machine, NonceWindow, ProtoEvent};
use sim::SimDuration;
use wire::Message;

/// Which client-facing API the workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientMode {
    /// The base all-or-nothing API: `ClientTimeRequest`, denied while the
    /// node is tainted or calibrating.
    Timestamp,
    /// The graceful-degradation API: `TimeReadingRequest`, answered with a
    /// monotonic estimate plus an explicit uncertainty bound even while
    /// the node is degraded.
    Reading,
}

/// Periodically requests timestamps from a node and records the outcomes
/// into the target node's trace (`client_served` / `client_denied`).
///
/// # Panics
///
/// The machine panics the simulation if the node ever serves a
/// non-increasing timestamp — the one contract Triad must never break.
/// In [`ClientMode::Reading`] the monotonicity contract applies to the
/// reading estimates, across crashes and recalibrations included.
#[derive(Debug)]
pub struct ClientWorkload {
    me: Addr,
    target: Addr,
    target_index: usize,
    period: SimDuration,
    mode: ClientMode,
    next_nonce: u64,
    /// Window of requests currently awaiting their answer (capacity 1: the
    /// workload has one request in flight, and a new request supersedes an
    /// unanswered one). Responses outside the window are duplicates
    /// (fabric-level duplication) or stale reordered stragglers and are
    /// dropped — the network may replay them, so they must not count as
    /// serves nor feed the monotonicity check twice.
    pending: NonceWindow,
    last_timestamp: u64,
}

impl ClientWorkload {
    /// Creates a workload from `me` against `target` with the given
    /// request period.
    ///
    /// The caller must register the actor's address in a world whose key
    /// table is seeded, as `scenario::ScenarioSpec::client` does; the
    /// pair's session then derives on first use.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a node address.
    pub fn new(me: Addr, target: Addr, period: SimDuration) -> Self {
        Self::with_mode(me, target, period, ClientMode::Timestamp)
    }

    /// Creates a workload with an explicit [`ClientMode`].
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a node address.
    pub fn with_mode(me: Addr, target: Addr, period: SimDuration, mode: ClientMode) -> Self {
        ClientWorkload {
            me,
            target,
            target_index: node_index(target).expect("clients query nodes, not the TA"),
            period,
            mode,
            next_nonce: 0,
            pending: NonceWindow::new(1),
            last_timestamp: 0,
        }
    }

    /// Books the answer to request `nonce`: a timestamp (or reading
    /// estimate) when served, `None` when denied.
    #[inline]
    fn record(&mut self, env: &mut dyn Env, nonce: u64, served: Option<u64>) {
        if !self.pending.take(nonce) {
            return;
        }
        let node = self.target_index;
        let Some(ts) = served else {
            env.emit(ProtoEvent::ClientDenied { node });
            return;
        };
        assert!(
            ts > self.last_timestamp,
            "{} served non-monotonic timestamp {ts} after {}",
            self.target,
            self.last_timestamp
        );
        self.last_timestamp = ts;
        env.emit(ProtoEvent::ClientServed { node });
    }
}

impl Machine for ClientWorkload {
    fn addr(&self) -> Addr {
        self.me
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.set_timer(0, self.period);
    }

    // Inlined into `MachineActor<ClientWorkload>` so the `Env` calls
    // resolve statically: client events are half of a chaos cell's
    // events, and out of line the adapter costs `protocol_chaos` ~2 %.
    #[inline]
    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            Input::Timer { .. } => {
                self.next_nonce += 1;
                self.pending.insert(self.next_nonce);
                let req = match self.mode {
                    ClientMode::Timestamp => Message::ClientTimeRequest { nonce: self.next_nonce },
                    ClientMode::Reading => Message::TimeReadingRequest { nonce: self.next_nonce },
                };
                env.send(self.target, &req);
                env.set_timer(0, self.period);
            }
            Input::Message { msg: Message::ClientTimeResponse { nonce, timestamp_ns }, .. } => {
                self.record(env, nonce, timestamp_ns);
            }
            Input::Message { msg: Message::TimeReadingResponse { nonce, reading }, .. } => {
                self.record(env, nonce, reading.map(|r| r.estimate_ns));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "not the TA")]
    fn client_cannot_target_the_ta() {
        ClientWorkload::new(Addr(100), Addr(0), SimDuration::from_millis(10));
    }
}
