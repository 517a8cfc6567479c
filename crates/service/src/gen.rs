//! Seeded load generators: aggregated open-loop arrival processes and
//! closed-loop think-time populations, with failover routing and
//! client-side SLO accounting.

use netsim::{Addr, FastMap};
use proto::{Env, Input, Machine, ProtoEvent, TimerId};
use rand::rngs::StdRng;
use rand::Rng;
use sim::{SimDuration, SimTime};
use wire::{Message, ServeOutcome};

use crate::router::Router;
use crate::spec::{OpenLoopSpec, RouterSpec};

/// Timer token: next open-loop arrival.
const TOKEN_ARRIVAL: u64 = 1 << 63;
/// Timer token tag: per-request timeout; low bits carry the nonce.
const TOKEN_TIMEOUT: u64 = 1 << 62;
/// Timer token tag: closed-loop think expiry; low bits carry the client.
const TOKEN_THINK: u64 = (1 << 63) | (1 << 62);
/// Low bits available for a nonce or client index inside a token.
const TOKEN_PAYLOAD: u64 = (1 << 62) - 1;

/// Total attempts per request (1 = no retry).
const MAX_ATTEMPTS: u32 = 3;

/// Virtual users in the closed-loop population.
const CLOSED_LOOP_USERS: usize = 16;
/// Mean think time between a closed-loop user's answer and its next
/// request (exponentially distributed).
const CLOSED_LOOP_THINK: SimDuration = SimDuration::from_millis(100);
// The nonce is `(user << 32) | seq`, and a user index must stay clear of
// the timer tags.
const _: () = assert!(CLOSED_LOOP_USERS >= 1 && CLOSED_LOOP_USERS < (1 << 30));

/// An exponential draw with mean `mean_ns`, at least 1 ns.
pub(crate) fn exp_draw(rng: &mut StdRng, mean_ns: f64) -> u64 {
    let u: f64 = rng.gen();
    ((-mean_ns * (1.0 - u).ln()).max(1.0)) as u64
}

/// One request's retry state, shared by both generator kinds.
#[derive(Debug)]
struct Pending {
    first_sent: SimTime,
    attempts: u32,
    target: usize,
    /// The attempt's timeout.
    timeout: TimerId,
}

/// The request/retry engine behind both generators: picks targets via
/// the [`Router`], arms per-request timeouts, fails over, and settles
/// every request into exactly one `ServiceTrace` outcome counter.
#[derive(Debug)]
struct Dispatcher {
    me: Addr,
    frontends: Vec<Addr>,
    router: Router,
    timeout: SimDuration,
    accept_degraded: bool,
    /// Probed by nonce only, never iterated, so its order cannot reach
    /// an artifact.
    in_flight: FastMap<u64, Pending>,
}

impl Dispatcher {
    fn new(me: Addr, frontends: Vec<Addr>, spec: RouterSpec, accept_degraded: bool) -> Self {
        let router = Router::new(frontends.len());
        Dispatcher {
            me,
            frontends,
            router,
            timeout: spec.timeout,
            accept_degraded,
            in_flight: FastMap::default(),
        }
    }

    /// Issues a brand-new request (attempt 1 of [`MAX_ATTEMPTS`]). Returns
    /// `true` when the request settled immediately (every node hard-down:
    /// the distinct fail-fast outcome) — closed-loop users must still get
    /// their think timer in that case.
    fn issue(&mut self, env: &mut dyn Env, nonce: u64) -> bool {
        let now = env.now();
        env.emit(ProtoEvent::Offered);
        self.attempt(env, nonce, now, 1, None)
    }

    /// One routed attempt. Returns `true` when the request settled right
    /// here instead of going in flight (no routable node: every machine
    /// is held hard-down, so retrying would only burn the budget).
    fn attempt(
        &mut self,
        env: &mut dyn Env,
        nonce: u64,
        first_sent: SimTime,
        attempts: u32,
        avoid: Option<usize>,
    ) -> bool {
        let now = env.now();
        let Some(target) = self.router.pick(now, avoid) else {
            env.emit(ProtoEvent::AllDown);
            return true;
        };
        if let Some(prev) = avoid {
            if target != prev {
                env.emit(ProtoEvent::Failover);
            }
        }
        env.send(
            self.frontends[target],
            &Message::ServeRequest { nonce, accept_degraded: self.accept_degraded },
        );
        let timeout = env.set_timer(TOKEN_TIMEOUT | nonce, self.timeout);
        self.in_flight.insert(nonce, Pending { first_sent, attempts, target, timeout });
        false
    }

    /// Settles or retries after an answer. Returns `true` when the
    /// request left the in-flight set (for closed-loop pacing); unknown
    /// or stale nonces return `false`.
    fn on_response(&mut self, env: &mut dyn Env, nonce: u64, outcome: ServeOutcome) -> bool {
        let Some(pending) = self.in_flight.remove(&nonce) else {
            return false; // Duplicate or post-timeout straggler.
        };
        env.cancel_timer(pending.timeout);
        let now = env.now();
        let latency = now - pending.first_sent;
        match outcome {
            ServeOutcome::Time(_) => {
                env.emit(ProtoEvent::ServedOk { latency });
                self.router.success(pending.target);
            }
            ServeOutcome::Reading(_) => {
                env.emit(ProtoEvent::ServedDegraded { latency });
                self.router.success(pending.target);
            }
            ServeOutcome::Overloaded => {
                self.router.overloaded(pending.target, now);
                if pending.attempts < MAX_ATTEMPTS {
                    return self.attempt(
                        env,
                        nonce,
                        pending.first_sent,
                        pending.attempts + 1,
                        Some(pending.target),
                    );
                }
                env.emit(ProtoEvent::Shed);
            }
            ServeOutcome::Unavailable => {
                self.router.overloaded(pending.target, now);
                if pending.attempts < MAX_ATTEMPTS {
                    return self.attempt(
                        env,
                        nonce,
                        pending.first_sent,
                        pending.attempts + 1,
                        Some(pending.target),
                    );
                }
                env.emit(ProtoEvent::Unavailable);
            }
        }
        true
    }

    /// Settles or retries after a timeout. Returns `true` when the
    /// request left the in-flight set.
    fn on_timeout(&mut self, env: &mut dyn Env, nonce: u64) -> bool {
        let Some(pending) = self.in_flight.remove(&nonce) else {
            return false; // Already answered.
        };
        let now = env.now();
        self.router.timed_out(pending.target, now);
        if pending.attempts < MAX_ATTEMPTS {
            return self.attempt(
                env,
                nonce,
                pending.first_sent,
                pending.attempts + 1,
                Some(pending.target),
            );
        }
        env.emit(ProtoEvent::Timeout);
        true
    }
}

/// An aggregated open-loop arrival process: one actor standing in for a
/// large client population, issuing requests on a seeded inter-arrival
/// stream of exponential gaps — the offered load does not slow down when
/// the cluster does.
#[derive(Debug)]
pub struct OpenLoopGen {
    spec: OpenLoopSpec,
    dispatcher: Dispatcher,
    next_nonce: u64,
}

impl OpenLoopGen {
    /// Creates the generator at `me`, spreading over `frontends`
    /// (index = node index).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate or an empty cluster.
    pub fn new(me: Addr, frontends: Vec<Addr>, spec: OpenLoopSpec, router: RouterSpec) -> Self {
        assert!(spec.rate_per_s > 0.0, "open-loop rate must be positive");
        // Open-loop requests always accept degraded answers.
        OpenLoopGen {
            spec,
            dispatcher: Dispatcher::new(me, frontends, router, true),
            next_nonce: 0,
        }
    }

    fn next_gap(&self, env: &mut dyn Env) -> SimDuration {
        SimDuration::from_nanos(exp_draw(env.rng(), 1e9 / self.spec.rate_per_s).max(1))
    }
}

impl Machine for OpenLoopGen {
    fn addr(&self) -> Addr {
        self.dispatcher.me
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        let gap = self.next_gap(env);
        env.set_timer(TOKEN_ARRIVAL, gap);
    }

    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            Input::Timer { token } if token == TOKEN_ARRIVAL => {
                self.next_nonce += 1;
                self.dispatcher.issue(env, self.next_nonce);
                let gap = self.next_gap(env);
                env.set_timer(TOKEN_ARRIVAL, gap);
            }
            Input::Timer { token } if token & TOKEN_THINK == TOKEN_TIMEOUT => {
                self.dispatcher.on_timeout(env, token & TOKEN_PAYLOAD);
            }
            Input::Message { msg: Message::ServeResponse { nonce, outcome }, .. } => {
                self.dispatcher.on_response(env, nonce, outcome);
            }
            _ => {}
        }
    }
}

/// A closed-loop population: each of `CLOSED_LOOP_USERS` virtual
/// users waits for its answer (or gives up at the final timeout), thinks
/// for an exponential while of mean `CLOSED_LOOP_THINK`, then asks
/// again — load that self-throttles as the cluster slows. Its requests
/// are strict: full precision or nothing, so degraded windows show up as
/// `Unavailable` pressure.
#[derive(Debug)]
pub struct ClosedLoopGen {
    dispatcher: Dispatcher,
    /// Per-user next sequence number; the wire nonce is
    /// `(user << 32) | seq`.
    next_seq: Vec<u32>,
}

impl ClosedLoopGen {
    /// Creates the population at `me`, spreading over `frontends`
    /// (index = node index).
    ///
    /// # Panics
    ///
    /// Panics on an empty cluster.
    pub fn new(me: Addr, frontends: Vec<Addr>, router: RouterSpec) -> Self {
        ClosedLoopGen {
            dispatcher: Dispatcher::new(me, frontends, router, false),
            next_seq: vec![0; CLOSED_LOOP_USERS],
        }
    }

    fn schedule_think(&self, env: &mut dyn Env, user: usize) {
        let mean_ns = CLOSED_LOOP_THINK.as_nanos() as f64;
        let think = SimDuration::from_nanos(exp_draw(env.rng(), mean_ns));
        env.set_timer(TOKEN_THINK | user as u64, think);
    }

    fn issue_for(&mut self, env: &mut dyn Env, user: usize) {
        self.next_seq[user] += 1;
        let nonce = ((user as u64) << 32) | u64::from(self.next_seq[user]);
        if self.dispatcher.issue(env, nonce) {
            // Settled immediately (all nodes hard-down): the user still
            // thinks and tries again later.
            self.schedule_think(env, user);
        }
    }
}

impl Machine for ClosedLoopGen {
    fn addr(&self) -> Addr {
        self.dispatcher.me
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        for user in 0..CLOSED_LOOP_USERS {
            self.schedule_think(env, user);
        }
    }

    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            Input::Timer { token } if token & TOKEN_THINK == TOKEN_THINK => {
                self.issue_for(env, (token & TOKEN_PAYLOAD) as usize);
            }
            Input::Timer { token } if token & TOKEN_THINK == TOKEN_TIMEOUT => {
                let nonce = token & TOKEN_PAYLOAD;
                if self.dispatcher.on_timeout(env, nonce) {
                    self.schedule_think(env, (nonce >> 32) as usize);
                }
            }
            Input::Message { msg: Message::ServeResponse { nonce, outcome }, .. }
                if self.dispatcher.on_response(env, nonce, outcome) =>
            {
                self.schedule_think(env, (nonce >> 32) as usize);
            }
            _ => {}
        }
    }
}
