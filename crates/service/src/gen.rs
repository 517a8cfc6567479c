//! Seeded load generators: aggregated open-loop arrival processes and
//! closed-loop think-time populations, with failover routing and
//! client-side SLO accounting.
//!
//! Every attempt waits the same [`RouterSpec::timeout`], so attempt
//! deadlines arrive in the order the attempts were sent. A generator
//! therefore keeps them in one FIFO and arms one timer, for the oldest
//! attempt still in flight; an answered or superseded attempt stays in
//! the FIFO as a stale entry that the timer skips, and nothing is ever
//! cancelled.

use std::collections::VecDeque;

use netsim::{Addr, FastMap};
use proto::{Env, Input, Machine, ProtoEvent};
use rand::rngs::StdRng;
use rand::Rng;
use sim::{SimDuration, SimTime};
use wire::{Message, ServeOutcome};

use crate::router::Router;
use crate::spec::{OpenLoopSpec, RouterSpec};

/// Timer token: next open-loop arrival.
const TOKEN_ARRIVAL: u64 = 1 << 63;
/// Timer token: the dispatcher's one timeout timer, armed for the oldest
/// attempt in flight.
const TOKEN_TIMEOUT: u64 = 1 << 62;
/// Timer token tag: closed-loop think expiry; low bits carry the client.
const TOKEN_THINK: u64 = (1 << 63) | (1 << 62);
/// Low bits available for a client index inside a token.
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

/// Called with each request's nonce as the request settles.
type Settled<'a> = &'a mut dyn FnMut(&mut dyn Env, u64);

/// One request's retry state, shared by both generator kinds.
#[derive(Debug)]
struct Pending {
    first_sent: SimTime,
    /// The attempt in flight (1-based).
    attempts: u32,
    target: usize,
    /// When that attempt times out.
    deadline: SimTime,
}

/// The request/retry engine behind both generators: picks targets via
/// the [`Router`], times attempts out, fails over, and settles every
/// request into exactly one `ServiceTrace` outcome counter.
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
    /// `(deadline, nonce, attempt)` of every attempt sent and not yet
    /// popped, in sending (= deadline) order. An entry is live while
    /// `in_flight` holds its nonce at its attempt.
    deadlines: VecDeque<(SimTime, u64, u32)>,
    /// Whether the timeout timer is armed.
    armed: bool,
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
            deadlines: VecDeque::new(),
            armed: false,
        }
    }

    /// Issues a brand-new request (attempt 1 of [`MAX_ATTEMPTS`]). A
    /// request that settles right away (every node hard-down: the
    /// distinct fail-fast outcome) is reported to `settled` like any
    /// other, so closed-loop users still get their think timer.
    fn issue(&mut self, env: &mut dyn Env, nonce: u64, settled: Settled) {
        let now = env.now();
        env.emit(ProtoEvent::Offered);
        if self.attempt(env, nonce, now, 1, None) {
            settled(env, nonce);
        }
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
        let deadline = now + self.timeout;
        self.deadlines.push_back((deadline, nonce, attempts));
        if !self.armed {
            env.set_timer(TOKEN_TIMEOUT, self.timeout);
            self.armed = true;
        }
        self.in_flight.insert(nonce, Pending { first_sent, attempts, target, deadline });
        false
    }

    /// Settles or retries after an answer; unknown or stale nonces are
    /// ignored. An answer arriving at its attempt's deadline loses to the
    /// timeout, as it did when every attempt armed its own timer.
    fn on_response(
        &mut self,
        env: &mut dyn Env,
        nonce: u64,
        outcome: ServeOutcome,
        settled: Settled,
    ) {
        if self.in_flight.get(&nonce).is_some_and(|p| p.deadline <= env.now()) {
            self.expire(env, settled);
        }
        let Some(pending) = self.in_flight.remove(&nonce) else {
            return; // Duplicate or post-timeout straggler.
        };
        let now = env.now();
        let latency = now - pending.first_sent;
        let exhausted = match outcome {
            ServeOutcome::Time(_) => {
                env.emit(ProtoEvent::ServedOk { latency });
                self.router.success(pending.target);
                None
            }
            ServeOutcome::Reading(_) => {
                env.emit(ProtoEvent::ServedDegraded { latency });
                self.router.success(pending.target);
                None
            }
            ServeOutcome::Overloaded => Some(ProtoEvent::Shed),
            ServeOutcome::Unavailable => Some(ProtoEvent::Unavailable),
        };
        if let Some(event) = exhausted {
            self.router.overloaded(pending.target, now);
            if pending.attempts < MAX_ATTEMPTS {
                let next = pending.attempts + 1;
                if !self.attempt(env, nonce, pending.first_sent, next, Some(pending.target)) {
                    return;
                }
            } else {
                env.emit(event);
            }
        }
        settled(env, nonce);
    }

    /// The timeout timer fired: times out every due attempt, then re-arms
    /// for the oldest attempt still in flight.
    fn on_timer(&mut self, env: &mut dyn Env, settled: Settled) {
        self.expire(env, settled);
        self.armed = false;
        if let Some(&(deadline, ..)) = self.deadlines.front() {
            env.set_timer(TOKEN_TIMEOUT, deadline - env.now());
            self.armed = true;
        }
    }

    /// Pops the FIFO up to its first live entry not yet due, timing out
    /// each due live entry in sending order and skipping stale ones.
    fn expire(&mut self, env: &mut dyn Env, settled: Settled) {
        let now = env.now();
        while let Some(&(deadline, nonce, attempt)) = self.deadlines.front() {
            let live = self.in_flight.get(&nonce).is_some_and(|p| p.attempts == attempt);
            if live && deadline > now {
                break;
            }
            self.deadlines.pop_front();
            if live && self.time_out(env, nonce) {
                settled(env, nonce);
            }
        }
    }

    /// Retries or abandons the live attempt of `nonce` at its deadline.
    /// Returns `true` when the request settled.
    fn time_out(&mut self, env: &mut dyn Env, nonce: u64) -> bool {
        let pending =
            self.in_flight.remove(&nonce).expect("a live deadline names a pending request");
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
                self.dispatcher.issue(env, self.next_nonce, &mut |_, _| {});
                let gap = self.next_gap(env);
                env.set_timer(TOKEN_ARRIVAL, gap);
            }
            Input::Timer { token } if token == TOKEN_TIMEOUT => {
                self.dispatcher.on_timer(env, &mut |_, _| {});
            }
            Input::Message { msg: Message::ServeResponse { nonce, outcome }, .. } => {
                self.dispatcher.on_response(env, nonce, outcome, &mut |_, _| {});
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

    fn issue_for(&mut self, env: &mut dyn Env, user: usize) {
        self.next_seq[user] += 1;
        let nonce = ((user as u64) << 32) | u64::from(self.next_seq[user]);
        self.dispatcher.issue(env, nonce, &mut think_after);
    }
}

/// Arms the think timer of the user whose request `nonce` just settled:
/// a user whose request settled at once (all nodes hard-down) still
/// thinks and tries again later. Runs as each request settles, so the
/// think draws keep their place in the RNG stream.
fn think_after(env: &mut dyn Env, nonce: u64) {
    schedule_think(env, (nonce >> 32) as usize);
}

fn schedule_think(env: &mut dyn Env, user: usize) {
    let mean_ns = CLOSED_LOOP_THINK.as_nanos() as f64;
    let think = SimDuration::from_nanos(exp_draw(env.rng(), mean_ns));
    env.set_timer(TOKEN_THINK | user as u64, think);
}

impl Machine for ClosedLoopGen {
    fn addr(&self) -> Addr {
        self.dispatcher.me
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        for user in 0..CLOSED_LOOP_USERS {
            schedule_think(env, user);
        }
    }

    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            Input::Timer { token } if token & TOKEN_THINK == TOKEN_THINK => {
                self.issue_for(env, (token & TOKEN_PAYLOAD) as usize);
            }
            Input::Timer { token } if token == TOKEN_TIMEOUT => {
                self.dispatcher.on_timer(env, &mut think_after);
            }
            Input::Message { msg: Message::ServeResponse { nonce, outcome }, .. } => {
                self.dispatcher.on_response(env, nonce, outcome, &mut think_after);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use proto::{Effect, ScriptedEnv};

    use super::*;

    const TIMEOUT: SimDuration = SimDuration::from_millis(25);

    /// An open-loop generator over four front-ends, and its env.
    fn open_loop() -> (OpenLoopGen, ScriptedEnv) {
        let frontends = (0..4).map(crate::frontend_addr).collect();
        let router = RouterSpec { timeout: TIMEOUT };
        let gen =
            OpenLoopGen::new(crate::generator_addr(0), frontends, OpenLoopSpec::default(), router);
        (gen, ScriptedEnv::new(4, 7))
    }

    fn answer(gen: &mut OpenLoopGen, env: &mut ScriptedEnv, nonce: u64, outcome: ServeOutcome) {
        let msg = Message::ServeResponse { nonce, outcome };
        gen.on_input(env, Input::Message { src: crate::frontend_addr(0), msg });
    }

    /// Fires scripted timers in deadline order until the timeout timer
    /// fires, and feeds it to `gen`; arrival timers on the way are dropped.
    fn fire_timeout(gen: &mut OpenLoopGen, env: &mut ScriptedEnv) {
        loop {
            match env.fire_next() {
                Some(Input::Timer { token: TOKEN_TIMEOUT }) => break,
                Some(_) => {}
                None => panic!("no timeout timer armed"),
            }
        }
        gen.on_input(env, Input::Timer { token: TOKEN_TIMEOUT });
    }

    /// The `(front-end, nonce)` of every request sent and the delay of
    /// every timeout arming, in emission order.
    fn sends_and_armings(effects: &[Effect]) -> (Vec<(usize, u64)>, Vec<SimDuration>) {
        let mut sends = Vec::new();
        let mut armings = Vec::new();
        for e in effects {
            match e {
                Effect::Send { dst, msg: Message::ServeRequest { nonce, .. } } => {
                    sends.push((crate::frontend_index(*dst).unwrap(), *nonce));
                }
                Effect::SetTimer { token: TOKEN_TIMEOUT, after } => armings.push(*after),
                _ => {}
            }
        }
        (sends, armings)
    }

    #[test]
    fn two_attempts_due_at_one_instant_time_out_in_arming_order() {
        let (mut gen, mut env) = open_loop();
        gen.on_input(&mut env, Input::Timer { token: TOKEN_ARRIVAL });
        gen.on_input(&mut env, Input::Timer { token: TOKEN_ARRIVAL });
        let (sends, armings) = sends_and_armings(&env.take_effects());
        assert_eq!(sends, [(0, 1), (1, 2)]);
        assert_eq!(armings, [TIMEOUT], "one timer for both attempts");
        fire_timeout(&mut gen, &mut env);
        let (sends, armings) = sends_and_armings(&env.take_effects());
        assert_eq!(sends, [(2, 1), (3, 2)], "retried in arming order");
        assert_eq!(armings, [TIMEOUT]);
        assert_eq!(env.recorder.service.failovers.count(), 2);
    }

    #[test]
    fn a_retry_is_not_timed_out_by_its_superseded_attempts_stale_entry() {
        let (mut gen, mut env) = open_loop();
        gen.on_input(&mut env, Input::Timer { token: TOKEN_ARRIVAL });
        env.advance(SimDuration::from_millis(5));
        answer(&mut gen, &mut env, 1, ServeOutcome::Overloaded);
        assert_eq!(sends_and_armings(&env.take_effects()).0, [(0, 1), (1, 1)]);
        // Attempt 1's deadline passes: its entry is stale, and the timer
        // re-arms for attempt 2's deadline 5 ms later.
        fire_timeout(&mut gen, &mut env);
        let (sends, armings) = sends_and_armings(&env.take_effects());
        assert_eq!(sends, []);
        assert_eq!(armings, [SimDuration::from_millis(5)]);
        fire_timeout(&mut gen, &mut env);
        assert_eq!(env.now, SimTime::from_nanos(30_000_000));
        assert_eq!(sends_and_armings(&env.take_effects()).0, [(2, 1)], "attempt 3");
    }

    #[test]
    fn an_answer_after_the_deadline_is_ignored() {
        let (mut gen, mut env) = open_loop();
        gen.on_input(&mut env, Input::Timer { token: TOKEN_ARRIVAL });
        fire_timeout(&mut gen, &mut env);
        fire_timeout(&mut gen, &mut env);
        // The last attempt's deadline: an answer delivered at that very
        // instant loses to the timeout, whichever the driver runs first.
        env.advance(TIMEOUT);
        answer(&mut gen, &mut env, 1, ServeOutcome::Time(7));
        let s = &env.recorder.service;
        assert_eq!((s.timeouts.count(), s.served_ok.count()), (1, 0));
        fire_timeout(&mut gen, &mut env);
        env.advance(SimDuration::from_millis(1));
        answer(&mut gen, &mut env, 1, ServeOutcome::Time(8));
        let s = &env.recorder.service;
        assert_eq!((s.offered.count(), s.timeouts.count(), s.served_ok.count()), (1, 1, 0));
    }

    #[test]
    fn the_timer_is_rearmed_after_an_early_settle() {
        let (mut gen, mut env) = open_loop();
        gen.on_input(&mut env, Input::Timer { token: TOKEN_ARRIVAL });
        env.advance(SimDuration::from_millis(10));
        gen.on_input(&mut env, Input::Timer { token: TOKEN_ARRIVAL });
        env.advance(SimDuration::from_millis(1));
        answer(&mut gen, &mut env, 1, ServeOutcome::Time(7));
        assert_eq!(env.recorder.service.served_ok.count(), 1);
        env.take_effects();
        fire_timeout(&mut gen, &mut env);
        let (sends, armings) = sends_and_armings(&env.take_effects());
        assert_eq!((sends, armings), (vec![], vec![SimDuration::from_millis(10)]));
        fire_timeout(&mut gen, &mut env);
        assert_eq!(env.now, SimTime::from_nanos(35_000_000));
        assert_eq!(sends_and_armings(&env.take_effects()).0, [(2, 2)]);
    }
}
