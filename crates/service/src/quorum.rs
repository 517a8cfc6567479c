//! Quorum-attested timestamp reads with Byzantine node detection.
//!
//! A single serving node is a single point of *trust*: a compromised (or
//! silently mis-calibrated) node serves wrong time and no client can
//! tell. The quorum reader removes that trust: each read fans an
//! [`wire::Message::AttestRequest`] out to a panel of up to `2f + 1`
//! nodes, projects every returned attestation interval to the decision
//! instant (Cristian-style: the round-trip becomes extra half-width, the
//! elapsed time a shift), and accepts only when `f + 1` projected
//! intervals mutually overlap — Marzullo agreement, the same primitive
//! the §V hardened protocol uses for peer filtering, applied one layer
//! up. Attestations missing the agreed interval by more than a
//! configured margin are flagged as `ByzantineSuspect` events; repeat
//! offenders are quarantined out of future panels with a seeded
//! probation/half-open rejoin policy shaped like `triad_core`'s TA
//! circuit breaker.

use netsim::{Addr, FastMap};
use proto::{Env, Input, Machine, ProtoEvent, TimerId};
use rand::rngs::StdRng;
use rand::Rng;
use sim::{SimDuration, SimTime};
use stats::{marzullo, Interval};
use wire::{AttestOutcome, Message, TimeReading};

use crate::gen::exp_draw;
use crate::spec::{QuorumLoopSpec, QuorumSpec};

/// Timer token: next quorum-read arrival.
const TOKEN_ARRIVAL: u64 = 1 << 63;
/// Timer token tag: per-read collection deadline; low bits carry the nonce.
const TOKEN_DEADLINE: u64 = 1 << 62;
/// Low bits available for a nonce inside a token.
const TOKEN_PAYLOAD: u64 = (1 << 62) - 1;

/// How long a read waits for panel answers before deciding with whatever
/// arrived.
const COLLECT_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// One collected attestation, stamped with when its request leg was sent
/// and when the answer arrived (the projection inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttestSample {
    /// 0-based node index of the attesting front-end.
    pub node: usize,
    /// The node's attested estimate and self-assessed uncertainty.
    pub reading: TimeReading,
    /// When the fan-out leg to this node was sent.
    pub sent: SimTime,
    /// When this attestation arrived back.
    pub received: SimTime,
}

impl AttestSample {
    /// Projects the attestation to decision instant `now` as an interval
    /// on the reference timeline.
    ///
    /// The node read its clock somewhere inside `[sent, received]`; the
    /// midpoint is the best guess, so half the round-trip inflates the
    /// half-width (Cristian's bound) and the elapsed time to `now` shifts
    /// the center. Without this projection, honest attestations collected
    /// a few batching windows apart would look disjoint and the detector
    /// would false-positive on honest clusters.
    pub fn project(&self, now: SimTime) -> Interval {
        let rtt_half = (self.received - self.sent).as_nanos() as f64 / 2.0;
        let midpoint_ns = (self.sent.as_nanos() as f64 + self.received.as_nanos() as f64) / 2.0;
        let elapsed = now.as_nanos() as f64 - midpoint_ns;
        Interval::around(self.reading.estimate_ns as f64, self.reading.uncertainty_ns as f64)
            .inflate(rtt_half)
            .shift(elapsed)
    }
}

/// The verdict of one quorum read.
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumDecision {
    /// The accepted reading (agreement-interval center ± half-width)
    /// when `f + 1` projected attestations mutually overlapped.
    pub accepted: Option<TimeReading>,
    /// Node indices whose attestations missed the agreed interval by
    /// more than the suspect margin — the `ByzantineSuspect` detections.
    /// Empty when no agreement formed (there is no trusted majority to
    /// judge against).
    pub suspects: Vec<usize>,
    /// Node indices whose attestations supported the agreed interval.
    pub supporters: Vec<usize>,
}

/// Runs the overlap acceptance rule over the collected samples.
///
/// Projects every sample to `now`, finds the Marzullo agreement, and
/// accepts when at least `f + 1` intervals support it. Suspects are the
/// samples whose projected intervals miss the agreed interval by more
/// than `margin` — a node whose interval merely fails to contain the
/// whole agreement (a borderline-honest clock), or falls just short of
/// it, is not flagged. The margin matters adversarially: liars skewed
/// *within* the envelope still overlap honestly-shaped intervals, so
/// they can drag the agreement region toward one edge until an honest
/// node with a tight interval no longer touches it. Their leverage is
/// bounded by the envelope width, so a margin at that scale keeps
/// honest nodes unflaggable while a real liar — disjoint by orders of
/// magnitude more — is still caught. `ZERO` restores strict
/// disjointness.
pub fn decide(
    samples: &[AttestSample],
    f: usize,
    now: SimTime,
    margin: SimDuration,
) -> QuorumDecision {
    let need = f + 1;
    if samples.len() < need {
        return QuorumDecision { accepted: None, suspects: Vec::new(), supporters: Vec::new() };
    }
    let intervals: Vec<Interval> = samples.iter().map(|s| s.project(now)).collect();
    let agreement = marzullo(&intervals).expect("non-empty samples");
    if agreement.support < need {
        return QuorumDecision { accepted: None, suspects: Vec::new(), supporters: Vec::new() };
    }
    let agreed = agreement.interval;
    let margin_ns = margin.as_nanos() as f64;
    let mut suspects = Vec::new();
    let mut supporters = Vec::new();
    for (k, iv) in intervals.iter().enumerate() {
        if !iv.inflate(margin_ns).overlaps(&agreed) {
            suspects.push(samples[k].node);
        } else if agreement.chimers.contains(&k) {
            supporters.push(samples[k].node);
        }
    }
    let degraded = samples.iter().any(|s| s.reading.degraded);
    let accepted = TimeReading {
        estimate_ns: agreed.center().max(0.0) as u64,
        uncertainty_ns: (agreed.width() / 2.0) as u64,
        degraded,
    };
    QuorumDecision { accepted: Some(accepted), suspects, supporters }
}

/// Per-node trust in the quarantine state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trust {
    /// In the panel rotation; `strikes` suspect flags so far.
    Trusted,
    /// Excluded from panels until the probation expires.
    Quarantined {
        /// When the node becomes eligible for a half-open probe.
        until: SimTime,
    },
    /// Probation expired: eligible again, but one more suspect flag
    /// re-quarantines immediately and one clean attestation rejoins.
    HalfOpen,
}

/// The suspect quarantine/rejoin tracker — the PR 1 circuit-breaker
/// shape (failure threshold → cooldown → half-open probe) re-applied to
/// Byzantine suspicion: `suspect_threshold` strikes quarantine a node
/// for `probation` (+ seeded jitter), a clean half-open attestation
/// readmits it, a dirty one re-quarantines it on the spot.
#[derive(Debug, Clone)]
pub struct QuorumHealth {
    spec: QuorumSpec,
    trust: Vec<Trust>,
    strikes: Vec<u32>,
}

impl QuorumHealth {
    /// A tracker over node indices `0..n`, all initially trusted.
    pub fn new(spec: QuorumSpec, n: usize) -> Self {
        QuorumHealth { spec, trust: vec![Trust::Trusted; n], strikes: vec![0; n] }
    }

    /// Whether node `i` may sit on a panel at `now`. Transitions an
    /// expired quarantine to half-open as a side effect.
    pub fn eligible(&mut self, i: usize, now: SimTime) -> bool {
        if let Trust::Quarantined { until } = self.trust[i] {
            if now >= until {
                self.trust[i] = Trust::HalfOpen;
            }
        }
        !matches!(self.trust[i], Trust::Quarantined { .. })
    }

    /// Records a `ByzantineSuspect` flag against node `i`. Returns `true`
    /// when this flag quarantines the node (threshold reached, or any
    /// flag during a half-open probe).
    pub fn on_suspect(&mut self, i: usize, now: SimTime, rng: &mut StdRng) -> bool {
        match self.trust[i] {
            Trust::Trusted => {
                self.strikes[i] += 1;
                if self.strikes[i] >= self.spec.suspect_threshold {
                    self.quarantine(i, now, rng);
                    return true;
                }
                false
            }
            Trust::HalfOpen => {
                // A dirty probe: straight back into quarantine.
                self.quarantine(i, now, rng);
                true
            }
            Trust::Quarantined { .. } => false,
        }
    }

    /// Records a clean (agreement-supporting) attestation from node `i`.
    /// Returns `true` when this readmits a half-open node to full trust.
    pub fn on_clean(&mut self, i: usize) -> bool {
        match self.trust[i] {
            Trust::Trusted => {
                self.strikes[i] = 0;
                false
            }
            Trust::HalfOpen => {
                self.trust[i] = Trust::Trusted;
                self.strikes[i] = 0;
                true
            }
            Trust::Quarantined { .. } => false,
        }
    }

    /// True while node `i` is serving out a quarantine (or its half-open
    /// probe has not yet succeeded).
    #[cfg(test)]
    fn is_quarantined(&self, i: usize) -> bool {
        matches!(self.trust[i], Trust::Quarantined { .. })
    }

    fn quarantine(&mut self, i: usize, now: SimTime, rng: &mut StdRng) {
        let mut hold = self.spec.probation;
        if !self.spec.probe_jitter.is_zero() {
            let jitter_ns = rng.gen_range(0..=self.spec.probe_jitter.as_nanos());
            hold += SimDuration::from_nanos(jitter_ns);
        }
        self.trust[i] = Trust::Quarantined { until: now + hold };
        self.strikes[i] = 0;
    }
}

/// The largest cluster a [`QuorumGen`] fans over: one bit per node in a
/// read's `u64` answer bitmask.
pub const MAX_CLUSTER_NODES: usize = u64::BITS as usize;

/// One in-flight quorum read.
#[derive(Debug)]
struct PendingRead {
    first_sent: SimTime,
    /// The collection deadline.
    deadline: TimerId,
    /// Panel node indices this read fanned out to.
    panel: Vec<usize>,
    /// Bitmask over `panel` positions that have answered (any outcome).
    answered: u64,
    samples: Vec<AttestSample>,
}

/// An aggregated open-loop quorum-read process: every seeded arrival
/// fans one [`wire::Message::AttestRequest`] out to a panel chosen from
/// the non-quarantined nodes, collects the attestations, and settles the
/// read through [`decide`] — accounting accepts, no-quorums, suspect
/// detections, quarantines and rejoins into the run's `ServiceTrace` and
/// per-node counters.
#[derive(Debug)]
pub struct QuorumGen {
    spec: QuorumLoopSpec,
    me: Addr,
    frontends: Vec<Addr>,
    health: QuorumHealth,
    cursor: usize,
    /// Probed by nonce only, never iterated, so its order cannot reach
    /// an artifact.
    pending: FastMap<u64, PendingRead>,
    next_nonce: u64,
}

impl QuorumGen {
    /// Creates the generator at `me`, fanning over `frontends`
    /// (index = node index).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate, an empty cluster, a cluster larger
    /// than [`MAX_CLUSTER_NODES`], or `f = 0` panels (a 1-node "quorum"
    /// would re-introduce single-node trust).
    pub fn new(me: Addr, frontends: Vec<Addr>, spec: QuorumLoopSpec) -> Self {
        assert!(spec.rate_per_s > 0.0, "quorum-read rate must be positive");
        assert!(!frontends.is_empty(), "quorum reads need a cluster");
        assert!(
            frontends.len() <= MAX_CLUSTER_NODES,
            "answer bitmask caps the cluster at {MAX_CLUSTER_NODES} nodes"
        );
        assert!(spec.quorum.f >= 1, "f = 0 would accept single-node answers unchecked");
        let health = QuorumHealth::new(spec.quorum, frontends.len());
        QuorumGen {
            spec,
            me,
            frontends,
            health,
            cursor: 0,
            pending: FastMap::default(),
            next_nonce: 0,
        }
    }

    fn next_gap(&self, env: &mut dyn Env) -> SimDuration {
        SimDuration::from_nanos(exp_draw(env.rng(), 1e9 / self.spec.rate_per_s).max(1))
    }

    /// Picks up to `2f + 1` eligible nodes, rotating the start so load
    /// spreads across the cluster.
    fn pick_panel(&mut self, now: SimTime) -> Vec<usize> {
        let n = self.frontends.len();
        let mut panel = Vec::with_capacity(self.spec.quorum.panel_size());
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if self.health.eligible(i, now) {
                panel.push(i);
                if panel.len() == self.spec.quorum.panel_size() {
                    break;
                }
            }
        }
        self.cursor = (self.cursor + 1) % n;
        panel
    }

    fn issue(&mut self, env: &mut dyn Env) {
        let now = env.now();
        env.emit(ProtoEvent::QuorumOffered);
        let panel = self.pick_panel(now);
        if panel.len() < self.spec.quorum.accept_threshold() {
            // Not even f+1 nodes worth asking: the read cannot possibly
            // accept, so fail it fast.
            env.emit(ProtoEvent::QuorumUnavailable);
            return;
        }
        self.next_nonce += 1;
        let nonce = self.next_nonce & TOKEN_PAYLOAD;
        for &i in &panel {
            env.send(self.frontends[i], &Message::AttestRequest { nonce });
        }
        let deadline = env.set_timer(TOKEN_DEADLINE | nonce, COLLECT_TIMEOUT);
        self.pending.insert(
            nonce,
            PendingRead { first_sent: now, deadline, panel, answered: 0, samples: Vec::new() },
        );
    }

    fn on_attest(&mut self, env: &mut dyn Env, src: Addr, nonce: u64, outcome: AttestOutcome) {
        let Some(read) = self.pending.get_mut(&nonce) else {
            return; // Post-deadline straggler or duplicate.
        };
        let Some(node) = crate::frontend_index(src) else {
            return;
        };
        let Some(pos) = read.panel.iter().position(|&i| i == node) else {
            return;
        };
        if read.answered & (1 << pos) != 0 {
            return; // Duplicate delivery.
        }
        read.answered |= 1 << pos;
        if let AttestOutcome::Attestation(reading) = outcome {
            read.samples.push(AttestSample {
                node,
                reading,
                sent: read.first_sent,
                received: env.now(),
            });
        }
        // Overloaded/Unavailable answers count only as missing samples —
        // refusing to attest is a liveness problem, not evidence of lying.
        if read.answered.count_ones() as usize == read.panel.len() {
            let read = self.pending.remove(&nonce).expect("present");
            env.cancel_timer(read.deadline);
            self.settle(env, read);
        }
    }

    fn on_deadline(&mut self, env: &mut dyn Env, nonce: u64) {
        if let Some(read) = self.pending.remove(&nonce) {
            self.settle(env, read);
        }
    }

    fn settle(&mut self, env: &mut dyn Env, read: PendingRead) {
        let now = env.now();
        let verdict =
            decide(&read.samples, self.spec.quorum.f, now, self.spec.quorum.suspect_margin);
        env.emit(match &verdict.accepted {
            Some(_) => ProtoEvent::QuorumAccepted { latency: now - read.first_sent },
            // Too few attestations is a *liveness* failure (nodes refused
            // or never answered); only an actual overlap failure among
            // enough samples counts as disagreement.
            None if read.samples.len() < self.spec.quorum.accept_threshold() => {
                ProtoEvent::QuorumUnavailable
            }
            None => ProtoEvent::QuorumNoQuorum,
        });
        for &node in &verdict.suspects {
            env.emit(ProtoEvent::ByzantineSuspect { node });
            if self.health.on_suspect(node, now, env.rng()) {
                env.emit(ProtoEvent::Quarantine { node });
            }
        }
        for &i in &verdict.supporters {
            if self.health.on_clean(i) {
                env.emit(ProtoEvent::Rejoin);
            }
        }
    }
}

impl Machine for QuorumGen {
    fn addr(&self) -> Addr {
        self.me
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        let gap = self.next_gap(env);
        env.set_timer(TOKEN_ARRIVAL, gap);
    }

    fn on_input(&mut self, env: &mut dyn Env, input: Input) {
        match input {
            Input::Timer { token } if token == TOKEN_ARRIVAL => {
                self.issue(env);
                let gap = self.next_gap(env);
                env.set_timer(TOKEN_ARRIVAL, gap);
            }
            Input::Timer { token } if token & TOKEN_DEADLINE != 0 && token & TOKEN_ARRIVAL == 0 => {
                self.on_deadline(env, token & TOKEN_PAYLOAD);
            }
            Input::Message { src, msg: Message::AttestResponse { nonce, outcome } } => {
                self.on_attest(env, src, nonce, outcome);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;

    fn sample(node: usize, est: u64, unc: u64, at: SimTime) -> AttestSample {
        AttestSample {
            node,
            reading: TimeReading { estimate_ns: est, uncertainty_ns: unc, degraded: false },
            sent: at,
            received: at,
        }
    }

    #[test]
    fn issue_fans_out_in_panel_order_before_the_deadline_timer() {
        let frontends: Vec<Addr> = (0..4).map(crate::frontend_addr).collect();
        let spec = QuorumLoopSpec::default();
        let mut gen = QuorumGen::new(crate::generator_addr(0), frontends, spec);
        let mut env = proto::ScriptedEnv::new(4, 7);
        // The start cursor rotates one node per read, so the fourth read's
        // 2f + 1 = 3 panel wraps: nodes 3, 0, 1 — not address order.
        for _ in 0..3 {
            gen.on_input(&mut env, Input::Timer { token: TOKEN_ARRIVAL });
        }
        env.take_effects();
        gen.on_input(&mut env, Input::Timer { token: TOKEN_ARRIVAL });
        let ask = |i| proto::Effect::Send {
            dst: crate::frontend_addr(i),
            msg: Message::AttestRequest { nonce: 4 },
        };
        let deadline =
            proto::Effect::SetTimer { token: TOKEN_DEADLINE | 4, after: COLLECT_TIMEOUT };
        assert_eq!(env.take_effects()[..4], [ask(3), ask(0), ask(1), deadline]);
    }

    #[test]
    fn projection_inflates_by_rtt_and_shifts_to_now() {
        let s = AttestSample {
            node: 0,
            reading: TimeReading { estimate_ns: 1_000_000, uncertainty_ns: 1_000, degraded: false },
            sent: SimTime::from_nanos(1_000_000),
            received: SimTime::from_nanos(1_000_400),
        };
        let now = SimTime::from_nanos(1_000_600);
        let iv = s.project(now);
        // Midpoint = 1_000_200; elapsed = 400; rtt/2 = 200.
        assert!((iv.center() - 1_000_400.0).abs() < 1e-6);
        assert!((iv.width() / 2.0 - 1_200.0).abs() < 1e-6);
    }

    #[test]
    fn honest_panel_accepts_with_no_suspects() {
        let at = SimTime::from_secs(1);
        let now = at;
        let samples = [
            sample(0, 1_000_000, 2_000, at),
            sample(1, 1_001_000, 2_000, at),
            sample(2, 999_500, 2_000, at),
        ];
        let v = decide(&samples, 1, now, SimDuration::ZERO);
        let accepted = v.accepted.expect("honest panel must accept");
        assert!(v.suspects.is_empty());
        assert_eq!(v.supporters, vec![0, 1, 2]);
        // The accepted estimate lies inside the honest envelope.
        assert!(accepted.estimate_ns >= 997_500 && accepted.estimate_ns <= 1_003_000);
    }

    #[test]
    fn liar_beyond_envelope_is_flagged_and_estimate_stays_honest() {
        let at = SimTime::from_secs(1);
        let samples = [
            sample(0, 1_000_000, 2_000, at),
            sample(1, 1_001_000, 2_000, at),
            sample(2, 50_000_000, 2_000, at), // lying 49 ms into the future
        ];
        let v = decide(&samples, 1, at, SimDuration::from_millis(10));
        assert!(v.accepted.is_some());
        assert_eq!(v.suspects, vec![2]);
        let est = v.accepted.unwrap().estimate_ns;
        assert!((998_000..=1_003_000).contains(&est), "estimate dragged to {est}");
    }

    #[test]
    fn lie_within_envelope_is_tolerated_without_flags() {
        let at = SimTime::from_secs(1);
        let samples = [
            sample(0, 1_000_000, 5_000, at),
            sample(1, 1_001_000, 5_000, at),
            sample(2, 1_004_000, 5_000, at), // small skew, still overlapping
        ];
        let v = decide(&samples, 1, at, SimDuration::ZERO);
        assert!(v.accepted.is_some());
        assert!(v.suspects.is_empty(), "in-envelope skew must not be flagged");
    }

    #[test]
    fn no_agreement_means_no_accept_and_no_suspects() {
        let at = SimTime::from_secs(1);
        // Three mutually disjoint clocks: nobody is in the majority, so
        // nobody can be judged a liar either.
        let samples = [
            sample(0, 1_000_000, 100, at),
            sample(1, 2_000_000, 100, at),
            sample(2, 3_000_000, 100, at),
        ];
        let v = decide(&samples, 1, at, SimDuration::ZERO);
        assert!(v.accepted.is_none());
        assert!(v.suspects.is_empty());
    }

    #[test]
    fn too_few_samples_never_accept() {
        let at = SimTime::from_secs(1);
        let samples = [sample(0, 1_000_000, 100, at)];
        let v = decide(&samples, 1, at, SimDuration::ZERO);
        assert!(v.accepted.is_none());
        assert!(v.suspects.is_empty());
    }

    #[test]
    fn boundary_touching_intervals_still_agree() {
        // Closed intervals touching at a single point count as overlap —
        // the boundary case the acceptance rule must not reject.
        let at = SimTime::from_secs(1);
        let samples = [
            sample(0, 1_000_000, 1_000, at), // [999_000, 1_001_000]
            sample(1, 1_002_000, 1_000, at), // [1_001_000, 1_003_000]
        ];
        let v = decide(&samples, 1, at, SimDuration::ZERO);
        assert!(v.accepted.is_some(), "touching intervals must form a quorum");
        assert!(v.suspects.is_empty());
    }

    #[test]
    fn boundary_separated_by_epsilon_does_not_agree() {
        let at = SimTime::from_secs(1);
        let samples = [
            sample(0, 1_000_000, 1_000, at), // [999_000, 1_001_000]
            sample(1, 1_002_001, 1_000, at), // [1_001_001, 1_003_001]
        ];
        let v = decide(&samples, 1, at, SimDuration::ZERO);
        assert!(v.accepted.is_none(), "an epsilon gap must break the quorum");
    }

    #[test]
    fn suspect_margin_shields_near_misses_but_not_real_liars() {
        let at = SimTime::from_secs(1);
        // Two in-envelope skews drag the agreement high enough that the
        // tight honest interval of node 3 no longer touches it; node 4 is
        // a genuine liar far beyond any envelope.
        let samples = [
            sample(0, 1_004_000, 4_000, at),  // [1_000_000, 1_008_000]
            sample(1, 1_004_000, 4_000, at),  // [1_000_000, 1_008_000]
            sample(2, 996_000, 4_000, at),    // [992_000, 1_000_000]
            sample(3, 998_500, 1_000, at),    // [997_500, 999_500]: misses by 500 ns
            sample(4, 50_000_000, 1_000, at), // liar, ~49 ms out
        ];
        let strict = decide(&samples, 2, at, SimDuration::ZERO);
        assert!(strict.suspects.contains(&3), "strict rule flags the framed honest node");
        let margined = decide(&samples, 2, at, SimDuration::from_micros(10));
        assert!(!margined.suspects.contains(&3), "margin shields the near miss");
        assert!(margined.suspects.contains(&4), "margin never shields a real liar");
    }

    #[test]
    fn quarantine_state_machine_threshold_probation_halfopen_rejoin() {
        let spec = QuorumSpec {
            suspect_threshold: 2,
            probation: SimDuration::from_secs(1),
            probe_jitter: SimDuration::ZERO,
            ..Default::default()
        };
        let mut h = QuorumHealth::new(spec, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let t0 = SimTime::from_secs(10);
        assert!(h.eligible(0, t0));

        // First strike: still trusted.
        assert!(!h.on_suspect(0, t0, &mut rng));
        assert!(h.eligible(0, t0));
        // Second strike: quarantined for the probation.
        assert!(h.on_suspect(0, t0, &mut rng));
        assert!(h.is_quarantined(0));
        assert!(!h.eligible(0, t0 + SimDuration::from_millis(999)));
        // Probation over: half-open, eligible again.
        let t1 = t0 + SimDuration::from_secs(1);
        assert!(h.eligible(0, t1));
        assert!(!h.is_quarantined(0));
        // A clean probe readmits to full trust (rejoin event).
        assert!(h.on_clean(0));
        assert!(!h.on_clean(0), "already trusted: no second rejoin event");
        // Fresh strikes are needed again to re-quarantine.
        assert!(!h.on_suspect(0, t1, &mut rng));
        assert!(h.on_suspect(0, t1, &mut rng));
    }

    #[test]
    fn dirty_halfopen_probe_requarantines_immediately() {
        let spec = QuorumSpec {
            suspect_threshold: 3,
            probation: SimDuration::from_secs(1),
            probe_jitter: SimDuration::ZERO,
            ..Default::default()
        };
        let mut h = QuorumHealth::new(spec, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let t0 = SimTime::from_secs(5);
        for _ in 0..3 {
            h.on_suspect(0, t0, &mut rng);
        }
        assert!(h.is_quarantined(0));
        let t1 = t0 + SimDuration::from_secs(1);
        assert!(h.eligible(0, t1));
        // One strike in half-open: straight back in, no threshold count.
        assert!(h.on_suspect(0, t1, &mut rng));
        assert!(h.is_quarantined(0));
    }

    #[test]
    fn clean_attestations_reset_trusted_strikes() {
        let spec = QuorumSpec { suspect_threshold: 2, ..Default::default() };
        let mut h = QuorumHealth::new(spec, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let t = SimTime::from_secs(1);
        assert!(!h.on_suspect(0, t, &mut rng));
        assert!(!h.on_clean(0)); // strike forgiven
        assert!(!h.on_suspect(0, t, &mut rng), "strike count must have reset");
    }

    #[test]
    fn probe_jitter_is_seeded_and_skipped_at_zero() {
        let jittered = QuorumSpec {
            suspect_threshold: 1,
            probation: SimDuration::from_secs(1),
            probe_jitter: SimDuration::from_millis(500),
            ..Default::default()
        };
        let t0 = SimTime::from_secs(1);
        let until = |seed: u64| {
            let mut h = QuorumHealth::new(jittered, 1);
            let mut rng = StdRng::seed_from_u64(seed);
            h.on_suspect(0, t0, &mut rng);
            match h.trust[0] {
                Trust::Quarantined { until } => until,
                _ => panic!("expected quarantine"),
            }
        };
        assert_ne!(until(1), until(2), "different seeds must draw different probations");
        assert_eq!(until(7), until(7), "same seed must reproduce the probation");

        // ZERO jitter leaves the RNG stream untouched.
        let plain =
            QuorumSpec { probe_jitter: SimDuration::ZERO, suspect_threshold: 1, ..jittered };
        let mut h = QuorumHealth::new(plain, 1);
        let mut used = StdRng::seed_from_u64(9);
        let mut control = StdRng::seed_from_u64(9);
        h.on_suspect(0, t0, &mut used);
        assert_eq!(used.gen::<u64>(), control.gen::<u64>());
    }
}
