//! The shared node lifecycle, checked once and run for both policies.
//!
//! Each check drives a `Node<P>` under `proto::ScriptedEnv` — no driver,
//! no network — and asserts on the recorded `Effect` sequence. Two checks
//! are `Hardened`'s alone: its §V RTT filter on the anchor exchange.

use netsim::Addr;
use proto::{node_addr, Effect, Input, Machine, ScriptedEnv, AEX_RESUME_TOKEN, TA_ADDR};
use resilient::{Hardened, ResilientConfig};
use sim::SimDuration;
use trace::NodeStateTag;
use triad_core::{Node, Paper, Policy, TriadConfig};
use wire::Message;

// The TA circuit breaker's fixed schedule, `triad_core`'s private
// `BREAKER_THRESHOLD` and `BREAKER_COOLDOWN`: the checks pin it.
const BREAKER_THRESHOLD: u64 = 8;
const COOLDOWN: SimDuration = SimDuration::from_secs(5);
const PEER: Addr = Addr(2);
const CLIENT: Addr = Addr(900);

/// What a check needs to know about a policy: a config with the breaker
/// on, and how a peer answers its round request.
trait Subject: Policy {
    fn cfg() -> Self::Config;
    fn peer_answer(nonce: u64, timestamp_ns: u64) -> Message;
}

fn base_cfg() -> TriadConfig {
    TriadConfig { ta_breaker: true, ..TriadConfig::default() }
}

impl Subject for Paper {
    fn cfg() -> TriadConfig {
        base_cfg()
    }
    fn peer_answer(nonce: u64, timestamp_ns: u64) -> Message {
        Message::PeerTimeResponse { nonce, timestamp_ns }
    }
}

impl Subject for Hardened {
    fn cfg() -> ResilientConfig {
        ResilientConfig { base: base_cfg(), ..ResilientConfig::default() }
    }
    fn peer_answer(nonce: u64, timestamp_ns: u64) -> Message {
        Message::IntervalResponse { nonce, timestamp_ns, error_bound_ns: 1_000_000, tainted: false }
    }
}

struct Rig<P: Policy> {
    node: Node<P>,
    env: ScriptedEnv,
}

/// A TA probe as its effects show it.
#[derive(Clone, Copy)]
struct Probe {
    nonce: u64,
    sleep_ns: u64,
    retry: u64,
}

/// The last TA probe among `effects`.
fn probe_in(effects: &[Effect]) -> Option<Probe> {
    let at = effects.iter().rposition(|e| matches!(e, Effect::Send { dst: TA_ADDR, .. }))?;
    match (&effects[at], &effects[at + 1]) {
        (
            Effect::Send { msg: Message::CalibrationRequest { nonce, sleep_ns }, .. },
            Effect::SetTimer { token, .. },
        ) => Some(Probe { nonce: *nonce, sleep_ns: *sleep_ns, retry: *token }),
        other => panic!("a probe is a send followed by its retry timer, got {other:?}"),
    }
}

fn timers_in(effects: &[Effect]) -> Vec<u64> {
    effects
        .iter()
        .filter_map(|e| if let Effect::SetTimer { token, .. } = e { Some(*token) } else { None })
        .collect()
}

impl<P: Subject> Rig<P> {
    /// A booted node with two peers; returns the effects of `on_start`.
    fn boot() -> (Self, Vec<Effect>) {
        let node = Node::<P>::new(node_addr(0), vec![PEER, Addr(3)], P::cfg());
        let mut rig = Rig { node, env: ScriptedEnv::new(3, 7) };
        rig.node.on_start(&mut rig.env);
        let effects = rig.env.take_effects();
        (rig, effects)
    }

    fn step(&mut self, input: Input) -> Vec<Effect> {
        self.node.on_input(&mut self.env, input);
        self.env.take_effects()
    }

    fn msg(&mut self, src: Addr, msg: Message) -> Vec<Effect> {
        self.step(Input::Message { src, msg })
    }

    fn state(&self) -> NodeStateTag {
        self.env.recorder.node(0).states.state_at(self.env.now).expect("booted")
    }

    /// Answers probe `nonce` after its hold plus a 200 µs round trip, the
    /// TA's clock reading `ta_num / ta_den` of scripted time.
    fn answer(&mut self, probe: Probe, ta_num: u64, ta_den: u64) -> Vec<Effect> {
        self.answer_after(probe, SimDuration::from_micros(200), ta_num, ta_den)
    }

    /// [`Rig::answer`] with a round trip of `rtt` on top of the hold.
    fn answer_after(
        &mut self,
        Probe { nonce, sleep_ns, .. }: Probe,
        rtt: SimDuration,
        ta_num: u64,
        ta_den: u64,
    ) -> Vec<Effect> {
        self.env.advance(SimDuration::from_nanos(sleep_ns) + rtt);
        let ta_time_ns = self.env.now.as_nanos() * ta_num / ta_den;
        self.msg(TA_ADDR, Message::CalibrationResponse { nonce, ta_time_ns, slept_ns: sleep_ns })
    }

    /// Plays the TA through the speed fit; returns the anchor probe that
    /// follows it.
    fn fit_speed(&mut self, mut effects: Vec<Effect>) -> Probe {
        while self.env.recorder.node(0).calibrations_hz.is_empty() {
            let probe = probe_in(&effects).expect("a calibrating node has a probe in flight");
            effects = self.answer(probe, 1, 1);
        }
        probe_in(&effects).expect("the speed fit is followed by the anchor probe")
    }

    /// Plays the TA from the probe in `effects` until the node is OK.
    fn calibrate(&mut self, mut effects: Vec<Effect>, ta_num: u64, ta_den: u64) {
        while self.state() != NodeStateTag::Ok {
            let probe = probe_in(&effects).expect("a calibrating node has a probe in flight");
            effects = self.answer(probe, ta_num, ta_den);
        }
    }

    /// The timestamp a client is served right now.
    fn client_read(&mut self) -> Option<u64> {
        match self.msg(CLIENT, Message::ClientTimeRequest { nonce: 1 })[..] {
            [Effect::Send {
                dst: CLIENT,
                msg: Message::ClientTimeResponse { nonce: 1, timestamp_ns },
            }] => timestamp_ns,
            ref other => panic!("a client request gets exactly one answer, got {other:?}"),
        }
    }

    /// The reply to a `PeerTimeRequest`, if any.
    fn peer_read(&mut self) -> Option<u64> {
        match self.msg(PEER, Message::PeerTimeRequest { nonce: 2 })[..] {
            [] => None,
            [Effect::Send {
                dst: PEER,
                msg: Message::PeerTimeResponse { nonce: 2, timestamp_ns },
            }] => Some(timestamp_ns),
            ref other => panic!("a peer request gets at most one answer, got {other:?}"),
        }
    }
}

/// The checks, each generic over the policy under test.
mod check {
    use super::*;

    pub fn timestamps_are_served_only_while_ok<P: Subject>() {
        let (mut rig, boot) = Rig::<P>::boot();
        assert_eq!(
            (rig.state(), rig.peer_read(), rig.client_read()),
            (NodeStateTag::FullCalib, None, None)
        );
        rig.calibrate(boot, 1, 1);
        assert!(rig.peer_read().is_some() && rig.client_read().is_some());
        let tainted = rig.step(Input::Aex { machine_wide: false });
        assert!(timers_in(&tainted).contains(&AEX_RESUME_TOKEN), "an AEX schedules the resume");
        assert_eq!(
            (rig.state(), rig.peer_read(), rig.client_read()),
            (NodeStateTag::Tainted, None, None)
        );
    }

    pub fn crash_keeps_the_serving_floor<P: Subject>() {
        let (mut rig, boot) = Rig::<P>::boot();
        rig.calibrate(boot, 1, 1);
        let before = rig.client_read().expect("an OK node serves");
        rig.step(Input::Crash);
        assert!(rig.node.crashed() && !rig.env.clocks[0].valid);
        let reboot = rig.step(Input::Restart);
        assert!(probe_in(&reboot).is_some(), "a restarted node recalibrates from scratch");
        assert_eq!(
            (rig.peer_read(), rig.client_read()),
            (None, None),
            "nothing served until re-anchored"
        );
        let reading = rig.msg(CLIENT, Message::TimeReadingRequest { nonce: 3 });
        assert!(matches!(
            reading[..],
            [Effect::Send { msg: Message::TimeReadingResponse { reading: None, .. }, .. }]
        ));
        // Re-anchor to a TA whose clock reads far below what was already
        // served: the sealed floor, not the new anchor, bounds the next answer.
        rig.calibrate(reboot, 1, 2);
        assert!(rig.client_read().expect("re-anchored") > before);
    }

    /// Client and peer reads 1 ns apart: the clock may advance less than
    /// a nanosecond between them, and each still gets a fresh timestamp.
    pub fn reads_one_nanosecond_apart_strictly_increase<P: Subject>() {
        let (mut rig, boot) = Rig::<P>::boot();
        rig.calibrate(boot, 1, 1);
        let mut last = 0;
        for i in 0..20_000 {
            rig.env.advance(SimDuration::from_nanos(1));
            let read = if i % 2 == 0 { rig.client_read() } else { rig.peer_read() };
            let ts = read.expect("an OK node serves");
            assert!(ts > last, "read {i} served {ts} after {last}");
            last = ts;
        }
    }

    pub fn timers_from_before_a_crash_are_ignored<P: Subject>() {
        let (mut rig, boot) = Rig::<P>::boot();
        rig.step(Input::Crash);
        let reboot = rig.step(Input::Restart);
        for token in timers_in(&boot) {
            let effects = rig.step(Input::Timer { token });
            assert!(effects.is_empty(), "pre-crash timer {token:#x} must be stale: {effects:?}");
        }
        for token in timers_in(&reboot) {
            assert!(
                !rig.step(Input::Timer { token }).is_empty(),
                "restart timer {token:#x} is live"
            );
        }
    }

    pub fn breaker_opens_probes_once_per_cooldown_and_closes<P: Subject>() {
        let (mut rig, mut effects) = Rig::<P>::boot();
        let breaker = loop {
            // Seven timeouts retransmit; the eighth trips the breaker:
            // silence but for one timer, the cooldown.
            let Probe { retry, .. } = probe_in(&effects).expect("still probing");
            effects = rig.step(Input::Timer { token: retry });
            if let [Effect::SetTimer { token, after: COOLDOWN }] = &effects[..] {
                break *token;
            }
        };
        assert_eq!(rig.env.recorder.node(0).probe_retries.count(), BREAKER_THRESHOLD);
        assert_eq!(rig.env.recorder.node(0).breaker_opens.count(), 1);
        // Half-open: exactly one trial probe per cooldown; its timeout re-opens.
        let trial = rig.step(Input::Timer { token: breaker });
        assert_eq!(trial.iter().filter(|e| matches!(e, Effect::Send { .. })).count(), 1);
        assert!(rig.step(Input::Timer { token: breaker }).is_empty(), "one trial per cooldown");
        let Probe { retry, .. } = probe_in(&trial).expect("the trial probe");
        let reopened = rig.step(Input::Timer { token: retry });
        assert!(matches!(reopened[..], [Effect::SetTimer { after: COOLDOWN, .. }]), "{reopened:?}");
        // An answer closes it: calibration resumes, and a single later
        // timeout merely retransmits.
        let trial = rig.step(Input::Timer { token: breaker });
        let resumed = rig.answer(probe_in(&trial).expect("the second trial"), 1, 1);
        let Probe { retry, .. } = probe_in(&resumed).expect("calibration continues");
        assert!(probe_in(&rig.step(Input::Timer { token: retry })).is_some());
        assert_eq!(rig.env.recorder.node(0).breaker_opens.count(), 2);
    }

    pub fn interrupted_probe_is_resent_and_stale_nonces_are_ignored<P: Subject>() {
        let (mut rig, boot) = Rig::<P>::boot();
        let first = probe_in(&boot).expect("boot probes the TA");
        rig.step(Input::Aex { machine_wide: false });
        let resent = rig.answer(first, 1, 1);
        let second = probe_in(&resent).expect("an interrupted round trip is discarded and re-sent");
        assert!(
            second.sleep_ns == first.sleep_ns && second.nonce != first.nonce,
            "same stage, fresh nonce"
        );
        assert!(rig.answer(first, 1, 1).is_empty(), "the abandoned probe's nonce is stale");

        rig.calibrate(resent, 1, 1);
        rig.step(Input::Aex { machine_wide: false });
        let round = rig.step(Input::AexResume);
        let nonce = match &round[0] {
            Effect::Send { dst: PEER, msg: Message::PeerTimeRequest { nonce } }
            | Effect::Send { dst: PEER, msg: Message::IntervalRequest { nonce } } => *nonce,
            other => panic!("resume opens a peer round, got {other:?}"),
        };
        assert_eq!(round[0], Effect::Send { dst: PEER, msg: P::peer_request(nonce) });
        let now = rig.env.now.as_nanos();
        for peer in [PEER, Addr(3)] {
            let effects = rig.msg(peer, P::peer_answer(nonce + 1, now));
            assert!(effects.is_empty(), "an answer to another round is ignored: {effects:?}");
        }
        assert_eq!(rig.state(), NodeStateTag::Tainted, "stale answers conclude nothing");
        rig.msg(PEER, P::peer_answer(nonce, now));
        rig.msg(Addr(3), P::peer_answer(nonce, now));
        assert_eq!(rig.state(), NodeStateTag::Ok, "both peers answered the live round");
    }
}

/// The §V RTT filter: an anchor answered after a 15 ms round trip (the
/// limit is 10 ms) is re-probed three times in a row; the fourth slow
/// answer anchors anyway, with the bound widened by that round trip.
#[test]
fn hardened_reprobes_a_slow_anchor_three_times_then_widens_its_bound() {
    let rtt = SimDuration::from_millis(15);
    let (mut rig, boot) = Rig::<Hardened>::boot();
    let mut anchor = rig.fit_speed(boot);
    for reject in 1..=3 {
        let effects = rig.answer_after(anchor, rtt, 1, 1);
        let reprobe = probe_in(&effects).expect("a slow anchor is re-probed");
        assert_eq!(
            (rig.state(), reprobe.sleep_ns),
            (NodeStateTag::FullCalib, 0),
            "slow answer {reject}: re-probed, not anchored"
        );
        assert_ne!(reprobe.nonce, anchor.nonce);
        anchor = reprobe;
    }
    rig.answer_after(anchor, rtt, 1, 1);
    assert_eq!(rig.state(), NodeStateTag::Ok, "the fourth slow answer anchors (liveness)");
    let reading = match rig.msg(CLIENT, Message::TimeReadingRequest { nonce: 3 })[..] {
        [Effect::Send { msg: Message::TimeReadingResponse { reading: Some(r), .. }, .. }] => r,
        ref other => panic!("an OK node answers a reading request, got {other:?}"),
    };
    assert!(
        reading.uncertainty_ns >= rtt.as_nanos(),
        "the accepted slow anchor widens the bound by its round trip: {reading:?}"
    );
}

#[test]
fn hardened_anchors_a_fast_answer_at_once() {
    let (mut rig, boot) = Rig::<Hardened>::boot();
    let anchor = rig.fit_speed(boot);
    rig.answer_after(anchor, SimDuration::from_micros(200), 1, 1);
    assert_eq!(rig.state(), NodeStateTag::Ok);
}

macro_rules! for_both_policies {
    ($($check:ident),* $(,)?) => {$(
        #[test]
        fn $check() {
            check::$check::<Paper>();
            check::$check::<Hardened>();
        }
    )*};
}

for_both_policies!(
    timestamps_are_served_only_while_ok,
    crash_keeps_the_serving_floor,
    reads_one_nanosecond_apart_strictly_increase,
    timers_from_before_a_crash_are_ignored,
    breaker_opens_probes_once_per_cooldown_and_closes,
    interrupted_probe_is_resent_and_stale_nonces_are_ignored,
);
