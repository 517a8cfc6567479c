//! Typed protocol events and their one fold into a [`Recorder`].
//!
//! A machine states *what happened* as a [`ProtoEvent`]; the driver it
//! runs under stamps the event with its own instant and the machine's node
//! index and folds it into the run's recorder with [`Recorder::apply`].
//! That fold is the only code that knows which [`NodeTrace`] or
//! [`ServiceTrace`](crate::ServiceTrace) field a fact lands in, and whether
//! the field is a [`StepCounter`](crate::StepCounter), a
//! [`RateCounter`](crate::RateCounter), a series or a histogram.

use sim::{SimDuration, SimTime};

use crate::recorder::{NodeTrace, Recorder};
use crate::timeline::NodeStateTag;

/// Why a received datagram never reached a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// A runt that cannot even carry the source prefix (live runtime
    /// only: the simulation fabric routes sealed payloads without a frame).
    Frame,
    /// The seal failed to authenticate: forged, tampered, replayed or
    /// misrouted.
    Auth,
    /// The seal opened but the plaintext is not a protocol message.
    Decode,
}

/// One fact a protocol machine records about a run.
///
/// Each variant's doc names the recorder field it lands in. "Own node"
/// is the emitting machine's node index; variants with a `node` field
/// name the node they are about (a client's target, a quorum panel
/// member), whoever emits them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtoEvent {
    /// The own node entered a protocol state: [`NodeTrace::states`].
    State(NodeStateTag),
    /// The own node took a Time Authority reference:
    /// [`NodeTrace::ta_references`].
    TaReference,
    /// A calibration produced the TSC frequency `hz`:
    /// [`NodeTrace::calibrations_hz`].
    Calibration {
        /// The calibrated frequency (Hz).
        hz: f64,
    },
    /// A calibration probe timed out and is retried:
    /// [`NodeTrace::probe_retries`].
    ProbeRetry,
    /// The TA circuit breaker opened: [`NodeTrace::breaker_opens`].
    BreakerOpen,
    /// A peer timestamp was adopted (forward jump):
    /// [`NodeTrace::peer_adoptions`].
    PeerAdoption,
    /// Peers untainted the node: [`NodeTrace::peer_untaints`].
    PeerUntaint,
    /// An AEX hit the own node: [`NodeTrace::aex_events`].
    Aex,
    /// The own node's platform crashed: [`NodeTrace::crashes`].
    Crash,
    /// A degraded reading was served with half-width `ns`:
    /// [`NodeTrace::reading_uncertainty_ns`].
    ReadingUncertainty {
        /// The reading's uncertainty half-width (ns).
        ns: u64,
    },
    /// The INC monitor detected a TSC manipulation:
    /// [`NodeTrace::monitor_detections`].
    MonitorDetection,
    /// A peer interval was rejected as a false-chimer:
    /// [`NodeTrace::chimer_rejections`].
    ChimerRejection,
    /// The clock was corrected: [`NodeTrace::corrections`].
    Correction,
    /// A proactive deadline check ran: [`NodeTrace::deadline_checks`].
    DeadlineCheck,
    /// A true-chimer announcement excluded the own node:
    /// [`NodeTrace::gossip_alerts`].
    GossipAlert,
    /// The own node's front-end shed a request:
    /// [`NodeTrace::frontend_shed`].
    FrontendShed,
    /// The own node's front-end flushed a batch:
    /// [`NodeTrace::frontend_batches`].
    FrontendBatch,
    /// The own node's front-end answered a request:
    /// [`NodeTrace::frontend_served`].
    FrontendServed,
    /// The own node's front-end answered an attestation:
    /// [`NodeTrace::frontend_attests`].
    FrontendAttest,
    /// A client was served a timestamp by `node`:
    /// [`NodeTrace::client_served`].
    ClientServed {
        /// The serving node's index.
        node: usize,
    },
    /// A client was denied by `node`: [`NodeTrace::client_denied`].
    ClientDenied {
        /// The denying node's index.
        node: usize,
    },
    /// A quorum read flagged `node` as an outlier: `byzantine_suspects`
    /// and `node`'s [`NodeTrace::byzantine_suspected`].
    ByzantineSuspect {
        /// The suspected node's index.
        node: usize,
    },
    /// A quorum reader quarantined `node`: `quarantines` and `node`'s
    /// [`NodeTrace::quarantined`].
    Quarantine {
        /// The quarantined node's index.
        node: usize,
    },
    /// A load generator issued a request: `offered`.
    Offered,
    /// A retry switched to another node: `failovers`.
    Failover,
    /// A request failed fast with every node held down: `all_down`.
    AllDown,
    /// A request was answered with a full timestamp: `served_ok` and
    /// `latency`.
    ServedOk {
        /// First send to answer.
        latency: SimDuration,
    },
    /// A request was answered with a degraded reading: `served_degraded`
    /// and `latency`.
    ServedDegraded {
        /// First send to answer.
        latency: SimDuration,
    },
    /// A request ended `Overloaded` after failover: `shed`.
    Shed,
    /// A request ended `Unavailable` after failover: `unavailable`.
    Unavailable,
    /// A request timed out on its last attempt: `timeouts`.
    Timeout,
    /// A quorum read was issued: `quorum_offered`.
    QuorumOffered,
    /// A quorum read accepted an interval: `quorum_accepted` and
    /// `quorum_latency`.
    QuorumAccepted {
        /// First fan-out send to the verdict.
        latency: SimDuration,
    },
    /// A quorum read's attestations never overlapped enough:
    /// `quorum_no_quorum`.
    QuorumNoQuorum,
    /// A quorum read failed for liveness: `quorum_unavailable`.
    QuorumUnavailable,
    /// A quarantined node was readmitted: `rejoins`.
    Rejoin,
    /// An inbound datagram was dropped before any machine saw it:
    /// `drops_frame`, `drops_auth` or `drops_decode`.
    Drop(DropReason),
}

impl Recorder {
    /// Folds `event`, which happened at `now` in the machine co-located
    /// with node index `node`, into this recorder.
    ///
    /// # Panics
    ///
    /// Panics when an own-node event comes without a node index, or when
    /// a node index is out of range: a machine wiring error.
    #[inline]
    pub fn apply(&mut self, now: SimTime, node: Option<usize>, event: ProtoEvent) {
        let service = &mut self.service;
        match event {
            ProtoEvent::State(state) => self.own(node).states.enter(now, state),
            ProtoEvent::TaReference => self.own(node).ta_references.increment(now),
            ProtoEvent::Calibration { hz } => self.own(node).calibrations_hz.push((now, hz)),
            ProtoEvent::ProbeRetry => self.own(node).probe_retries.increment(now),
            ProtoEvent::BreakerOpen => self.own(node).breaker_opens.increment(now),
            ProtoEvent::PeerAdoption => self.own(node).peer_adoptions.increment(now),
            ProtoEvent::PeerUntaint => self.own(node).peer_untaints.increment(now),
            ProtoEvent::Aex => self.own(node).aex_events.increment(now),
            ProtoEvent::Crash => self.own(node).crashes.increment(now),
            ProtoEvent::ReadingUncertainty { ns } => {
                self.own(node).reading_uncertainty_ns.push(now, ns as f64);
            }
            ProtoEvent::MonitorDetection => self.own(node).monitor_detections.increment(now),
            ProtoEvent::ChimerRejection => self.own(node).chimer_rejections.increment(now),
            ProtoEvent::Correction => self.own(node).corrections.increment(now),
            ProtoEvent::DeadlineCheck => self.own(node).deadline_checks.increment(now),
            ProtoEvent::GossipAlert => self.own(node).gossip_alerts.increment(now),
            ProtoEvent::FrontendShed => self.own(node).frontend_shed.increment(now),
            ProtoEvent::FrontendBatch => self.own(node).frontend_batches.increment(now),
            ProtoEvent::FrontendServed => self.own(node).frontend_served.increment(now),
            ProtoEvent::FrontendAttest => self.own(node).frontend_attests.increment(now),
            ProtoEvent::ClientServed { node } => self.node_mut(node).client_served.increment(now),
            ProtoEvent::ClientDenied { node } => self.node_mut(node).client_denied.increment(now),
            ProtoEvent::ByzantineSuspect { node } => {
                service.byzantine_suspects.increment(now);
                self.node_mut(node).byzantine_suspected.increment(now);
            }
            ProtoEvent::Quarantine { node } => {
                service.quarantines.increment(now);
                self.node_mut(node).quarantined.increment(now);
            }
            ProtoEvent::Offered => service.offered.increment(now),
            ProtoEvent::Failover => service.failovers.increment(now),
            ProtoEvent::AllDown => service.all_down.increment(now),
            ProtoEvent::ServedOk { latency } => {
                service.served_ok.increment(now);
                service.latency.push(latency.as_nanos() as f64);
            }
            ProtoEvent::ServedDegraded { latency } => {
                service.served_degraded.increment(now);
                service.latency.push(latency.as_nanos() as f64);
            }
            ProtoEvent::Shed => service.shed.increment(now),
            ProtoEvent::Unavailable => service.unavailable.increment(now),
            ProtoEvent::Timeout => service.timeouts.increment(now),
            ProtoEvent::QuorumOffered => service.quorum_offered.increment(now),
            ProtoEvent::QuorumAccepted { latency } => {
                service.quorum_accepted.increment(now);
                service.quorum_latency.push(latency.as_nanos() as f64);
            }
            ProtoEvent::QuorumNoQuorum => service.quorum_no_quorum.increment(now),
            ProtoEvent::QuorumUnavailable => service.quorum_unavailable.increment(now),
            ProtoEvent::Rejoin => service.rejoins.increment(now),
            ProtoEvent::Drop(DropReason::Frame) => service.drops_frame.increment(now),
            ProtoEvent::Drop(DropReason::Auth) => service.drops_auth.increment(now),
            ProtoEvent::Drop(DropReason::Decode) => service.drops_decode.increment(now),
        }
    }

    fn own(&mut self, node: Option<usize>) -> &mut NodeTrace {
        self.node_mut(node.expect("a node event needs a machine with a node index"))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::mem::discriminant;

    use super::*;

    const OWN: usize = 1;
    const OTHER: usize = 2;
    const LATENCY: SimDuration = SimDuration::from_micros(250);

    type Bump = fn(&mut Recorder, SimTime);

    /// Every variant beside a hand-written bump of exactly the fields its
    /// doc names.
    fn cases() -> Vec<(ProtoEvent, Bump)> {
        use ProtoEvent as E;
        vec![
            (E::State(NodeStateTag::Tainted), |r, t| {
                r.node_mut(OWN).states.enter(t, NodeStateTag::Tainted)
            }),
            (E::TaReference, |r, t| r.node_mut(OWN).ta_references.increment(t)),
            (E::Calibration { hz: 2.9e9 }, |r, t| r.node_mut(OWN).calibrations_hz.push((t, 2.9e9))),
            (E::ProbeRetry, |r, t| r.node_mut(OWN).probe_retries.increment(t)),
            (E::BreakerOpen, |r, t| r.node_mut(OWN).breaker_opens.increment(t)),
            (E::PeerAdoption, |r, t| r.node_mut(OWN).peer_adoptions.increment(t)),
            (E::PeerUntaint, |r, t| r.node_mut(OWN).peer_untaints.increment(t)),
            (E::Aex, |r, t| r.node_mut(OWN).aex_events.increment(t)),
            (E::Crash, |r, t| r.node_mut(OWN).crashes.increment(t)),
            (E::ReadingUncertainty { ns: 1_500 }, |r, t| {
                r.node_mut(OWN).reading_uncertainty_ns.push(t, 1_500.0)
            }),
            (E::MonitorDetection, |r, t| r.node_mut(OWN).monitor_detections.increment(t)),
            (E::ChimerRejection, |r, t| r.node_mut(OWN).chimer_rejections.increment(t)),
            (E::Correction, |r, t| r.node_mut(OWN).corrections.increment(t)),
            (E::DeadlineCheck, |r, t| r.node_mut(OWN).deadline_checks.increment(t)),
            (E::GossipAlert, |r, t| r.node_mut(OWN).gossip_alerts.increment(t)),
            (E::FrontendShed, |r, t| r.node_mut(OWN).frontend_shed.increment(t)),
            (E::FrontendBatch, |r, t| r.node_mut(OWN).frontend_batches.increment(t)),
            (E::FrontendServed, |r, t| r.node_mut(OWN).frontend_served.increment(t)),
            (E::FrontendAttest, |r, t| r.node_mut(OWN).frontend_attests.increment(t)),
            (E::ClientServed { node: OTHER }, |r, t| r.node_mut(OTHER).client_served.increment(t)),
            (E::ClientDenied { node: OTHER }, |r, t| r.node_mut(OTHER).client_denied.increment(t)),
            (E::ByzantineSuspect { node: OTHER }, |r, t| {
                r.service.byzantine_suspects.increment(t);
                r.node_mut(OTHER).byzantine_suspected.increment(t);
            }),
            (E::Quarantine { node: OTHER }, |r, t| {
                r.service.quarantines.increment(t);
                r.node_mut(OTHER).quarantined.increment(t);
            }),
            (E::Offered, |r, t| r.service.offered.increment(t)),
            (E::Failover, |r, t| r.service.failovers.increment(t)),
            (E::AllDown, |r, t| r.service.all_down.increment(t)),
            (E::ServedOk { latency: LATENCY }, |r, t| {
                r.service.served_ok.increment(t);
                r.service.latency.push(LATENCY.as_nanos() as f64);
            }),
            (E::ServedDegraded { latency: LATENCY }, |r, t| {
                r.service.served_degraded.increment(t);
                r.service.latency.push(LATENCY.as_nanos() as f64);
            }),
            (E::Shed, |r, t| r.service.shed.increment(t)),
            (E::Unavailable, |r, t| r.service.unavailable.increment(t)),
            (E::Timeout, |r, t| r.service.timeouts.increment(t)),
            (E::QuorumOffered, |r, t| r.service.quorum_offered.increment(t)),
            (E::QuorumAccepted { latency: LATENCY }, |r, t| {
                r.service.quorum_accepted.increment(t);
                r.service.quorum_latency.push(LATENCY.as_nanos() as f64);
            }),
            (E::QuorumNoQuorum, |r, t| r.service.quorum_no_quorum.increment(t)),
            (E::QuorumUnavailable, |r, t| r.service.quorum_unavailable.increment(t)),
            (E::Rejoin, |r, t| r.service.rejoins.increment(t)),
            (E::Drop(DropReason::Frame), |r, t| r.service.drops_frame.increment(t)),
            (E::Drop(DropReason::Auth), |r, t| r.service.drops_auth.increment(t)),
            (E::Drop(DropReason::Decode), |r, t| r.service.drops_decode.increment(t)),
        ]
    }

    #[test]
    fn each_event_changes_exactly_the_fields_its_doc_names() {
        let now = SimTime::from_secs(3);
        let fresh = Recorder::for_nodes(3);
        let cases = cases();
        // 37 variants, `Drop` once per reason.
        let variants: BTreeSet<_> =
            cases.iter().map(|(e, _)| format!("{:?}", discriminant(e))).collect();
        assert_eq!((variants.len(), cases.len()), (37, 39));

        for (event, bump) in cases {
            let mut folded = fresh.clone();
            folded.apply(now, Some(OWN), event);
            let mut expected = fresh.clone();
            bump(&mut expected, now);
            assert_ne!(expected, fresh, "{event:?}: the hand bump changes something");
            assert_eq!(folded, expected, "{event:?}");
        }
    }

    #[test]
    #[should_panic(expected = "node index")]
    fn an_own_node_event_without_a_node_index_is_a_wiring_error() {
        Recorder::for_nodes(1).apply(SimTime::ZERO, None, ProtoEvent::Aex);
    }
}
