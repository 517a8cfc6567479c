//! Cluster-level serving-layer measurements (SLO accounting).

use stats::LogHistogram;

use crate::counter::{RateCounter, StepCounter};

/// Everything the serving layer measures about a run, recorded from the
/// *client* side (load generators): one request is counted exactly once
/// in `offered` and exactly once in one of the four outcome counters,
/// whatever path it took through retries and failovers.
///
/// Latencies are end-to-end — first send to final verdict, across all
/// failover attempts — in a log-linear [`LogHistogram`] whose percentiles
/// feed the SLO tables (p50/p95/p99/p99.9).
///
/// The per-request outcome counters are [`RateCounter`]s: their memory
/// follows simulated seconds, not requests, and their windows are asked
/// at whole-second bounds. The rare detection and drop events keep their
/// instants in [`StepCounter`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceTrace {
    /// End-to-end request latency (ns) of every *answered* request.
    pub latency: LogHistogram,
    /// Requests issued by the load generators (before retries).
    pub offered: RateCounter,
    /// Requests answered with a full-precision timestamp.
    pub served_ok: RateCounter,
    /// Requests answered with a degraded `TimeReading` estimate.
    pub served_degraded: RateCounter,
    /// Requests that ended `Overloaded` after exhausting failover.
    pub shed: RateCounter,
    /// Requests that ended `Unavailable` after exhausting failover.
    pub unavailable: RateCounter,
    /// Requests abandoned after timing out on their last attempt.
    pub timeouts: RateCounter,
    /// Retries that switched to a different node (failover routing).
    pub failovers: RateCounter,
    /// Requests failed fast because every node was held down by the
    /// router's health tracker (no attempt was worth making).
    pub all_down: RateCounter,
    /// End-to-end quorum-read latency (ns): first fan-out send to the
    /// accept verdict. Compare against `latency` for the quorum price.
    pub quorum_latency: LogHistogram,
    /// Quorum reads issued (each fans out to a whole panel).
    pub quorum_offered: RateCounter,
    /// Quorum reads that reached `f+1` mutually overlapping attestations.
    pub quorum_accepted: RateCounter,
    /// Quorum reads whose collected attestations never overlapped enough.
    pub quorum_no_quorum: RateCounter,
    /// Quorum reads that failed for *liveness*: fewer than `f+1`
    /// panel-eligible nodes at issue, or fewer than `f+1` attestations
    /// collected by the deadline (nodes refused or never answered).
    pub quorum_unavailable: RateCounter,
    /// `ByzantineSuspect` detection events (one per flagged attestation).
    pub byzantine_suspects: StepCounter,
    /// Suspect nodes quarantined by the probation policy.
    pub quarantines: StepCounter,
    /// Quarantined nodes readmitted after a clean half-open probe.
    pub rejoins: StepCounter,
    /// Inbound datagrams whose frame failed to parse (live runtime only:
    /// the simulation fabric routes sealed payloads without a frame).
    pub drops_frame: StepCounter,
    /// Inbound datagrams whose AEAD seal failed to authenticate
    /// (forged, tampered, replayed, or misrouted).
    pub drops_auth: StepCounter,
    /// Authenticated datagrams whose plaintext failed to decode as a
    /// protocol message (a peer speaking another version, or a bug).
    pub drops_decode: StepCounter,
}

impl Default for ServiceTrace {
    fn default() -> Self {
        ServiceTrace {
            latency: LogHistogram::latency_ns(),
            offered: RateCounter::default(),
            served_ok: RateCounter::default(),
            served_degraded: RateCounter::default(),
            shed: RateCounter::default(),
            unavailable: RateCounter::default(),
            timeouts: RateCounter::default(),
            failovers: RateCounter::default(),
            all_down: RateCounter::default(),
            quorum_latency: LogHistogram::latency_ns(),
            quorum_offered: RateCounter::default(),
            quorum_accepted: RateCounter::default(),
            quorum_no_quorum: RateCounter::default(),
            quorum_unavailable: RateCounter::default(),
            byzantine_suspects: StepCounter::default(),
            quarantines: StepCounter::default(),
            rejoins: StepCounter::default(),
            drops_frame: StepCounter::default(),
            drops_auth: StepCounter::default(),
            drops_decode: StepCounter::default(),
        }
    }
}

impl ServiceTrace {
    /// Requests that received *some* answer (full or degraded).
    pub fn goodput(&self) -> u64 {
        self.served_ok.count() + self.served_degraded.count()
    }

    /// Requests that ended without a usable answer.
    pub fn badput(&self) -> u64 {
        self.shed.count() + self.unavailable.count() + self.timeouts.count() + self.all_down.count()
    }

    /// Quorum reads that ended without an accepted interval.
    pub fn quorum_badput(&self) -> u64 {
        self.quorum_no_quorum.count() + self.quorum_unavailable.count()
    }

    /// Inbound datagrams dropped before reaching any machine, by any
    /// cause (frame, authentication, decode).
    pub fn drops(&self) -> u64 {
        self.drops_frame.count() + self.drops_auth.count() + self.drops_decode.count()
    }
}

#[cfg(test)]
mod tests {
    use sim::SimTime;

    use super::*;

    #[test]
    fn goodput_and_badput_partition_outcomes() {
        let mut t = ServiceTrace::default();
        let at = SimTime::from_secs(1);
        t.offered.increment(at);
        t.offered.increment(at);
        t.offered.increment(at);
        t.served_ok.increment(at);
        t.served_degraded.increment(at);
        t.shed.increment(at);
        assert_eq!(t.goodput(), 2);
        assert_eq!(t.badput(), 1);
        assert_eq!(t.goodput() + t.badput(), t.offered.count());
    }

    #[test]
    fn quorum_counters_partition_quorum_outcomes() {
        let mut t = ServiceTrace::default();
        let at = SimTime::from_secs(1);
        for _ in 0..3 {
            t.quorum_offered.increment(at);
        }
        t.quorum_accepted.increment(at);
        t.quorum_accepted.increment(at);
        t.quorum_no_quorum.increment(at);
        assert_eq!(t.quorum_accepted.count() + t.quorum_badput(), t.quorum_offered.count());
    }

    #[test]
    fn all_down_counts_as_badput() {
        let mut t = ServiceTrace::default();
        let at = SimTime::from_secs(2);
        t.offered.increment(at);
        t.all_down.increment(at);
        assert_eq!(t.goodput() + t.badput(), t.offered.count());
    }

    #[test]
    fn default_latency_histogram_is_empty_and_mergeable() {
        let a = ServiceTrace::default();
        let mut h = a.latency.clone();
        h.merge(&ServiceTrace::default().latency);
        assert_eq!(h.total(), 0);
    }
}
