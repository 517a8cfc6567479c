//! Per-node and per-run measurement recording.

use sim::{SimDuration, SimTime};

use crate::counter::{RateCounter, StepCounter};
use crate::series::TimeSeries;
use crate::service::ServiceTrace;
use crate::timeline::StateTimeline;

/// Default grace window around a detection event inside which drift
/// samples count as *detected*: wide enough to cover the monitor interval
/// and a §V correction round-trip, narrow enough that a sustained
/// sub-threshold attack still shows up as undetected drift.
pub const DETECTION_GRACE: SimDuration = SimDuration::from_secs(5);

/// Everything measured about one Triad node during a run — the inputs to
/// every figure in §IV.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeTrace {
    /// Display label ("Node 1", …).
    pub label: String,
    /// Clock drift vs reference time, in milliseconds (Figs. 2a/3a/4/5/6a).
    pub drift_ms: TimeSeries,
    /// State transitions (Fig. 3b timing diagram, availability).
    pub states: StateTimeline,
    /// Time references received from the TA (Fig. 2b).
    pub ta_references: StepCounter,
    /// AEX events experienced (Fig. 6b).
    pub aex_events: StepCounter,
    /// Untaintings served by a peer timestamp (adopted or ε-bumped).
    pub peer_untaints: StepCounter,
    /// Untaintings where the peer timestamp was *adopted* (forward jump).
    pub peer_adoptions: StepCounter,
    /// Calibrated TSC frequency after each full calibration (`F_i^calib`).
    pub calibrations_hz: Vec<(SimTime, f64)>,
    /// Hardened protocol: peer intervals rejected as false-chimers (§V).
    pub chimer_rejections: StepCounter,
    /// Hardened protocol: clock corrections forced by TA cross-checks or
    /// majority agreement (§V).
    pub corrections: StepCounter,
    /// Hardened protocol: proactive in-TCB deadline checks performed (§V).
    pub deadline_checks: StepCounter,
    /// Hardened protocol: received true-chimer announcements that exclude
    /// this node (§V gossip; a high count marks a suspected clock).
    pub gossip_alerts: StepCounter,
    /// Client workload: timestamps successfully served to clients.
    pub client_served: RateCounter,
    /// Client workload: requests answered "unavailable" (tainted or
    /// calibrating).
    pub client_denied: RateCounter,
    /// Fault injection: platform crashes suffered by this node.
    pub crashes: StepCounter,
    /// Hardened protocol: calibration probes retransmitted after a timeout
    /// (retry/backoff pressure under loss or TA outage).
    pub probe_retries: StepCounter,
    /// Hardened protocol: times the TA circuit breaker opened after
    /// repeated unreachability.
    pub breaker_opens: StepCounter,
    /// Degraded-mode client readings: self-assessed uncertainty half-width
    /// (ns) attached to each served `TimeReading`.
    pub reading_uncertainty_ns: TimeSeries,
    /// Serving front-end: batches flushed (each one enclave timestamp
    /// read amortized over every request in the batch).
    pub frontend_batches: RateCounter,
    /// Serving front-end: requests answered (full or degraded).
    pub frontend_served: RateCounter,
    /// Serving front-end: requests shed with an `Overloaded` reply because
    /// the admission queue was full.
    pub frontend_shed: RateCounter,
    /// Serving front-end: quorum attestations answered.
    pub frontend_attests: RateCounter,
    /// Quorum reader: times this node's attestation was flagged as a
    /// `ByzantineSuspect` outlier (disjoint from the agreed interval).
    pub byzantine_suspected: StepCounter,
    /// Quorum reader: times this node was quarantined after repeated
    /// suspect flags.
    pub quarantined: StepCounter,
    /// INC monitor: TSC-manipulation detections (the §IV-A.1 monitor saw
    /// a ticks-per-INC ratio deviate beyond its ppm threshold and forced
    /// a full recalibration).
    pub monitor_detections: StepCounter,
}

impl NodeTrace {
    /// Creates an empty trace with a label.
    pub fn new(label: impl Into<String>) -> Self {
        NodeTrace { label: label.into(), ..Default::default() }
    }

    /// The most recent calibrated frequency, if any calibration completed.
    pub fn latest_calibrated_hz(&self) -> Option<f64> {
        self.calibrations_hz.last().map(|&(_, hz)| hz)
    }

    /// All instants at which *this node's defenses noticed something*:
    /// INC-monitor detections, §V forced corrections, false-chimer
    /// rejections, gossip alerts naming this node, and quorum-reader
    /// Byzantine suspicions/quarantines — merged and sorted.
    ///
    /// Deliberately excluded: probe retries, breaker openings and crashes,
    /// which are robustness responses to *faults*, not evidence that an
    /// adversary was caught.
    pub fn detection_times(&self) -> Vec<SimTime> {
        let mut times: Vec<SimTime> =
            self.detection_counters().iter().flat_map(|c| c.events().iter().copied()).collect();
        times.sort_unstable();
        times
    }

    /// Total detection events (the sum behind [`NodeTrace::detection_times`]).
    pub fn detection_count(&self) -> u64 {
        self.detection_counters().iter().map(|c| c.count()).sum()
    }

    /// The detection-class counters, the one list behind
    /// [`NodeTrace::detection_times`] and [`NodeTrace::detection_count`].
    fn detection_counters(&self) -> [&StepCounter; 6] {
        [
            &self.monitor_detections,
            &self.corrections,
            &self.chimer_rejections,
            &self.gossip_alerts,
            &self.byzantine_suspected,
            &self.quarantined,
        ]
    }

    /// The worst clock error that *escaped detection*: the largest
    /// `|drift|` sample with no detection event within `± grace` of the
    /// sample instant (ms). `0.0` when every sample sits next to a
    /// detection, or when no drift was recorded.
    ///
    /// This is the reducer behind the chaos/quorum "max undetected drift"
    /// columns and the search subsystem's drift fitness: a detected
    /// excursion is the defense working, an undetected one is the damage
    /// an adversary banked.
    pub fn max_undetected_drift_ms(&self, grace: SimDuration) -> f64 {
        let detections = self.detection_times();
        let mut worst = 0.0f64;
        for &(t, drift) in self.drift_ms.points() {
            let lo = if t.as_nanos() >= grace.as_nanos() { t - grace } else { SimTime::ZERO };
            let hi = t + grace;
            let next = detections.partition_point(|&d| d < lo);
            let covered = detections.get(next).is_some_and(|&d| d <= hi);
            if !covered {
                worst = worst.max(drift.abs());
            }
        }
        worst
    }
}

/// A run-level log of injected faults: when each fault fired and a short
/// stable label of what it was. Rendered as the overlay row under state
/// timelines and exported alongside the availability report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    events: Vec<(SimTime, String)>,
}

impl FaultLog {
    /// Records that a fault labelled `label` fired at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous entry (faults are applied in
    /// simulation order).
    pub fn push(&mut self, t: SimTime, label: impl Into<String>) {
        if let Some(&(last, _)) = self.events.last() {
            assert!(t >= last, "fault log entries must be in time order");
        }
        self.events.push((t, label.into()));
    }

    /// All logged faults in time order.
    pub fn events(&self) -> &[(SimTime, String)] {
        &self.events
    }

    /// Number of logged faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no fault fired.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// All traces of one simulation run, indexed by node (0-based; node ids in
/// plots are 1-based like the paper's).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recorder {
    nodes: Vec<NodeTrace>,
    /// Run-level fault-injection overlay (empty in fault-free runs).
    pub faults: FaultLog,
    /// Cluster-level serving-layer SLO accounting (empty when no serving
    /// layer is installed).
    pub service: ServiceTrace,
}

impl Recorder {
    /// Creates a recorder for `n` nodes labelled "Node 1" … "Node n".
    pub fn for_nodes(n: usize) -> Self {
        Recorder {
            nodes: (1..=n).map(|i| NodeTrace::new(format!("Node {i}"))).collect(),
            faults: FaultLog::default(),
            service: ServiceTrace::default(),
        }
    }

    /// Number of nodes tracked.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to one node's trace.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn node(&self, index: usize) -> &NodeTrace {
        &self.nodes[index]
    }

    /// Mutable access to one node's trace.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn node_mut(&mut self, index: usize) -> &mut NodeTrace {
        &mut self.nodes[index]
    }

    /// Iterates over all node traces.
    pub fn iter(&self) -> impl Iterator<Item = &NodeTrace> {
        self.nodes.iter()
    }

    /// The worst `|drift|` (ms) across all nodes with no detection event
    /// within [`DETECTION_GRACE`] of the sample: the E23 search's drift
    /// fitness and the chaos/quorum "max undetected drift" column.
    pub fn max_undetected_drift_ms(&self) -> f64 {
        self.iter().map(|n| n.max_undetected_drift_ms(DETECTION_GRACE)).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::NodeStateTag;

    #[test]
    fn recorder_construction_and_access() {
        let mut r = Recorder::for_nodes(3);
        assert_eq!(r.node_count(), 3);
        assert_eq!(r.node(0).label, "Node 1");
        assert_eq!(r.node(2).label, "Node 3");
        r.node_mut(1).drift_ms.push(SimTime::from_secs(1), 0.5);
        assert_eq!(r.node(1).drift_ms.len(), 1);
        assert_eq!(r.iter().count(), 3);
    }

    #[test]
    fn node_trace_records_everything() {
        let mut t = NodeTrace::new("Node 1");
        t.states.enter(SimTime::ZERO, NodeStateTag::FullCalib);
        t.states.enter(SimTime::from_secs(5), NodeStateTag::Ok);
        t.ta_references.increment(SimTime::from_secs(5));
        t.aex_events.increment(SimTime::from_secs(9));
        t.calibrations_hz.push((SimTime::from_secs(5), 2.9001e9));
        assert_eq!(t.latest_calibrated_hz(), Some(2.9001e9));
        assert_eq!(t.ta_references.count(), 1);
        assert!(t.states.availability(SimTime::ZERO, SimTime::from_secs(10)) > 0.4);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = NodeTrace::new("x");
        assert!(t.latest_calibrated_hz().is_none());
        assert_eq!(t.aex_events.count(), 0);
        assert!(t.drift_ms.is_empty());
        assert_eq!(t.detection_count(), 0);
        assert!(t.detection_times().is_empty());
        assert_eq!(t.max_undetected_drift_ms(DETECTION_GRACE), 0.0);
    }

    #[test]
    fn detection_times_merge_sorted_across_counters() {
        let mut t = NodeTrace::new("x");
        t.corrections.increment(SimTime::from_secs(20));
        t.monitor_detections.increment(SimTime::from_secs(5));
        t.gossip_alerts.increment(SimTime::from_secs(12));
        assert_eq!(t.detection_count(), 3);
        assert_eq!(
            t.detection_times(),
            vec![SimTime::from_secs(5), SimTime::from_secs(12), SimTime::from_secs(20)]
        );
    }

    #[test]
    fn detection_count_and_times_read_the_same_six_counters() {
        let mut t = NodeTrace::new("x");
        let at = SimTime::from_secs(7);
        for c in [
            &mut t.monitor_detections,
            &mut t.corrections,
            &mut t.chimer_rejections,
            &mut t.gossip_alerts,
            &mut t.byzantine_suspected,
            &mut t.quarantined,
        ] {
            c.increment(at);
        }
        assert_eq!(t.detection_count(), 6);
        assert_eq!(t.detection_times().len(), 6);
        // Fault responses are not detections.
        t.breaker_opens.increment(at);
        t.probe_retries.increment(at);
        t.crashes.increment(at);
        assert_eq!(t.detection_count(), 6);
        assert_eq!(t.detection_times().len(), 6);
    }

    #[test]
    fn undetected_drift_skips_samples_near_detections() {
        let mut t = NodeTrace::new("x");
        // A big excursion at t=10 s that the monitor catches at t=11 s,
        // and a smaller one at t=60 s nobody notices.
        t.drift_ms.push(SimTime::from_secs(10), -80.0);
        t.drift_ms.push(SimTime::from_secs(60), 12.5);
        t.monitor_detections.increment(SimTime::from_secs(11));
        let grace = SimDuration::from_secs(5);
        assert_eq!(t.max_undetected_drift_ms(grace), 12.5);
        // With no grace the detection covers nothing but its own instant.
        assert_eq!(t.max_undetected_drift_ms(SimDuration::ZERO), 80.0);
        // A huge grace blankets the whole run.
        assert_eq!(t.max_undetected_drift_ms(SimDuration::from_secs(100)), 0.0);

        // The run-level fitness is the worst node at the default grace.
        let mut r = Recorder::for_nodes(2);
        assert_eq!(r.max_undetected_drift_ms(), 0.0);
        *r.node_mut(1) = t;
        r.node_mut(0).drift_ms.push(SimTime::from_secs(30), -3.0);
        assert_eq!(r.max_undetected_drift_ms(), 12.5);
    }
}
