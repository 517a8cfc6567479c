//! Node-state timelines (the Figure 3b timing diagram).

use sim::{SimDuration, SimTime};

/// The observable states of a Triad node, exactly as plotted in the paper's
/// Figure 3b timing diagram.
///
/// A node serves client timestamps only in [`NodeStateTag::Ok`]
/// (availability, §IV-A.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeStateTag {
    /// Calibrating both clock speed and time reference with the TA.
    FullCalib,
    /// Refreshing only the time reference with the TA.
    RefCalib,
    /// Timestamp tainted by an AEX; seeking a peer refresh.
    Tainted,
    /// Serving trusted timestamps.
    Ok,
    /// The node's platform is down (fault injection); all enclave state is
    /// lost and no events are processed until restart.
    Crashed,
}

impl NodeStateTag {
    /// All states, in diagram order.
    pub const ALL: [NodeStateTag; 5] = [
        NodeStateTag::FullCalib,
        NodeStateTag::RefCalib,
        NodeStateTag::Tainted,
        NodeStateTag::Ok,
        NodeStateTag::Crashed,
    ];

    /// Short label used in plots and CSVs.
    pub fn label(self) -> &'static str {
        match self {
            NodeStateTag::FullCalib => "FullCalib",
            NodeStateTag::RefCalib => "RefCalib",
            NodeStateTag::Tainted => "Tainted",
            NodeStateTag::Ok => "OK",
            NodeStateTag::Crashed => "Crashed",
        }
    }
}

impl std::fmt::Display for NodeStateTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A contiguous stay in one state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// State held during the segment.
    pub state: NodeStateTag,
    /// Segment start.
    pub from: SimTime,
    /// Segment end (exclusive; equals the next segment's start).
    pub to: SimTime,
}

impl Segment {
    /// Length of the segment.
    pub fn duration(&self) -> SimDuration {
        self.to - self.from
    }
}

/// Records a node's state transitions over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateTimeline {
    transitions: Vec<(SimTime, NodeStateTag)>,
}

impl StateTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        StateTimeline { transitions: Vec::new() }
    }

    /// Records that the node entered `state` at `t`. Re-entering the
    /// current state is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last transition.
    pub fn enter(&mut self, t: SimTime, state: NodeStateTag) {
        if let Some(&(last_t, last_s)) = self.transitions.last() {
            assert!(t >= last_t, "timeline transitions must be in time order");
            if last_s == state {
                return;
            }
        }
        self.transitions.push((t, state));
    }

    /// The state at instant `t`, if the timeline has started by then.
    pub fn state_at(&self, t: SimTime) -> Option<NodeStateTag> {
        // "Now" is the common question (every front-end admit and flush
        // asks it) and is never before the last transition.
        let &(last_t, last_state) = self.transitions.last()?;
        if t >= last_t {
            return Some(last_state);
        }
        let idx = self.transitions.partition_point(|&(tt, _)| tt <= t);
        idx.checked_sub(1).map(|i| self.transitions[i].1)
    }

    /// Raw transitions in time order.
    // tt-lint: allow(test-only-pub) — the trace, T3E and live-driver tests compare state sequences through it
    pub fn transitions(&self) -> &[(SimTime, NodeStateTag)] {
        &self.transitions
    }

    /// Segments covering `[from, to]`, clipped to that window.
    pub fn segments(&self, from: SimTime, to: SimTime) -> Vec<Segment> {
        let mut out = Vec::new();
        if self.transitions.is_empty() || from >= to {
            return out;
        }
        for (i, &(t, s)) in self.transitions.iter().enumerate() {
            let seg_end = self.transitions.get(i + 1).map(|&(t2, _)| t2).unwrap_or(to.max(t));
            let clip_from = t.max(from);
            let clip_to = seg_end.min(to);
            if clip_from < clip_to {
                out.push(Segment { state: s, from: clip_from, to: clip_to });
            }
        }
        out
    }

    /// Total time spent in `state` within `[from, to]`.
    pub fn time_in(&self, state: NodeStateTag, from: SimTime, to: SimTime) -> SimDuration {
        self.segments(from, to).iter().filter(|seg| seg.state == state).map(Segment::duration).sum()
    }

    /// Fraction of `[from, to]` spent available (state `Ok`) — the paper's
    /// availability metric (§IV-A.2: ≥98% over 30 min, 99.9% over 8 h).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn availability(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from < to, "availability window must be non-empty");
        let ok = self.time_in(NodeStateTag::Ok, from, to);
        ok / (to - from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn state_tags() {
        assert_eq!(NodeStateTag::FullCalib.to_string(), "FullCalib");
        assert_eq!(NodeStateTag::Crashed.to_string(), "Crashed");
        assert_eq!(NodeStateTag::ALL.len(), 5);
    }

    #[test]
    fn enter_and_query() {
        let mut tl = StateTimeline::new();
        tl.enter(t(0), NodeStateTag::FullCalib);
        tl.enter(t(10), NodeStateTag::Ok);
        tl.enter(t(20), NodeStateTag::Tainted);
        tl.enter(t(21), NodeStateTag::Ok);
        assert_eq!(tl.state_at(t(0)), Some(NodeStateTag::FullCalib));
        assert_eq!(tl.state_at(t(15)), Some(NodeStateTag::Ok));
        assert_eq!(tl.state_at(t(20)), Some(NodeStateTag::Tainted));
        assert_eq!(tl.state_at(t(100)), Some(NodeStateTag::Ok));
        assert_eq!(StateTimeline::new().state_at(t(0)), None);
    }

    #[test]
    fn past_instant_queries_see_the_state_held_then() {
        // Everything before the last transition takes the search path,
        // including two transitions sharing one instant (the later wins).
        let mut tl = StateTimeline::new();
        tl.enter(t(5), NodeStateTag::FullCalib);
        tl.enter(t(10), NodeStateTag::Ok);
        tl.enter(t(10), NodeStateTag::Tainted);
        tl.enter(t(30), NodeStateTag::Ok);
        assert_eq!(tl.state_at(t(4)), None);
        assert_eq!(tl.state_at(t(5)), Some(NodeStateTag::FullCalib));
        assert_eq!(tl.state_at(t(9)), Some(NodeStateTag::FullCalib));
        assert_eq!(tl.state_at(t(10)), Some(NodeStateTag::Tainted));
        assert_eq!(tl.state_at(t(29)), Some(NodeStateTag::Tainted));
        assert_eq!(tl.state_at(t(30)), Some(NodeStateTag::Ok));
        assert_eq!(tl.state_at(t(31)), Some(NodeStateTag::Ok));
    }

    #[test]
    fn duplicate_entry_is_coalesced() {
        let mut tl = StateTimeline::new();
        tl.enter(t(0), NodeStateTag::Ok);
        tl.enter(t(5), NodeStateTag::Ok);
        assert_eq!(tl.transitions().len(), 1);
    }

    #[test]
    fn segments_clip_to_window() {
        let mut tl = StateTimeline::new();
        tl.enter(t(0), NodeStateTag::FullCalib);
        tl.enter(t(10), NodeStateTag::Ok);
        tl.enter(t(30), NodeStateTag::Tainted);
        tl.enter(t(31), NodeStateTag::Ok);
        let segs = tl.segments(t(5), t(40));
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].state, NodeStateTag::FullCalib);
        assert_eq!(segs[0].from, t(5));
        assert_eq!(segs[0].to, t(10));
        assert_eq!(segs[3].to, t(40));
    }

    #[test]
    fn availability_accounts_for_calibration_and_taint() {
        let mut tl = StateTimeline::new();
        tl.enter(t(0), NodeStateTag::FullCalib);
        tl.enter(t(10), NodeStateTag::Ok); // 10s unavailable
        tl.enter(t(60), NodeStateTag::Tainted);
        tl.enter(t(70), NodeStateTag::Ok); // 10s unavailable
        let a = tl.availability(t(0), t(100));
        assert!((a - 0.8).abs() < 1e-12, "availability {a}");
        assert_eq!(tl.time_in(NodeStateTag::Tainted, t(0), t(100)), SimDuration::from_secs(10));
    }

    #[test]
    fn last_segment_extends_to_window_end() {
        let mut tl = StateTimeline::new();
        tl.enter(t(0), NodeStateTag::Ok);
        assert!((tl.availability(t(0), t(1000)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_availability_window_panics() {
        let mut tl = StateTimeline::new();
        tl.enter(t(0), NodeStateTag::Ok);
        tl.availability(t(5), t(5));
    }
}
