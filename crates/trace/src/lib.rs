//! # trace — measurement recording and figure regeneration
//!
//! Everything the evaluation (§IV) measures about a run lives here:
//!
//! - [`TimeSeries`]: drift-vs-reference curves (Figs. 2a, 3a, 4, 5, 6a),
//! - [`StateTimeline`] / [`NodeStateTag`]: the FullCalib / RefCalib /
//!   Tainted / OK timing diagram (Fig. 3b) and the availability metric,
//! - [`StepCounter`]: cumulative protocol-event counts that keep every
//!   instant — TA references and AEXs (Figs. 2b, 6b), detections,
//!   crashes, retries,
//! - [`RateCounter`]: per-request serving counts on a one-second grid —
//!   a total, exact counts between whole-second instants and a digest of
//!   the instants, in memory that does not grow with the requests,
//! - [`NodeTrace`] / [`Recorder`]: the per-node bundle a run fills in,
//! - [`ProtoEvent`] and [`Recorder::apply`]: the typed facts machines
//!   emit and the one fold that lands each in its trace field,
//! - [`ServiceTrace`]: serving-layer SLO accounting — end-to-end latency
//!   histogram, goodput/shed/failover grid counters,
//! - [`write_csv`], [`render_markdown`], [`write_text`]: the three
//!   functions through which every experiment byte reaches disk,
//! - rendering: ASCII charts/Gantt diagrams and aligned tables for the
//!   terminal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod event;
mod recorder;
mod render;
mod series;
mod service;
mod sink;
mod timeline;

pub use counter::{RateCounter, StepCounter};
pub use event::{DropReason, ProtoEvent};
pub use recorder::{FaultLog, NodeTrace, Recorder, DETECTION_GRACE};
pub use render::{
    ascii_chart, ascii_fault_overlay, ascii_gantt, availability_report, render_table,
};
pub use series::TimeSeries;
pub use service::ServiceTrace;
pub use sink::{render_markdown, write_csv, write_text};
pub use timeline::{NodeStateTag, Segment, StateTimeline};
