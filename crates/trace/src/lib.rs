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
//! - [`NodeTrace`] / [`Recorder`]: the per-node bundle a simulation run
//!   fills in,
//! - [`ServiceTrace`]: serving-layer SLO accounting — end-to-end latency
//!   histogram, goodput/shed/failover grid counters,
//! - [`RunSink`] and its implementations ([`CsvSink`], [`MarkdownSink`],
//!   [`TableSink`]): the one row-streaming interface behind every tabular
//!   artifact,
//! - rendering: ASCII charts/Gantt diagrams for the terminal and CSV export
//!   for external plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod recorder;
mod render;
mod series;
mod service;
mod sink;
mod timeline;

pub use counter::{RateCounter, StepCounter};
pub use recorder::{FaultLog, NodeTrace, Recorder, DETECTION_GRACE};
pub use render::{
    ascii_chart, ascii_fault_overlay, ascii_gantt, availability_report, render_table,
};
pub use series::TimeSeries;
pub use service::ServiceTrace;
pub use sink::{stream_rows, write_csv, CsvSink, MarkdownSink, RunSink, TableSink};
pub use timeline::{NodeStateTag, Segment, StateTimeline};
