//! Helpers shared by the figure experiments.

use std::path::Path;

use runtime::World;
use sim::SimTime;
use trace::{StepCounter, TimeSeries};

use crate::output::Table;

/// The drift CSVs of Figs. 2a/3a/4/5/6a: `(0-based node, time, drift ms)`.
pub(crate) const DRIFT: Table<(usize, SimTime, f64)> = Table(&[
    ("node", |(i, _, _)| format!("{}", i + 1)),
    ("ref_time_s", |(_, t, _)| format!("{:.3}", t.as_secs_f64())),
    ("drift_ms", |(_, _, d)| format!("{d:.4}")),
]);

/// The step-curve CSVs of Figs. 2b/6b: `(0-based node, time, count)`.
pub(crate) const COUNTER: Table<(usize, SimTime, u64)> = Table(&[
    ("node", |(i, _, _)| format!("{}", i + 1)),
    ("ref_time_s", |(_, t, _)| format!("{:.3}", t.as_secs_f64())),
    ("count", |(_, _, c)| c.to_string()),
]);

/// Writes all nodes' drift series in long format
/// (`node,ref_time_s,drift_ms`).
pub(crate) fn write_drift_csv(dir: &Path, name: &str, world: &World) {
    let rows = (0..world.recorder.node_count()).flat_map(|i| {
        world.recorder.node(i).drift_ms.points().iter().map(move |&(t, d)| (i, t, d))
    });
    DRIFT.write_csv(dir, name, rows).expect("write drift csv");
}

/// Writes a cumulative counter's step curve (`node,ref_time_s,count`).
pub(crate) fn write_counter_csv<'a>(
    dir: &Path,
    name: &str,
    world: &'a World,
    select: impl Fn(usize) -> &'a StepCounter,
) {
    let rows = (0..world.recorder.node_count())
        .flat_map(|i| select(i).curve().into_iter().map(move |(t, c)| (i, t, c)));
    COUNTER.write_csv(dir, name, rows).expect("write counter csv");
}

/// Renders all nodes' drift curves as one ASCII chart.
pub(crate) fn drift_chart(world: &World, width: usize, height: usize) -> String {
    let labels: Vec<String> =
        (0..world.recorder.node_count()).map(|i| world.recorder.node(i).label.clone()).collect();
    let series: Vec<(&str, &TimeSeries)> = (0..world.recorder.node_count())
        .map(|i| (labels[i].as_str(), &world.recorder.node(i).drift_ms))
        .collect();
    trace::ascii_chart(&series, width, height)
}

/// Formats a frequency in MHz with three decimals, paper-style.
pub(crate) fn mhz(hz: f64) -> String {
    format!("{:.3} MHz", hz / 1e6)
}
