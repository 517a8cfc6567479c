//! `aa`: the benchmark measured against itself.
//!
//! Runs every workload `runs` times, twice over, each run in a child
//! process with its own seed — what the acceptance check does with two
//! sets of runs of the same code — and prints, per workload and metric,
//! each set's median and quartiles, the spread (interquartile distance ÷
//! median) and how much worse the second set's median is than the first,
//! against the metric's bound. A bound under three times the larger of the
//! two is marked `WIDEN`.

use std::process::ExitCode;

use crate::envelope::quartiles;
use crate::json::{count_field, metric_value};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::{spawn_pass, WORKLOADS};

/// One set's view of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetStats {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl SetStats {
    /// Quartiles of `values` (at least two).
    pub fn of(values: &[f64]) -> Self {
        let [q1, median, q3] = quartiles(values);
        SetStats { q1, median, q3 }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// How much worse `second`'s median is than `first`'s, as a share of
/// `first`'s; negative when it is better.
pub fn worsening(metric: &EndToEnd, first: &SetStats, second: &SetStats) -> f64 {
    let change = (second.median - first.median) / first.median;
    if metric.higher_is_better {
        -change
    } else {
        change
    }
}

/// Runs one untraced pass in a child process and returns its result line.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let out = spawn_pass(workload, seed, seconds, false)
        .output()
        .map_err(|e| format!("cannot start the {workload} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || count_field(&line, "failed") != Some(0) {
        return Err(format!(
            "{workload} seed {seed} failed ({}): {line}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(line)
}

/// The `aa` subcommand.
pub fn run(runs: usize, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    println!(
        "A/A: {} workloads x {runs} runs x 2 sets, {seconds} s each, seeds from {seed}",
        WORKLOADS.len()
    );
    // values[set][workload][metric] = one value per run.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    for (set, per_workload) in values.iter_mut().enumerate() {
        for (workload, per_metric) in WORKLOADS.iter().zip(per_workload.iter_mut()) {
            for r in 0..runs {
                let run_seed = seed + (set * runs + r) as u64;
                let line = one_run(workload, run_seed, seconds)?;
                let mut progress = format!("set {} {workload} seed {run_seed}:", ["A", "B"][set]);
                for (m, column) in END_TO_END.iter().zip(per_metric.iter_mut()) {
                    let value = metric_value(&line, m.name)
                        .ok_or_else(|| format!("{workload}: no {} in {line}", m.name))?;
                    progress.push_str(&format!(" {}={value:.6}", m.name));
                    column.push(value);
                }
                eprintln!("{progress}");
            }
        }
    }

    println!(
        "| workload | metric | unit | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B worse by | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let a = SetStats::of(&values[0][w][m]);
            let b = SetStats::of(&values[1][w][m]);
            let gap = worsening(metric, &a, &b);
            // setup_s is judged on the gap only; every other metric on
            // its spread too.
            let spread = if metric.name == "setup_s" { 0.0 } else { a.spread().max(b.spread()) };
            let verdict = if spread > metric.bound || gap > metric.bound {
                all_within = false;
                "EXCEEDED"
            } else if 3.0 * spread.max(gap) > metric.bound {
                "WIDEN"
            } else {
                "ok"
            };
            println!(
                "| {workload} | {} | {} | {:.4} [{:.4}, {:.4}] | {:.2}% | {:.4} [{:.4}, {:.4}] | {:.2}% | {:+.2}% | {:.0}% | {verdict} |",
                metric.name,
                metric.unit,
                a.median,
                a.q1,
                a.q3,
                a.spread() * 100.0,
                b.median,
                b.q1,
                b.q3,
                b.spread() * 100.0,
                gap * 100.0,
                metric.bound * 100.0,
            );
        }
    }
    Ok(if all_within { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_and_worsening_follow_the_metric_direction() {
        let a = SetStats::of(&[10.0, 9.0, 11.0, 10.0, 10.0]);
        assert_eq!(a.median, 10.0);
        assert!((a.spread() - 0.1).abs() < 1e-12, "q1 9.5, q3 10.5: {}", a.spread());
        let slower = SetStats { q1: 8.0, median: 9.0, q3: 10.0 };
        let rate = END_TO_END.iter().find(|m| m.name == "ops_per_s").unwrap();
        let latency = END_TO_END.iter().find(|m| m.name == "rtt_p50_us").unwrap();
        assert!((worsening(rate, &a, &slower) - 0.1).abs() < 1e-12, "a lower rate is worse");
        assert!((worsening(latency, &a, &slower) + 0.1).abs() < 1e-12, "a lower latency is better");
    }
}
