//! E2 — §IV-A.1: the INC-counter measurement campaign.
//!
//! 10 000 measurements of INC instructions counted until the TSC advanced
//! 15×10⁶ ticks (≈5 ms at 2899.999 MHz), monitoring core pinned at
//! 3500 MHz. Paper: mean 632 181 INC, σ 109.5; after removing two outliers
//! (621 448 and 630 012): mean 632 182, σ 2.9, range 10.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::Summary;
use tsc::{reject_outliers, IncExperiment};

use crate::output::{Comparison, RunOpts, Table};

/// Results of the INC campaign.
#[derive(Debug, Clone)]
pub struct IncTableResult {
    /// Statistics over all measurements.
    pub full: Summary,
    /// Statistics after outlier rejection.
    pub cleaned: Summary,
    /// How many samples outlier rejection removed.
    pub removed: usize,
    /// Whether the rejected indices are exactly the injected outliers.
    pub rejection_exact: bool,
}

/// `inc_counts.csv`: `(run index, INC count)`.
pub(crate) const CSV: Table<(usize, u64)> =
    Table(&[("run", |(i, _)| i.to_string()), ("inc_count", |(_, c)| c.to_string())]);

/// Runs the campaign and writes the sample CSV.
pub fn run(opts: &RunOpts) -> IncTableResult {
    let n = if opts.quick { 1_000 } else { 10_000 };
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x11C);
    let experiment = IncExperiment::default();
    let samples = experiment.run(n, &mut rng);

    let full: Summary = samples.counts.iter().map(|&c| c as f64).collect();
    let (kept, removed_idx) = reject_outliers(&samples.counts, 100);
    let cleaned: Summary = kept.iter().map(|&c| c as f64).collect();

    let dir = opts.dir_for("inc-table");
    CSV.write_csv(&dir, "inc_counts.csv", samples.counts.iter().copied().enumerate())
        .expect("write inc csv");

    IncTableResult {
        full,
        cleaned,
        removed: removed_idx.len(),
        rejection_exact: removed_idx == samples.outlier_indices,
    }
}

impl IncTableResult {
    /// Paper-vs-measured rows.
    pub fn comparisons(&self) -> Vec<Comparison> {
        vec![
            Comparison::new(
                "inc-table",
                "mean INC (all runs)",
                "632 181",
                format!("{:.0}", self.full.mean()),
                (self.full.mean() - 632_181.0).abs() < 20.0,
            ),
            Comparison::new(
                "inc-table",
                "stddev INC (all runs)",
                "109.5",
                format!("{:.1}", self.full.sample_std_dev()),
                // Dominated by the warm-up outlier; same order of magnitude.
                self.full.sample_std_dev() > 20.0 && self.full.sample_std_dev() < 400.0,
            ),
            Comparison::new(
                "inc-table",
                "outliers removed",
                "2",
                self.removed.to_string(),
                self.removed == 2 && self.rejection_exact,
            ),
            Comparison::new(
                "inc-table",
                "mean INC (cleaned)",
                "632 182",
                format!("{:.0}", self.cleaned.mean()),
                (self.cleaned.mean() - 632_182.0).abs() < 20.0,
            ),
            Comparison::new(
                "inc-table",
                "stddev INC (cleaned)",
                "2.9",
                format!("{:.1}", self.cleaned.sample_std_dev()),
                (self.cleaned.sample_std_dev() - 2.9).abs() < 0.5,
            ),
            Comparison::new(
                "inc-table",
                "range INC (cleaned)",
                "10",
                format!("{:.0}", self.cleaned.range()),
                self.cleaned.range() <= 10.5,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "§IV-A.1 — INC counter over 15e6-tick TSC windows\n\
             all runs:  n={} mean={:.1} sd={:.1} range={:.0}\n\
             cleaned:   n={} mean={:.1} sd={:.2} range={:.0} (removed {} outliers{})\n",
            self.full.count(),
            self.full.mean(),
            self.full.sample_std_dev(),
            self.full.range(),
            self.cleaned.count(),
            self.cleaned.mean(),
            self.cleaned.sample_std_dev(),
            self.cleaned.range(),
            self.removed,
            if self.rejection_exact { ", exactly the injected ones" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc_table_matches_paper() {
        let opts = RunOpts {
            quick: false,
            out_dir: std::env::temp_dir().join("triad_inc_test"),
            ..Default::default()
        };
        let r = run(&opts);
        for c in r.comparisons() {
            assert!(c.matches, "{c:?}");
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
