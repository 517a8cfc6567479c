//! Shared experiment plumbing: options, output locations, the [`Table`]
//! every CSV and report table is declared as, and the paper-vs-measured
//! comparison rows that feed EXPERIMENTS.md.

use std::borrow::Borrow;
use std::path::{Path, PathBuf};

/// How to run an experiment.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Base RNG seed (every figure derives sub-seeds from it).
    pub seed: u64,
    /// Shorten long scenarios (CI-friendly); full durations reproduce the
    /// paper's horizons (30 min for Fig. 2, 8 h for Fig. 3).
    pub quick: bool,
    /// CI smoke mode: implies `quick` and additionally shrinks grid
    /// experiments (the chaos suite runs a mini-grid) — a liveness check,
    /// not a reproduction.
    pub smoke: bool,
    /// Worker threads for grid experiments (`0` = one per core). Results
    /// are bit-identical for any value; this is a wall-clock knob only.
    pub jobs: usize,
    /// Override for E23's per-cell search budget (scenario evaluations);
    /// `None` uses the mode's default.
    pub budget: Option<usize>,
    /// Where CSVs and rendered text go.
    pub out_dir: PathBuf,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            seed: 0xD51A_2025,
            quick: false,
            smoke: false,
            jobs: 0,
            budget: None,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl RunOpts {
    /// A quick-mode configuration writing to `out_dir`.
    #[cfg(test)]
    pub(crate) fn quick(out_dir: impl Into<PathBuf>) -> Self {
        RunOpts { quick: true, out_dir: out_dir.into(), ..Default::default() }
    }

    /// A smoke-mode configuration writing to `out_dir`.
    // tt-lint: allow(test-only-pub) — the root `*_determinism` tests build their smoke runs with it
    pub fn smoke(out_dir: impl Into<PathBuf>) -> Self {
        RunOpts { quick: true, smoke: true, out_dir: out_dir.into(), ..Default::default() }
    }

    /// The cell runner configured with this run's `--jobs`.
    pub fn runner(&self) -> scenario::Runner {
        scenario::Runner::new(self.jobs)
    }

    /// Output sub-directory for one experiment.
    pub fn dir_for(&self, experiment: &str) -> PathBuf {
        self.out_dir.join(experiment)
    }
}

/// One paper-vs-measured row.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Experiment id ("fig2", "inc-table", …).
    pub experiment: &'static str,
    /// What is being compared.
    pub metric: String,
    /// The paper's reported value (verbatim where possible).
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Whether the *shape* criterion holds (sign/factor/crossover).
    pub matches: bool,
}

impl Comparison {
    /// Builds a row.
    pub fn new(
        experiment: &'static str,
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        matches: bool,
    ) -> Self {
        Comparison {
            experiment,
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
            matches,
        }
    }
}

/// One column of a [`Table`]: its header and the function that formats a
/// row's cell under it.
type Column<R> = (&'static str, fn(&R) -> String);

/// One tabular artifact, declared once as its column list, so a header
/// without a cell (or the reverse) cannot be written. The same list
/// drives the CSV file and the aligned report table.
pub(crate) struct Table<R: 'static>(pub &'static [Column<R>]);

impl<R> Table<R> {
    /// The column headers, in order.
    pub fn headers(&self) -> Vec<&'static str> {
        self.0.iter().map(|&(header, _)| header).collect()
    }

    fn cells(&self, row: &R) -> Vec<String> {
        self.0.iter().map(|(_, cell)| cell(row)).collect()
    }

    /// Writes `rows` as the CSV file `dir/name`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(
        &self,
        dir: &Path,
        name: &str,
        rows: impl IntoIterator<Item = impl Borrow<R>>,
    ) -> std::io::Result<()> {
        let rows = rows.into_iter().map(|r| self.cells(r.borrow()));
        trace::write_csv(&dir.join(name), &self.headers(), rows)
    }

    /// Renders `rows` as an aligned plain-text table.
    pub fn render(&self, rows: impl IntoIterator<Item = impl Borrow<R>>) -> String {
        let rows: Vec<Vec<String>> = rows.into_iter().map(|r| self.cells(r.borrow())).collect();
        trace::render_table(&self.headers(), &rows)
    }
}

const COMPARISON_HEADERS: [&str; 5] = ["experiment", "metric", "paper", "measured", "match"];

fn comparison_rows(rows: &[Comparison], yes: &str, no: &str) -> Vec<Vec<String>> {
    rows.iter()
        .map(|c| {
            vec![
                c.experiment.to_string(),
                c.metric.clone(),
                c.paper.clone(),
                c.measured.clone(),
                if c.matches { yes } else { no }.to_string(),
            ]
        })
        .collect()
}

/// Renders comparison rows as an aligned table.
pub fn comparison_table(rows: &[Comparison]) -> String {
    trace::render_table(&COMPARISON_HEADERS, &comparison_rows(rows, "yes", "NO"))
}

/// Renders comparison rows as a Markdown table (for EXPERIMENTS.md).
pub fn comparison_markdown(rows: &[Comparison]) -> String {
    trace::render_markdown(&COMPARISON_HEADERS, &comparison_rows(rows, "✔", "✘"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_paths() {
        let o = RunOpts::quick("/tmp/x");
        assert!(o.quick);
        assert!(!o.smoke);
        assert_eq!(o.dir_for("fig2"), PathBuf::from("/tmp/x/fig2"));
        let s = RunOpts::smoke("/tmp/y");
        assert!(s.quick && s.smoke);
        assert!(s.runner().jobs() >= 1);
    }

    #[test]
    fn one_column_list_drives_csv_and_text() {
        const T: Table<(u32, &str)> =
            Table(&[("id", |(id, _)| id.to_string()), ("name", |(_, name)| name.to_string())]);
        assert_eq!(T.headers(), ["id", "name"]);
        let rows = [(1, "plain"), (2, "a,b")];

        let dir = std::env::temp_dir().join("triad_output_table_test");
        T.write_csv(&dir, "t.csv", rows).unwrap();
        let csv = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(csv, "id,name\n1,plain\n2,\"a,b\"\n");

        // Borrowed rows render too; both renderings have the header's arity.
        let text = T.render(rows.iter());
        assert_eq!(text, "| id | name  |\n|----|-------|\n| 1  | plain |\n| 2  | a,b   |\n");
        assert_eq!(csv.lines().count(), text.lines().count() - 1);
    }

    /// Every `const` table that backs a committed CSV must still carry
    /// that file's header line: a renamed or reordered column fails here,
    /// not only in the refactor-oracle CI lane.
    #[test]
    fn committed_csv_headers_match_their_tables() {
        macro_rules! golden {
            ($($table:expr => $($file:literal),+;)+) => {$($(
                let csv = include_str!(concat!("../../../results/", $file));
                assert_eq!(Some($table.headers().join(",").as_str()), csv.lines().next(), $file);
            )+)+};
        }
        use crate::{
            baseline, chaos, common, fig1, fig3, inc_table, quorum, resilience, search, serve,
            sweeps, tsc_detect,
        };
        golden! {
            fig1::CDF => "fig1/fig1a_triad_like.csv", "fig1/fig1b_isolated.csv";
            inc_table::CSV => "inc-table/inc_counts.csv";
            common::DRIFT => "fig2/fig2a_drift.csv", "fig3/fig3a_drift.csv",
                "fig4/fig4_drift.csv", "fig5/fig5_drift.csv", "fig6/fig6a_drift.csv";
            common::COUNTER => "fig2/fig2b_ta_references.csv", "fig6/fig6b_aex_counts.csv";
            fig3::STATES => "fig3/fig3b_states.csv";
            resilience::CSV => "resilience/resilience_grid.csv";
            tsc_detect::CSV => "tsc-detect/tsc_detection.csv";
            sweeps::DELAY_CSV => "sweeps/e14_delay_sweep.csv";
            sweeps::SIZE_CSV => "sweeps/e15_size_sweep.csv";
            sweeps::AEX_RATE_CSV => "sweeps/e16_aex_rate_sweep.csv";
            sweeps::NETWORK_CSV => "sweeps/e17_network_sweep.csv";
            sweeps::TA_LOAD_CSV => "sweeps/e18_ta_load.csv";
            baseline::CSV => "baseline/e19_baseline.csv";
            chaos::GRID => "chaos/chaos_grid.csv";
            chaos::LINKS => "chaos/chaos_links.csv";
            serve::GRID => "serve/serve_grid.csv";
            serve::NODES => "serve/serve_nodes.csv";
            quorum::GRID => "quorum/quorum_grid.csv";
            quorum::NODES => "quorum/quorum_nodes.csv";
            search::GRID => "search/search_grid.csv";
            search::BASELINES => "search/search_baselines.csv";
        }
    }

    #[test]
    fn tables_render() {
        let rows = vec![
            Comparison::new("fig4", "drift rate", "-91 ms/s", "-90.9 ms/s", true),
            Comparison::new("fig4", "F3_calib", "3191 MHz", "3190 MHz", true),
        ];
        let t = comparison_table(&rows);
        assert!(t.contains("drift rate"));
        let md = comparison_markdown(&rows);
        assert!(md.contains("| fig4 | drift rate | -91 ms/s | -90.9 ms/s | ✔ |"));
    }
}
