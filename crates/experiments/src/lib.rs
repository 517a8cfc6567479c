//! # experiments — regenerating the paper's evaluation
//!
//! One module per table/figure of §IV plus the extension experiments;
//! each exposes `run(&RunOpts) -> …Result` with `render()` (human text),
//! CSV side-outputs, and `comparisons()` — the paper-vs-measured rows
//! aggregated into EXPERIMENTS.md.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig1`] | Fig. 1a/1b — inter-AEX delay CDFs |
//! | [`inc_table`] | §IV-A.1 — INC-counter statistics |
//! | [`fig2`] | Fig. 2a/2b — fault-free drift & TA references (Triad-like AEX) |
//! | [`fig3`] | Fig. 3a/3b — fault-free drift & state diagram (low AEX) |
//! | [`fig4`] | Fig. 4 — F+ attack, low-AEX victim |
//! | [`fig5`] | Fig. 5 — F+ attack, Triad-like AEXs everywhere |
//! | [`fig6`] | Fig. 6a/6b — F– attack and its propagation |
//! | [`resilience`] | E12 — §V hardened protocol + ablations |
//! | [`tsc_detect`] | E13 — INC monitor vs TSC manipulation |
//! | [`sweeps`] | E14–E18 — delay / size / AEX-rate / network / TA-load sweeps |
//! | [`baseline`] | E19 — Triad vs a T3E-style TPM baseline |
//! | [`chaos`] | E20 — fault-injection chaos suite (availability under faults) |
//! | [`serve`] | E21 — trusted-timestamp serving under load and faults |
//! | [`quorum`] | E22 — quorum-attested reads vs lying nodes (Byzantine detection) |
//! | [`search`] | E23 — adversarial scenario search (seeded mutation + shrinking) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod chaos;
mod common;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
mod grid;
pub mod inc_table;
mod output;
pub mod quorum;
pub mod resilience;
pub mod search;
pub mod serve;
pub mod sweeps;
pub mod tsc_detect;

pub use output::{comparison_markdown, comparison_table, Comparison, RunOpts};

/// Runs one experiment to its rendered report and comparison rows.
type RunFn = fn(&RunOpts) -> (String, Vec<Comparison>);

macro_rules! experiment {
    ($id:literal, $module:ident) => {
        ($id, |opts: &RunOpts| {
            let r = $module::run(opts);
            (r.render(), r.comparisons())
        })
    };
}

/// The experiment registry: id and runner, in report order.
const EXPERIMENTS: &[(&str, RunFn)] = &[
    experiment!("fig1", fig1),
    experiment!("inc-table", inc_table),
    experiment!("fig2", fig2),
    experiment!("fig3", fig3),
    experiment!("fig4", fig4),
    experiment!("fig5", fig5),
    experiment!("fig6", fig6),
    experiment!("resilience", resilience),
    experiment!("tsc-detect", tsc_detect),
    experiment!("sweeps", sweeps),
    experiment!("baseline", baseline),
    experiment!("chaos", chaos),
    experiment!("serve", serve),
    experiment!("quorum", quorum),
    experiment!("search", search),
];

/// Every experiment id accepted by the runner.
pub const ALL_EXPERIMENTS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

/// Runs one experiment by id, returning its rendered report and
/// comparison rows.
///
/// # Panics
///
/// Panics on an unknown id (the CLI validates beforehand).
pub fn run_by_id(id: &str, opts: &RunOpts) -> (String, Vec<Comparison>) {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == id)
        .unwrap_or_else(|| panic!("unknown experiment id {id:?} (known: {ALL_EXPERIMENTS:?})"));
    run(opts)
}

/// Runs all experiments in parallel (one thread each) and returns their
/// reports in `ALL_EXPERIMENTS` order.
pub fn run_all(opts: &RunOpts) -> Vec<(String, String, Vec<Comparison>)> {
    let mut results: Vec<Option<(String, String, Vec<Comparison>)>> =
        (0..ALL_EXPERIMENTS.len()).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for &id in &ALL_EXPERIMENTS {
            let opts = opts.clone();
            handles.push(scope.spawn(move |_| {
                let (report, comparisons) = run_by_id(id, &opts);
                (id.to_string(), report, comparisons)
            }));
        }
        for (slot, handle) in results.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("experiment thread panicked"));
        }
    })
    .expect("crossbeam scope");
    results.into_iter().map(|r| r.expect("all slots filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        run_by_id("fig99", &RunOpts::quick("/tmp/x"));
    }

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids = ALL_EXPERIMENTS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_EXPERIMENTS.len());
    }
}
