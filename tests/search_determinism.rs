//! E23 parallelism determinism: the adversarial search's artifacts —
//! grid CSV, baseline CSV, generation log and every reproducer in the
//! corpus — must be byte-identical whether the engine runs on one
//! worker thread or eight.
//!
//! This is the workspace-level acceptance check for the search
//! subsystem: candidate genomes derive from the master seed alone and
//! evaluation merges in plan order, so the thread count must be
//! unobservable in everything the search writes.
//!
//! The property is about the merge, not about what the search finds, so
//! this runs E23's own code over a cheaper grid than any CLI mode: both
//! cluster shapes and both budgets of the full grid, but a 24 s horizon
//! and no serving layer (25× of an evaluation's cost in a debug build).
//! Every `--jobs`-dependent path still runs — parallel baseline scoring,
//! parallel generations, the in-run cross-check at the other job count —
//! and the test fails when `scenario::Runner` merges in completion order
//! instead of plan order. It has to stay well under 30 s unoptimised;
//! the full-budget check with the serving layer up is the CI
//! `search-smoke` lane.

use std::fs;
use std::path::{Path, PathBuf};

use triad_tt::experiments::{search, RunOpts};
use triad_tt::search::GenomeSpace;

/// All files under `dir`, relative paths, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(dir).expect("under root").to_path_buf());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn search_smoke_artifacts_are_identical_across_jobs() {
    let base = std::env::temp_dir().join("triad_search_determinism");
    fs::remove_dir_all(&base).ok();
    let shapes = [3, 5].map(|n| GenomeSpace { n, horizon_s: 24, service: false });
    let run = |jobs: usize| {
        let mut opts = RunOpts::smoke(base.join(format!("jobs{jobs}")));
        opts.jobs = jobs;
        let result = search::run_grid(&opts, &shapes, &[8, 16]);
        (opts.out_dir, result.render(), result.comparisons())
    };
    let (dir1, report1, rows1) = run(1);
    let (dir8, report8, rows8) = run(8);

    assert_eq!(report1, report8, "rendered report depends on --jobs");
    assert_eq!(rows1.len(), rows8.len());
    for (a, b) in rows1.iter().zip(&rows8) {
        assert_eq!(a.measured, b.measured, "comparison row depends on --jobs: {}", a.metric);
        assert_eq!(a.matches, b.matches);
    }

    let files = files_under(&dir1);
    assert_eq!(files, files_under(&dir8), "artifact file sets differ");
    assert!(
        files.iter().any(|f| f.ends_with("search_grid.csv")),
        "expected search_grid.csv among {files:?}"
    );
    assert!(
        files.iter().any(|f| f.extension().is_some_and(|e| e == "scn")),
        "expected reproducer files among {files:?}"
    );
    for rel in &files {
        let a = fs::read(dir1.join(rel)).expect("read jobs=1 artifact");
        let b = fs::read(dir8.join(rel)).expect("read jobs=8 artifact");
        assert_eq!(a, b, "artifact {} differs between --jobs 1 and --jobs 8", rel.display());
    }
    fs::remove_dir_all(&base).ok();
}
