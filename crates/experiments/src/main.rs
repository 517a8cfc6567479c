//! `triad-experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! triad-experiments [EXPERIMENT ...] [--quick] [--smoke] [--jobs N]
//!                   [--seed N] [--budget N] [--out DIR]
//! triad-experiments replay FILE... [--jobs N]
//!
//! EXPERIMENT   one or more of: fig1 inc-table fig2 fig3 fig4 fig5 fig6
//!              resilience tsc-detect sweeps baseline chaos serve quorum
//!              search all (default: all)
//! replay       re-run search reproducer files (results/search/corpus/
//!              *.scn) and exit nonzero on any fitness mismatch
//! --quick      shortened horizons (minutes instead of the paper's hours)
//! --smoke      CI liveness mode: implies --quick, shrinks grid
//!              experiments (chaos runs a mini-grid)
//! --jobs N     worker threads for grid experiments (default: all cores;
//!              results are bit-identical for any N)
//! --seed N     base RNG seed (default: the release seed)
//! --budget N   override E23's per-cell search budget (evaluations)
//! --out DIR    output directory (default: results/)
//! ```
//!
//! Outputs per experiment: CSV series (for plotting), a rendered text
//! report, and a consolidated paper-vs-measured table written to
//! `<out>/comparison.md`. Each experiment's wall seconds and the process's
//! peak RSS when it finished go to stderr, never under `--out`, so the
//! artifacts stay byte-identical run to run.

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::{
    comparison_markdown, comparison_table, run_all, run_by_id, RunOpts, ALL_EXPERIMENTS,
};
use trace::write_text;

fn usage_text() -> String {
    format!(
        "usage: triad-experiments [EXPERIMENT ...] [--quick] [--smoke] [--jobs N] \
         [--seed N] [--budget N] [--out DIR]\n\
         \x20      triad-experiments replay FILE...\n\
         experiments: {} all",
        ALL_EXPERIMENTS.join(" ")
    )
}

/// Rejects a malformed command line: usage on stderr, exit status 2.
fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

/// Replays search reproducer files; any fitness mismatch fails the run.
fn replay(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("replay: no reproducer files given");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for path in paths {
        let rep = match search::Reproducer::load(std::path::Path::new(path)) {
            Ok(r) => r,
            Err(e) => {
                println!("{path}: UNREADABLE ({e})");
                ok = false;
                continue;
            }
        };
        let measured = rep.replay();
        let matches = experiments::search::replay_close(&measured, &rep.fitness);
        println!(
            "{}: {} (recorded detections={} value={:.6}, measured detections={} value={:.6})",
            rep.name,
            if matches { "ok" } else { "MISMATCH" },
            rep.fitness.detections,
            rep.fitness.value,
            measured.detections,
            measured.value,
        );
        ok &= matches;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `resources <id>: wall <s> s, peak RSS <MiB> MiB`; the RSS is the whole
/// process's peak so far, shared by experiments that run concurrently.
fn resource_line(id: &str, wall_ns: u64) -> String {
    let rss =
        net::peak_rss_kib().map_or("n/a".to_string(), |kib| format!("{:.1}", kib as f64 / 1024.0));
    format!("resources {id}: wall {:.2} s, peak RSS {rss} MiB", wall_ns as f64 / 1e9)
}

/// Resolves the positional experiment ids: none, or `all` anywhere,
/// selects every experiment; a repeated id collapses into its first
/// occurrence, so no experiment runs or reports twice. The error is the
/// first unknown id.
fn select_experiments(ids: &[String]) -> Result<Vec<&'static str>, &str> {
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        return Ok(ALL_EXPERIMENTS.to_vec());
    }
    let mut selected = Vec::new();
    for id in ids {
        let known = *ALL_EXPERIMENTS.iter().find(|k| *k == id).ok_or(id.as_str())?;
        if !selected.contains(&known) {
            selected.push(known);
        }
    }
    Ok(selected)
}

fn main() -> ExitCode {
    let mut opts = RunOpts::default();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--smoke" => {
                opts.smoke = true;
                opts.quick = true;
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.jobs = v.parse().unwrap_or_else(|_| usage());
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--budget" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.budget = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--out" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.out_dir = PathBuf::from(v);
            }
            "--help" | "-h" => {
                println!("{}", usage_text());
                return ExitCode::SUCCESS;
            }
            id if id.starts_with('-') => usage(),
            id => ids.push(id.to_string()),
        }
    }
    if ids.first().is_some_and(|i| i == "replay") {
        return replay(&ids[1..]);
    }
    let ids = select_experiments(&ids).unwrap_or_else(|unknown| {
        eprintln!("unknown experiment: {unknown}");
        usage()
    });

    println!(
        "Running {} experiment(s), seed {}, {} mode, {} job(s), output to {}",
        ids.len(),
        opts.seed,
        if opts.smoke {
            "smoke"
        } else if opts.quick {
            "quick"
        } else {
            "full"
        },
        opts.runner().jobs(),
        opts.out_dir.display()
    );

    let clock = net::MonoClock::start();
    let run = |id: &str| {
        let start = clock.now_ns();
        let (report, rows) = run_by_id(id, &opts);
        eprintln!("{}", resource_line(id, clock.now_ns() - start));
        (id.to_string(), report, rows)
    };
    let results: Vec<_> = if ids.len() == ALL_EXPERIMENTS.len() {
        run_all(run)
    } else {
        ids.iter().map(|id| run(id)).collect()
    };
    eprintln!("{}", resource_line("total", clock.now_ns()));

    let mut all_rows = Vec::new();
    let mut all_ok = true;

    for (id, report, rows) in results {
        println!("\n=== {id} ===\n{report}");
        write_text(&opts.dir_for(&id), "report.txt", &report).expect("write report");
        all_ok &= rows.iter().all(|r| r.matches);
        all_rows.extend(rows);
    }

    let table = comparison_table(&all_rows);
    println!("\n=== paper vs measured ===\n{table}");
    write_text(&opts.out_dir, "comparison.md", &comparison_markdown(&all_rows))
        .expect("write comparison");
    write_text(&opts.out_dir, "comparison.txt", &table).expect("write comparison");

    if all_ok {
        println!("all shape criteria hold");
        ExitCode::SUCCESS
    } else {
        println!("SOME SHAPE CRITERIA FAILED — see the table above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(ids: &[&str]) -> Result<Vec<&'static str>, String> {
        let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
        select_experiments(&ids).map_err(str::to_string)
    }

    #[test]
    fn repeated_ids_collapse_in_first_seen_order() {
        assert_eq!(select(&["fig3", "fig2", "fig3", "fig2"]), Ok(vec!["fig3", "fig2"]));
        // Fifteen ids with a repeat are fourteen experiments, not `all`.
        let mut ids = ALL_EXPERIMENTS.to_vec();
        ids[14] = ids[0];
        assert_eq!(select(&ids), Ok(ALL_EXPERIMENTS[..14].to_vec()));
        assert_eq!(select(&[]), Ok(ALL_EXPERIMENTS.to_vec()));
        assert_eq!(select(&["fig2", "all", "fig2"]), Ok(ALL_EXPERIMENTS.to_vec()));
        assert_eq!(select(&["fig2", "fig99"]), Err("fig99".to_string()));
    }
}
