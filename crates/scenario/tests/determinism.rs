//! The runner's determinism contract: aggregated artifacts are
//! byte-identical across `--jobs` settings.
//!
//! A 12-cell plan (4 scenario variants × 3 base seeds) is executed with 1
//! worker and with 8 workers; each run reduces the merged results into a
//! CSV and a JSON artifact. The files must match byte-for-byte.

use std::path::Path;

use scenario::{derive_seed, AexSpec, RunPlan, Runner, ScenarioSpec};
use sim::{SimDuration, SimTime};

#[derive(Debug, Clone, PartialEq)]
struct Variant {
    label: &'static str,
    aex: AexSpec,
}

fn variants() -> Vec<Variant> {
    vec![
        Variant { label: "quiet", aex: AexSpec::None },
        Variant { label: "triad-like", aex: AexSpec::TriadLike },
        Variant { label: "isolated", aex: AexSpec::IsolatedCore },
        Variant {
            label: "exponential",
            aex: AexSpec::Exponential { mean: SimDuration::from_secs(2) },
        },
    ]
}

fn spec_for(v: &Variant) -> ScenarioSpec {
    ScenarioSpec::new(2)
        .horizon(SimTime::from_secs(20))
        .all_nodes_aex(v.aex.clone())
        .client(0, SimDuration::from_millis(100))
}

fn cell_rows(plan: &RunPlan<(usize, Variant)>, jobs: usize) -> Vec<Vec<String>> {
    Runner::new(jobs).run(plan, |cell| {
        let (rep, v) = &cell.param;
        let world = spec_for(v).run(cell.seed);
        let t = world.recorder.node(0);
        vec![
            cell.index.to_string(),
            rep.to_string(),
            v.label.to_string(),
            format!("{:#x}", cell.seed),
            format!("{:.6}", t.latest_calibrated_hz().unwrap_or(0.0)),
            t.client_served.count().to_string(),
            t.client_denied.count().to_string(),
            format!("{:.4}", t.drift_ms.last().map(|(_, d)| d).unwrap_or(0.0)),
        ]
    })
}

fn write_artifacts(dir: &Path, rows: &[Vec<String>]) {
    let headers = ["cell", "rep", "variant", "seed", "f_calib_hz", "served", "denied", "drift_ms"];
    trace::write_csv(&dir.join("grid.csv"), &headers, rows.iter().cloned())
        .expect("write grid.csv");

    // A second, JSON-shaped artifact exercising a different serialization
    // path (any formatting divergence between runs shows up here too).
    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"cell\":{},\"variant\":\"{}\",\"f_calib_hz\":{},\"served\":{}}}",
                r[0], r[2], r[4], r[5]
            )
        })
        .collect();
    let json = format!("{{\"cells\":[{}]}}\n", cells.join(","));
    std::fs::write(dir.join("grid.json"), json).expect("write grid.json");
}

#[test]
fn jobs_1_and_jobs_8_produce_byte_identical_artifacts() {
    // Replications are the outer loop: replication `r` derives its base
    // seed from the root, and variant `j` its cell seed from that base.
    let plan = RunPlan::with_seeds((0..3usize).flat_map(|r| {
        let base = derive_seed(0xD51A_2025, r as u64);
        variants().into_iter().enumerate().map(move |(j, v)| ((r, v), derive_seed(base, j as u64)))
    }));
    assert_eq!(plan.len(), 12);

    let root = std::env::temp_dir().join("scenario_determinism_test");
    let serial_dir = root.join("jobs1");
    let parallel_dir = root.join("jobs8");
    std::fs::create_dir_all(&serial_dir).unwrap();
    std::fs::create_dir_all(&parallel_dir).unwrap();

    write_artifacts(&serial_dir, &cell_rows(&plan, 1));
    write_artifacts(&parallel_dir, &cell_rows(&plan, 8));

    for name in ["grid.csv", "grid.json"] {
        let a = std::fs::read(serial_dir.join(name)).unwrap();
        let b = std::fs::read(parallel_dir.join(name)).unwrap();
        assert!(!a.is_empty(), "{name} must not be empty");
        assert_eq!(a, b, "{name} differs between --jobs 1 and --jobs 8");
    }

    // Sanity: the artifact really contains all 12 cells, in plan order.
    let csv = std::fs::read_to_string(serial_dir.join("grid.csv")).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 13, "header + 12 cells");
    for (i, line) in lines[1..].iter().enumerate() {
        assert!(line.starts_with(&format!("{i},")), "row {i} out of order: {line}");
    }

    std::fs::remove_dir_all(&root).ok();
}
