//! E19 — extension: Triad vs a T3E-style TPM baseline (§II-A).
//!
//! The paper's related work contrasts two trusted-time philosophies:
//! T3E's colocated TPM with use-budgeted timestamps (delay attacks surface
//! as throughput loss) versus Triad's remote-TA cluster (delay attacks
//! surface as clock skew). This experiment runs both under their
//! respective §II/§III attacks and tabulates the trade-off.

use attacks::DelayAttackMode;
use netsim::Addr;
use runtime::World;
use scenario::{AexSpec, AttackSpec, ScenarioSpec};
use sim::{SimDuration, SimTime};

use crate::output::{Comparison, RunOpts, Table};

/// One system-under-condition row.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// System + condition label.
    pub label: &'static str,
    /// Client-observed success rate (served / (served + denied)).
    pub client_success: f64,
    /// Worst |drift| over the run (ms).
    pub max_abs_drift_ms: f64,
    /// Drift rate in steady state (ms/s).
    pub drift_slope_ms_per_s: f64,
}

/// Results of the comparison.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// All rows.
    pub rows: Vec<BaselineRow>,
}

fn run_t3e(
    label: &'static str,
    tpm_drift_ppm: f64,
    throttle: Option<SimDuration>,
    horizon: SimTime,
    seed: u64,
) -> BaselineRow {
    let mut s = t3e::deployment(tpm_drift_ppm, throttle, SimDuration::from_millis(5), seed);
    s.run_until(horizon);
    summarise(label, s.world(), horizon)
}

fn run_triad(label: &'static str, attacked: bool, horizon: SimTime, seed: u64) -> BaselineRow {
    let mut spec = ScenarioSpec::new(3)
        .horizon(horizon)
        .all_nodes_aex(AexSpec::TriadLike)
        .client(2, SimDuration::from_millis(5));
    if attacked {
        spec = spec.attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FMinus));
    }
    let world = spec.run(seed);
    // Summarise node 3 (the client's target and, when attacked, the
    // victim).
    let trace = world.recorder.node(2);
    let served = trace.client_served.count();
    let denied = trace.client_denied.count();
    let (lo, hi) = trace.drift_ms.value_range().unwrap_or((0.0, 0.0));
    BaselineRow {
        label,
        client_success: served as f64 / (served + denied).max(1) as f64,
        max_abs_drift_ms: lo.abs().max(hi.abs()),
        drift_slope_ms_per_s: trace
            .drift_ms
            .slope_per_sec_in(SimTime::from_secs(40), horizon)
            .unwrap_or(f64::NAN),
    }
}

fn summarise(label: &'static str, world: &World, horizon: SimTime) -> BaselineRow {
    let trace = world.recorder.node(0);
    let served = trace.client_served.count();
    let denied = trace.client_denied.count();
    let (lo, hi) = trace.drift_ms.value_range().unwrap_or((0.0, 0.0));
    BaselineRow {
        label,
        client_success: served as f64 / (served + denied).max(1) as f64,
        max_abs_drift_ms: lo.abs().max(hi.abs()),
        drift_slope_ms_per_s: trace
            .drift_ms
            .slope_per_sec_in(SimTime::from_secs(10), horizon)
            .unwrap_or(f64::NAN),
    }
}

/// `e19_baseline.csv`.
pub(crate) const CSV: Table<BaselineRow> = Table(&[
    ("system", |r| r.label.to_string()),
    ("client_success", |r| format!("{:.4}", r.client_success)),
    ("max_abs_drift_ms", |r| format!("{:.1}", r.max_abs_drift_ms)),
    ("drift_slope_ms_per_s", |r| format!("{:.2}", r.drift_slope_ms_per_s)),
]);

const REPORT: Table<BaselineRow> = Table(&[
    ("system / condition", |r| r.label.to_string()),
    ("client success", |r| format!("{:.1}%", r.client_success * 100.0)),
    ("max |drift|", |r| format!("{:.0} ms", r.max_abs_drift_ms)),
    ("drift rate", |r| format!("{:+.2} ms/s", r.drift_slope_ms_per_s)),
]);

/// Runs the four cells and writes the summary CSV.
pub fn run(opts: &RunOpts) -> BaselineResult {
    let horizon = if opts.quick { SimTime::from_secs(90) } else { SimTime::from_secs(180) };
    let rows = vec![
        run_t3e("t3e fault-free (TPM +100 ppm)", 100.0, None, horizon, opts.seed ^ 0xE19),
        run_t3e(
            "t3e under source throttling",
            100.0,
            Some(SimDuration::from_millis(500)),
            horizon,
            opts.seed ^ 0xE19 ^ 1,
        ),
        run_t3e(
            "t3e with owner-skewed TPM (+32.5%)",
            t3e::TPM_SPEC_MAX_DRIFT_PPM,
            None,
            horizon,
            opts.seed ^ 0xE19 ^ 2,
        ),
        run_triad("triad fault-free", false, horizon, opts.seed ^ 0xE19 ^ 3),
        run_triad("triad under F-", true, horizon, opts.seed ^ 0xE19 ^ 4),
    ];

    let dir = opts.dir_for("baseline");
    CSV.write_csv(&dir, "e19_baseline.csv", &rows).expect("write baseline csv");
    BaselineResult { rows }
}

impl BaselineResult {
    fn row(&self, label: &str) -> &BaselineRow {
        self.rows.iter().find(|r| r.label == label).expect("row present")
    }

    /// Paper-vs-measured rows (the §II-A trade-off, quantified).
    pub fn comparisons(&self) -> Vec<Comparison> {
        let t3e_attacked = self.row("t3e under source throttling");
        let t3e_skewed = self.row("t3e with owner-skewed TPM (+32.5%)");
        let triad_attacked = self.row("triad under F-");
        vec![
            Comparison::new(
                "baseline-e19",
                "T3E turns delay attacks into throughput loss",
                "the application 'will drop in throughput, which may be detected' (section II-A)",
                format!(
                    "success {:.0}%, max |drift| {:.0} ms",
                    t3e_attacked.client_success * 100.0,
                    t3e_attacked.max_abs_drift_ms
                ),
                t3e_attacked.client_success < 0.5 && t3e_attacked.max_abs_drift_ms < 1_000.0,
            ),
            Comparison::new(
                "baseline-e19",
                "Triad turns delay attacks into silent skew",
                "F- preserves availability while skewing the clock (section IV-B)",
                format!(
                    "success {:.0}%, drift {:+.0} ms/s",
                    triad_attacked.client_success * 100.0,
                    triad_attacked.drift_slope_ms_per_s
                ),
                triad_attacked.client_success > 0.9 && triad_attacked.drift_slope_ms_per_s > 80.0,
            ),
            Comparison::new(
                "baseline-e19",
                "a TPM owner can skew T3E within spec, undetected",
                "up to +-32.5% drift-rate by configuring the TPM (section II-A)",
                format!(
                    "drift {:+.0} ms/s at full availability ({:.0}%)",
                    t3e_skewed.drift_slope_ms_per_s,
                    t3e_skewed.client_success * 100.0
                ),
                (t3e_skewed.drift_slope_ms_per_s - 325.0).abs() < 15.0
                    && t3e_skewed.client_success > 0.9,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "E19 — trusted-time baselines under their respective attacks\n{}",
            REPORT.render(&self.rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_tradeoff_holds() {
        let opts = RunOpts::quick(std::env::temp_dir().join("triad_baseline_test"));
        let r = run(&opts);
        for c in r.comparisons() {
            assert!(c.matches, "{c:?}");
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
