//! E12 — §V extension: the hardened protocol vs the paper's attacks, with
//! per-countermeasure ablations.
//!
//! For each protocol variant we rerun the Figure 6 propagation scenario
//! (F– on Node 3, honest nodes switching to Triad-like AEXs at 104 s) and
//! measure how far the *honest* cluster gets dragged. The paper's claim:
//! true-chimer majority filtering stops the infection; deadlines and
//! long-window calibration fix the attacked node itself.

use attacks::DelayAttackMode;
use netsim::Addr;
use resilient::ResilientConfig;
use scenario::{AexSpec, AttackSpec, NodeImplSpec, RunCell, RunPlan, ScenarioSpec};
use sim::SimTime;

use crate::output::{Comparison, RunOpts, Table};

/// One protocol variant in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The base Triad protocol (vulnerable baseline).
    BaseTriad,
    /// All §V countermeasures enabled.
    HardenedFull,
    /// *Only* the base untaint policy, with every corrective mechanism
    /// (filter, deadline rounds, gossip, long-window, RTT filter)
    /// disabled — isolates the §III-D adopt-the-maximum policy as the
    /// propagation vector.
    UntaintPolicyOnly,
    /// Hardened minus the in-TCB deadline.
    NoDeadline,
    /// Hardened minus the long-window calibration.
    NoLongWindow,
    /// Hardened minus the true-chimer gossip.
    NoGossip,
}

impl Variant {
    /// All grid variants in report order.
    pub const ALL: [Variant; 6] = [
        Variant::BaseTriad,
        Variant::HardenedFull,
        Variant::UntaintPolicyOnly,
        Variant::NoDeadline,
        Variant::NoLongWindow,
        Variant::NoGossip,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::BaseTriad => "base-triad",
            Variant::HardenedFull => "hardened-full",
            Variant::UntaintPolicyOnly => "untaint-policy-only",
            Variant::NoDeadline => "no-deadline",
            Variant::NoLongWindow => "no-long-window",
            Variant::NoGossip => "no-gossip",
        }
    }

    fn config(self) -> Option<ResilientConfig> {
        match self {
            Variant::BaseTriad => None,
            Variant::HardenedFull => Some(ResilientConfig::default()),
            Variant::UntaintPolicyOnly => Some(ResilientConfig::all_disabled()),
            Variant::NoDeadline => {
                Some(ResilientConfig { enable_deadline: false, ..Default::default() })
            }
            Variant::NoLongWindow => {
                Some(ResilientConfig { enable_long_window: false, ..Default::default() })
            }
            Variant::NoGossip => {
                Some(ResilientConfig { enable_gossip: false, ..Default::default() })
            }
        }
    }
}

/// Outcome of one grid cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Which variant ran.
    pub variant: Variant,
    /// Honest nodes' final drift (max of nodes 1–2), ms.
    pub honest_final_ms: f64,
    /// Honest nodes' worst |drift| over the run, ms.
    pub honest_max_abs_ms: f64,
    /// Attacked node's worst |drift| over the run, ms.
    pub victim_max_abs_ms: f64,
    /// False-chimer rejections recorded by honest nodes.
    pub honest_rejections: u64,
}

/// Results of the whole grid.
#[derive(Debug, Clone)]
pub struct ResilienceResult {
    /// One row per variant.
    pub cells: Vec<CellResult>,
}

fn run_cell(opts: &RunOpts, cell: &RunCell<Variant>) -> CellResult {
    let variant = cell.param;
    let horizon = if opts.quick { SimTime::from_secs(240) } else { SimTime::from_secs(420) };
    let switch = SimTime::from_secs(crate::fig6::SWITCH_S);
    let honest_env = AexSpec::SwitchAt {
        at: switch,
        before: Box::new(AexSpec::IsolatedCore),
        after: Box::new(AexSpec::TriadLike),
    };
    let mut spec = ScenarioSpec::new(3)
        .horizon(horizon)
        .node_aex(0, honest_env.clone())
        .node_aex(1, honest_env)
        .node_aex(2, AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FMinus));
    if let Some(cfg) = variant.config() {
        spec = spec.node_impl(NodeImplSpec::Resilient(Box::new(cfg)));
    }
    let world = spec.run(cell.seed);

    let honest_final = (0..2)
        .map(|i| world.recorder.node(i).drift_ms.last().map(|(_, d)| d).unwrap_or(0.0))
        .fold(f64::NEG_INFINITY, f64::max);
    let honest_max_abs = (0..2)
        .map(|i| {
            let (lo, hi) = world.recorder.node(i).drift_ms.value_range().unwrap_or((0.0, 0.0));
            lo.abs().max(hi.abs())
        })
        .fold(0.0f64, f64::max);
    let (v_lo, v_hi) = world.recorder.node(2).drift_ms.value_range().unwrap_or((0.0, 0.0));
    let honest_rejections = (0..2).map(|i| world.recorder.node(i).chimer_rejections.count()).sum();

    CellResult {
        variant,
        honest_final_ms: honest_final,
        honest_max_abs_ms: honest_max_abs,
        victim_max_abs_ms: v_lo.abs().max(v_hi.abs()),
        honest_rejections,
    }
}

/// `resilience_grid.csv`.
pub(crate) const CSV: Table<CellResult> = Table(&[
    ("variant", |c| c.variant.label().to_string()),
    ("honest_final_drift_ms", |c| format!("{:.1}", c.honest_final_ms)),
    ("honest_max_abs_drift_ms", |c| format!("{:.1}", c.honest_max_abs_ms)),
    ("victim_max_abs_drift_ms", |c| format!("{:.1}", c.victim_max_abs_ms)),
    ("honest_chimer_rejections", |c| c.honest_rejections.to_string()),
]);

const REPORT: Table<CellResult> = Table(&[
    ("variant", |c| c.variant.label().to_string()),
    ("honest final (ms)", |c| format!("{:+.0}", c.honest_final_ms)),
    ("honest max |d| (ms)", |c| format!("{:.0}", c.honest_max_abs_ms)),
    ("victim max |d| (ms)", |c| format!("{:.0}", c.victim_max_abs_ms)),
    ("rejections", |c| c.honest_rejections.to_string()),
]);

/// Runs the full grid and writes the summary CSV.
pub fn run(opts: &RunOpts) -> ResilienceResult {
    let plan = RunPlan::with_seeds(Variant::ALL.map(|v| (v, opts.seed ^ 0xE12 ^ (v as u64))));
    let cells: Vec<CellResult> = opts.runner().run(&plan, |cell| run_cell(opts, cell));
    let dir = opts.dir_for("resilience");
    CSV.write_csv(&dir, "resilience_grid.csv", &cells).expect("write resilience csv");
    ResilienceResult { cells }
}

impl ResilienceResult {
    fn cell(&self, v: Variant) -> &CellResult {
        self.cells.iter().find(|c| c.variant == v).expect("grid is complete")
    }

    /// Paper-vs-measured rows (the §V claims, quantified).
    pub fn comparisons(&self) -> Vec<Comparison> {
        let base = self.cell(Variant::BaseTriad);
        let full = self.cell(Variant::HardenedFull);
        let no_filter = self.cell(Variant::UntaintPolicyOnly);
        vec![
            Comparison::new(
                "resilience",
                "base Triad is infected (sanity)",
                "honest nodes skip arbitrarily far forward",
                format!("honest final drift {:+.0} ms", base.honest_final_ms),
                base.honest_final_ms > 1_000.0,
            ),
            Comparison::new(
                "resilience",
                "hardened protocol protects honest nodes",
                "honest nodes stay near reference (section V)",
                format!("honest max |drift| {:.0} ms", full.honest_max_abs_ms),
                full.honest_max_abs_ms < 200.0,
            ),
            Comparison::new(
                "resilience",
                "attacker flagged as false-chimer",
                "honest nodes will not consider it a true-chimer",
                format!("{} rejections", full.honest_rejections),
                full.honest_rejections > 0,
            ),
            Comparison::new(
                "resilience",
                "interval consistency is the load-bearing defence",
                "with the bare adopt-the-maximum policy the cluster follows the fastest clock",
                format!(
                    "untaint-policy-only honest final drift {:+.0} ms vs full {:+.0} ms",
                    no_filter.honest_final_ms, full.honest_final_ms
                ),
                no_filter.honest_final_ms > 10.0 * full.honest_final_ms.abs().max(10.0),
            ),
            Comparison::new(
                "resilience",
                "hardened bounds the attacked node too",
                "deadline + TA cross-checks bound a compromised clock",
                format!(
                    "victim max |drift|: base {:.0} ms vs hardened {:.0} ms",
                    base.victim_max_abs_ms, full.victim_max_abs_ms
                ),
                full.victim_max_abs_ms < base.victim_max_abs_ms / 5.0,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!("E12 — F− propagation vs protocol variant\n{}", REPORT.render(&self.cells))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_separates_protected_from_infected() {
        let opts = RunOpts::quick(std::env::temp_dir().join("triad_resilience_test"));
        let r = run(&opts);
        let base = r.cell(Variant::BaseTriad);
        let full = r.cell(Variant::HardenedFull);
        assert!(base.honest_final_ms > 500.0, "baseline must be infected: {base:?}");
        assert!(full.honest_max_abs_ms < 200.0, "hardened must hold: {full:?}");
        assert!(full.honest_rejections > 0);
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
