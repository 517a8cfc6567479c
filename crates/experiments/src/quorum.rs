//! E22 — the quorum sweep: quorum-attested reads vs lying nodes.
//!
//! Each cell drives a cluster with *two* client populations at once — a
//! plain single-read open loop and a quorum-read loop fanning each
//! request to a `2f + 1` panel — while a planned lying-node fault skews
//! what the
//! first `f` front-ends tell clients (steady skew, plus equivocation on
//! node 0). The grid sweeps cluster size (`n = 2f + 1`) × lie magnitude
//! (honest, inside the attestation uncertainty envelope, far beyond it)
//! × offered load, and the claims pin down the detector's confusion
//! matrix: every beyond-envelope liar is suspected and quarantined, no
//! honest node is ever flagged, in-envelope skews are tolerated, reads
//! keep accepting through `f` simultaneous liars, quarantined liars
//! rejoin once the fault ends, and the quorum's latency price over
//! single reads is quantified.

use faults::FaultPlan;
use scenario::{AexSpec, FaultSpec, NodeImplSpec, RunCell, RunPlan, ScenarioSpec};
use service::{FrontendSpec, OpenLoopSpec, QuorumLoopSpec, QuorumSpec, ServiceSpec};
use sim::{SimDuration, SimTime};

use crate::grid;
use crate::output::{Comparison, RunOpts, Table};

/// How hard the planned liars skew their served timestamps, relative to
/// the attestation uncertainty envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LieLevel {
    /// No lying-node fault: the detector's false-positive control.
    Honest,
    /// A skew small enough to hide inside the attestation uncertainty
    /// (floor 2 ms half-width plus Cristian slack): undetectable by
    /// construction, and harmless for the same reason.
    Inside,
    /// A skew far beyond any honest envelope: every such attestation is
    /// disjoint from the honest agreement and must be flagged.
    Beyond,
}

impl LieLevel {
    /// All levels in report order.
    pub const ALL: [LieLevel; 3] = [LieLevel::Honest, LieLevel::Inside, LieLevel::Beyond];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LieLevel::Honest => "honest",
            LieLevel::Inside => "inside",
            LieLevel::Beyond => "beyond",
        }
    }

    /// Planned skew (ns); `None` for honest runs.
    fn offset_ns(self) -> Option<i64> {
        match self {
            LieLevel::Honest => None,
            LieLevel::Inside => Some(1_000_000), // 1 ms « envelope
            LieLevel::Beyond => Some(250_000_000), // 250 ms » envelope
        }
    }
}

/// Offered-load level for both populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadLevel {
    /// Well under the per-node drain capacity.
    Light,
    /// A busier but unsaturated cluster.
    Nominal,
}

impl LoadLevel {
    /// All levels in report order.
    pub const ALL: [LoadLevel; 2] = [LoadLevel::Light, LoadLevel::Nominal];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LoadLevel::Light => "light",
            LoadLevel::Nominal => "nominal",
        }
    }

    /// (single-read rate, quorum-read rate) in requests per second.
    fn rates(self, opts: &RunOpts) -> (f64, f64) {
        let table = if opts.smoke {
            [(150.0, 50.0), (300.0, 100.0)]
        } else {
            [(300.0, 100.0), (600.0, 200.0)]
        };
        table[self as usize]
    }
}

/// Measurement windows for one cell.
struct Timing {
    /// Lying-node fault onset.
    lie_from: SimTime,
    /// Lying-node fault end.
    lie_to: SimTime,
    /// Run horizon (past `lie_to` + probation, so rejoins land inside).
    horizon: SimTime,
}

fn timing(opts: &RunOpts) -> Timing {
    // The lie window must open only after the whole cluster has finished
    // its staggered §V calibration (~17 s for five nodes): the
    // availability claim measures inside the window, and a still-warming
    // node answers `Unavailable`, which reads as a liveness miss the
    // detector is not responsible for.
    let (from, to, horizon) = if opts.smoke {
        (18, 28, 36)
    } else if opts.quick {
        (25, 55, 75)
    } else {
        (40, 100, 150)
    };
    Timing {
        lie_from: SimTime::from_secs(from),
        lie_to: SimTime::from_secs(to),
        horizon: SimTime::from_secs(horizon),
    }
}

/// E21's front-end, except that attestations age differently.
fn frontend_spec(opts: &RunOpts) -> FrontendSpec {
    FrontendSpec {
        // Attestations age the node's published §V bound at the hardened
        // protocol's *initial* drift bound, so the served interval stays a
        // sound over-approximation of the true error even right after a
        // recalibration anchor.
        degraded_drift_ppm: 400.0,
        ..grid::frontend_spec(opts)
    }
}

fn quorum_spec(f: usize) -> QuorumSpec {
    QuorumSpec {
        f,
        // Wider than both honest failure modes: the agreement
        // displacement an in-envelope skew can buy (bounded by the ~2 ms
        // envelope) and the brief excursions a §V node shows right after
        // a recalibration anchor, when its true error can reach the
        // honest-drift scale (~10-20 ms, cf. E13) while its published
        // bound has just reset to the floor. Still 10x under the 250 ms
        // beyond-envelope lie, so real liars stand out unambiguously.
        suspect_margin: SimDuration::from_millis(25),
    }
}

/// Measurements from one (f, lie, load) cell; the cluster size is
/// `2f + 1`.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Tolerated liar count; cluster size is `2f + 1`.
    pub f: usize,
    /// Lie magnitude.
    pub lie: LieLevel,
    /// Offered-load level.
    pub load: LoadLevel,
    /// Quorum reads issued.
    pub offered: u64,
    /// Quorum reads accepted on `f + 1` overlapping attestations.
    pub accepted: u64,
    /// Quorum reads with no `f + 1` overlap among the answers.
    pub no_quorum: u64,
    /// Quorum reads failed fast for lack of an eligible panel.
    pub unavailable: u64,
    /// `ByzantineSuspect` detections across the run.
    pub suspects: u64,
    /// Quarantine entries across the run.
    pub quarantines: u64,
    /// Half-open rejoins across the run.
    pub rejoins: u64,
    /// Quorum-read latency percentiles (ms): p50/p95/p99/p99.9.
    pub quorum_ms: [f64; 4],
    /// Single-read latency percentiles (ms) from the co-running plain
    /// open loop: the in-cell baseline the quorum price is judged against.
    pub single_ms: [f64; 4],
    /// Single reads answered at full precision (the baseline kept
    /// working).
    pub single_ok: u64,
    /// Suspect flags raised against *honest* nodes (must stay zero).
    pub false_positives: u64,
    /// Whether every planned liar was suspected at least once.
    pub all_liars_suspected: bool,
    /// Whether every planned liar was quarantined at least once.
    pub all_liars_quarantined: bool,
    /// Quorum accept rate (accepted / offered) during the lie window.
    pub accept_rate_during: f64,
    /// [`trace::Recorder::max_undetected_drift_ms`] — the E23 search's
    /// drift fitness.
    pub max_undetected_drift_ms: f64,
    /// Per-node `(attestations, suspected, quarantined)` counts.
    pub per_node: Vec<(u64, u64, u64)>,
}

/// Results of the whole sweep.
#[derive(Debug, Clone)]
pub struct QuorumResult {
    /// One row per grid cell.
    pub cells: Vec<CellResult>,
    /// Whether the determinism double-run reproduced identical traces.
    pub deterministic: bool,
}

/// `quorum_grid.csv`.
pub(crate) const GRID: Table<CellResult> = Table(&[
    ("size", |c| (2 * c.f + 1).to_string()),
    ("f", |c| c.f.to_string()),
    ("lie", |c| c.lie.label().to_string()),
    ("load", |c| c.load.label().to_string()),
    ("offered", |c| c.offered.to_string()),
    ("accepted", |c| c.accepted.to_string()),
    ("no_quorum", |c| c.no_quorum.to_string()),
    ("unavailable", |c| c.unavailable.to_string()),
    ("suspects", |c| c.suspects.to_string()),
    ("quarantines", |c| c.quarantines.to_string()),
    ("rejoins", |c| c.rejoins.to_string()),
    ("false_positives", |c| c.false_positives.to_string()),
    ("q_p50_ms", |c| format!("{:.3}", c.quorum_ms[0])),
    ("q_p99_ms", |c| format!("{:.3}", c.quorum_ms[2])),
    ("s_p50_ms", |c| format!("{:.3}", c.single_ms[0])),
    ("s_p99_ms", |c| format!("{:.3}", c.single_ms[2])),
    ("single_ok", |c| c.single_ok.to_string()),
    ("accept_rate_during", |c| format!("{:.4}", c.accept_rate_during)),
    ("max_undetected_drift_ms", |c| format!("{:.3}", c.max_undetected_drift_ms)),
]);

/// One `quorum_nodes.csv` row: the cell's coordinates, the 0-based node
/// index and that node's `(attestations, suspected, quarantined)`.
type NodeRow = (usize, LieLevel, LoadLevel, usize, (u64, u64, u64));

/// `quorum_nodes.csv`.
pub(crate) const NODES: Table<NodeRow> = Table(&[
    ("size", |(f, ..)| (2 * f + 1).to_string()),
    ("f", |(f, ..)| f.to_string()),
    ("lie", |(_, lie, ..)| lie.label().to_string()),
    ("load", |(_, _, load, ..)| load.label().to_string()),
    ("node", |(.., node, _)| (node + 1).to_string()),
    ("attests", |(.., (attests, _, _))| attests.to_string()),
    ("suspected", |(.., (_, suspected, _))| suspected.to_string()),
    ("quarantined", |(.., (_, _, quarantined))| quarantined.to_string()),
]);

const REPORT: Table<CellResult> = Table(&[
    ("nodes", |c| (2 * c.f + 1).to_string()),
    ("f", |c| c.f.to_string()),
    ("lie", |c| c.lie.label().to_string()),
    ("load", |c| c.load.label().to_string()),
    ("offered", |c| c.offered.to_string()),
    ("accepted", |c| c.accepted.to_string()),
    ("suspects", |c| c.suspects.to_string()),
    ("quarantines", |c| c.quarantines.to_string()),
    ("rejoins", |c| c.rejoins.to_string()),
    ("false+", |c| c.false_positives.to_string()),
    ("q p50 (ms)", |c| format!("{:.1}", c.quorum_ms[0])),
    ("s p50 (ms)", |c| format!("{:.1}", c.single_ms[0])),
]);

/// Nodes lying in this cell: the first `f` (node 0 equivocates).
fn liars(f: usize, lie: LieLevel) -> Vec<usize> {
    if lie.offset_ns().is_some() {
        (0..f).collect()
    } else {
        Vec::new()
    }
}

fn spec_for(opts: &RunOpts, f: usize, lie: LieLevel, load: LoadLevel) -> ScenarioSpec {
    let t = timing(opts);
    let size = 2 * f + 1;
    let (single_rate, quorum_rate) = load.rates(opts);
    let svc = ServiceSpec::new()
        .frontend(frontend_spec(opts))
        .router(grid::router_spec())
        .open_loop(OpenLoopSpec { rate_per_s: single_rate })
        .quorum_loop(QuorumLoopSpec { rate_per_s: quorum_rate, quorum: quorum_spec(f) });
    // The §V hardened node is the one that publishes a usable
    // self-assessed error bound — the quantity quorum attestations carry.
    let mut spec = ScenarioSpec::new(size)
        .horizon(t.horizon)
        .all_nodes_aex(AexSpec::TriadLike)
        .node_impl(NodeImplSpec::Resilient(Box::default()))
        .service(svc);
    if let Some(offset) = lie.offset_ns() {
        let mut plan = FaultPlan::new();
        for node in liars(f, lie) {
            // Node 0 equivocates (alternating ±offset) only at the
            // beyond-envelope magnitude; in-envelope lies stay steady so
            // the tolerance claim isolates magnitude, not pattern.
            let equivocate = node == 0 && lie == LieLevel::Beyond;
            plan = plan.lie_window(node, offset, equivocate, t.lie_from, t.lie_to - t.lie_from);
        }
        spec = spec.faults(FaultSpec::Fixed(plan));
    }
    spec
}

fn run_cell(opts: &RunOpts, cell: &RunCell<(usize, LieLevel, LoadLevel)>) -> CellResult {
    let (f, lie, load) = cell.param;
    let t = timing(opts);
    let world = spec_for(opts, f, lie, load).run(cell.seed);

    let s = &world.recorder.service;
    let liars = liars(f, lie);
    let per_node: Vec<(u64, u64, u64)> = world
        .recorder
        .iter()
        .map(|n| (n.frontend_attests.count(), n.byzantine_suspected.count(), n.quarantined.count()))
        .collect();
    let false_positives = per_node
        .iter()
        .enumerate()
        .filter(|(i, _)| !liars.contains(i))
        .map(|(_, &(_, suspected, _))| suspected)
        .sum();
    let offered_during = s.quorum_offered.count_in(t.lie_from, t.lie_to);
    let accepted_during = s.quorum_accepted.count_in(t.lie_from, t.lie_to);
    CellResult {
        f,
        lie,
        load,
        offered: s.quorum_offered.count(),
        accepted: s.quorum_accepted.count(),
        no_quorum: s.quorum_no_quorum.count(),
        unavailable: s.quorum_unavailable.count(),
        suspects: s.byzantine_suspects.count(),
        quarantines: s.quarantines.count(),
        rejoins: s.rejoins.count(),
        quorum_ms: s.quorum_latency.slo_percentiles().map(|ns| ns / 1e6),
        single_ms: s.latency.slo_percentiles().map(|ns| ns / 1e6),
        single_ok: s.served_ok.count(),
        false_positives,
        all_liars_suspected: liars.iter().all(|&i| per_node[i].1 > 0),
        all_liars_quarantined: liars.iter().all(|&i| per_node[i].2 > 0),
        accept_rate_during: accepted_during as f64 / offered_during.max(1) as f64,
        max_undetected_drift_ms: world.recorder.max_undetected_drift_ms(),
        per_node,
    }
}

/// The cells exercised in smoke mode: exactly the ones the
/// [`QuorumResult::comparisons`] claims read.
const SMOKE_CELLS: [(usize, LieLevel, LoadLevel); 4] = [
    (1, LieLevel::Honest, LoadLevel::Nominal),
    (1, LieLevel::Inside, LoadLevel::Nominal),
    (1, LieLevel::Beyond, LoadLevel::Nominal),
    (2, LieLevel::Beyond, LoadLevel::Light),
];

fn cell_seed(opts: &RunOpts, f: usize, lie: LieLevel, load: LoadLevel) -> u64 {
    opts.seed ^ 0xE22_0000 ^ ((f as u64) << 16) ^ ((lie as u64) << 8) ^ (load as u64)
}

/// Runs the grid, the determinism double-run, and writes
/// `quorum_grid.csv` + `quorum_nodes.csv`.
pub fn run(opts: &RunOpts) -> QuorumResult {
    let grid: Vec<(usize, LieLevel, LoadLevel)> = if opts.smoke {
        SMOKE_CELLS.to_vec()
    } else {
        [1usize, 2]
            .iter()
            .flat_map(|&f| {
                LieLevel::ALL
                    .iter()
                    .flat_map(move |&lie| LoadLevel::ALL.iter().map(move |&load| (f, lie, load)))
            })
            .collect()
    };
    let plan = RunPlan::with_seeds(
        grid.into_iter().map(|(f, lie, load)| ((f, lie, load), cell_seed(opts, f, lie, load))),
    );
    let cells: Vec<CellResult> = opts.runner().run(&plan, |cell| run_cell(opts, cell));

    // Acceptance check: the quorum layer is bit-reproducible, lying
    // fault and all.
    let deterministic = {
        let (f, lie, load) = (1, LieLevel::Beyond, LoadLevel::Nominal);
        let seed = cell_seed(opts, f, lie, load);
        grid::reproducible(&spec_for(opts, f, lie, load), seed, |world| {
            let node0 = world.recorder.node(0);
            (
                world.recorder.service.clone(),
                node0.byzantine_suspected.clone(),
                node0.quarantined.clone(),
            )
        })
    };

    let dir = opts.dir_for("quorum");
    GRID.write_csv(&dir, "quorum_grid.csv", &cells).expect("write quorum grid csv");
    let node_rows = cells.iter().flat_map(|c| {
        c.per_node.iter().enumerate().map(move |(i, &node)| (c.f, c.lie, c.load, i, node))
    });
    NODES.write_csv(&dir, "quorum_nodes.csv", node_rows).expect("write quorum nodes csv");

    QuorumResult { cells, deterministic }
}

impl QuorumResult {
    fn cell(&self, f: usize, lie: LieLevel, load: LoadLevel) -> &CellResult {
        self.cells
            .iter()
            .find(|c| c.f == f && c.lie == lie && c.load == load)
            .expect("grid is complete")
    }

    /// Claim-vs-measured rows for EXPERIMENTS.md.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let honest = self.cell(1, LieLevel::Honest, LoadLevel::Nominal);
        let inside = self.cell(1, LieLevel::Inside, LoadLevel::Nominal);
        let beyond1 = self.cell(1, LieLevel::Beyond, LoadLevel::Nominal);
        let beyond2 = self.cell(2, LieLevel::Beyond, LoadLevel::Light);
        let false_positives: u64 = self.cells.iter().map(|c| c.false_positives).sum();
        let price = beyond_ratio(honest);
        vec![
            Comparison::new(
                "quorum",
                "beyond-envelope lies are detected and quarantined",
                "every liar suspected and quarantined, at f=1 and f=2",
                format!(
                    "f=1: {} suspects / {} quarantines; f=2: {} / {}",
                    beyond1.suspects, beyond1.quarantines, beyond2.suspects, beyond2.quarantines
                ),
                beyond1.all_liars_suspected
                    && beyond1.all_liars_quarantined
                    && beyond2.all_liars_suspected
                    && beyond2.all_liars_quarantined,
            ),
            Comparison::new(
                "quorum",
                "honest nodes are never flagged",
                "zero Byzantine suspicions against honest nodes, all cells",
                format!(
                    "{} false positives across {} cells ({} honest-run suspects)",
                    false_positives,
                    self.cells.len(),
                    honest.suspects
                ),
                false_positives == 0 && honest.suspects == 0 && honest.quarantines == 0,
            ),
            Comparison::new(
                "quorum",
                "in-envelope skews are tolerated",
                "a lie inside the uncertainty envelope raises no alarms",
                format!(
                    "inside-lie cell: {} suspects, {} quarantines, {} accepted",
                    inside.suspects, inside.quarantines, inside.accepted
                ),
                inside.suspects == 0 && inside.quarantines == 0 && inside.accepted > 0,
            ),
            Comparison::new(
                "quorum",
                "availability is maintained through f simultaneous liars",
                "≥ 90 % of quorum reads accepted during the lie window",
                format!(
                    "accept rate during lies: f=1 {:.1} %, f=2 {:.1} % ({} + {} unavailable)",
                    100.0 * beyond1.accept_rate_during,
                    100.0 * beyond2.accept_rate_during,
                    beyond1.unavailable,
                    beyond2.unavailable
                ),
                beyond1.accept_rate_during >= 0.9 && beyond2.accept_rate_during >= 0.9,
            ),
            Comparison::new(
                "quorum",
                "quarantined liars rejoin after the fault ends",
                "every liar re-admitted via a clean half-open probe",
                format!("rejoins: f=1 {} (≥ 1), f=2 {} (≥ 2)", beyond1.rejoins, beyond2.rejoins),
                beyond1.rejoins >= 1 && beyond2.rejoins >= 2,
            ),
            Comparison::new(
                "quorum",
                "the quorum latency price over single reads is bounded",
                "quorum p50 within 6x of single-read p50; p99 under the 50 ms collect deadline",
                format!(
                    "quorum p50 {:.1} ms vs single p50 {:.1} ms ({price:.2}x); quorum p99 {:.1} ms",
                    honest.quorum_ms[0], honest.single_ms[0], honest.quorum_ms[2]
                ),
                price < 6.0 && honest.quorum_ms[2] < 60.0 && honest.accepted > 0,
            ),
            grid::reproducible_claim(
                "quorum",
                "quorum sweep is bit-reproducible",
                "same seed, same suspect/quarantine/latency traces",
                self.deterministic,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "E22 — quorum sweep (Byzantine detection, quarantine, latency price)\n{}",
            REPORT.render(&self.cells)
        )
    }
}

fn beyond_ratio(honest: &CellResult) -> f64 {
    honest.quorum_ms[0] / honest.single_ms[0].max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sweep_matches_its_claims() {
        let opts = RunOpts::smoke(std::env::temp_dir().join("triad_quorum_test"));
        let r = run(&opts);
        assert_eq!(r.cells.len(), SMOKE_CELLS.len());
        let files = ["quorum_grid.csv", "quorum_nodes.csv"];
        grid::assert_claims_and_files(&opts, "quorum", &r.comparisons(), &files);
    }
}
