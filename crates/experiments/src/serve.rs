//! E21 — the serving sweep: trusted-timestamp serving under load.
//!
//! Each cell of the grid drives a cluster of batching front-ends (one
//! per node) with an aggregated open-loop arrival process plus a small
//! closed-loop population, sweeping cluster size × offered load × fault
//! overlay (quiet, TA outage under a correlated AEX storm, AEX storm
//! alone, node crash). Front-ends amortize one enclave timestamp read
//! over each batch, shed with explicit `Overloaded` replies when their
//! bounded admission queue fills, and serve staleness-aware degraded
//! readings while their node is tainted or recalibrating; generators
//! time out, fail over, and account every request into the run's SLO
//! histogram (p50/p95/p99/p99.9) and outcome counters.

use faults::{FaultAction, FaultPlan};
use scenario::{AexSpec, FaultSpec, RunCell, RunPlan, ScenarioSpec};
use service::{OpenLoopSpec, ServiceSpec};
use sim::{SimDuration, SimTime};
use triad_core::TriadConfig;

use crate::grid;
use crate::output::{Comparison, RunOpts, Table};

/// Offered-load level, anchored to the two-node cluster's drain
/// capacity: `Light` ≈ 50 %, `Nominal` ≈ 75 %, `Overload` ≈ 200 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadLevel {
    /// Well under capacity.
    Light,
    /// Near the knee.
    Nominal,
    /// Twice the two-node capacity: shedding is the correct answer.
    Overload,
}

impl LoadLevel {
    /// All levels in report order.
    pub const ALL: [LoadLevel; 3] = [LoadLevel::Light, LoadLevel::Nominal, LoadLevel::Overload];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LoadLevel::Light => "light",
            LoadLevel::Nominal => "nominal",
            LoadLevel::Overload => "overload",
        }
    }

    /// Open-loop offered rate (requests per second), absolute — the same
    /// at every cluster size, so scale-out is measured directly.
    fn rate(self, opts: &RunOpts) -> f64 {
        let rates = if opts.smoke { [300.0, 600.0, 1600.0] } else { [1000.0, 1500.0, 3200.0] };
        rates[self as usize]
    }
}

/// Fault overlay applied mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlay {
    /// No faults: the baseline serving behaviour.
    Quiet,
    /// TA blackout under a machine-wide AEX storm: every node is forced
    /// into TA recalibration against a dead authority and stays degraded
    /// until the outage lifts.
    TaOutage,
    /// A machine-wide correlated AEX storm with the TA alive: brief
    /// degradation, fast recovery.
    AexStorm,
    /// Crash-recovery of node 0: its front-end goes silent and traffic
    /// must fail over.
    Crash,
}

impl Overlay {
    /// All overlays in report order.
    pub const ALL: [Overlay; 4] =
        [Overlay::Quiet, Overlay::TaOutage, Overlay::AexStorm, Overlay::Crash];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Overlay::Quiet => "none",
            Overlay::TaOutage => "ta-outage",
            Overlay::AexStorm => "aex-storm",
            Overlay::Crash => "crash",
        }
    }

    fn plan(self, t: &Timing) -> Option<FaultPlan> {
        let window = t.fault_to - t.fault_from;
        let storm =
            FaultAction::AexStorm { node: None, count: 6, spacing: SimDuration::from_millis(150) };
        match self {
            Overlay::Quiet => None,
            Overlay::TaOutage => Some(
                FaultPlan::new()
                    .ta_outage(t.fault_from, window)
                    // The correlated storm forces TA recalibration, which
                    // cannot complete while the TA is dark.
                    .at(t.fault_from + SimDuration::from_millis(500), storm),
            ),
            Overlay::AexStorm => Some(FaultPlan::new().at(t.fault_from, storm)),
            Overlay::Crash => {
                Some(FaultPlan::new().crash_window(0, t.fault_from, window.mul_f64(0.5)))
            }
        }
    }
}

/// Measurement windows for one mode.
struct Timing {
    /// Warm-up end: first calibrations are done, serving is steady.
    warm: SimTime,
    /// Fault-overlay onset.
    fault_from: SimTime,
    /// Fault-overlay end (recovery starts).
    fault_to: SimTime,
    /// Run horizon.
    horizon: SimTime,
}

fn timing(opts: &RunOpts) -> Timing {
    let (warm, from, to, horizon) = if opts.smoke {
        (8, 12, 22, 30)
    } else if opts.quick {
        (15, 25, 55, 75)
    } else {
        (20, 40, 100, 150)
    };
    Timing {
        warm: SimTime::from_secs(warm),
        fault_from: SimTime::from_secs(from),
        fault_to: SimTime::from_secs(to),
        horizon: SimTime::from_secs(horizon),
    }
}

/// Measurements from one (size, load, overlay) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Cluster size.
    pub size: usize,
    /// Offered-load level.
    pub load: LoadLevel,
    /// Fault overlay.
    pub overlay: Overlay,
    /// Requests issued by the generators.
    pub offered: u64,
    /// Answered at full precision.
    pub served_ok: u64,
    /// Answered with a degraded reading.
    pub served_degraded: u64,
    /// Settled `Overloaded` after failover.
    pub shed: u64,
    /// Settled `Unavailable` after failover.
    pub unavailable: u64,
    /// Abandoned at the final timeout.
    pub timeouts: u64,
    /// Rerouted retry attempts.
    pub failovers: u64,
    /// SLO percentiles of answered-request latency (ms).
    pub slo_ms: [f64; 4],
    /// Batches flushed across all front-ends (= enclave reads).
    pub batches: u64,
    /// Requests answered across all front-ends.
    pub fe_served: u64,
    /// Requests shed at admission across all front-ends.
    pub fe_shed: u64,
    /// Full-precision goodput rate before the fault window (req/s).
    pub ok_before_rate: f64,
    /// Full-precision goodput rate during the fault window (req/s).
    pub ok_during_rate: f64,
    /// Full-precision goodput rate after the fault window (req/s).
    pub ok_after_rate: f64,
    /// Degraded answers during the fault window.
    pub deg_during: u64,
    /// Whether node 0's front-end served again after the overlay ended
    /// (crash-recovery liveness).
    pub node0_recovered: bool,
    /// Per-node `(served, shed, qps)` over the whole run.
    pub per_node: Vec<(u64, u64, f64)>,
}

/// Results of the whole sweep.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// One row per grid cell.
    pub cells: Vec<CellResult>,
    /// Whether the determinism double-run reproduced identical serving
    /// traces.
    pub deterministic: bool,
}

/// `serve_grid.csv`.
pub(crate) const GRID: Table<CellResult> = Table(&[
    ("size", |c| c.size.to_string()),
    ("load", |c| c.load.label().to_string()),
    ("overlay", |c| c.overlay.label().to_string()),
    ("offered", |c| c.offered.to_string()),
    ("served_ok", |c| c.served_ok.to_string()),
    ("served_degraded", |c| c.served_degraded.to_string()),
    ("shed", |c| c.shed.to_string()),
    ("unavailable", |c| c.unavailable.to_string()),
    ("timeouts", |c| c.timeouts.to_string()),
    ("failovers", |c| c.failovers.to_string()),
    ("p50_ms", |c| format!("{:.3}", c.slo_ms[0])),
    ("p95_ms", |c| format!("{:.3}", c.slo_ms[1])),
    ("p99_ms", |c| format!("{:.3}", c.slo_ms[2])),
    ("p999_ms", |c| format!("{:.3}", c.slo_ms[3])),
    ("enclave_reads", |c| c.batches.to_string()),
    ("fe_served", |c| c.fe_served.to_string()),
    ("fe_shed", |c| c.fe_shed.to_string()),
    ("ok_before_rps", |c| format!("{:.1}", c.ok_before_rate)),
    ("ok_during_rps", |c| format!("{:.1}", c.ok_during_rate)),
    ("ok_after_rps", |c| format!("{:.1}", c.ok_after_rate)),
    ("deg_during", |c| c.deg_during.to_string()),
]);

/// One `serve_nodes.csv` row: the cell's coordinates, the 0-based node
/// index and that node's `(served, shed, qps)`.
type NodeRow = (usize, LoadLevel, Overlay, usize, (u64, u64, f64));

/// `serve_nodes.csv`.
pub(crate) const NODES: Table<NodeRow> = Table(&[
    ("size", |(size, ..)| size.to_string()),
    ("load", |(_, load, ..)| load.label().to_string()),
    ("overlay", |(_, _, overlay, ..)| overlay.label().to_string()),
    ("node", |(.., node, _)| (node + 1).to_string()),
    ("fe_served", |(.., (served, _, _))| served.to_string()),
    ("fe_shed", |(.., (_, shed, _))| shed.to_string()),
    ("qps", |(.., (_, _, qps))| format!("{qps:.1}")),
]);

const REPORT: Table<CellResult> = Table(&[
    ("nodes", |c| c.size.to_string()),
    ("load", |c| c.load.label().to_string()),
    ("overlay", |c| c.overlay.label().to_string()),
    ("offered", |c| c.offered.to_string()),
    ("goodput", |c| (c.served_ok + c.served_degraded).to_string()),
    ("shed", |c| c.shed.to_string()),
    ("timeouts", |c| c.timeouts.to_string()),
    ("failovers", |c| c.failovers.to_string()),
    ("p50 (ms)", |c| format!("{:.1}", c.slo_ms[0])),
    ("p99 (ms)", |c| format!("{:.1}", c.slo_ms[2])),
    ("reqs/read", |c| format!("{:.1}", c.fe_served as f64 / c.batches.max(1) as f64)),
]);

fn spec_for(opts: &RunOpts, size: usize, load: LoadLevel, overlay: Overlay) -> ScenarioSpec {
    let t = timing(opts);
    let svc = ServiceSpec::new()
        .frontend(grid::frontend_spec(opts))
        .router(grid::router_spec())
        .open_loop(OpenLoopSpec { rate_per_s: load.rate(opts) })
        // A small strict population: full precision or nothing, so
        // degraded windows show up as `Unavailable` pressure too.
        .closed_loop();
    let mut spec = ScenarioSpec::new(size)
        .horizon(t.horizon)
        .all_nodes_aex(AexSpec::TriadLike)
        .config(TriadConfig::hardened())
        .service(svc);
    if let Some(plan) = overlay.plan(&t) {
        spec = spec.faults(FaultSpec::Fixed(plan));
    }
    spec
}

fn rate_in(counter: &trace::RateCounter, from: SimTime, to: SimTime) -> f64 {
    counter.count_in(from, to) as f64 / (to - from).as_secs_f64()
}

fn run_cell(opts: &RunOpts, cell: &RunCell<(usize, LoadLevel, Overlay)>) -> CellResult {
    let (size, load, overlay) = cell.param;
    let t = timing(opts);
    let world = spec_for(opts, size, load, overlay).run(cell.seed);

    let s = &world.recorder.service;
    let horizon_s = t.horizon.as_secs_f64();
    let per_node: Vec<(u64, u64, f64)> = world
        .recorder
        .iter()
        .map(|n| {
            let served = n.frontend_served.count();
            (served, n.frontend_shed.count(), served as f64 / horizon_s)
        })
        .collect();
    let node0 = world.recorder.node(0);
    CellResult {
        size,
        load,
        overlay,
        offered: s.offered.count(),
        served_ok: s.served_ok.count(),
        served_degraded: s.served_degraded.count(),
        shed: s.shed.count(),
        unavailable: s.unavailable.count(),
        timeouts: s.timeouts.count(),
        failovers: s.failovers.count(),
        slo_ms: s.latency.slo_percentiles().map(|ns| ns / 1e6),
        batches: world.recorder.iter().map(|n| n.frontend_batches.count()).sum(),
        fe_served: per_node.iter().map(|&(served, _, _)| served).sum(),
        fe_shed: per_node.iter().map(|&(_, shed, _)| shed).sum(),
        ok_before_rate: rate_in(&s.served_ok, t.warm, t.fault_from),
        ok_during_rate: rate_in(&s.served_ok, t.fault_from, t.fault_to),
        ok_after_rate: rate_in(&s.served_ok, t.fault_to, t.horizon),
        deg_during: s.served_degraded.count_in(t.fault_from, t.fault_to),
        node0_recovered: node0.frontend_served.count() > node0.frontend_served.count_at(t.fault_to),
        per_node,
    }
}

/// The cells exercised in smoke mode: exactly the ones the
/// [`ServeResult::comparisons`] claims read.
const SMOKE_CELLS: [(usize, LoadLevel, Overlay); 5] = [
    (2, LoadLevel::Nominal, Overlay::Quiet),
    (2, LoadLevel::Overload, Overlay::Quiet),
    (4, LoadLevel::Overload, Overlay::Quiet),
    (2, LoadLevel::Nominal, Overlay::TaOutage),
    (2, LoadLevel::Nominal, Overlay::Crash),
];

fn cell_seed(opts: &RunOpts, size: usize, load: LoadLevel, overlay: Overlay) -> u64 {
    opts.seed ^ 0xE21_0000 ^ ((size as u64) << 16) ^ ((load as u64) << 8) ^ (overlay as u64)
}

/// Runs the grid, the determinism double-run, and writes
/// `serve_grid.csv` + `serve_nodes.csv`.
pub fn run(opts: &RunOpts) -> ServeResult {
    let grid: Vec<(usize, LoadLevel, Overlay)> = if opts.smoke {
        SMOKE_CELLS.to_vec()
    } else {
        [2usize, 4]
            .iter()
            .flat_map(|&size| {
                LoadLevel::ALL.iter().flat_map(move |&load| {
                    Overlay::ALL.iter().map(move |&overlay| (size, load, overlay))
                })
            })
            .collect()
    };
    let plan = RunPlan::with_seeds(grid.into_iter().map(|(size, load, overlay)| {
        ((size, load, overlay), cell_seed(opts, size, load, overlay))
    }));
    let cells: Vec<CellResult> = opts.runner().run(&plan, |cell| run_cell(opts, cell));

    // Acceptance check: the serving layer is bit-reproducible.
    let deterministic = {
        let (size, load, overlay) = (2, LoadLevel::Nominal, Overlay::Quiet);
        let seed = cell_seed(opts, size, load, overlay);
        grid::reproducible(&spec_for(opts, size, load, overlay), seed, |world| {
            let node0 = world.recorder.node(0);
            (
                world.recorder.service.clone(),
                node0.frontend_batches.clone(),
                node0.frontend_shed.clone(),
            )
        })
    };

    let dir = opts.dir_for("serve");
    GRID.write_csv(&dir, "serve_grid.csv", &cells).expect("write serve grid csv");
    let node_rows = cells.iter().flat_map(|c| {
        c.per_node.iter().enumerate().map(move |(i, &node)| (c.size, c.load, c.overlay, i, node))
    });
    NODES.write_csv(&dir, "serve_nodes.csv", node_rows).expect("write serve nodes csv");

    ServeResult { cells, deterministic }
}

impl ServeResult {
    fn cell(&self, size: usize, load: LoadLevel, overlay: Overlay) -> &CellResult {
        self.cells
            .iter()
            .find(|c| c.size == size && c.load == load && c.overlay == overlay)
            .expect("grid is complete")
    }

    /// Claim-vs-measured rows for EXPERIMENTS.md.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let nominal = self.cell(2, LoadLevel::Nominal, Overlay::Quiet);
        let over2 = self.cell(2, LoadLevel::Overload, Overlay::Quiet);
        let over4 = self.cell(4, LoadLevel::Overload, Overlay::Quiet);
        let outage = self.cell(2, LoadLevel::Nominal, Overlay::TaOutage);
        let crash = self.cell(2, LoadLevel::Nominal, Overlay::Crash);
        let amortization = nominal.fe_served as f64 / nominal.batches.max(1) as f64;
        vec![
            Comparison::new(
                "serve",
                "batching amortizes enclave reads over many requests",
                "one timestamp read serves a whole batch",
                format!(
                    "{} answers from {} enclave reads ({amortization:.1}x)",
                    nominal.fe_served, nominal.batches
                ),
                amortization > 1.5,
            ),
            Comparison::new(
                "serve",
                "overload sheds explicitly with bounded tail latency",
                "bounded queue: Overloaded replies, p99 stays bounded",
                format!(
                    "shed {} of {} offered, p99 {:.1} ms, goodput {}",
                    over2.shed,
                    over2.offered,
                    over2.slo_ms[2],
                    over2.served_ok + over2.served_degraded
                ),
                over2.shed > 0
                    && over2.fe_shed > 0
                    && over2.slo_ms[2] < 500.0
                    && over2.served_ok > 0,
            ),
            Comparison::new(
                "serve",
                "scale-out absorbs the same offered load",
                "4 nodes shed far less than 2 at identical load",
                format!("shed: 2 nodes {} vs 4 nodes {}", over2.shed, over4.shed),
                over4.shed * 2 < over2.shed,
            ),
            Comparison::new(
                "serve",
                "TA outage degrades gracefully, then recovers",
                "full-precision rate falls, degraded readings appear, no collapse",
                format!(
                    "ok rate {:.0}→{:.0}→{:.0} req/s, {} degraded answers during outage",
                    outage.ok_before_rate,
                    outage.ok_during_rate,
                    outage.ok_after_rate,
                    outage.deg_during
                ),
                outage.ok_during_rate < 0.7 * outage.ok_before_rate
                    && outage.deg_during > 0
                    && outage.ok_after_rate > 0.5 * outage.ok_before_rate,
            ),
            Comparison::new(
                "serve",
                "node crash fails over and the node rejoins",
                "survivors keep serving; the crashed node serves again after restart",
                format!(
                    "{} failovers, ok rate during crash {:.0} req/s, node 0 recovered: {}",
                    crash.failovers, crash.ok_during_rate, crash.node0_recovered
                ),
                crash.failovers > 0 && crash.ok_during_rate > 0.0 && crash.node0_recovered,
            ),
            grid::reproducible_claim(
                "serve",
                "serving sweep is bit-reproducible",
                "same seed, same SLO histogram and counters",
                self.deterministic,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "E21 — serving sweep (goodput, shedding, failover, SLO tails)\n{}",
            REPORT.render(&self.cells)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_sweep_matches_its_claims() {
        let opts = RunOpts::smoke(std::env::temp_dir().join("triad_serve_test"));
        let r = run(&opts);
        assert_eq!(r.cells.len(), SMOKE_CELLS.len());
        let files = ["serve_grid.csv", "serve_nodes.csv"];
        grid::assert_claims_and_files(&opts, "serve", &r.comparisons(), &files);
    }
}
