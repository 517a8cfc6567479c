//! E20 — the chaos suite: availability, drift and monotonicity under
//! injected faults, Triad vs hardened Triad vs the §V resilient protocol.
//!
//! Each cell of the grid runs one fault class (TA outage, node
//! crash-recovery, full partition, heavy asymmetric loss with
//! duplication/reordering, correlated AEX storm, or a seeded random mix)
//! against one protocol variant. Every run carries a timestamp client and
//! a degraded-tolerant reading client against the faulted node, so
//! client-observed availability is measured directly and the monotonicity
//! contract is asserted *inside* the run (the workload panics on any
//! violation, including across crash-recovery).

use faults::{FaultAction, FaultPlan, RandomFaultConfig};
use netsim::{Addr, LinkStats};
use proto::{RetryPolicy, TA_ADDR};
use resilient::ResilientConfig;
use runtime::World;
use scenario::{AexSpec, FaultSpec, NodeImplSpec, RunCell, RunPlan, ScenarioSpec};
use sim::{SimDuration, SimTime};
use triad_core::{TriadConfig, READING_UNCERTAINTY_NS};

use crate::grid;
use crate::output::{Comparison, RunOpts, Table};

/// Fault onset (all classes schedule their first fault here).
const FAULT_FROM_S: u64 = 40;
/// Fault-window end (primary fault classes recover here).
const FAULT_TO_S: u64 = 100;

/// One injected-fault scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// 60 s TA blackout overlapping a node restart (forces full
    /// calibration against a dead TA).
    TaOutage,
    /// Crash-recovery of the client-facing node (enclave state lost).
    Crash,
    /// The client-facing node fully partitioned from TA and peers.
    Partition,
    /// 90 % loss on the TA→node link plus fabric-wide duplication and
    /// reordering.
    Loss,
    /// A machine-wide correlated AEX storm hitting every node.
    AexStorm,
    /// A seeded random mix of all classes ([`FaultPlan::randomized`]).
    Random,
}

impl FaultClass {
    /// All classes in report order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::TaOutage,
        FaultClass::Crash,
        FaultClass::Partition,
        FaultClass::Loss,
        FaultClass::AexStorm,
        FaultClass::Random,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::TaOutage => "ta-outage",
            FaultClass::Crash => "crash",
            FaultClass::Partition => "partition",
            FaultClass::Loss => "loss",
            FaultClass::AexStorm => "aex-storm",
            FaultClass::Random => "random",
        }
    }

    /// The class's fault plan (shared with E23, which uses the chaos
    /// suite's hand-written plans as search baselines).
    pub(crate) fn plan(self, seed: u64) -> FaultPlan {
        let from = SimTime::from_secs(FAULT_FROM_S);
        let window = SimDuration::from_secs(FAULT_TO_S - FAULT_FROM_S);
        let to = SimTime::from_secs(FAULT_TO_S);
        let node0 = Addr(1);
        match self {
            FaultClass::TaOutage => FaultPlan::new().ta_outage(from, window).crash_window(
                0,
                SimTime::from_secs(FAULT_FROM_S + 5),
                SimDuration::from_secs(5),
            ),
            FaultClass::Crash => FaultPlan::new().crash_window(0, from, SimDuration::from_secs(10)),
            FaultClass::Partition => FaultPlan::new()
                .partition_window(node0, TA_ADDR, from, window)
                .partition_window(node0, Addr(2), from, window)
                .partition_window(node0, Addr(3), from, window),
            FaultClass::Loss => FaultPlan::new()
                .loss_window(TA_ADDR, node0, 0.9, from, window)
                .at(from, FaultAction::SetDuplication { probability: 0.05 })
                .at(
                    from,
                    FaultAction::SetReordering {
                        probability: 0.1,
                        window: SimDuration::from_millis(2),
                    },
                )
                .at(to, FaultAction::SetDuplication { probability: 0.0 })
                .at(to, FaultAction::SetReordering { probability: 0.0, window: SimDuration::ZERO }),
            FaultClass::AexStorm => FaultPlan::new().at(
                from,
                FaultAction::AexStorm {
                    node: None,
                    count: 8,
                    spacing: SimDuration::from_millis(200),
                },
            ),
            FaultClass::Random => {
                let cfg = RandomFaultConfig {
                    window: (SimTime::from_secs(30), SimTime::from_secs(FAULT_TO_S + 10)),
                    ..Default::default()
                };
                FaultPlan::randomized(&cfg, 3, seed)
            }
        }
    }
}

/// One protocol variant in the head-to-head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Each probe is retransmitted once and then effectively never again
    /// (the ablation baseline the retry/backoff machinery is measured
    /// against).
    NoRetry,
    /// Base Triad: the paper's fixed-interval retransmission.
    BaseTriad,
    /// Hardened Triad: exponential backoff + jitter + TA circuit breaker.
    Hardened,
    /// The §V resilient protocol on the hardened transport config.
    Resilient,
}

impl Variant {
    /// All variants in report order.
    pub const ALL: [Variant; 4] =
        [Variant::NoRetry, Variant::BaseTriad, Variant::Hardened, Variant::Resilient];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::NoRetry => "no-retry",
            Variant::BaseTriad => "base-triad",
            Variant::Hardened => "hardened",
            Variant::Resilient => "resilient",
        }
    }

    fn triad_config(self) -> TriadConfig {
        match self {
            // The first retry waits the plain probe timeout (factor^0 = 1),
            // so a second probe goes out; a backoff factor of 10^6 pushes
            // the third ~5·10^5 s away, past any horizon. No breaker.
            Variant::NoRetry => TriadConfig {
                probe_retry: RetryPolicy {
                    factor: 1e6,
                    max_backoff: None,
                    jitter_frac: 0.0,
                    max_attempts: None,
                },
                ta_breaker: false,
                ..Default::default()
            },
            Variant::BaseTriad => TriadConfig::default(),
            Variant::Hardened | Variant::Resilient => TriadConfig::hardened(),
        }
    }
}

/// Measurements from one (class, variant) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Which fault class ran.
    pub class: FaultClass,
    /// Which protocol variant ran.
    pub variant: Variant,
    /// Client-observed availability during the fault window.
    pub avail_during: f64,
    /// Client-observed availability after the fault window (recovery).
    pub avail_after: f64,
    /// Peak reading uncertainty during the fault window (ms).
    pub unc_peak_ms: f64,
    /// Final reading uncertainty at the end of the run (ms).
    pub unc_final_ms: f64,
    /// Worst |drift| of the faulted node over the run (ms).
    pub max_abs_drift_ms: f64,
    /// [`trace::Recorder::max_undetected_drift_ms`] — the E23 search's
    /// drift fitness.
    pub max_undetected_drift_ms: f64,
    /// Probe retransmissions on the faulted node.
    pub retries: u64,
    /// Circuit-breaker openings on the faulted node.
    pub breaker_opens: u64,
    /// Crashes suffered by the faulted node.
    pub crashes: u64,
    /// Fault events the driver applied.
    pub faults_applied: usize,
}

/// Results of the whole grid.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// One row per (class, variant) cell.
    pub cells: Vec<CellResult>,
    /// Whether two same-seed runs of the random class reproduced
    /// bit-identical fault logs and measurements.
    pub deterministic: bool,
    /// Rendered detail (timeline + fault overlay + availability report)
    /// for the hardened TA-outage cell.
    pub detail: String,
}

fn ratio(served: u64, denied: u64) -> f64 {
    if served + denied == 0 {
        0.0
    } else {
        served as f64 / (served + denied) as f64
    }
}

/// One `chaos_links.csv` row: a directed link and its counters.
type LinkRow = (Addr, Addr, LinkStats);

/// Per-cell payload: the measured row plus the two side artifacts that
/// only specific cells produce (extracted *inside* the cell so measured
/// [`World`]s never have to be collected across worker threads).
type CellOutput = (CellResult, Option<String>, Option<Vec<LinkRow>>);

/// `chaos_grid.csv`.
pub(crate) const GRID: Table<CellResult> = Table(&[
    ("fault_class", |c| c.class.label().to_string()),
    ("variant", |c| c.variant.label().to_string()),
    ("avail_during", |c| format!("{:.3}", c.avail_during)),
    ("avail_after", |c| format!("{:.3}", c.avail_after)),
    ("unc_peak_ms", |c| format!("{:.3}", c.unc_peak_ms)),
    ("unc_final_ms", |c| format!("{:.3}", c.unc_final_ms)),
    ("max_abs_drift_ms", |c| format!("{:.1}", c.max_abs_drift_ms)),
    ("max_undetected_drift_ms", |c| format!("{:.3}", c.max_undetected_drift_ms)),
    ("retries", |c| c.retries.to_string()),
    ("breaker_opens", |c| c.breaker_opens.to_string()),
    ("crashes", |c| c.crashes.to_string()),
    ("faults_applied", |c| c.faults_applied.to_string()),
]);

/// `chaos_links.csv`.
pub(crate) const LINKS: Table<LinkRow> = Table(&[
    ("src", |(src, _, _)| src.to_string()),
    ("dst", |(_, dst, _)| dst.to_string()),
    ("sent", |(_, _, s)| s.sent.to_string()),
    ("delivered", |(_, _, s)| s.delivered.to_string()),
    ("lost", |(_, _, s)| s.lost.to_string()),
    ("partition_dropped", |(_, _, s)| s.partition_dropped.to_string()),
    ("duplicated", |(_, _, s)| s.duplicated.to_string()),
    ("reordered", |(_, _, s)| s.reordered.to_string()),
]);

const REPORT: Table<CellResult> = Table(&[
    ("fault", |c| c.class.label().to_string()),
    ("variant", |c| c.variant.label().to_string()),
    ("avail@fault", |c| format!("{:.2}", c.avail_during)),
    ("avail@after", |c| format!("{:.2}", c.avail_after)),
    ("unc peak (ms)", |c| format!("{:.1}", c.unc_peak_ms)),
    ("unc final (ms)", |c| format!("{:.1}", c.unc_final_ms)),
    ("retries", |c| c.retries.to_string()),
    ("breaker", |c| c.breaker_opens.to_string()),
    ("crashes", |c| c.crashes.to_string()),
]);

fn spec_for(opts: &RunOpts, class: FaultClass, variant: Variant, seed: u64) -> ScenarioSpec {
    let horizon = if opts.quick { SimTime::from_secs(150) } else { SimTime::from_secs(300) };
    let mut spec = ScenarioSpec::new(3)
        .horizon(horizon)
        .all_nodes_aex(AexSpec::TriadLike)
        .config(variant.triad_config())
        .client(0, SimDuration::from_millis(20))
        .reading_client(0, SimDuration::from_millis(20))
        .faults(FaultSpec::Fixed(class.plan(seed)));
    if variant == Variant::Resilient {
        spec = spec.node_impl(NodeImplSpec::Resilient(Box::new(ResilientConfig {
            base: TriadConfig::hardened(),
            ..Default::default()
        })));
    }
    spec
}

fn run_cell(opts: &RunOpts, cell: &RunCell<(FaultClass, Variant)>) -> CellOutput {
    let (class, variant) = cell.param;
    let spec = spec_for(opts, class, variant, cell.seed);
    let horizon = spec.horizon;
    let world = spec.run(cell.seed);

    let from = SimTime::from_secs(FAULT_FROM_S);
    let to = SimTime::from_secs(FAULT_TO_S);
    let t = world.recorder.node(0);
    let unc_peak =
        t.reading_uncertainty_ns.window(from, to).iter().map(|&(_, u)| u).fold(0.0f64, f64::max);
    let (d_lo, d_hi) = t.drift_ms.value_range().unwrap_or((0.0, 0.0));
    let result = CellResult {
        class,
        variant,
        avail_during: ratio(t.client_served.count_in(from, to), t.client_denied.count_in(from, to)),
        avail_after: ratio(
            t.client_served.count_in(to, horizon),
            t.client_denied.count_in(to, horizon),
        ),
        unc_peak_ms: unc_peak / 1e6,
        unc_final_ms: t.reading_uncertainty_ns.last().map(|(_, u)| u / 1e6).unwrap_or(0.0),
        max_abs_drift_ms: d_lo.abs().max(d_hi.abs()),
        max_undetected_drift_ms: world.recorder.max_undetected_drift_ms(),
        retries: t.probe_retries.count(),
        breaker_opens: t.breaker_opens.count(),
        crashes: t.crashes.count(),
        faults_applied: world.recorder.faults.len(),
    };

    let detail = (class == FaultClass::TaOutage && variant == Variant::Hardened)
        .then(|| render_detail(&world, horizon));
    let link_rows = (class == FaultClass::Loss && variant == Variant::Hardened)
        .then(|| world.net.per_link_stats());
    (result, detail, link_rows)
}

fn render_detail(world: &World, horizon: SimTime) -> String {
    let timelines: Vec<(String, &trace::StateTimeline)> =
        world.recorder.iter().map(|t| (t.label.clone(), &t.states)).collect();
    let refs: Vec<(&str, &trace::StateTimeline)> =
        timelines.iter().map(|(l, tl)| (l.as_str(), *tl)).collect();
    format!(
        "hardened variant under ta-outage (node timeline, fault overlay, report)\n{}{}\n{}",
        trace::ascii_gantt(&refs, SimTime::ZERO, horizon, 72),
        trace::ascii_fault_overlay(&world.recorder.faults, SimTime::ZERO, horizon, 72),
        trace::availability_report(&world.recorder, SimTime::ZERO, horizon),
    )
}

/// The fault classes exercised in smoke mode: the three whose cells the
/// [`ChaosResult::comparisons`] claims read, so the claim table stays
/// meaningful on the reduced grid.
const SMOKE_CLASSES: [FaultClass; 3] =
    [FaultClass::TaOutage, FaultClass::Crash, FaultClass::Partition];

/// Runs the grid, the determinism double-run, and writes
/// `chaos_grid.csv` + `chaos_links.csv`.
pub fn run(opts: &RunOpts) -> ChaosResult {
    let classes: &[FaultClass] = if opts.smoke { &SMOKE_CLASSES } else { &FaultClass::ALL };
    let plan = RunPlan::with_seeds(classes.iter().flat_map(|&class| {
        Variant::ALL.iter().map(move |&variant| {
            ((class, variant), opts.seed ^ 0xE20_0000 ^ ((class as u64) << 8) ^ (variant as u64))
        })
    }));
    let outputs: Vec<CellOutput> = opts.runner().run(&plan, |cell| run_cell(opts, cell));

    let mut cells = Vec::new();
    let mut detail = String::new();
    let mut link_rows: Vec<LinkRow> = Vec::new();
    for (cell, cell_detail, cell_links) in outputs {
        if let Some(d) = cell_detail {
            detail = d;
        }
        if let Some(l) = cell_links {
            link_rows = l;
        }
        cells.push(cell);
    }

    // Acceptance check: the seeded random class is bit-reproducible.
    let deterministic = {
        let (class, variant) = (FaultClass::Random, Variant::Hardened);
        let seed = opts.seed ^ 0xE20_0000 ^ ((class as u64) << 8) ^ (variant as u64);
        grid::reproducible(&spec_for(opts, class, variant, seed), seed, |world| {
            let node0 = world.recorder.node(0);
            (
                world.recorder.faults.clone(),
                node0.client_served.count(),
                node0.calibrations_hz.clone(),
            )
        })
    };

    let dir = opts.dir_for("chaos");
    GRID.write_csv(&dir, "chaos_grid.csv", &cells).expect("write chaos grid csv");
    LINKS.write_csv(&dir, "chaos_links.csv", &link_rows).expect("write chaos links csv");

    ChaosResult { cells, deterministic, detail }
}

impl ChaosResult {
    fn cell(&self, class: FaultClass, variant: Variant) -> &CellResult {
        self.cells
            .iter()
            .find(|c| c.class == class && c.variant == variant)
            .expect("grid is complete")
    }

    /// Claim-vs-measured rows for EXPERIMENTS.md.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let no_retry = self.cell(FaultClass::TaOutage, Variant::NoRetry);
        let hardened = self.cell(FaultClass::TaOutage, Variant::Hardened);
        let crash = self.cell(FaultClass::Crash, Variant::Hardened);
        let part = self.cell(FaultClass::Partition, Variant::Hardened);
        let floor_ms = READING_UNCERTAINTY_NS as f64 / 1e6;
        vec![
            Comparison::new(
                "chaos",
                "retry/backoff restores availability after a TA outage",
                "no-retry node never recalibrates; hardened recovers",
                format!(
                    "post-outage availability: no-retry {:.2} vs hardened {:.2}",
                    no_retry.avail_after, hardened.avail_after
                ),
                hardened.avail_after > no_retry.avail_after + 0.3,
            ),
            Comparison::new(
                "chaos",
                "clock stays monotonic through crash-recovery",
                "serving floor survives enclave-state loss",
                format!(
                    "{} crash(es), in-run monotonicity asserts passed, post-crash availability {:.2}",
                    crash.crashes, crash.avail_after
                ),
                crash.crashes > 0 && crash.avail_after > 0.5,
            ),
            Comparison::new(
                "chaos",
                "degraded reading uncertainty widens, then collapses",
                "uncertainty grows with staleness while partitioned, returns to the floor after recalibration",
                format!(
                    "peak {:.1} ms vs final {:.1} ms (floor {floor_ms:.1} ms)",
                    part.unc_peak_ms, part.unc_final_ms
                ),
                part.unc_peak_ms > 3.0 * floor_ms && part.unc_final_ms < 2.0 * floor_ms,
            ),
            Comparison::new(
                "chaos",
                "circuit breaker stops hammering a dead TA",
                "hardened sends bounded retries, then one trial per cooldown",
                format!(
                    "retries during outage: base {} vs hardened {} (breaker opened {}x)",
                    self.cell(FaultClass::TaOutage, Variant::BaseTriad).retries,
                    hardened.retries,
                    hardened.breaker_opens
                ),
                hardened.breaker_opens > 0
                    && hardened.retries
                        < self.cell(FaultClass::TaOutage, Variant::BaseTriad).retries,
            ),
            grid::reproducible_claim(
                "chaos",
                "seeded chaos suite is bit-reproducible",
                "same seed, same fault log and measurements",
                self.deterministic,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "E20 — chaos suite (availability under injected faults)\n{}\n{}",
            REPORT.render(&self.cells),
            self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proto::{node_addr, Effect, Machine, ScriptedEnv};
    use triad_core::TriadNode;

    #[test]
    fn no_retry_sends_each_probe_twice_then_falls_silent() {
        let cfg = Variant::NoRetry.triad_config();
        let mut node = TriadNode::new(node_addr(0), vec![node_addr(1)], cfg);
        let mut env = ScriptedEnv::new(2, 1);
        let probes = |effects: Vec<Effect>| {
            effects.iter().filter(|e| matches!(e, Effect::Send { dst: TA_ADDR, .. })).count()
        };
        node.on_start(&mut env);
        let mut sent = vec![(env.now, probes(env.take_effects()))];
        // The TA never answers: play every timer due within a day.
        while let Some(input) = env.fire_next() {
            if env.now > SimTime::from_secs(86_400) {
                break;
            }
            node.on_input(&mut env, input);
            let n = probes(env.take_effects());
            if n > 0 {
                sent.push((env.now, n));
            }
        }
        // The original probe, one retry after the 500 ms probe timeout,
        // then silence.
        let retry_at = SimTime::ZERO + SimDuration::from_millis(500);
        assert_eq!(sent, [(SimTime::ZERO, 1), (retry_at, 1)]);
    }

    #[test]
    fn chaos_grid_matches_its_claims() {
        let opts = RunOpts::quick(std::env::temp_dir().join("triad_chaos_test"));
        let r = run(&opts);
        assert_eq!(r.cells.len(), FaultClass::ALL.len() * Variant::ALL.len());
        let files = ["chaos_grid.csv", "chaos_links.csv"];
        grid::assert_claims_and_files(&opts, "chaos", &r.comparisons(), &files);
    }
}
