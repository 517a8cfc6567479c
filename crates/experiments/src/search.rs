//! # E23 — adversarial scenario search
//!
//! Turns the repo's threat model into a query: instead of asking "does
//! the §V hardened protocol survive the attacks we thought of?", the
//! search asks "what is the worst *undetected* failure a seeded
//! mutation/crossover search can find?" — and measures it against every
//! hand-written E20 chaos plan, E22 lying-node plan, E13 TSC
//! manipulation and F± calibration attack, rescaled into the same
//! evaluation scenario.
//!
//! The grid is budget × fitness-target × cluster shape. Each cell runs
//! [`::search::search`] with a cell-derived master seed and a shared
//! per-(shape, target) evaluation seed, so budgets are comparable and a
//! baseline is evaluated exactly once per (shape, target). Winners at
//! the largest budget are shrunk 1-minimal and committed as reproducer
//! files under `<out>/search/corpus/`, which `triad-experiments replay`
//! and the repo's regression tests re-run forever after.
//!
//! Outputs: `search_grid.csv`, `search_baselines.csv`, `search_log.txt`,
//! `corpus/*.scn` and comparison rows (beats-all-baselines per cell,
//! 1-minimality, determinism across `--jobs`, replay fidelity).

use ::search::{
    delete_one_variants, evaluate, search as run_search, shrink, AdversaryGenome, Fitness,
    FitnessTarget, GenomeSpace, Reproducer, SearchConfig, SearchOutcome,
};
use attacks::DelayAttackMode;
use faults::{FaultAction, FaultEvent, FaultPlan};
use netsim::Addr;
use scenario::{derive_seed, AttackSpec, RunPlan};
use sim::{SimDuration, SimTime};
use tsc::TscManipulation;

use crate::chaos::FaultClass;
use crate::output::{Comparison, RunOpts, Table};

/// Genomes bred per generation in every cell.
const POPULATION: usize = 16;

/// The horizon the E20 chaos plans are authored against (their quick
/// mode); baseline plans are rescaled from it into the search horizon.
const CHAOS_REFERENCE_S: u64 = 150;

/// One search cell: a full run of the engine at one (shape, target,
/// budget) point.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's full engine configuration (kept so the determinism
    /// double-run can replay it with a different `jobs`).
    pub cfg: SearchConfig,
    /// What the search found.
    pub outcome: SearchOutcome,
}

/// One hand-written baseline's score in one (shape, target) scenario.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The evaluation scenario.
    pub space: GenomeSpace,
    /// The damage metric.
    pub target: FitnessTarget,
    /// Which hand-written plan this is.
    pub name: String,
    /// Its fitness at the shared evaluation seed.
    pub fitness: Fitness,
}

/// Everything E23 produces.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// All grid cells in (shape, target, budget) order.
    pub cells: Vec<CellResult>,
    /// All baseline scores in (shape, target, name) order.
    pub baselines: Vec<BaselineResult>,
    /// One shrunk reproducer per (shape, target), from the largest
    /// budget's winner.
    pub reproducers: Vec<Reproducer>,
    /// Whether every reproducer is 1-minimal (deleting any element
    /// loses its fitness).
    pub minimal: bool,
    /// Whether every reproducer replays to its recorded fitness exactly.
    pub replay_ok: bool,
    /// Whether re-running the first cell at a different `--jobs` yields
    /// a byte-identical outcome and log.
    pub deterministic: bool,
}

/// `search_grid.csv`.
pub(crate) const GRID: Table<CellResult> = Table(&[
    ("n", |c| c.cfg.space.n.to_string()),
    ("service", |c| c.cfg.space.service.to_string()),
    ("target", |c| c.cfg.target.encode().to_string()),
    ("budget", |c| c.cfg.budget.to_string()),
    ("evaluations", |c| c.outcome.evaluations.to_string()),
    ("best_detections", |c| c.outcome.fitness.detections.to_string()),
    ("best_value", |c| format!("{:.6}", c.outcome.fitness.value)),
    ("best_size", |c| c.outcome.best.size().to_string()),
    ("best_candidate", |c| c.outcome.candidate.to_string()),
]);

/// `search_baselines.csv`.
pub(crate) const BASELINES: Table<BaselineResult> = Table(&[
    ("n", |b| b.space.n.to_string()),
    ("target", |b| b.target.encode().to_string()),
    ("baseline", |b| b.name.clone()),
    ("detections", |b| b.fitness.detections.to_string()),
    ("value", |b| format!("{:.6}", b.fitness.value)),
]);

/// Replay tolerance: detections must match exactly; the damage value
/// may differ by at most `1e-6` absolute or relative (CSV-style noise),
/// which an in-process replay never exhibits but a cross-platform float
/// printer might.
pub fn replay_close(measured: &Fitness, recorded: &Fitness) -> bool {
    measured.detections == recorded.detections
        && (measured.value - recorded.value).abs() <= 1e-6f64.max(1e-6 * recorded.value.abs())
}

/// The cluster shapes searched: n=3 (and n=5 outside smoke mode), both
/// with the serving layer up so SLO fitness is meaningful.
fn shapes(opts: &RunOpts) -> Vec<GenomeSpace> {
    let horizon_s = if opts.smoke {
        36
    } else if opts.quick {
        60
    } else {
        90
    };
    let ns: &[usize] = if opts.smoke { &[3] } else { &[3, 5] };
    ns.iter().map(|&n| GenomeSpace { n, horizon_s, service: true }).collect()
}

/// The evaluation budgets per cell (smoke runs only the full budget).
fn budgets(opts: &RunOpts) -> Vec<usize> {
    let b = opts.budget.unwrap_or(if opts.smoke {
        64
    } else if opts.quick {
        96
    } else {
        160
    });
    if opts.smoke {
        vec![b]
    } else {
        vec![b / 2, b]
    }
}

/// The shared evaluation seed for one (shape, target): every candidate
/// and every baseline in that scenario runs at this seed.
fn eval_seed(opts: &RunOpts, space: &GenomeSpace, target: FitnessTarget) -> u64 {
    derive_seed(opts.seed ^ 0xE23_0000, ((space.n as u64) << 8) | target as u64)
}

/// Rescales a fault plan authored against [`CHAOS_REFERENCE_S`] into a
/// `horizon_s`-second run, preserving event order and proportions.
fn rescaled(plan: &FaultPlan, horizon_s: u64) -> FaultPlan {
    plan.events().iter().fold(FaultPlan::new(), |p, e| {
        p.at(SimTime::from_nanos(e.at.as_nanos() / CHAOS_REFERENCE_S * horizon_s), e.action.clone())
    })
}

/// Every hand-written adversary the search is measured against, adapted
/// to `space`: the six E20 chaos plans, the two E22 lying-node levels,
/// four E13-style TSC manipulations and both F± calibration attacks.
fn baseline_genomes(space: &GenomeSpace, base_seed: u64) -> Vec<(String, AdversaryGenome)> {
    let h = space.horizon_s;
    let third = SimTime::from_secs(h / 3);
    let window = SimDuration::from_secs(h / 3);
    let mut out: Vec<(String, AdversaryGenome)> = Vec::new();
    for class in FaultClass::ALL {
        let plan = class.plan(derive_seed(base_seed ^ 0xE23_0002, class as u64));
        out.push((
            format!("chaos-{}", class.label()),
            AdversaryGenome { faults: rescaled(&plan, h), ..Default::default() },
        ));
    }
    out.push((
        "lie-inside".to_string(),
        AdversaryGenome {
            faults: FaultPlan::new().lie_window(0, 1_000_000, false, third, window),
            ..Default::default()
        },
    ));
    out.push((
        "lie-beyond-equivocate".to_string(),
        AdversaryGenome {
            faults: FaultPlan::new().lie_window(0, 250_000_000, true, third, window),
            ..Default::default()
        },
    ));
    let node = space.n - 1;
    for (name, manipulation) in [
        ("tsc-scale-5e-5", TscManipulation::ScaleRate(1.000_05)),
        ("tsc-scale-2e-4", TscManipulation::ScaleRate(1.000_2)),
        ("tsc-jump-plus", TscManipulation::OffsetJump(29_000_000)),
        ("tsc-jump-minus", TscManipulation::OffsetJump(-29_000_000)),
    ] {
        out.push((
            name.to_string(),
            AdversaryGenome {
                manipulations: vec![FaultEvent {
                    at: third,
                    action: FaultAction::ManipulateTsc { node, manipulation },
                }],
                ..Default::default()
            },
        ));
    }
    for (name, mode) in
        [("attack-f-plus", DelayAttackMode::FPlus), ("attack-f-minus", DelayAttackMode::FMinus)]
    {
        out.push((
            name.to_string(),
            AdversaryGenome {
                attack: Some(AttackSpec::calibration_delay_paper(Addr(1), mode)),
                ..Default::default()
            },
        ));
    }
    out
}

/// Runs the mode's grid ([`run_grid`] over its shapes and budgets).
pub fn run(opts: &RunOpts) -> SearchResult {
    run_grid(opts, &shapes(opts), &budgets(opts))
}

/// Runs `shapes` × both fitness targets × `budgets` (ascending), shrinks
/// the winners, writes the CSVs, the search log and the reproducer
/// corpus.
pub fn run_grid(opts: &RunOpts, shapes: &[GenomeSpace], budgets: &[usize]) -> SearchResult {
    let targets = [FitnessTarget::Drift, FitnessTarget::Slo];
    let mut cells: Vec<CellResult> = Vec::new();
    let mut baselines: Vec<BaselineResult> = Vec::new();
    let mut reproducers: Vec<Reproducer> = Vec::new();
    let mut minimal = true;
    let mut replay_ok = true;
    let mut log = String::new();
    let dir = opts.dir_for("search");
    let corpus_dir = dir.join("corpus");

    for &space in shapes {
        for &target in &targets {
            let seed = eval_seed(opts, &space, target);

            let named = baseline_genomes(&space, opts.seed);
            let plan = RunPlan::with_seeds(named.into_iter().map(|ng| (ng, seed)));
            let scored = opts.runner().run(&plan, |cell| {
                let (name, genome) = &cell.param;
                (name.clone(), evaluate(&space, genome, target, cell.seed))
            });
            for (name, fitness) in scored {
                baselines.push(BaselineResult { space, target, name, fitness });
            }

            let mut best_of_max: Option<(SearchOutcome, u64)> = None;
            for &budget in budgets {
                let cfg = SearchConfig {
                    space,
                    target,
                    budget,
                    population: POPULATION.min(budget),
                    master_seed: derive_seed(
                        opts.seed ^ 0xE23_0001,
                        ((space.n as u64) << 32) | ((target as u64) << 24) | budget as u64,
                    ),
                    eval_seed: seed,
                    jobs: opts.jobs,
                };
                let outcome = run_search(&cfg);
                log.push_str(&format!(
                    "## n={} service={} target={} budget={}\n",
                    space.n,
                    space.service,
                    target.encode(),
                    budget
                ));
                for line in &outcome.log {
                    log.push_str(line);
                    log.push('\n');
                }
                if budget == *budgets.last().expect("budgets nonempty") {
                    best_of_max = Some((outcome.clone(), seed));
                }
                cells.push(CellResult { cfg, outcome });
            }

            let (winner, seed) = best_of_max.expect("max budget always runs");
            let shrunk = shrink(&space, &winner.best, target, seed, winner.fitness);
            log.push_str(&format!(
                "shrink n={} target={}: size {} -> {} in {} evals\n",
                space.n,
                target.encode(),
                winner.best.size(),
                shrunk.genome.size(),
                shrunk.evaluations
            ));
            let rep = Reproducer {
                name: format!("{}-n{}", target.encode(), space.n),
                space,
                target,
                eval_seed: seed,
                fitness: shrunk.fitness,
                genome: shrunk.genome,
            };
            for variant in delete_one_variants(&rep.genome) {
                if evaluate(&space, &variant, target, seed).preserves(&rep.fitness) {
                    minimal = false;
                }
            }
            replay_ok &= replay_close(&rep.replay(), &rep.fitness);
            rep.save(&corpus_dir).expect("write reproducer");
            reproducers.push(rep);
        }
    }

    // Acceptance check: the engine is bit-reproducible at any --jobs.
    let deterministic = {
        let first = &cells[0];
        let other_jobs = if first.cfg.jobs == 1 { 2 } else { 1 };
        let rerun = run_search(&SearchConfig { jobs: other_jobs, ..first.cfg });
        rerun.best == first.outcome.best
            && rerun.fitness == first.outcome.fitness
            && rerun.candidate == first.outcome.candidate
            && rerun.log == first.outcome.log
    };

    GRID.write_csv(&dir, "search_grid.csv", &cells).expect("write search grid csv");
    BASELINES
        .write_csv(&dir, "search_baselines.csv", &baselines)
        .expect("write search baselines csv");
    trace::write_text(&dir, "search_log.txt", &log).expect("write search log");

    SearchResult { cells, baselines, reproducers, minimal, replay_ok, deterministic }
}

impl SearchResult {
    /// The largest-budget cell for one (shape, target).
    fn max_budget_cell(&self, space: &GenomeSpace, target: FitnessTarget) -> &CellResult {
        self.cells
            .iter()
            .filter(|c| c.cfg.space == *space && c.cfg.target == target)
            .max_by_key(|c| c.cfg.budget)
            .expect("grid is complete")
    }

    /// The baselines for one (shape, target).
    fn baselines_for(&self, space: &GenomeSpace, target: FitnessTarget) -> Vec<&BaselineResult> {
        self.baselines.iter().filter(|b| b.space == *space && b.target == target).collect()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "E23 adversarial scenario search (fitness: fewer detections, then more damage)\n\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "n={} target={:<5} budget={:>4}: best detections={} value={:.3} size={} (c{})\n",
                c.cfg.space.n,
                c.cfg.target.encode(),
                c.cfg.budget,
                c.outcome.fitness.detections,
                c.outcome.fitness.value,
                c.outcome.best.size(),
                c.outcome.candidate,
            ));
        }
        out.push('\n');
        for r in &self.reproducers {
            let worst = self
                .baselines_for(&r.space, r.target)
                .into_iter()
                .max_by(|a, b| a.fitness.cmp(&b.fitness));
            out.push_str(&format!(
                "reproducer {} ({} elements, detections={} value={:.3}",
                r.name,
                r.genome.size(),
                r.fitness.detections,
                r.fitness.value,
            ));
            if let Some(w) = worst {
                out.push_str(&format!(
                    "; strongest baseline {} detections={} value={:.3}",
                    w.name, w.fitness.detections, w.fitness.value
                ));
            }
            out.push_str(")\n");
            for line in r.genome.encode().lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "\n1-minimal: {}   replay-exact: {}   jobs-deterministic: {}\n",
            self.minimal, self.replay_ok, self.deterministic
        ));
        out
    }

    /// Claim-vs-measured rows for EXPERIMENTS.md.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let mut rows = Vec::new();
        for r in &self.reproducers {
            let cell = self.max_budget_cell(&r.space, r.target);
            let baselines = self.baselines_for(&r.space, r.target);
            let beaten =
                baselines.iter().filter(|b| cell.outcome.fitness.cmp(&b.fitness).is_gt()).count();
            let strongest = baselines
                .iter()
                .max_by(|a, b| a.fitness.cmp(&b.fitness))
                .expect("baselines nonempty");
            rows.push(Comparison::new(
                "search",
                format!(
                    "{} n={}: found plan vs {} baselines",
                    r.target.encode(),
                    r.space.n,
                    baselines.len()
                ),
                "strictly worse than every hand-written plan".to_string(),
                format!(
                    "beats {}/{} (best d={} v={:.3}; strongest baseline {} d={} v={:.3})",
                    beaten,
                    baselines.len(),
                    cell.outcome.fitness.detections,
                    cell.outcome.fitness.value,
                    strongest.name,
                    strongest.fitness.detections,
                    strongest.fitness.value,
                ),
                beaten == baselines.len(),
            ));
        }
        rows.push(Comparison::new(
            "search",
            "reproducers 1-minimal after shrink",
            "deleting any element loses fitness",
            if self.minimal { "yes" } else { "NO" },
            self.minimal,
        ));
        rows.push(Comparison::new(
            "search",
            "byte-identical at any --jobs",
            "identical best/log",
            if self.deterministic { "yes" } else { "NO" },
            self.deterministic,
        ));
        rows.push(Comparison::new(
            "search",
            "reproducers replay to recorded fitness",
            "exact detections, value within 1e-6",
            if self.replay_ok { "yes" } else { "NO" },
            self.replay_ok,
        ));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_finds_shrinks_and_replays() {
        let mut opts =
            RunOpts::smoke(std::env::temp_dir().join(format!("tt-e23-{}", std::process::id())));
        opts.budget = Some(8);
        opts.jobs = 2;
        let r = run(&opts);
        // 1 shape x 2 targets x 1 budget.
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.reproducers.len(), 2);
        assert!(r.deterministic, "search outcome changed across --jobs");
        assert!(r.replay_ok, "a reproducer failed to replay");
        assert!(r.minimal, "a reproducer is not 1-minimal");
        for rep in &r.reproducers {
            let path = opts.dir_for("search").join("corpus").join(format!("{}.scn", rep.name));
            let loaded = Reproducer::load(&path).unwrap();
            assert_eq!(&loaded, rep);
        }
        // 14 baselines per (shape, target).
        assert_eq!(r.baselines.len(), 28);
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}
