//! The pieces the grid experiments (E20 chaos, E21 serve, E22 quorum)
//! share: the same-seed determinism double-run with its claim row, the
//! serving-layer specs E21 and E22 run on, and the claims-and-files test
//! body.

use runtime::World;
use scenario::ScenarioSpec;
use service::{FrontendSpec, RouterSpec};
use sim::SimDuration;

use crate::output::{Comparison, RunOpts};

/// Runs `spec` twice at `seed` and compares what `fingerprint` reads off
/// each measured world.
pub(crate) fn reproducible<T: PartialEq>(
    spec: &ScenarioSpec,
    seed: u64,
    fingerprint: impl Fn(&World) -> T,
) -> bool {
    fingerprint(&spec.run(seed)) == fingerprint(&spec.run(seed))
}

/// The claim row reporting a [`reproducible`] double-run.
pub(crate) fn reproducible_claim(
    experiment: &'static str,
    metric: &str,
    paper: &str,
    deterministic: bool,
) -> Comparison {
    let measured = if deterministic { "two runs identical" } else { "runs diverged" };
    Comparison::new(experiment, metric, paper, measured, deterministic)
}

/// The front-end E21 and E22 serve through. Per-node drain capacity is
/// `batch_max / batch_window`; smoke halves it so the reduced smoke
/// loads still cross the overload knee. The admission queue is kept four
/// batches deep so the worst-case queue delay (32 ms) stays well under
/// the router's per-attempt timeout — answers always beat the retry
/// timer, so timeouts mean a dead node, not a slow one.
pub(crate) fn frontend_spec(opts: &RunOpts) -> FrontendSpec {
    let batch_max = if opts.smoke { 4 } else { 8 };
    FrontendSpec {
        queue_cap: 4 * batch_max,
        batch_max,
        batch_window: SimDuration::from_millis(8),
        ..Default::default()
    }
}

/// The client-side router E21 and E22 share.
pub(crate) fn router_spec() -> RouterSpec {
    RouterSpec { timeout: SimDuration::from_millis(60) }
}

/// Test body shared by the grid experiments: every claim holds and every
/// named artifact was written under `<out>/<id>/`; removes the output
/// directory afterwards.
#[cfg(test)]
pub(crate) fn assert_claims_and_files(
    opts: &RunOpts,
    id: &str,
    claims: &[Comparison],
    files: &[&str],
) {
    for c in claims {
        assert!(c.matches, "{id} claim failed: {} — {}", c.metric, c.measured);
    }
    for file in files {
        assert!(opts.dir_for(id).join(file).exists(), "{id}: {file} not written");
    }
    std::fs::remove_dir_all(&opts.out_dir).ok();
}
