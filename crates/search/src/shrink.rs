//! Greedy minimization of winning genomes.
//!
//! A raw search winner usually carries freeloading elements — fault
//! events that fire after the damage is done, manipulations the fitness
//! never noticed. Shrinking deletes and simplifies until a fixpoint: the
//! result is **1-minimal** (deleting any single remaining element loses
//! fitness) at the evaluation seed, which is what makes committed
//! reproducers readable as attack explanations rather than noise.

use faults::{FaultAction, FaultEvent};
use scenario::AttackSpec;
use sim::SimTime;
use tsc::TscManipulation;

use crate::fitness::{evaluate, Fitness, FitnessTarget};
use crate::genome::{AdversaryGenome, GenomeSpace};
use crate::mutate::plan_from;

/// What shrinking produced.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized genome.
    pub genome: AdversaryGenome,
    /// Its exact fitness at the evaluation seed.
    pub fitness: Fitness,
    /// Scenario runs the shrink consumed.
    pub evaluations: usize,
}

/// Every genome obtainable by deleting exactly one element.
pub fn delete_one_variants(genome: &AdversaryGenome) -> Vec<AdversaryGenome> {
    let mut variants = Vec::with_capacity(genome.size());
    let events = genome.faults.events();
    for i in 0..events.len() {
        let mut kept = events.to_vec();
        kept.remove(i);
        variants.push(AdversaryGenome { faults: plan_from(kept), ..genome.clone() });
    }
    for i in 0..genome.manipulations.len() {
        let mut kept = genome.manipulations.clone();
        kept.remove(i);
        variants.push(AdversaryGenome { manipulations: kept, ..genome.clone() });
    }
    if genome.attack.is_some() {
        variants.push(AdversaryGenome { attack: None, ..genome.clone() });
    }
    variants
}

/// Halfway from `v` toward `neutral` (a gentler simplification than
/// deletion for magnitudes that matter but are larger than necessary).
fn halve_toward(v: f64, neutral: f64) -> f64 {
    neutral + (v - neutral) / 2.0
}

fn round_down_to_second(at: SimTime) -> SimTime {
    SimTime::from_nanos(at.as_nanos() / 1_000_000_000 * 1_000_000_000)
}

/// Single-edit simplifications: round an element's time down to a whole
/// second, or halve a magnitude toward its neutral value.
fn simplify_variants(genome: &AdversaryGenome) -> Vec<AdversaryGenome> {
    let mut variants = Vec::new();
    let events = genome.faults.events();
    for i in 0..events.len() {
        let rounded = round_down_to_second(events[i].at);
        if rounded != events[i].at {
            let mut edited = events.to_vec();
            edited[i].at = rounded;
            variants.push(AdversaryGenome { faults: plan_from(edited), ..genome.clone() });
        }
        if let FaultAction::StartLie { node, offset_ns, equivocate } = events[i].action {
            if offset_ns.abs() >= 2 {
                let mut edited = events.to_vec();
                edited[i].action =
                    FaultAction::StartLie { node, offset_ns: offset_ns / 2, equivocate };
                variants.push(AdversaryGenome { faults: plan_from(edited), ..genome.clone() });
            }
        }
    }
    for (i, m) in genome.manipulations.iter().enumerate() {
        let FaultAction::ManipulateTsc { node, manipulation } = m.action else { continue };
        let mut candidates: Vec<FaultEvent> = Vec::new();
        let rounded = round_down_to_second(m.at);
        if rounded != m.at {
            candidates.push(FaultEvent { at: rounded, ..m.clone() });
        }
        let halved = match manipulation {
            TscManipulation::OffsetJump(t) if t.abs() >= 2 => {
                Some(TscManipulation::OffsetJump(t / 2))
            }
            TscManipulation::ScaleRate(f) if f != 1.0 => {
                Some(TscManipulation::ScaleRate(halve_toward(f, 1.0)))
            }
            TscManipulation::SetRateHz(hz) if hz != tsc::PAPER_TSC_HZ => {
                Some(TscManipulation::SetRateHz(halve_toward(hz, tsc::PAPER_TSC_HZ)))
            }
            _ => None,
        };
        if let Some(manipulation) = halved {
            let action = FaultAction::ManipulateTsc { node, manipulation };
            candidates.push(FaultEvent { at: m.at, action });
        }
        for c in candidates {
            let mut edited = genome.manipulations.clone();
            edited[i] = c;
            variants.push(AdversaryGenome { manipulations: edited, ..genome.clone() });
        }
    }
    if let Some(AttackSpec::CalibrationDelay { victim, mode, added_delay, sleep_threshold }) =
        genome.attack
    {
        if added_delay.as_nanos() >= 2 {
            variants.push(AdversaryGenome {
                attack: Some(AttackSpec::CalibrationDelay {
                    victim,
                    mode,
                    added_delay: sim::SimDuration::from_nanos(added_delay.as_nanos() / 2),
                    sleep_threshold,
                }),
                ..genome.clone()
            });
        }
    }
    variants
}

/// Minimizes `genome` while preserving `fitness` (per
/// [`Fitness::preserves`]) at `eval_seed`.
///
/// Deletion passes run to fixpoint before simplification is tried, and
/// any simplification win restarts deletion — so the returned genome is
/// 1-minimal: every [`delete_one_variants`] member scores strictly worse.
pub fn shrink(
    space: &GenomeSpace,
    genome: &AdversaryGenome,
    target: FitnessTarget,
    eval_seed: u64,
    fitness: Fitness,
) -> ShrinkOutcome {
    let mut current = genome.clone();
    let mut current_fitness = fitness;
    let mut evaluations = 0;
    loop {
        let mut improved = false;
        for variant in delete_one_variants(&current) {
            let f = evaluate(space, &variant, target, eval_seed);
            evaluations += 1;
            if f.preserves(&current_fitness) {
                current = variant;
                current_fitness = f;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        for variant in simplify_variants(&current) {
            let f = evaluate(space, &variant, target, eval_seed);
            evaluations += 1;
            if f.preserves(&current_fitness) {
                current = variant;
                current_fitness = f;
                improved = true;
                break;
            }
        }
        if !improved {
            return ShrinkOutcome { genome: current, fitness: current_fitness, evaluations };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultPlan;
    use netsim::Addr;

    #[test]
    fn shrink_drops_freeloading_elements() {
        let space = GenomeSpace { n: 3, horizon_s: 20, service: false };
        // A 2000 ppm rate skew on node 2 (the early calibrator) produces
        // real drift the fitness sees; the late partition and its heal
        // contribute nothing to it.
        let genome = AdversaryGenome {
            faults: FaultPlan::new()
                .at(SimTime::from_secs(19), FaultAction::PartitionPair { a: Addr(1), b: Addr(2) })
                .at(SimTime::from_secs(19), FaultAction::HealPair { a: Addr(1), b: Addr(2) }),
            manipulations: vec![FaultEvent {
                at: SimTime::from_nanos(2_500_000_000),
                action: FaultAction::ManipulateTsc {
                    node: 2,
                    manipulation: TscManipulation::ScaleRate(1.002),
                },
            }],
            attack: None,
        };
        let fitness = evaluate(&space, &genome, FitnessTarget::Drift, 9);
        assert!(fitness.value > 0.5, "skew must register, got {}", fitness.value);
        let out = shrink(&space, &genome, FitnessTarget::Drift, 9, fitness);
        assert!(out.genome.size() < genome.size(), "nothing shrank");
        assert!(out.fitness.preserves(&fitness));
        assert!(out.evaluations > 0);
        // 1-minimality: deleting anything else loses the fitness.
        for variant in delete_one_variants(&out.genome) {
            let f = evaluate(&space, &variant, FitnessTarget::Drift, 9);
            assert!(!f.preserves(&out.fitness), "not 1-minimal: {variant:?}");
        }
        // The surviving manipulation stayed (it is the damage), and its
        // time landed on the whole-second grid.
        assert_eq!(out.genome.manipulations.len(), 1);
        assert_eq!(out.genome.manipulations[0].at.as_nanos() % 1_000_000_000, 0);
    }
}
