//! Lexicographic adversary fitness extracted from run traces.

use std::cmp::Ordering;

use faults::Fields;
use runtime::World;

use crate::genome::{AdversaryGenome, GenomeSpace};

/// Which damage metric breaks ties among equally-stealthy plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitnessTarget {
    /// Maximize the worst clock drift (ms) no detection event covers
    /// within [`trace::DETECTION_GRACE`].
    Drift,
    /// Maximize serving-layer SLO damage: shed, unavailable, timed-out
    /// and all-down requests across the run.
    Slo,
}

impl FitnessTarget {
    /// The stable token used in reproducer files and CSV columns.
    pub fn encode(&self) -> &'static str {
        match self {
            FitnessTarget::Drift => "drift",
            FitnessTarget::Slo => "slo",
        }
    }

    /// Decodes an [`FitnessTarget::encode`]d token.
    ///
    /// # Errors
    ///
    /// Returns a description of the unknown token.
    pub fn decode(s: &str) -> Result<FitnessTarget, String> {
        match s.trim() {
            "drift" => Ok(FitnessTarget::Drift),
            "slo" => Ok(FitnessTarget::Slo),
            other => Err(format!("unknown fitness target {other:?}")),
        }
    }
}

/// An adversary plan's score: stealth first, damage second.
///
/// Detections are the hard axis — a plan the defender flags even once
/// loses to any plan it never flags, however much damage the flagged one
/// does. That ordering is what pushes the search toward *undetected*
/// failures, the only kind the paper's analysis worries about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fitness {
    /// Total detection events across all nodes (monitor trips,
    /// corrections, chimer rejections, gossip alerts, quorum suspicions
    /// and quarantines).
    pub detections: u64,
    /// The damage metric selected by the [`FitnessTarget`].
    pub value: f64,
}

impl Fitness {
    /// Lexicographic comparison; `Greater` means `self` is the *better*
    /// adversary (fewer detections, then more damage).
    // Not `Ord`: the f64 damage axis has no `Eq`, and `total_cmp` is a
    // deliberate choice callers should see at the definition.
    #[allow(clippy::should_implement_trait)]
    pub fn cmp(&self, other: &Fitness) -> Ordering {
        other.detections.cmp(&self.detections).then(self.value.total_cmp(&other.value))
    }

    /// Whether `self` is at least as good as `base` for shrinking: no
    /// more detections, and damage within `1e-9` of the base.
    pub fn preserves(&self, base: &Fitness) -> bool {
        self.detections <= base.detections && self.value >= base.value - 1e-9
    }

    /// Encodes as `detections=<n> value=<f64>` (exact round trip).
    pub fn encode(&self) -> String {
        format!("detections={} value={}", self.detections, self.value)
    }

    /// Decodes an [`Fitness::encode`]d score.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn decode(s: &str) -> Result<Fitness, String> {
        let mut f = Fields::new(s)?;
        let fitness = Fitness { detections: f.parse("detections")?, value: f.parse("value")? };
        f.finish()?;
        if !fitness.value.is_finite() {
            return Err(format!("non-finite fitness value {}", fitness.value));
        }
        Ok(fitness)
    }
}

/// Scores a finished run under `target`.
pub fn score(world: &World, target: FitnessTarget) -> Fitness {
    let detections =
        (0..world.node_count()).map(|i| world.recorder.node(i).detection_count()).sum();
    let value = match target {
        FitnessTarget::Drift => world.recorder.max_undetected_drift_ms(),
        FitnessTarget::Slo => world.recorder.service.badput() as f64,
    };
    Fitness { detections, value }
}

/// Runs `genome` in `space` at `seed` and scores the trace.
pub fn evaluate(
    space: &GenomeSpace,
    genome: &AdversaryGenome,
    target: FitnessTarget,
    seed: u64,
) -> Fitness {
    score(&space.spec(genome).run(seed), target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let stealthy = Fitness { detections: 0, value: 1.0 };
        let loud = Fitness { detections: 3, value: 1e9 };
        let stealthier_damage = Fitness { detections: 0, value: 2.0 };
        assert_eq!(stealthy.cmp(&loud), Ordering::Greater);
        assert_eq!(stealthy.cmp(&stealthier_damage), Ordering::Less);
        assert_eq!(stealthy.cmp(&stealthy.clone()), Ordering::Equal);
    }

    #[test]
    fn preserves_tolerates_tiny_value_noise() {
        let base = Fitness { detections: 1, value: 10.0 };
        assert!(Fitness { detections: 0, value: 10.0 }.preserves(&base));
        assert!(Fitness { detections: 1, value: 10.0 - 1e-10 }.preserves(&base));
        assert!(!Fitness { detections: 2, value: 10.0 }.preserves(&base));
        assert!(!Fitness { detections: 1, value: 9.0 }.preserves(&base));
    }

    #[test]
    fn fitness_codec_round_trips() {
        for f in [
            Fitness { detections: 0, value: 13.179_999 },
            Fitness { detections: 7, value: 0.1 + 0.2 },
        ] {
            assert_eq!(Fitness::decode(&f.encode()), Ok(f));
        }
        assert!(Fitness::decode("detections=1 value=inf").is_err());
        assert!(Fitness::decode("value=1").is_err());
        assert!(Fitness::decode("detections=1 value=2").is_ok());
        assert!(Fitness::decode("detections=1 value=2 bogus=3").is_err(), "unknown key");
        assert!(Fitness::decode("detections=1 value=2 value=2").is_err(), "repeated key");
    }

    #[test]
    fn target_codec_round_trips() {
        for t in [FitnessTarget::Drift, FitnessTarget::Slo] {
            assert_eq!(FitnessTarget::decode(t.encode()), Ok(t));
        }
        assert!(FitnessTarget::decode("latency").is_err());
    }

    #[test]
    fn empty_genome_scores_clean() {
        let space = GenomeSpace { n: 3, horizon_s: 5, service: false };
        let f = evaluate(&space, &AdversaryGenome::default(), FitnessTarget::Drift, 7);
        // An honest 5 s run: maybe startup corrections, but no damage the
        // search could mistake for progress.
        assert!(f.value < 5.0, "honest drift {}", f.value);
    }
}
