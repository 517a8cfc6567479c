//! The searchable adversary description and the scenario it runs in.

use faults::{FaultAction, FaultEvent, FaultPlan, Fields};
use scenario::{AexSpec, AttackSpec, FaultSpec, NodeImplSpec, ScenarioSpec};
use service::{OpenLoopSpec, QuorumLoopSpec, QuorumSpec, ServiceSpec, MAX_CLUSTER_NODES};
use sim::{SimDuration, SimTime};

/// The fixed part of an evaluation: cluster shape, horizon and workload.
///
/// Everything the adversary may *not* vary lives here, so two genomes
/// compared under the same space differ only in adversarial behaviour.
/// The defender is always the §V hardened node — the strongest one the
/// repo has — so a winning genome beats the best defence, not a strawman.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenomeSpace {
    /// Cluster size (nodes, excluding the TA).
    pub n: usize,
    /// Run horizon in whole seconds.
    pub horizon_s: u64,
    /// Whether the serving layer (open loop + quorum loop) runs; required
    /// for SLO-damage fitness, optional ballast for drift fitness.
    pub service: bool,
}

impl GenomeSpace {
    /// The run horizon as a simulation instant.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.horizon_s)
    }

    /// The scenario a genome is evaluated in: `n` §V hardened nodes under
    /// the paper's AEX regime, probing clients on node 0, and (when
    /// enabled) a serving layer with an `f = (n-1)/2` quorum read loop.
    /// The genome's fault events and TSC manipulations become one plan,
    /// manipulations last, so of two actions at one instant the fault
    /// applies first.
    pub fn spec(&self, genome: &AdversaryGenome) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(self.n)
            .horizon(self.horizon())
            .all_nodes_aex(AexSpec::TriadLike)
            .node_impl(NodeImplSpec::Resilient(Box::default()))
            .client(0, SimDuration::from_millis(20))
            .reading_client(0, SimDuration::from_millis(20));
        if self.service {
            let svc =
                ServiceSpec::new().open_loop(OpenLoopSpec::default()).quorum_loop(QuorumLoopSpec {
                    quorum: QuorumSpec { f: (self.n - 1) / 2, ..Default::default() },
                    ..Default::default()
                });
            spec = spec.service(svc);
        }
        let plan = genome
            .manipulations
            .iter()
            .fold(genome.faults.clone(), |plan, m| plan.at(m.at, m.action.clone()));
        if !plan.is_empty() {
            spec = spec.faults(FaultSpec::Fixed(plan));
        }
        if let Some(attack) = &genome.attack {
            spec = spec.attack(attack.clone());
        }
        spec
    }

    /// Encodes as `n=<n> horizon-s=<s> service=<bool>`.
    pub fn encode(&self) -> String {
        format!("n={} horizon-s={} service={}", self.n, self.horizon_s, self.service)
    }

    /// Decodes an [`GenomeSpace::encode`]d space.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token, or of a bound
    /// the scenario cannot be built with: `n` outside
    /// `1..=`[`MAX_CLUSTER_NODES`], fewer than 3 nodes under the serving
    /// layer, or a horizon of zero or past `u64` nanoseconds.
    pub fn decode(s: &str) -> Result<GenomeSpace, String> {
        let mut f = Fields::new(s)?;
        let space = GenomeSpace {
            n: f.parse("n")?,
            horizon_s: f.parse("horizon-s")?,
            service: f.parse("service")?,
        };
        f.finish()?;
        if !(1..=MAX_CLUSTER_NODES).contains(&space.n) {
            return Err(format!("n must be in 1..={MAX_CLUSTER_NODES}"));
        }
        if space.service && space.n < 3 {
            return Err("service=true needs n >= 3 for an f >= 1 quorum".to_string());
        }
        if space.horizon_s == 0 || space.horizon_s.checked_mul(1_000_000_000).is_none() {
            return Err("horizon-s must be at least 1 and fit u64 nanoseconds".to_string());
        }
        Ok(space)
    }
}

/// One candidate adversary: everything a malicious platform plus on-path
/// attacker does over a run, as data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdversaryGenome {
    /// Scripted infrastructure faults (partitions, outages, crashes, AEX
    /// storms, serving-path lies); no TSC manipulation.
    pub faults: FaultPlan,
    /// Hypervisor-level TSC manipulations: `FaultAction::ManipulateTsc`
    /// events only, kept apart from `faults` so the mutation operators
    /// draw them separately.
    pub manipulations: Vec<FaultEvent>,
    /// At most one on-path protocol attack.
    pub attack: Option<AttackSpec>,
}

impl AdversaryGenome {
    /// Number of atomic elements (fault events + manipulations + attack):
    /// the quantity shrinking minimizes.
    pub fn size(&self) -> usize {
        self.faults.len() + self.manipulations.len() + usize::from(self.attack.is_some())
    }

    /// Whether the genome does nothing at all.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// Encodes as one `fault`/`manip`/`attack`-prefixed line per element,
    /// order-preserving; round-tripped exactly by
    /// [`AdversaryGenome::decode`].
    pub fn encode(&self) -> String {
        let mut lines = Vec::with_capacity(self.size());
        if let Some(attack) = &self.attack {
            lines.push(format!("attack {}", attack.encode()));
        }
        lines.extend(self.manipulations.iter().chain(self.faults.events()).map(FaultEvent::encode));
        lines.join("\n")
    }

    /// Decodes an [`AdversaryGenome::encode`]d genome (blank lines are
    /// ignored).
    ///
    /// # Errors
    ///
    /// Returns the offending line and what was wrong with it.
    pub fn decode(s: &str) -> Result<AdversaryGenome, String> {
        let mut genome = AdversaryGenome::default();
        for (i, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |e: String| format!("line {}: {e}", i + 1);
            if let Some(attack) = line.strip_prefix("attack ") {
                if genome.attack.is_some() {
                    return Err(err("duplicate attack line".to_string()));
                }
                genome.attack = Some(AttackSpec::decode(attack).map_err(err)?);
                continue;
            }
            let e = FaultEvent::decode(line).map_err(err)?;
            if matches!(e.action, FaultAction::ManipulateTsc { .. }) {
                genome.manipulations.push(e);
            } else {
                genome.faults = std::mem::take(&mut genome.faults).at(e.at, e.action);
            }
        }
        Ok(genome)
    }

    /// Bounds-checks every element against `space` (addresses in range,
    /// probabilities and rates safe, times within the horizon).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self, space: &GenomeSpace) -> Result<(), String> {
        for e in self.faults.events().iter().chain(&self.manipulations) {
            e.action.validate(space.n)?;
            if e.at > space.horizon() {
                return Err(format!("event at {} ns beyond the horizon", e.at.as_nanos()));
            }
        }
        if let Some(attack) = &self.attack {
            attack.validate(space.n)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Addr;
    use tsc::TscManipulation;

    fn manip(at: SimTime, node: usize, manipulation: TscManipulation) -> FaultEvent {
        FaultEvent { at, action: FaultAction::ManipulateTsc { node, manipulation } }
    }

    fn sample() -> AdversaryGenome {
        AdversaryGenome {
            faults: FaultPlan::new()
                .at(SimTime::from_secs(40), FaultAction::TaOutage)
                .at(SimTime::from_secs(50), FaultAction::TaRestore)
                .at(
                    SimTime::from_secs(20),
                    FaultAction::StartLie { node: 1, offset_ns: -250_000_000, equivocate: true },
                ),
            manipulations: vec![manip(
                SimTime::from_secs(30),
                1,
                TscManipulation::ScaleRate(1.000_05),
            )],
            attack: Some(AttackSpec::calibration_delay_paper(
                Addr(1),
                attacks::DelayAttackMode::FMinus,
            )),
        }
    }

    #[test]
    fn genome_codec_round_trips_in_order() {
        let g = sample();
        assert_eq!(g.size(), 5);
        let decoded = AdversaryGenome::decode(&g.encode()).unwrap();
        assert_eq!(decoded, g);
        assert_eq!(decoded.encode(), g.encode());
        assert_eq!(AdversaryGenome::decode("").unwrap(), AdversaryGenome::default());
    }

    #[test]
    fn genome_decode_rejects_garbage() {
        assert!(AdversaryGenome::decode("fault 5 warp-field a=1").is_err());
        assert!(AdversaryGenome::decode("blob 5").is_err());
        let duplicated = format!(
            "{}\n{}",
            sample().encode(),
            "attack calibration-delay victim=1 mode=f+ delay=1 threshold=2"
        );
        assert!(AdversaryGenome::decode(&duplicated).is_err());
    }

    #[test]
    fn genome_validation_bounds() {
        let space = GenomeSpace { n: 3, horizon_s: 90, service: true };
        assert!(sample().validate(&space).is_ok());
        let late = AdversaryGenome {
            faults: FaultPlan::new().at(SimTime::from_secs(91), FaultAction::TaOutage),
            ..Default::default()
        };
        assert!(late.validate(&space).is_err());
        let oob = AdversaryGenome {
            manipulations: vec![manip(SimTime::from_secs(1), 3, TscManipulation::OffsetJump(5))],
            ..Default::default()
        };
        assert!(oob.validate(&space).is_err());
    }

    #[test]
    fn space_codec_round_trips() {
        for space in [
            GenomeSpace { n: 3, horizon_s: 90, service: true },
            GenomeSpace { n: 5, horizon_s: 36, service: false },
        ] {
            assert_eq!(GenomeSpace::decode(&space.encode()), Ok(space));
        }
        assert!(GenomeSpace::decode("n=0 horizon-s=90 service=true").is_err());
        // `f = (n-1)/2` is 0 below three nodes, which `QuorumGen` refuses
        // (found by `tests/scn_fuzz.rs`).
        assert!(GenomeSpace::decode("n=2 horizon-s=90 service=true").is_err());
        assert!(GenomeSpace::decode("n=2 horizon-s=90 service=false").is_ok());
        assert!(GenomeSpace::decode("n=3 horizon-s=90").is_err());
        assert!(
            GenomeSpace::decode("n=3 horizon-s=90 service=true bogus=1").is_err(),
            "unknown key"
        );
        assert!(GenomeSpace::decode("n=3 n=3 horizon-s=90 service=true").is_err(), "repeated key");
    }

    /// `n=70` used to decode and then panic in `QuorumGen::new`.
    #[test]
    fn space_decode_rejects_a_cluster_past_the_quorum_bitmask() {
        assert!(GenomeSpace::decode("n=64 horizon-s=90 service=true").is_ok());
        let err = GenomeSpace::decode("n=70 horizon-s=90 service=true").unwrap_err();
        assert!(err.contains("n must be in 1..=64"), "{err}");
    }

    /// 18 446 744 074 s used to wrap to ~0.29 s in release builds, so a
    /// fault at 1.1 s read as "beyond the horizon".
    #[test]
    fn space_decode_rejects_a_horizon_that_wrapped_short() {
        let largest = u64::MAX / 1_000_000_000;
        assert!(GenomeSpace::decode(&format!("n=3 horizon-s={largest} service=true")).is_ok());
        let err = GenomeSpace::decode("n=3 horizon-s=18446744074 service=true").unwrap_err();
        assert!(err.contains("horizon-s"), "{err}");
    }

    /// 18 446 744 073 709 s used to wrap to ~1.8e10 s, a replay that never
    /// ends.
    #[test]
    fn space_decode_rejects_a_horizon_that_wrapped_long() {
        let err = GenomeSpace::decode("n=3 horizon-s=18446744073709 service=true").unwrap_err();
        assert!(err.contains("horizon-s"), "{err}");
    }

    #[test]
    fn round_tripped_genome_evaluates_identically() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let space = GenomeSpace { n: 3, horizon_s: 10, service: false };
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3 {
            let g = crate::random_genome(&space, &mut rng);
            let decoded = AdversaryGenome::decode(&g.encode()).unwrap();
            assert_eq!(
                crate::evaluate(&space, &g, crate::FitnessTarget::Drift, 1),
                crate::evaluate(&space, &decoded, crate::FitnessTarget::Drift, 1),
            );
        }
    }

    #[test]
    fn spec_builds_and_runs() {
        let space = GenomeSpace { n: 3, horizon_s: 5, service: true };
        let g = AdversaryGenome {
            faults: FaultPlan::new().at(SimTime::from_secs(2), FaultAction::TaOutage),
            ..Default::default()
        };
        let world = space.spec(&g).run(7);
        assert_eq!(world.node_count(), 3);
        assert_eq!(
            world.recorder.faults.events()[..],
            [(SimTime::from_secs(2), "ta-outage".to_string())]
        );
    }

    /// Of a fault and a manipulation at one instant, the fault applies
    /// first: the order the committed corpus and `results/` were produced
    /// in, which listing the manipulations first in the plan would flip.
    #[test]
    fn spec_applies_manipulations_after_faults_at_the_same_instant() {
        let space = GenomeSpace { n: 3, horizon_s: 5, service: false };
        let t = SimTime::from_secs(2);
        let g = AdversaryGenome {
            faults: FaultPlan::new().at(t, FaultAction::TaOutage),
            manipulations: vec![manip(t, 0, TscManipulation::OffsetJump(1))],
            ..Default::default()
        };
        let world = space.spec(&g).run(7);
        assert_eq!(
            world.recorder.faults.events()[..],
            [(t, "ta-outage".to_string()), (t, "tsc node1 offset-jump 1".to_string())]
        );
        assert_eq!(world.hosts[0].tsc.manipulation_count(), 1);
    }
}
