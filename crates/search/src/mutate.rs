//! Seeded genome generation, mutation and crossover.
//!
//! Every operator draws only from the `StdRng` it is handed — never from
//! ambient entropy — and produces genomes that satisfy
//! [`AdversaryGenome::validate`] by construction (in-range addresses,
//! safe probabilities/rates, times on a 100 ms grid inside the horizon).

use attacks::DelayAttackMode;
use faults::{FaultAction, FaultEvent, FaultPlan};
use netsim::Addr;
use rand::rngs::StdRng;
use rand::Rng;
use scenario::AttackSpec;
use sim::{SimDuration, SimTime};
use tsc::{TscManipulation, PAPER_TSC_HZ};

use crate::genome::{AdversaryGenome, GenomeSpace};

/// Rebuilds a plan from an explicit event list (the plan type itself is
/// append-only).
pub(crate) fn plan_from(events: Vec<FaultEvent>) -> FaultPlan {
    events.into_iter().fold(FaultPlan::new(), |p, e| p.at(e.at, e.action))
}

/// A grid-aligned instant inside the horizon (100 ms granularity, so
/// shrinking has round numbers to aim for).
fn random_time(space: &GenomeSpace, rng: &mut StdRng) -> SimTime {
    let slots = space.horizon_s * 10;
    SimTime::from_nanos(rng.gen_range(0..=slots) * 100_000_000)
}

/// Any endpoint: the TA (0) or a node (1..=n).
fn random_addr(space: &GenomeSpace, rng: &mut StdRng) -> Addr {
    Addr(rng.gen_range(0..=space.n as u16))
}

/// A node endpoint (1..=n), never the TA.
fn random_node_addr(space: &GenomeSpace, rng: &mut StdRng) -> Addr {
    Addr(rng.gen_range(1..=space.n as u16))
}

/// A 0-based node index.
fn random_node(space: &GenomeSpace, rng: &mut StdRng) -> usize {
    rng.gen_range(0..space.n)
}

/// Two distinct endpoints.
fn random_pair(space: &GenomeSpace, rng: &mut StdRng) -> (Addr, Addr) {
    let a = random_addr(space, rng);
    loop {
        let b = random_addr(space, rng);
        if b != a {
            return (a, b);
        }
    }
}

/// `±10^u` for `u` uniform in `[lo, hi)`: log-uniform magnitudes, so the
/// search explores microsecond lies and half-second lies with equal ease.
fn log_uniform_signed(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    sign * 10f64.powf(rng.gen_range(lo..hi))
}

fn random_action(space: &GenomeSpace, rng: &mut StdRng) -> FaultAction {
    match rng.gen_range(0..14u32) {
        0 => {
            let (a, b) = random_pair(space, rng);
            FaultAction::PartitionPair { a, b }
        }
        1 => {
            let (src, dst) = random_pair(space, rng);
            FaultAction::PartitionLink { src, dst }
        }
        2 => {
            let (a, b) = random_pair(space, rng);
            FaultAction::HealPair { a, b }
        }
        3 => {
            let (src, dst) = random_pair(space, rng);
            FaultAction::HealLink { src, dst }
        }
        4 => {
            let (src, dst) = random_pair(space, rng);
            FaultAction::SetLinkLoss { src, dst, loss: rng.gen_range(0.05..1.0) }
        }
        5 => {
            let (src, dst) = random_pair(space, rng);
            FaultAction::ClearLinkLoss { src, dst }
        }
        6 => FaultAction::SetDuplication { probability: rng.gen_range(0.0..0.5) },
        7 => FaultAction::SetReordering {
            probability: rng.gen_range(0.0..0.5),
            window: SimDuration::from_millis(rng.gen_range(1..=20)),
        },
        8 => FaultAction::TaOutage,
        9 => FaultAction::TaRestore,
        10 => FaultAction::CrashNode { node: random_node(space, rng) },
        11 => FaultAction::RestartNode { node: random_node(space, rng) },
        12 => FaultAction::AexStorm {
            node: if rng.gen_bool(0.5) { Some(random_node(space, rng)) } else { None },
            count: rng.gen_range(1..=50),
            spacing: SimDuration::from_micros(rng.gen_range(10..=10_000)),
        },
        _ => {
            if rng.gen_bool(0.25) {
                FaultAction::StopLie { node: random_node(space, rng) }
            } else {
                FaultAction::StartLie {
                    node: random_node(space, rng),
                    offset_ns: log_uniform_signed(rng, 4.0, 8.7) as i64,
                    equivocate: rng.gen_bool(0.25),
                }
            }
        }
    }
}

fn random_manipulation(space: &GenomeSpace, rng: &mut StdRng) -> FaultEvent {
    let manipulation = match rng.gen_range(0..3u32) {
        0 => TscManipulation::OffsetJump(log_uniform_signed(rng, 3.0, 9.5) as i64),
        1 => TscManipulation::ScaleRate(1.0 + log_uniform_signed(rng, -6.0, -0.7)),
        _ => TscManipulation::SetRateHz(PAPER_TSC_HZ * (1.0 + log_uniform_signed(rng, -6.0, -0.7))),
    };
    let at = random_time(space, rng);
    // An address draw, not `random_node`: the two consume the RNG
    // differently, and the committed corpus was bred with this one.
    let node = usize::from(random_node_addr(space, rng).0) - 1;
    FaultEvent { at, action: FaultAction::ManipulateTsc { node, manipulation } }
}

fn random_attack(space: &GenomeSpace, rng: &mut StdRng) -> AttackSpec {
    AttackSpec::CalibrationDelay {
        victim: random_node_addr(space, rng),
        mode: if rng.gen_bool(0.5) { DelayAttackMode::FPlus } else { DelayAttackMode::FMinus },
        added_delay: SimDuration::from_millis(rng.gen_range(1..=400)),
        sleep_threshold: SimDuration::from_millis(rng.gen_range(100..=800)),
    }
}

/// A fresh random genome: a handful of fault events, up to a couple of
/// TSC manipulations, sometimes an on-path attack — never empty.
pub fn random_genome(space: &GenomeSpace, rng: &mut StdRng) -> AdversaryGenome {
    let mut g = AdversaryGenome {
        faults: plan_from(
            (0..rng.gen_range(0..=5u32))
                .map(|_| FaultEvent {
                    at: random_time(space, rng),
                    action: random_action(space, rng),
                })
                .collect(),
        ),
        manipulations: (0..rng.gen_range(0..=2u32))
            .map(|_| random_manipulation(space, rng))
            .collect(),
        attack: rng.gen_bool(0.25).then(|| random_attack(space, rng)),
    };
    if g.is_empty() {
        g.faults = plan_from(vec![FaultEvent {
            at: random_time(space, rng),
            action: random_action(space, rng),
        }]);
    }
    g
}

/// Applies one or two random edits: add/remove/retime/replace a fault
/// event, add/remove/replace a manipulation, or set/clear the attack.
pub fn mutate(genome: &AdversaryGenome, space: &GenomeSpace, rng: &mut StdRng) -> AdversaryGenome {
    let mut g = genome.clone();
    for _ in 0..rng.gen_range(1..=2u32) {
        let mut events = g.faults.events().to_vec();
        match rng.gen_range(0..8u32) {
            0 => {
                events.push(FaultEvent {
                    at: random_time(space, rng),
                    action: random_action(space, rng),
                });
            }
            1 if !events.is_empty() => {
                events.remove(rng.gen_range(0..events.len()));
            }
            2 if !events.is_empty() => {
                let i = rng.gen_range(0..events.len());
                events[i].at = random_time(space, rng);
            }
            3 if !events.is_empty() => {
                let i = rng.gen_range(0..events.len());
                events[i].action = random_action(space, rng);
            }
            4 => {
                g.manipulations.push(random_manipulation(space, rng));
            }
            5 if !g.manipulations.is_empty() => {
                let i = rng.gen_range(0..g.manipulations.len());
                if rng.gen_bool(0.5) {
                    g.manipulations.remove(i);
                } else {
                    g.manipulations[i] = random_manipulation(space, rng);
                }
            }
            6 => {
                g.attack = Some(random_attack(space, rng));
            }
            7 => {
                g.attack = None;
            }
            _ => {
                events.push(FaultEvent {
                    at: random_time(space, rng),
                    action: random_action(space, rng),
                });
            }
        }
        g.faults = plan_from(events);
    }
    if g.is_empty() {
        return random_genome(space, rng);
    }
    g
}

/// One-point crossover per element class: fault events, manipulations and
/// the attack slot each recombine independently.
pub fn crossover(
    a: &AdversaryGenome,
    b: &AdversaryGenome,
    space: &GenomeSpace,
    rng: &mut StdRng,
) -> AdversaryGenome {
    let ea = a.faults.events();
    let eb = b.faults.events();
    let cut_a = rng.gen_range(0..=ea.len());
    let cut_b = rng.gen_range(0..=eb.len());
    let events: Vec<FaultEvent> = ea[..cut_a].iter().chain(&eb[cut_b..]).cloned().collect();
    let cut_ma = rng.gen_range(0..=a.manipulations.len());
    let cut_mb = rng.gen_range(0..=b.manipulations.len());
    let manipulations =
        a.manipulations[..cut_ma].iter().chain(&b.manipulations[cut_mb..]).cloned().collect();
    let g = AdversaryGenome {
        faults: plan_from(events),
        manipulations,
        attack: if rng.gen_bool(0.5) { a.attack.clone() } else { b.attack.clone() },
    };
    if g.is_empty() {
        return random_genome(space, rng);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const SPACE: GenomeSpace = GenomeSpace { n: 3, horizon_s: 60, service: true };

    #[test]
    fn generated_genomes_validate_and_round_trip() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = random_genome(&SPACE, &mut rng);
        for i in 0..200 {
            assert!(!g.is_empty(), "step {i} produced an empty genome");
            g.validate(&SPACE).unwrap_or_else(|e| panic!("step {i}: {e}"));
            assert_eq!(AdversaryGenome::decode(&g.encode()).as_ref(), Ok(&g), "step {i}");
            g = match i % 3 {
                0 => mutate(&g, &SPACE, &mut rng),
                1 => crossover(&g, &random_genome(&SPACE, &mut rng), &SPACE, &mut rng),
                _ => random_genome(&SPACE, &mut rng),
            };
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let once = random_genome(&SPACE, &mut StdRng::seed_from_u64(42));
        let twice = random_genome(&SPACE, &mut StdRng::seed_from_u64(42));
        let other = random_genome(&SPACE, &mut StdRng::seed_from_u64(43));
        assert_eq!(once, twice);
        assert_ne!(once, other);
    }
}
