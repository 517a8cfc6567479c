//! Asynchronous Enclave Exit (AEX) arrival models.
//!
//! AEXs are the events that taint a Triad node's timestamp (§III-B). Their
//! arrival process is entirely OS-controlled, i.e. attacker-controlled, so
//! the paper evaluates two environments reproduced here:
//!
//! - **Triad-like** (Fig. 1a): inter-AEX delays of 10 ms, 532 ms, or 1.59 s,
//!   each with probability 1/3, drawn independently — the original Triad
//!   paper's distribution, simulated on the authors' machine via `rdmsr`.
//! - **Isolated core / low-AEX** (Fig. 1b): the monitoring core shielded
//!   from most OS interruptions, with AEXs around every 5.4 minutes.
//!
//! [`AexSpec::SwitchAt`] composes environments over time (Fig. 6 switches
//! Nodes 1–2 from low-AEX to Triad-like at t = 104 s).

use rand::rngs::StdRng;
use rand::Rng;
use sim::{SimDuration, SimTime};

/// The support of the original Triad evaluation's inter-AEX distribution.
const TRIAD_LIKE_DELAYS: [SimDuration; 3] =
    [SimDuration::from_millis(10), SimDuration::from_millis(532), SimDuration::from_millis(1_590)];

/// One AEX environment: cloneable data that is also its own sampler.
#[derive(Debug, Clone, PartialEq)]
pub enum AexSpec {
    /// No AEX source.
    None,
    /// The original Triad evaluation's three-point inter-AEX distribution
    /// (10 ms / 532 ms / 1.59 s, p = 1/3 each, i.i.d. — §IV, Fig. 1a).
    TriadLike,
    /// The paper's isolated-core environment (Fig. 1b): "most AEXs occur
    /// every 5.4 minutes". Modelled as a mixture — with probability 0.92 a
    /// normal draw (σ = 10 s) around the 5.4-minute period, otherwise an
    /// early uniform interruption, never sooner than 30 s.
    IsolatedCore,
    /// Memoryless arrivals (generic OS noise).
    Exponential {
        /// Mean inter-AEX delay.
        mean: SimDuration,
    },
    /// Deterministic fixed-period arrivals: a test fixture, the
    /// machine-wide correlated interrupt source, or an attacker flooding
    /// the victim's core (§III-A: it "may also arbitrarily cause
    /// interruptions").
    Periodic {
        /// The constant inter-AEX delay.
        period: SimDuration,
    },
    /// Regime change at a reference instant — e.g. Fig. 6's honest nodes
    /// running low-AEX until t = 104 s, then Triad-like.
    SwitchAt {
        /// Instant of the regime change.
        at: SimTime,
        /// Environment while `now < at`. Must not be [`AexSpec::None`].
        before: Box<AexSpec>,
        /// Environment once `now >= at`. Must not be [`AexSpec::None`].
        after: Box<AexSpec>,
    },
}

impl AexSpec {
    /// Delay from `now` — the instant of the previous AEX, or node start —
    /// until the next AEX on this core; `None` for [`AexSpec::None`].
    pub fn next_delay(&self, now: SimTime, rng: &mut StdRng) -> Option<SimDuration> {
        let delay = match self {
            AexSpec::None => return None,
            AexSpec::TriadLike => TRIAD_LIKE_DELAYS[rng.gen_range(0..3)],
            AexSpec::IsolatedCore => {
                let period = SimDuration::from_secs_f64(5.4 * 60.0);
                let period_std = SimDuration::from_secs(10);
                let early_min = SimDuration::from_secs(30);
                if rng.gen_bool(0.08) {
                    let lo = early_min.as_nanos();
                    let hi = period.as_nanos();
                    SimDuration::from_nanos(rng.gen_range(lo..hi))
                } else {
                    let d = sample_normal(rng, period.as_secs_f64(), period_std.as_secs_f64());
                    let floor = early_min.as_secs_f64();
                    SimDuration::from_secs_f64(d.max(floor))
                }
            }
            AexSpec::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                SimDuration::from_secs_f64(-u.ln() * mean.as_secs_f64())
            }
            AexSpec::Periodic { period } => *period,
            // Never let the pre-switch model sleep past the switch point:
            // wake at the boundary so the new regime starts on time.
            AexSpec::SwitchAt { at, before, .. } if now < *at => {
                before.next_delay(now, rng)?.min(*at - now)
            }
            AexSpec::SwitchAt { after, .. } => return after.next_delay(now, rng),
        };
        Some(delay)
    }

    /// Rejects a [`AexSpec::SwitchAt`] with an [`AexSpec::None`] arm, at
    /// any depth: a regime switch needs a regime on both sides.
    ///
    /// # Panics
    ///
    /// Panics on such an arm, naming it.
    pub fn assert_valid(&self) {
        if let AexSpec::SwitchAt { before, after, .. } = self {
            assert!(**before != AexSpec::None, "SwitchAt.before must be a real AEX model");
            assert!(**after != AexSpec::None, "SwitchAt.after must be a real AEX model");
            before.assert_valid();
            after.assert_valid();
        }
    }
}

/// One standard-normal-based sample via Box–Muller (rand 0.8 ships no
/// normal distribution and external distribution crates are out of scope).
pub fn sample_normal(rng: &mut StdRng, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std_dev * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stats::Cdf;

    fn draw(model: &AexSpec, n: usize, seed: u64) -> Vec<SimDuration> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| model.next_delay(SimTime::ZERO, &mut rng).unwrap()).collect()
    }

    #[test]
    fn triad_like_hits_only_three_support_points() {
        let ds = draw(&AexSpec::TriadLike, 3000, 1);
        let support: std::collections::BTreeSet<u64> = ds.iter().map(|d| d.as_nanos()).collect();
        assert_eq!(support.len(), 3);
        assert!(support.contains(&10_000_000));
        assert!(support.contains(&532_000_000));
        assert!(support.contains(&1_590_000_000));
        // Roughly 1/3 each.
        let cdf = Cdf::from_samples(ds.iter().map(|d| d.as_secs_f64()));
        assert!((cdf.fraction_at_or_below(0.011) - 1.0 / 3.0).abs() < 0.05);
        assert!((cdf.fraction_at_or_below(0.54) - 2.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn triad_like_mean_is_710ms() {
        let mean = TRIAD_LIKE_DELAYS.iter().map(|d| d.as_secs_f64()).sum::<f64>() / 3.0;
        assert!((mean - 0.7106).abs() < 1e-3);
    }

    #[test]
    fn isolated_core_mode_is_5_4_minutes() {
        let ds = draw(&AexSpec::IsolatedCore, 2000, 2);
        let cdf = Cdf::from_samples(ds.iter().map(|d| d.as_secs_f64()));
        // The median sits at the 5.4-minute mode.
        assert!((cdf.median() - 324.0).abs() < 20.0, "median {}", cdf.median());
        // Nothing below the early floor.
        assert!(cdf.min().unwrap() >= 30.0);
        // A visible minority of early interruptions exists.
        let early = cdf.fraction_at_or_below(250.0);
        assert!(early > 0.01 && early < 0.2, "early fraction {early}");
    }

    #[test]
    fn exponential_mean_converges() {
        let ds = draw(&AexSpec::Exponential { mean: SimDuration::from_millis(500) }, 20_000, 3);
        let mean = ds.iter().map(|d| d.as_secs_f64()).sum::<f64>() / ds.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn periodic_is_constant() {
        let ds = draw(&AexSpec::Periodic { period: SimDuration::from_secs(2) }, 5, 4);
        assert!(ds.iter().all(|&d| d == SimDuration::from_secs(2)));
    }

    #[test]
    fn switch_at_changes_regime_and_caps_at_boundary() {
        let m = AexSpec::SwitchAt {
            at: SimTime::from_secs(104),
            before: Box::new(AexSpec::Periodic { period: SimDuration::from_secs(300) }),
            after: Box::new(AexSpec::Periodic { period: SimDuration::from_millis(10) }),
        };
        let mut rng = StdRng::seed_from_u64(5);
        // Before the switch, a 300 s draw is capped to land exactly on it.
        let d0 = m.next_delay(SimTime::from_secs(100), &mut rng).unwrap();
        assert_eq!(d0, SimDuration::from_secs(4));
        // After the switch, the fast regime is active.
        let d1 = m.next_delay(SimTime::from_secs(104), &mut rng).unwrap();
        assert_eq!(d1, SimDuration::from_millis(10));
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(8);
        let xs: Vec<f64> = (0..20_000).map(|_| sample_normal(&mut rng, 10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }
}
