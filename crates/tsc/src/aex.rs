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
//! [`SwitchAt`] composes models over time (Fig. 6 switches Nodes 1–2 from
//! low-AEX to Triad-like at t = 104 s), and [`FromTrace`] replays recorded
//! delays.

use rand::rngs::StdRng;
use rand::Rng;
use sim::{SimDuration, SimTime};

/// Generates the delay until a node's next AEX.
///
/// `now` is the instant of the previous AEX (or node start), letting
/// time-dependent models such as [`SwitchAt`] change regime mid-run.
pub trait AexModel: std::fmt::Debug + Send {
    /// Delay from `now` until the next AEX on this core.
    fn next_delay(&mut self, now: SimTime, rng: &mut StdRng) -> SimDuration;
}

/// The original Triad evaluation's three-point inter-AEX distribution
/// (10 ms / 532 ms / 1.59 s, p = 1/3 each, i.i.d. — §IV, Fig. 1a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriadLike {
    delays: [SimDuration; 3],
}

impl Default for TriadLike {
    fn default() -> Self {
        TriadLike {
            delays: [
                SimDuration::from_millis(10),
                SimDuration::from_millis(532),
                SimDuration::from_millis(1_590),
            ],
        }
    }
}

impl TriadLike {
    /// Mean inter-AEX delay of this distribution.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(
            (self.delays.iter().map(|d| d.as_nanos() as u128).sum::<u128>() / 3) as u64,
        )
    }
}

impl AexModel for TriadLike {
    fn next_delay(&mut self, _now: SimTime, rng: &mut StdRng) -> SimDuration {
        self.delays[rng.gen_range(0..3)]
    }
}

/// The paper's isolated-core environment (Fig. 1b): "most AEXs occur every
/// 5.4 minutes". Modelled as a mixture — with probability `1 - early_frac`
/// a normal draw around the 5.4-minute period, otherwise an early uniform
/// interruption.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolatedCore {
    /// Dominant inter-AEX period (paper: 5.4 min).
    pub period: SimDuration,
    /// Standard deviation of the dominant mode.
    pub period_std: SimDuration,
    /// Probability of an early (shorter) interruption instead.
    pub early_frac: f64,
    /// Lower bound for early interruptions.
    pub early_min: SimDuration,
}

impl Default for IsolatedCore {
    fn default() -> Self {
        IsolatedCore {
            period: SimDuration::from_secs_f64(5.4 * 60.0),
            period_std: SimDuration::from_secs(10),
            early_frac: 0.08,
            early_min: SimDuration::from_secs(30),
        }
    }
}

impl AexModel for IsolatedCore {
    fn next_delay(&mut self, _now: SimTime, rng: &mut StdRng) -> SimDuration {
        if rng.gen_bool(self.early_frac) {
            let lo = self.early_min.as_nanos();
            let hi = self.period.as_nanos();
            SimDuration::from_nanos(rng.gen_range(lo..hi))
        } else {
            let d = sample_normal(rng, self.period.as_secs_f64(), self.period_std.as_secs_f64());
            let floor = self.early_min.as_secs_f64();
            SimDuration::from_secs_f64(d.max(floor))
        }
    }
}

/// Memoryless AEX arrivals with a configurable mean (generic OS noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Mean inter-AEX delay.
    pub mean: SimDuration,
}

impl AexModel for Exponential {
    fn next_delay(&mut self, _now: SimTime, rng: &mut StdRng) -> SimDuration {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        SimDuration::from_secs_f64(-u.ln() * self.mean.as_secs_f64())
    }
}

/// Deterministic fixed-period AEXs (useful in tests and for the machine-wide
/// correlated interrupt source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Periodic {
    /// The constant inter-AEX delay.
    pub period: SimDuration,
}

impl AexModel for Periodic {
    fn next_delay(&mut self, _now: SimTime, _rng: &mut StdRng) -> SimDuration {
        self.period
    }
}

/// Switches from one model to another at a reference instant — e.g. Fig. 6's
/// honest nodes running low-AEX until t = 104 s, then Triad-like.
#[derive(Debug)]
pub struct SwitchAt {
    /// Instant of the regime change.
    pub at: SimTime,
    /// Model used while `now < at`.
    pub before: Box<dyn AexModel>,
    /// Model used once `now >= at`.
    pub after: Box<dyn AexModel>,
}

impl AexModel for SwitchAt {
    fn next_delay(&mut self, now: SimTime, rng: &mut StdRng) -> SimDuration {
        if now < self.at {
            // Never let the pre-switch model sleep past the switch point:
            // wake at the boundary so the new regime starts on time.
            let d = self.before.next_delay(now, rng);
            let until_switch = self.at - now;
            if d > until_switch {
                until_switch
            } else {
                d
            }
        } else {
            self.after.next_delay(now, rng)
        }
    }
}

/// Replays a recorded sequence of inter-AEX delays, cycling at the end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromTrace {
    delays: Vec<SimDuration>,
    pos: usize,
}

impl FromTrace {
    /// Creates a trace-driven model.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace.
    pub fn new(delays: Vec<SimDuration>) -> Self {
        assert!(!delays.is_empty(), "AEX trace must not be empty");
        FromTrace { delays, pos: 0 }
    }
}

impl AexModel for FromTrace {
    fn next_delay(&mut self, _now: SimTime, _rng: &mut StdRng) -> SimDuration {
        let d = self.delays[self.pos];
        self.pos = (self.pos + 1) % self.delays.len();
        d
    }
}

/// How long the enclave thread stays suspended once an AEX fires (interrupt
/// handling plus rescheduling). Uniform between the bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AexPause {
    /// Shortest suspension.
    pub min: SimDuration,
    /// Longest suspension.
    pub max: SimDuration,
}

impl Default for AexPause {
    fn default() -> Self {
        AexPause { min: SimDuration::from_micros(10), max: SimDuration::from_micros(120) }
    }
}

impl AexPause {
    /// Samples one suspension length.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn sample(&self, rng: &mut StdRng) -> SimDuration {
        assert!(self.min <= self.max, "AexPause bounds out of order");
        if self.min == self.max {
            return self.min;
        }
        SimDuration::from_nanos(rng.gen_range(self.min.as_nanos()..=self.max.as_nanos()))
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

    fn draw(model: &mut dyn AexModel, n: usize, seed: u64) -> Vec<SimDuration> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| model.next_delay(SimTime::ZERO, &mut rng)).collect()
    }

    #[test]
    fn triad_like_hits_only_three_support_points() {
        let mut m = TriadLike::default();
        let ds = draw(&mut m, 3000, 1);
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
        let m = TriadLike::default();
        assert!((m.mean().as_secs_f64() - 0.7106).abs() < 1e-3);
    }

    #[test]
    fn isolated_core_mode_is_5_4_minutes() {
        let mut m = IsolatedCore::default();
        let ds = draw(&mut m, 2000, 2);
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
        let mut m = Exponential { mean: SimDuration::from_millis(500) };
        let ds = draw(&mut m, 20_000, 3);
        let mean = ds.iter().map(|d| d.as_secs_f64()).sum::<f64>() / ds.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn periodic_is_constant() {
        let mut m = Periodic { period: SimDuration::from_secs(2) };
        let ds = draw(&mut m, 5, 4);
        assert!(ds.iter().all(|&d| d == SimDuration::from_secs(2)));
    }

    #[test]
    fn switch_at_changes_regime_and_caps_at_boundary() {
        let mut m = SwitchAt {
            at: SimTime::from_secs(104),
            before: Box::new(Periodic { period: SimDuration::from_secs(300) }),
            after: Box::new(Periodic { period: SimDuration::from_millis(10) }),
        };
        let mut rng = StdRng::seed_from_u64(5);
        // Before the switch, a 300 s draw is capped to land exactly on it.
        let d0 = m.next_delay(SimTime::from_secs(100), &mut rng);
        assert_eq!(d0, SimDuration::from_secs(4));
        // After the switch, the fast regime is active.
        let d1 = m.next_delay(SimTime::from_secs(104), &mut rng);
        assert_eq!(d1, SimDuration::from_millis(10));
    }

    #[test]
    fn from_trace_replays_and_cycles() {
        let mut m = FromTrace::new(vec![SimDuration::from_secs(1), SimDuration::from_secs(2)]);
        let ds = draw(&mut m, 5, 6);
        let secs: Vec<u64> = ds.iter().map(|d| d.as_nanos() / 1_000_000_000).collect();
        assert_eq!(secs, vec![1, 2, 1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_trace_rejected() {
        FromTrace::new(vec![]);
    }

    #[test]
    fn pause_samples_within_bounds() {
        let p = AexPause::default();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let d = p.sample(&mut rng);
            assert!(d >= p.min && d <= p.max);
        }
        let fixed = AexPause { min: SimDuration::from_micros(5), max: SimDuration::from_micros(5) };
        assert_eq!(fixed.sample(&mut rng), SimDuration::from_micros(5));
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
