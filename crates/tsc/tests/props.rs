//! Property-based tests for the TSC substrate models.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{SimDuration, SimTime};
use tsc::{AexSpec, IncModel, TscClock, TscManipulation};

proptest! {
    /// An unmanipulated TSC is (weakly) monotone and linear: reading at
    /// t1 <= t2 never decreases, and the tick delta equals rate × Δt within
    /// rounding.
    #[test]
    fn unmanipulated_tsc_is_monotone_and_linear(
        rate_mhz in 100.0..5_000.0f64,
        t1_ms in 0u64..10_000_000,
        dt_ms in 0u64..10_000_000,
    ) {
        let clock = TscClock::new(rate_mhz * 1e6);
        let t1 = SimTime::from_nanos(t1_ms * 1_000_000);
        let t2 = t1 + SimDuration::from_millis(dt_ms);
        let a = clock.read(t1);
        let b = clock.read(t2);
        prop_assert!(b >= a);
        let expected = rate_mhz * 1e6 * (dt_ms as f64 / 1e3);
        prop_assert!(((b - a) as f64 - expected).abs() <= expected * 1e-9 + 2.0);
    }

    /// Rate manipulations never create a discontinuity at the manipulation
    /// instant, and offset jumps change the value by exactly the jump.
    #[test]
    fn manipulations_behave_locally(
        jump in -1_000_000i64..1_000_000,
        scale in 0.5..2.0f64,
        at_s in 1u64..1_000,
    ) {
        let at = SimTime::from_secs(at_s);
        let mut c1 = TscClock::new(2.9e9);
        let before = c1.read(at);
        c1.manipulate(at, TscManipulation::ScaleRate(scale));
        prop_assert!((c1.read(at) as i64 - before as i64).abs() <= 1, "scaling is continuous");

        let mut c2 = TscClock::new(2.9e9);
        let before = c2.read(at) as i64;
        c2.manipulate(at, TscManipulation::OffsetJump(jump));
        let after = c2.read(at) as i64;
        prop_assert!((after - (before + jump).max(0)).abs() <= 1, "jump applies exactly");
    }

    /// Every AEX model only ever returns positive, finite delays, and
    /// `AexSpec::None` returns none at all.
    #[test]
    fn aex_models_return_positive_delays(seed in any::<u64>(), n in 1usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let models = [
            AexSpec::TriadLike,
            AexSpec::IsolatedCore,
            AexSpec::Exponential { mean: SimDuration::from_millis(500) },
            AexSpec::Periodic { period: SimDuration::from_millis(5) },
            AexSpec::SwitchAt {
                at: SimTime::from_secs(60),
                before: Box::new(AexSpec::IsolatedCore),
                after: Box::new(AexSpec::TriadLike),
            },
        ];
        for m in &models {
            let mut now = SimTime::ZERO;
            for _ in 0..n {
                let d = m.next_delay(now, &mut rng).expect("a real model always draws");
                prop_assert!(d > SimDuration::ZERO, "{m:?} returned zero delay");
                prop_assert!(d < SimDuration::from_secs(86_400), "{m:?} returned {d}");
                now += d;
            }
        }
        prop_assert_eq!(AexSpec::None.next_delay(SimTime::ZERO, &mut rng), None);
    }

    /// The INC model's discrepancy is ~zero for an honest TSC and grows
    /// with the manipulation factor, for any window length.
    #[test]
    fn inc_discrepancy_tracks_manipulation(
        window_us in 500u64..100_000,
        factor in 1.001..1.5f64,
    ) {
        let model = IncModel { jitter_inc: 0, ..Default::default() };
        let window = SimDuration::from_micros(window_us);
        let mut rng = StdRng::seed_from_u64(1);
        let inc = model.measure(window, 3.5e9, &mut rng);
        let honest_ticks = (window.as_secs_f64() * 2.9e9) as u64;
        let honest_ppm = model.discrepancy_ppm(inc, honest_ticks, 2.9e9, 3.5e9);
        prop_assert!(honest_ppm.abs() < 100.0, "honest {honest_ppm}");
        let manipulated = (window.as_secs_f64() * 2.9e9 * factor) as u64;
        let attacked_ppm = model.discrepancy_ppm(inc, manipulated, 2.9e9, 3.5e9);
        prop_assert!(
            attacked_ppm < -((factor - 1.0) * 4e5),
            "factor {factor} -> {attacked_ppm} ppm"
        );
    }

    /// `reject_outliers` keeps everything within the distance bound of the
    /// median and never invents samples.
    #[test]
    fn outlier_rejection_partitions(counts in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let (kept, removed) = tsc::reject_outliers(&counts, 50);
        prop_assert_eq!(kept.len() + removed.len(), counts.len());
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        for k in &kept {
            prop_assert!(k.abs_diff(median) <= 50);
        }
        for &idx in &removed {
            prop_assert!(counts[idx].abs_diff(median) > 50);
        }
    }
}
