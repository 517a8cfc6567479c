//! Property-based tests for the measurement-recording invariants.

use proptest::prelude::*;
use sim::{SimDuration, SimTime};
use trace::{NodeStateTag, RateCounter, StateTimeline, StepCounter, TimeSeries};

fn arb_state() -> impl Strategy<Value = NodeStateTag> {
    prop_oneof![
        Just(NodeStateTag::FullCalib),
        Just(NodeStateTag::RefCalib),
        Just(NodeStateTag::Tainted),
        Just(NodeStateTag::Ok),
    ]
}

const SECOND_NS: u64 = 1_000_000_000;

/// One step of a random instant sequence: stay on the same instant, move
/// to the next whole second, or advance by up to 2.5 s.
#[derive(Debug, Clone, Copy)]
enum Step {
    Same,
    NextSecond,
    Nanos(u64),
}

/// Non-decreasing instants that land on second boundaries and repeat.
fn arb_instants() -> impl Strategy<Value = Vec<u64>> {
    let step = prop_oneof![
        Just(Step::Same),
        Just(Step::NextSecond),
        (1u64..5 * SECOND_NS / 2).prop_map(Step::Nanos),
    ];
    proptest::collection::vec(step, 1..60).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|step| {
                t = match step {
                    Step::Same => t,
                    Step::NextSecond => (t / SECOND_NS + 1) * SECOND_NS,
                    Step::Nanos(ns) => t + ns,
                };
                t
            })
            .collect()
    })
}

fn counters(instants: &[u64]) -> (StepCounter, RateCounter) {
    let (mut step, mut rate) = (StepCounter::new(), RateCounter::new());
    for &ns in instants {
        step.increment(SimTime::from_nanos(ns));
        rate.increment(SimTime::from_nanos(ns));
    }
    (step, rate)
}

proptest! {
    /// The grid counter agrees with the instant-keeping counter on the
    /// total and at every grid instant and grid pair, up to two seconds
    /// past the last event.
    #[test]
    fn rate_counter_matches_step_counter_on_the_grid(instants in arb_instants()) {
        let (step, rate) = counters(&instants);
        prop_assert_eq!(rate.count(), step.count());
        let seconds = instants.last().expect("non-empty") / SECOND_NS + 2;
        for to in 0..=seconds {
            let to_t = SimTime::from_secs(to);
            prop_assert_eq!(rate.count_at(to_t), step.count_at(to_t), "count_at({})", to_t);
            for from in 0..=to {
                let from_t = SimTime::from_secs(from);
                prop_assert_eq!(
                    rate.count_in(from_t, to_t),
                    step.count_in(from_t, to_t),
                    "count_in({}, {})", from_t, to_t
                );
            }
        }
    }

    /// Off the grid the counter panics rather than rounds, on either bound.
    #[test]
    fn rate_counter_panics_off_the_grid(
        instants in arb_instants(),
        second in 0u64..100,
        sub_ns in 1u64..SECOND_NS,
    ) {
        let (_, rate) = counters(&instants);
        let off = SimTime::from_nanos(second * SECOND_NS + sub_ns);
        let on = SimTime::from_secs(second);
        prop_assert!(std::panic::catch_unwind(|| rate.count_at(off)).is_err());
        prop_assert!(std::panic::catch_unwind(|| rate.count_in(on, off)).is_err());
        let later = on + SimDuration::from_secs(1);
        prop_assert!(std::panic::catch_unwind(|| rate.count_in(off, later)).is_err());
    }

    /// Equality is as strict as comparing instants: moving one event by
    /// 1 ns inside its second — every grid answer unchanged — is seen.
    #[test]
    fn rate_counter_equality_sees_a_one_nanosecond_move(
        instants in arb_instants(),
        pick in any::<usize>(),
    ) {
        let n = instants.len();
        // An event that can move 1 ns later without leaving its second,
        // touching a boundary, or overtaking its successor.
        let movable = (0..n).map(|k| (pick % n + k) % n).find(|&i| {
            let sub = instants[i] % SECOND_NS;
            sub != 0
                && sub != SECOND_NS - 1
                && instants.get(i + 1).is_none_or(|&next| next > instants[i])
        });
        if let Some(i) = movable {
            let mut moved = instants.clone();
            moved[i] += 1;
            let (_, a) = counters(&instants);
            let (_, b) = counters(&moved);
            let seconds = instants[n - 1] / SECOND_NS + 2;
            for to in (0..=seconds).map(SimTime::from_secs) {
                prop_assert_eq!(a.count_at(to), b.count_at(to));
            }
            prop_assert_ne!(&a, &b);
            prop_assert_eq!(&a, &counters(&instants).1);
        }
    }

    /// Availability is always a fraction, and the per-state durations of a
    /// window partition it exactly.
    #[test]
    fn timeline_durations_partition_the_window(
        steps in proptest::collection::vec((1u64..10_000, arb_state()), 1..50),
        window_ns in 1u64..2_000_000,
    ) {
        let mut tl = StateTimeline::new();
        let mut t = 0u64;
        for (dt, state) in steps {
            tl.enter(SimTime::from_nanos(t), state);
            t += dt;
        }
        let from = SimTime::ZERO;
        let to = SimTime::from_nanos(window_ns);
        let avail = tl.availability(from, to);
        prop_assert!((0.0..=1.0).contains(&avail), "availability {avail}");
        let total: u64 = NodeStateTag::ALL
            .iter()
            .map(|&s| tl.time_in(s, from, to).as_nanos())
            .sum();
        // Time before the first transition belongs to no state.
        let first = tl.transitions().first().map(|&(t, _)| t.as_nanos()).unwrap_or(0);
        let covered = window_ns.saturating_sub(first.min(window_ns));
        prop_assert_eq!(total, covered, "durations partition the covered window");
    }

    /// Segments are contiguous, ordered, and consistent with `state_at`.
    #[test]
    fn segments_are_contiguous_and_consistent(
        steps in proptest::collection::vec((1u64..10_000, arb_state()), 1..50),
    ) {
        let mut tl = StateTimeline::new();
        let mut t = 1000u64;
        for (dt, state) in steps {
            tl.enter(SimTime::from_nanos(t), state);
            t += dt;
        }
        let to = SimTime::from_nanos(t + 1000);
        let segs = tl.segments(SimTime::ZERO, to);
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].to, w[1].from, "segments are contiguous");
            prop_assert!(w[0].state != w[1].state, "adjacent segments differ");
        }
        for seg in &segs {
            prop_assert!(seg.from < seg.to);
            prop_assert_eq!(tl.state_at(seg.from), Some(seg.state));
        }
    }

    /// A counter's curve is strictly cumulative and `count_at` agrees with
    /// it.
    #[test]
    fn counter_curve_is_cumulative(deltas in proptest::collection::vec(0u64..1_000, 1..100)) {
        let mut c = StepCounter::new();
        let mut t = 0u64;
        for d in &deltas {
            t += d;
            c.increment(SimTime::from_nanos(t));
        }
        let curve = c.curve();
        prop_assert_eq!(curve.len(), deltas.len());
        for (i, &(at, count)) in curve.iter().enumerate() {
            prop_assert_eq!(count, i as u64 + 1);
            prop_assert_eq!(c.count_at(at), c.count_at(at)); // self-consistent
            prop_assert!(c.count_at(at) >= count);
        }
        prop_assert_eq!(c.count(), deltas.len() as u64);
    }

    /// Series slope of an exact line is recovered over any window.
    #[test]
    fn series_slope_recovers_lines(
        slope in -100.0..100.0f64,
        n in 3usize..100,
    ) {
        let s: TimeSeries = (0..n)
            .map(|i| (SimTime::from_secs(i as u64), slope * i as f64))
            .collect();
        let measured = s.slope_per_sec().unwrap();
        prop_assert!((measured - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        // Windowed slope agrees.
        if n >= 6 {
            let w = s
                .slope_per_sec_in(SimTime::from_secs(2), SimTime::from_secs(n as u64 - 2))
                .unwrap();
            prop_assert!((w - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        }
    }
}
