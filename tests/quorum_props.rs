//! Property-based quorum acceptance tests: with any `f` liars among a
//! `2f + 1` panel whose `f + 1` honest attestations mutually overlap, the
//! accepted estimate can never be dragged outside the honest envelope.
//!
//! The argument the property checks end-to-end: any Marzullo agreement
//! with support `f + 1` must count at least one honest interval among its
//! supporters (there are only `f` liars), and the agreement region is
//! contained in every supporting interval — so the accepted center lies
//! inside some honest interval no matter what the liars claim.

use proptest::prelude::*;
use triad_tt::service::{decide, AttestSample};
use triad_tt::sim::{SimDuration, SimTime};
use triad_tt::stats::Interval;
use triad_tt::wire::TimeReading;

/// An attestation sample with a zero round-trip at `now`, so projection
/// is the identity and the property exercises the overlap rule alone.
fn sample(node: usize, estimate_ns: u64, uncertainty_ns: u64, now: SimTime) -> AttestSample {
    AttestSample {
        node,
        reading: TimeReading { estimate_ns, uncertainty_ns, degraded: false },
        sent: now,
        received: now,
    }
}

proptest! {
    /// `f` arbitrary liars among `2f + 1` nodes whose honest majority
    /// mutually overlaps: the read always accepts, and the accepted
    /// estimate stays inside the honest envelope.
    #[test]
    fn liars_never_shift_the_accepted_estimate_outside_the_honest_envelope(
        f in 1usize..4,
        common_ns in 1_000_000_000u64..1_000_000_000_000,
        // Per-node honest half-widths and in-interval offsets; sliced to
        // the f+1 honest nodes below. Every honest interval is built to
        // contain `common_ns`, so the honest majority mutually overlaps.
        uncertainties in proptest::collection::vec(1_000u64..10_000_000, 7..8),
        offset_fracs in proptest::collection::vec(-1.0f64..1.0, 7..8),
        // Liar attestations are unconstrained: any estimate up to twice
        // the honest timescale, any envelope.
        liar_estimates in proptest::collection::vec(0u64..2_000_000_000_000, 3..4),
        liar_uncertainties in proptest::collection::vec(0u64..10_000_000, 3..4),
    ) {
        let now = SimTime::from_nanos(common_ns);
        let honest = f + 1;
        let mut samples = Vec::new();
        let mut envelope_lo = u64::MAX;
        let mut envelope_hi = 0u64;
        for i in 0..honest {
            let u = uncertainties[i];
            // |offset| <= u keeps `common_ns` inside [est - u, est + u].
            let offset = (offset_fracs[i] * u as f64) as i64;
            let est = common_ns.saturating_add_signed(offset);
            envelope_lo = envelope_lo.min(est.saturating_sub(u));
            envelope_hi = envelope_hi.max(est.saturating_add(u));
            samples.push(sample(i, est, u, now));
        }
        for l in 0..f {
            samples.push(sample(honest + l, liar_estimates[l], liar_uncertainties[l], now));
        }

        let verdict = decide(&samples, f, now, SimDuration::ZERO);
        let accepted = verdict.accepted.expect("an overlapping honest majority must accept");
        prop_assert!(
            accepted.estimate_ns >= envelope_lo && accepted.estimate_ns <= envelope_hi,
            "accepted {} escaped the honest envelope [{envelope_lo}, {envelope_hi}]",
            accepted.estimate_ns
        );
        // The liars can at most be flagged, never adopted as the basis of
        // an agreement that excludes every honest node.
        let honest_supporters = (0..samples.len())
            .filter(|&k| verdict.supporters & 1 << k != 0 && samples[k].node < honest)
            .count();
        prop_assert!(honest_supporters >= 1, "agreement without any honest supporter");
    }

    /// With *all* `2f + 1` nodes honest and mutually overlapping, the read
    /// accepts with zero suspects — the no-false-positive half of the
    /// detector's confusion matrix, over arbitrary overlap geometry.
    #[test]
    fn honest_overlapping_panels_never_raise_suspects(
        f in 1usize..4,
        common_ns in 1_000_000_000u64..1_000_000_000_000,
        uncertainties in proptest::collection::vec(1_000u64..10_000_000, 7..8),
        offset_fracs in proptest::collection::vec(-1.0f64..1.0, 7..8),
    ) {
        let now = SimTime::from_nanos(common_ns);
        let n = 2 * f + 1;
        let samples: Vec<AttestSample> = (0..n)
            .map(|i| {
                let u = uncertainties[i];
                let offset = (offset_fracs[i] * u as f64) as i64;
                sample(i, common_ns.saturating_add_signed(offset), u, now)
            })
            .collect();
        // The strict zero-margin rule: if even it raises no suspects on
        // honest geometry, any configured margin can only be safer.
        let verdict = decide(&samples, f, now, SimDuration::ZERO);
        prop_assert!(verdict.accepted.is_some());
        prop_assert_eq!(verdict.suspects, 0, "honest panel flagged {:#b}", verdict.suspects);
    }

    /// `decide` agrees with the rule it replaced — a `Vec`-based Marzullo
    /// and node lists — on panels of up to 64 attestations with touching
    /// and duplicate bounds, projected over unequal round-trips.
    #[test]
    fn decide_matches_the_vec_based_rule(
        raw in proptest::collection::vec((0u64..40, 0u64..6, 0u64..4), 1..65),
        f in 1usize..5,
        margin_ns in 0u64..3,
        liar in any::<bool>(),
    ) {
        let now = SimTime::from_nanos(1_000);
        let samples: Vec<AttestSample> = raw
            .iter()
            .enumerate()
            .map(|(k, &(est, unc, rtt))| AttestSample {
                // Node indices out of sample order, as answers arrive.
                node: (k * 7 + 3) % 64,
                reading: TimeReading {
                    estimate_ns: est + if liar && k == 0 { 1_000 } else { 0 },
                    uncertainty_ns: unc,
                    degraded: k == 1,
                },
                sent: SimTime::from_nanos(1_000 - 2 * rtt),
                received: now,
            })
            .collect();
        let margin = SimDuration::from_nanos(margin_ns);
        let verdict = decide(&samples, f, now, margin);
        let (accepted, suspects, supporters) = reference::decide(&samples, f, now, margin);
        let nodes = |mask: u64| -> Vec<usize> {
            (0..samples.len()).filter(|&k| mask & 1 << k != 0).map(|k| samples[k].node).collect()
        };
        prop_assert_eq!(verdict.accepted, accepted);
        prop_assert_eq!(nodes(verdict.suspects), suspects);
        prop_assert_eq!(nodes(verdict.supporters), supporters);
    }
}

/// The acceptance rule as it stood before the masks: a heap-allocated edge
/// table sorted stably, chimers and verdicts as index lists.
mod reference {
    use super::*;

    fn marzullo(intervals: &[Interval]) -> (Interval, usize, Vec<usize>) {
        let mut edges: Vec<(f64, i32)> = Vec::with_capacity(intervals.len() * 2);
        for iv in intervals {
            edges.push((iv.lo, 1));
            edges.push((iv.hi, -1));
        }
        edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(b.1.cmp(&a.1)));
        let (mut depth, mut best_depth) = (0, 0);
        let (mut best_lo, mut best_hi, mut current_lo) = (f64::NAN, f64::NAN, f64::NAN);
        for &(offset, kind) in &edges {
            if kind == 1 {
                depth += 1;
                if depth > best_depth {
                    best_depth = depth;
                    current_lo = offset;
                    best_lo = f64::NAN;
                }
            } else {
                if depth == best_depth && best_lo.is_nan() {
                    best_lo = current_lo;
                    best_hi = offset;
                }
                depth -= 1;
            }
        }
        let interval = Interval::new(best_lo, best_hi);
        let chimers = (0..intervals.len())
            .filter(|&i| intervals[i].lo <= interval.lo && interval.hi <= intervals[i].hi)
            .collect();
        (interval, best_depth, chimers)
    }

    pub fn decide(
        samples: &[AttestSample],
        f: usize,
        now: SimTime,
        margin: SimDuration,
    ) -> (Option<TimeReading>, Vec<usize>, Vec<usize>) {
        if samples.len() < f + 1 {
            return (None, Vec::new(), Vec::new());
        }
        let intervals: Vec<Interval> = samples.iter().map(|s| s.project(now)).collect();
        let (agreed, support, chimers) = marzullo(&intervals);
        if support < f + 1 {
            return (None, Vec::new(), Vec::new());
        }
        let margin_ns = margin.as_nanos() as f64;
        let mut suspects = Vec::new();
        let mut supporters = Vec::new();
        for (k, iv) in intervals.iter().enumerate() {
            if !iv.inflate(margin_ns).overlaps(&agreed) {
                suspects.push(samples[k].node);
            } else if chimers.contains(&k) {
                supporters.push(samples[k].node);
            }
        }
        let accepted = TimeReading {
            estimate_ns: agreed.center().max(0.0) as u64,
            uncertainty_ns: (agreed.width() / 2.0) as u64,
            degraded: samples.iter().any(|s| s.reading.degraded),
        };
        (Some(accepted), suspects, supporters)
    }
}
