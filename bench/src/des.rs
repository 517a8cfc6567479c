//! The four simulated workloads and the fast-envelope runner that times
//! them.
//!
//! A workload is a fixed list of *units* — a scenario and a seed. One
//! repetition of a unit builds the scenario, runs the untimed calibration
//! phase to `t0`, then drives the timed span slice by slice, one
//! [`Simulation::run_until`] call per slice, each timed on its own. Units
//! are repeated round-robin; every slice's host time is estimated by
//! [`fast_envelope`] over its samples and a unit's time is the sum of its
//! slices. Everything the simulation computes must repeat bit for bit, so
//! every repetition is checked against the first.

use std::time::{Duration, Instant};

use faults::RandomFaultConfig;
use runtime::{SysEvent, World};
use scenario::{AexSpec, FaultSpec, NodeImplSpec, ScenarioSpec};
use search::{score, FitnessTarget, Reproducer};
use service::{OpenLoopSpec, QuorumLoopSpec, QuorumSpec, ServiceSpec};
use sim::{SimDuration, SimTime, Simulation};

use crate::envelope::{fast_envelope, median, quantile_sorted, sorted};
use crate::spans::SpanLog;

/// Hard stop for one pass, whatever the sample counts: the contract gives
/// a run 180 s in total.
const PASS_CAP: Duration = Duration::from_secs(120);

/// What one operation of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One request answered (full or degraded) by the serving layer.
    Answered,
    /// One quorum read accepted.
    QuorumAccepted,
    /// One simulated second of the whole cluster.
    SimSecond,
    /// One complete adversary evaluation (build → horizon → score).
    Evaluation,
}

/// One scenario at one seed, with its timing plan.
pub struct Unit {
    /// Label used in spans and diagnostics.
    pub label: &'static str,
    seed: u64,
    make_spec: Box<dyn Fn() -> ScenarioSpec>,
    t0: SimTime,
    slice: SimDuration,
    slices: usize,
    /// Score the finished world like E23 does, under this target.
    target: Option<FitnessTarget>,
}

impl Unit {
    fn slice_end(&self, j: usize) -> SimTime {
        self.t0 + SimDuration::from_nanos(self.slice.as_nanos() * (j as u64 + 1))
    }

    /// Builds the scenario exactly as a repetition does.
    pub fn build(&self) -> Simulation<World, SysEvent> {
        (self.make_spec)().build(self.seed)
    }

    /// Builds the scenario and runs it to the end of its last slice.
    pub fn run_to_end(&self) -> Simulation<World, SysEvent> {
        let mut sim = self.build();
        sim.run_until(self.slice_end(self.slices - 1));
        sim
    }
}

/// A named list of units and the definition of its operation.
pub struct DesWorkload {
    /// Stable workload name.
    pub name: &'static str,
    /// What counts as one operation.
    pub op: Op,
    /// The units, repeated round-robin.
    pub units: Vec<Unit>,
}

/// splitmix64 finalizer: decorrelated unit seeds from the one `--seed`.
fn derive_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// `serve_open`: two resilient nodes under the paper's AEX regime behind
/// batching front-ends, 2 000 open-loop requests per simulated second.
pub fn serve_open(seed: u64) -> DesWorkload {
    let make = || {
        ScenarioSpec::new(2)
            .horizon(secs(80))
            .node_impl(NodeImplSpec::Resilient(Box::default()))
            .all_nodes_aex(AexSpec::TriadLike)
            .service(
                ServiceSpec::new()
                    .open_loop(OpenLoopSpec { rate_per_s: 2_000.0, ..Default::default() }),
            )
    };
    DesWorkload {
        name: "serve_open",
        op: Op::Answered,
        units: vec![Unit {
            label: "serve-n2-2k",
            seed: derive_seed(seed, 0),
            make_spec: Box::new(make),
            t0: secs(30),
            slice: SimDuration::from_secs(1),
            slices: 50,
            target: None,
        }],
    }
}

/// `quorum_fanout`: three resilient nodes, 1 500 quorum reads per
/// simulated second fanned out to a full `2f + 1` panel at `f = 1`.
///
/// Resilient, not base, nodes: a base node calibrates once and, with no
/// AEX to taint it, never again, so on a few seeds in a hundred the three
/// clocks drift out of each other's attested intervals before the timed
/// span ends and reads fail `no_quorum`. The hardened node's refined
/// frequency keeps every read accepted (0 failures over seeds 1–500).
pub fn quorum_fanout(seed: u64) -> DesWorkload {
    let make = || {
        ScenarioSpec::new(3)
            .horizon(secs(40))
            .node_impl(NodeImplSpec::Resilient(Box::default()))
            .service(ServiceSpec::new().quorum_loop(QuorumLoopSpec {
                rate_per_s: 1_500.0,
                quorum: QuorumSpec { f: 1, ..Default::default() },
                ..Default::default()
            }))
    };
    DesWorkload {
        name: "quorum_fanout",
        op: Op::QuorumAccepted,
        units: vec![Unit {
            label: "quorum-n3-1k5",
            seed: derive_seed(seed, 0),
            make_spec: Box::new(make),
            t0: secs(10),
            slice: SimDuration::from_secs(1),
            slices: 30,
            target: None,
        }],
    }
}

/// Fault plans one `protocol_chaos` round replays. The randomized plan
/// changes the work per simulated second (a crashed node dispatches
/// nothing): over seeds 100–119 a single plan's event count has an
/// interquartile spread of 6 %, which six plans per round average down
/// to what the host's own noise leaves visible.
const CHAOS_PLANS: u64 = 6;

/// `protocol_chaos`: five resilient nodes, two probing clients, a seeded
/// randomized fault plan, and no serving layer at all.
pub fn protocol_chaos(seed: u64) -> DesWorkload {
    let make = || {
        ScenarioSpec::new(5)
            .horizon(secs(130))
            .node_impl(NodeImplSpec::Resilient(Box::default()))
            .all_nodes_aex(AexSpec::TriadLike)
            .client(0, SimDuration::from_millis(20))
            .reading_client(0, SimDuration::from_millis(20))
            .faults(FaultSpec::Randomized(RandomFaultConfig {
                window: (secs(20), secs(100)),
                ..Default::default()
            }))
    };
    DesWorkload {
        name: "protocol_chaos",
        op: Op::SimSecond,
        units: (0..CHAOS_PLANS)
            .map(|lane| Unit {
                label: "chaos-n5",
                seed: derive_seed(seed, lane),
                make_spec: Box::new(make),
                t0: secs(10),
                slice: SimDuration::from_secs(10),
                slices: 12,
                target: None,
            })
            .collect(),
    }
}

/// The reproducers `adversary_eval` replays: copies of the committed
/// corpus entries, so a corpus refresh does not change the workload.
///
/// `drift-n3` and `slo-n5`, not the corpus's other two: `drift-n5` does a
/// different evaluation on one seed in five (when calibration happens to
/// finish before its TA outage the cluster serves for the whole run, 1.08 M
/// events instead of 0.69 M), which no estimator can steady.
const REPRODUCERS: [(&str, &str); 2] = [
    ("drift-n3", include_str!("../inputs/drift-n3.scn")),
    ("slo-n5", include_str!("../inputs/slo-n5.scn")),
];

/// Decodes the bundled reproducers.
pub fn reproducers() -> Vec<Reproducer> {
    REPRODUCERS
        .iter()
        .map(|(name, text)| {
            Reproducer::decode(text).unwrap_or_else(|e| panic!("inputs/{name}.scn: {e}"))
        })
        .collect()
}

/// `adversary_eval`: each bundled reproducer evaluated the way E23
/// evaluates a candidate — spec, build, run to the horizon, score.
pub fn adversary_eval(seed: u64) -> DesWorkload {
    let units = reproducers()
        .into_iter()
        .zip(REPRODUCERS)
        .map(|(r, (label, _))| Unit {
            label,
            seed: r.eval_seed ^ seed,
            t0: SimTime::ZERO,
            slice: SimDuration::from_secs(1),
            slices: usize::try_from(r.space.horizon_s).expect("horizon fits usize"),
            target: Some(r.target),
            make_spec: Box::new(move || r.space.spec(&r.genome)),
        })
        .collect();
    DesWorkload { name: "adversary_eval", op: Op::Evaluation, units }
}

/// What the simulation has done, as counts that must repeat: cumulative
/// when read off a simulation, per slice once two readings are subtracted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceCounts {
    /// Events dispatched.
    pub events: u64,
    /// Operations that succeeded.
    pub good: u64,
    /// Operations that ended without a usable answer.
    pub bad: u64,
    /// Datagrams handed to the fabric.
    pub msgs: u64,
}

impl SliceCounts {
    /// Cumulative counts so far (read between slices, outside the timed
    /// region).
    fn read(op: Op, sim: &Simulation<World, SysEvent>) -> Self {
        let world = sim.world();
        let s = &world.recorder.service;
        let (good, bad) = match op {
            Op::Answered => (s.goodput(), s.badput()),
            Op::QuorumAccepted => (s.quorum_accepted.count(), s.quorum_badput()),
            Op::SimSecond | Op::Evaluation => (0, 0),
        };
        SliceCounts { events: sim.dispatched(), good, bad, msgs: world.net.total_stats().sent }
    }

    fn since(&self, earlier: &SliceCounts) -> Self {
        SliceCounts {
            events: self.events - earlier.events,
            good: self.good - earlier.good,
            bad: self.bad - earlier.bad,
            msgs: self.msgs - earlier.msgs,
        }
    }
}

/// Everything read off the finished world that must repeat bit for bit,
/// plus the layer counts derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Finals {
    /// The raw fingerprint (counters, latency percentiles, fitness bits).
    fingerprint: Vec<u64>,
    /// Requests (or quorum reads) issued over the whole run.
    pub offered: u64,
    /// Full-precision answers (or accepted quorum reads) over the whole run.
    pub served_ok: u64,
    /// Degraded answers over the whole run.
    pub served_degraded: u64,
    /// Simulated end-to-end latency, median (ns).
    pub sim_latency_p50_ns: f64,
    /// Simulated end-to-end latency, 99th percentile (ns).
    pub sim_latency_p99_ns: f64,
    /// Probing-client timestamps served.
    pub client_served: u64,
    /// Probing-client requests denied (protocol behaviour, not failure).
    pub client_denied: u64,
    /// Detection events across all nodes.
    pub detections: u64,
    /// Fault-plan events that fired.
    pub fault_events: u64,
    /// Events still scheduled at the end.
    pub live_events: usize,
    /// Payload-slab high-water mark.
    pub pool_slots: usize,
    /// E23 fitness, when the unit is scored.
    pub fitness: Option<search::Fitness>,
}

fn finals(unit: &Unit, op: Op, sim: &Simulation<World, SysEvent>) -> Finals {
    let world = sim.world();
    let s = &world.recorder.service;
    let (hist, offered, served_ok) = match op {
        Op::QuorumAccepted => {
            (&s.quorum_latency, s.quorum_offered.count(), s.quorum_accepted.count())
        }
        _ => (&s.latency, s.offered.count(), s.served_ok.count()),
    };
    let (p50, p99) =
        if hist.is_empty() { (0.0, 0.0) } else { (hist.percentile(50.0), hist.percentile(99.0)) };
    let net = world.net.total_stats();
    let mut fingerprint = vec![
        s.offered.count(),
        s.served_ok.count(),
        s.served_degraded.count(),
        s.badput(),
        s.failovers.count(),
        s.quorum_offered.count(),
        s.quorum_accepted.count(),
        s.quorum_badput(),
        s.byzantine_suspects.count(),
        s.drops(),
        hist.total(),
        p50.to_bits(),
        p99.to_bits(),
        net.sent,
        net.delivered,
        world.recorder.faults.len() as u64,
    ];
    let (mut client_served, mut client_denied, mut detections) = (0, 0, 0);
    for node in world.recorder.iter() {
        client_served += node.client_served.count();
        client_denied += node.client_denied.count();
        detections += node.detection_count();
        fingerprint.extend([
            node.client_served.count(),
            node.client_denied.count(),
            node.detection_count(),
            node.ta_references.count(),
            node.aex_events.count(),
            node.crashes.count(),
            node.drift_ms.len() as u64,
        ]);
    }
    let fitness = unit.target.map(|t| score(world, t));
    if let Some(f) = fitness {
        fingerprint.extend([f.detections, f.value.to_bits()]);
    }
    Finals {
        fingerprint,
        offered,
        served_ok,
        served_degraded: s.served_degraded.count(),
        sim_latency_p50_ns: p50,
        sim_latency_p99_ns: p99,
        client_served,
        client_denied,
        detections,
        fault_events: world.recorder.faults.len() as u64,
        live_events: sim.live_events(),
        pool_slots: sim.pool_slots(),
        fitness,
    }
}

/// Samples and reference counts of one unit over a pass.
pub struct UnitStats {
    /// Host nanoseconds of every repetition of every slice (`[slice][rep]`).
    pub slice_ns: Vec<Vec<f64>>,
    /// Host nanoseconds from nothing to `t0`, per repetition.
    pub setup_ns: Vec<f64>,
    /// The first repetition's per-slice counts; every later one must match.
    pub counts: Vec<SliceCounts>,
    /// The first repetition's finished-world readings.
    pub finals: Finals,
    /// Repetitions whose counts or finals differed from the first.
    pub mismatched_reps: u64,
    /// Operations per slice (derived from `counts` and the op definition).
    pub ops: Vec<f64>,
}

impl UnitStats {
    /// Repetitions sampled.
    pub fn reps(&self) -> usize {
        self.setup_ns.len()
    }

    /// Operations in one repetition's timed span.
    pub fn ops_per_rep(&self) -> f64 {
        self.ops.iter().sum()
    }

    fn sum_counts(&self, f: impl Fn(&SliceCounts) -> u64) -> u64 {
        self.counts.iter().map(f).sum()
    }
}

/// One pass over a workload.
pub struct DesRun {
    /// Per-unit samples, in unit order.
    pub units: Vec<UnitStats>,
}

fn ops_of(op: Op, unit: &Unit, c: &SliceCounts) -> f64 {
    match op {
        Op::Answered | Op::QuorumAccepted => c.good as f64,
        Op::SimSecond => unit.slice.as_nanos() as f64 / 1e9,
        Op::Evaluation => 1.0 / unit.slices as f64,
    }
}

/// One untraced repetition: returns the setup time, the per-slice host
/// times and counts, and the finished-world readings.
fn repetition(unit: &Unit, op: Op) -> (f64, Vec<f64>, Vec<SliceCounts>, Finals) {
    let started = Instant::now();
    let mut sim = unit.build();
    sim.run_until(unit.t0);
    let setup_ns = started.elapsed().as_nanos() as f64;

    let mut times = Vec::with_capacity(unit.slices);
    let mut counts = Vec::with_capacity(unit.slices);
    let mut before = SliceCounts::read(op, &sim);
    for j in 0..unit.slices {
        let end = unit.slice_end(j);
        let t = Instant::now();
        sim.run_until(end);
        times.push(t.elapsed().as_nanos() as f64);
        let after = SliceCounts::read(op, &sim);
        counts.push(after.since(&before));
        before = after;
    }
    let fin = finals(unit, op, &sim);
    (setup_ns, times, counts, fin)
}

/// Repeats the workload's units round-robin for `budget` of wall time and
/// until every slice holds `min_n` samples.
pub fn run_untraced(w: &DesWorkload, budget: Duration, min_n: usize) -> DesRun {
    let started = Instant::now();
    let mut units: Vec<Option<UnitStats>> = w.units.iter().map(|_| None).collect();
    let mut rounds = 0usize;
    while (started.elapsed() < budget || rounds < min_n) && started.elapsed() < PASS_CAP {
        for (unit, slot) in w.units.iter().zip(&mut units) {
            let (setup_ns, times, counts, fin) = repetition(unit, w.op);
            let stats = slot.get_or_insert_with(|| UnitStats {
                slice_ns: vec![Vec::new(); unit.slices],
                setup_ns: Vec::new(),
                ops: counts.iter().map(|c| ops_of(w.op, unit, c)).collect(),
                counts: counts.clone(),
                finals: fin.clone(),
                mismatched_reps: 0,
            });
            if counts != stats.counts || fin != stats.finals {
                stats.mismatched_reps += 1;
            }
            stats.setup_ns.push(setup_ns);
            for (samples, t) in stats.slice_ns.iter_mut().zip(times) {
                samples.push(t);
            }
        }
        rounds += 1;
    }
    DesRun { units: units.into_iter().map(|u| u.expect("at least one round ran")).collect() }
}

/// The numbers an untraced pass boils down to.
pub struct DesSummary {
    /// Operations per host second by the fast envelope.
    pub ops_per_s: f64,
    /// The same from per-slice medians.
    pub median_ops_per_s: f64,
    /// The same from the plain mean of every sample.
    pub wall_ops_per_s: f64,
    /// Per-op host cost (µs) of the median slice.
    pub op_cost_p50_us: f64,
    /// Per-op host cost (µs) of the 90th-percentile slice.
    pub op_cost_p90_us: f64,
    /// Fast envelope over rounds of the summed unit set-up times (s).
    pub setup_s: f64,
    /// Host nanoseconds per dispatched event by the fast envelope.
    pub ns_per_event: f64,
    /// Operations in one round's timed spans.
    pub ops_per_round: f64,
    /// Events in one round's timed spans.
    pub events_per_round: u64,
    /// Datagrams in one round's timed spans.
    pub msgs_per_round: u64,
    /// Operations that ended without a usable answer, plus every operation
    /// of a repetition that failed the determinism check.
    pub failed: u64,
    /// Operations attempted over every repetition.
    pub attempted: u64,
    /// Rounds sampled.
    pub reps: usize,
    /// Slices per round.
    pub slices: usize,
    /// Every repetition reproduced the first bit for bit.
    pub deterministic: bool,
    /// Successful ÷ settled operations in the timed span (1 when the
    /// workload has no serving layer).
    pub answered_ratio: f64,
}

/// Reduces a pass to its summary.
///
/// # Errors
///
/// Propagates the estimator's refusal when a slice has fewer than `min_n`
/// samples (the pass hit [`PASS_CAP`] first).
pub fn summarize(
    w: &DesWorkload,
    run: &DesRun,
    min_n: usize,
) -> Result<DesSummary, crate::envelope::TooFewSamples> {
    let (mut fast, mut med, mut wall_ns, mut ops_round, mut costs) = (0.0, 0.0, 0.0, 0.0, vec![]);
    let (mut events, mut msgs, mut good, mut bad, mut whole_ops_failed) = (0, 0, 0, 0, 0.0);
    let mut setup_rounds = vec![0.0; run.units[0].reps()];
    for u in &run.units {
        for (samples, &ops) in u.slice_ns.iter().zip(&u.ops) {
            let f = fast_envelope(samples, min_n)?;
            fast += f;
            med += median(samples);
            wall_ns += samples.iter().sum::<f64>() / samples.len() as f64;
            if ops > 0.0 {
                costs.push(f / ops / 1e3);
            }
        }
        for (acc, s) in setup_rounds.iter_mut().zip(&u.setup_ns) {
            *acc += s;
        }
        ops_round += u.ops_per_rep();
        events += u.sum_counts(|c| c.events);
        msgs += u.sum_counts(|c| c.msgs);
        let reps = u.reps() as u64;
        good += u.sum_counts(|c| c.good) * reps;
        bad += u.sum_counts(|c| c.bad) * reps;
        whole_ops_failed += u.mismatched_reps as f64 * u.ops_per_rep();
    }
    let reps = run.units[0].reps();
    let costs = sorted(&costs);
    // Serving workloads count settled requests; the others count their
    // ops (simulated seconds, evaluations) directly.
    let serving = matches!(w.op, Op::Answered | Op::QuorumAccepted);
    let attempted =
        if serving { good + bad } else { (ops_round * reps as f64).round() as u64 }.max(1);
    let failed = bad + whole_ops_failed.round() as u64;
    Ok(DesSummary {
        ops_per_s: ops_round / (fast / 1e9),
        median_ops_per_s: ops_round / (med / 1e9),
        wall_ops_per_s: ops_round / (wall_ns / 1e9),
        op_cost_p50_us: quantile_sorted(&costs, 0.5),
        op_cost_p90_us: quantile_sorted(&costs, 0.9),
        setup_s: fast_envelope(&setup_rounds, min_n)? / 1e9,
        ns_per_event: fast / events as f64,
        ops_per_round: ops_round,
        events_per_round: events,
        msgs_per_round: msgs,
        failed: failed.min(attempted),
        attempted,
        reps,
        slices: run.units.iter().map(|u| u.slice_ns.len()).sum(),
        deterministic: run.units.iter().all(|u| u.mismatched_reps == 0),
        answered_ratio: if serving && good + bad > 0 {
            good as f64 / (good + bad) as f64
        } else {
            1.0
        },
    })
}

/// What the traced pass yields.
pub struct TracedRun {
    /// Host nanoseconds of every `Simulation::step` call in the timed spans.
    pub step_ns: Vec<f64>,
    /// Mean host nanoseconds of one round's timed spans, tracing included.
    pub round_ns: f64,
    /// Every traced slice dispatched exactly the untraced event count.
    pub counts_match: bool,
}

/// The traced pass: the same units, but the timed span is driven one
/// [`Simulation::step`] at a time with a span around every call.
///
/// `step` cannot look ahead, so the span ends with the first event past
/// the last slice (dispatched, not counted). An event belongs to the
/// slice its timestamp falls in, as under `run_until`.
pub fn run_traced(
    w: &DesWorkload,
    reference: &DesRun,
    budget: Duration,
    log: &mut SpanLog,
) -> TracedRun {
    let started = Instant::now();
    let mut out = TracedRun { step_ns: Vec::new(), round_ns: 0.0, counts_match: true };
    let (mut total_ns, mut rounds) = (0.0, 0usize);
    while rounds == 0 || started.elapsed() < budget {
        for (unit, stats) in w.units.iter().zip(&reference.units) {
            let rep = log.open("repetition", None);
            let setup = log.open("setup", rep);
            let mut sim = unit.build();
            sim.run_until(unit.t0);
            log.close(setup);

            let span_started = Instant::now();
            let mut events = vec![0u64; unit.slices];
            let mut j = 0;
            let mut slice = log.open("slice", rep);
            loop {
                let a = Instant::now();
                let stepped = sim.step();
                let b = Instant::now();
                let Some(at) = stepped else { break };
                while j < unit.slices && at > unit.slice_end(j) {
                    log.close(slice);
                    j += 1;
                    slice = if j < unit.slices { log.open("slice", rep) } else { None };
                }
                if j == unit.slices {
                    break;
                }
                events[j] += 1;
                out.step_ns.push((b - a).as_nanos() as f64);
                log.leaf("step", a, b, slice);
            }
            log.close(slice);
            total_ns += span_started.elapsed().as_nanos() as f64;
            log.close(rep);
            let expected: Vec<u64> = stats.counts.iter().map(|c| c.events).collect();
            out.counts_match &= events == expected;
        }
        rounds += 1;
    }
    out.round_ns = total_ns / rounds as f64;
    out
}

/// Share of the evaluation's events that exist only because the serving
/// layer runs: 1 − events(service: false) ÷ events(as recorded), summed
/// over the bundled reproducers at the workload's seeds.
pub fn serving_event_share(w: &DesWorkload, reference: &DesRun) -> f64 {
    let with: u64 = reference.units.iter().map(|u| u.sum_counts(|c| c.events)).sum();
    let without: u64 = reproducers()
        .iter()
        .zip(&w.units)
        .map(|(r, unit)| {
            let mut space = r.space;
            space.service = false;
            let mut sim = space.spec(&r.genome).build(unit.seed);
            sim.run_until(space.horizon());
            sim.dispatched()
        })
        .sum();
    1.0 - without as f64 / with as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_seeds_follow_the_seed_argument() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        let (a, b) = (adversary_eval(0), adversary_eval(5));
        assert_eq!(a.units[0].seed ^ 5, b.units[0].seed);
        assert_ne!(serve_open(1).units[0].seed, serve_open(2).units[0].seed);
    }

    #[test]
    fn bundled_reproducers_decode_and_shape_the_workload() {
        let w = adversary_eval(1);
        assert_eq!(w.units.len(), 2);
        assert_eq!((w.units[0].label, w.units[0].slices), ("drift-n3", 90));
        assert_eq!((w.units[1].label, w.units[1].slices), ("slo-n5", 90));
        assert_eq!(w.units[0].target, Some(FitnessTarget::Drift));
        assert_eq!(w.units[0].slice_end(89), SimTime::from_secs(90));
    }

    #[test]
    fn a_short_chaos_pass_is_deterministic_and_summarizes() {
        // Shrunk timing plan so the test stays in the tens of milliseconds.
        let mut w = protocol_chaos(3);
        w.units.truncate(1);
        w.units[0].slices = 2;
        w.units[0].slice = SimDuration::from_secs(2);
        w.units[0].t0 = SimTime::from_secs(1);
        let run = run_untraced(&w, Duration::ZERO, 5);
        assert_eq!(run.units[0].reps(), 5);
        let s = summarize(&w, &run, 5).unwrap();
        assert!(s.deterministic);
        assert_eq!((s.attempted, s.failed), (20, 0)); // 5 reps × 4 simulated seconds
        assert!(s.ops_per_s > 0.0 && s.ops_per_s >= s.wall_ops_per_s * 0.999);
        assert!(s.events_per_round > 0 && s.ns_per_event > 0.0);
        assert!(summarize(&w, &run, 6).is_err(), "five samples cannot satisfy min_n = 6");

        let mut log = SpanLog::new(1 << 16);
        let traced = run_traced(&w, &run, Duration::ZERO, &mut log);
        assert!(traced.counts_match, "stepping must dispatch what run_until dispatched");
        assert_eq!(traced.step_ns.len() as u64, s.events_per_round);
        assert!(log.len() > traced.step_ns.len());
    }
}
