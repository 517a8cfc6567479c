//! End-to-end serving-layer tests over a real cluster: batching
//! amortization, overload shedding, crash failover, determinism.

use faults::{FaultPlan, RandomFaultConfig};
use runtime::World;
use scenario::{FaultSpec, ScenarioSpec};
use service::{FrontendSpec, OpenLoopSpec, QuorumLoopSpec, ServiceSpec};
use sim::{SimDuration, SimTime};
use trace::RateCounter;

fn run_with(
    n: usize,
    seed: u64,
    horizon: SimTime,
    spec: &ServiceSpec,
    plan: Option<FaultPlan>,
) -> World {
    let mut scenario = ScenarioSpec::new(n).horizon(horizon).service(spec.clone());
    if let Some(plan) = plan {
        scenario = scenario.faults(FaultSpec::Fixed(plan));
    }
    scenario.run(seed)
}

fn frontend_sums(world: &World) -> (u64, u64, u64) {
    let mut batches = 0;
    let mut served = 0;
    let mut shed = 0;
    for t in world.recorder.iter() {
        batches += t.frontend_batches.count();
        served += t.frontend_served.count();
        shed += t.frontend_shed.count();
    }
    (batches, served, shed)
}

#[test]
fn nominal_load_is_served_with_amortized_enclave_reads() {
    // 2000/s per node against a 2 ms batch window: ~4 requests amortized
    // over each enclave read, well under the 16k/s per-node drain bound.
    let spec = ServiceSpec::new().open_loop(OpenLoopSpec { rate_per_s: 4000.0 });
    let world = run_with(2, 11, SimTime::from_secs(8), &spec, None);
    let s = &world.recorder.service;
    assert!(s.offered.count() > 5_000, "offered: {}", s.offered.count());
    assert!(s.served_ok.count() > 0, "nothing served at full precision");
    // Before the first calibration (~3 s) everything is rightly
    // `Unavailable`; once warm, goodput tracks offered load.
    let (from, to) = (SimTime::from_secs(4), SimTime::from_secs(8));
    let warm_ok = s.served_ok.count_in(from, to);
    let warm_offered = s.offered.count_in(from, to);
    assert!(warm_ok * 20 > warm_offered * 19, "warm goodput {warm_ok} of offered {warm_offered}");
    // Batching amortization: far fewer enclave reads (one per batch)
    // than requests answered.
    let (batches, served, _) = frontend_sums(&world);
    assert!(batches > 0 && served > 0);
    assert!(batches * 2 < served, "batches {batches} vs served {served}: no amortization");
    // Every answered request left a latency sample, and the SLO
    // percentiles are ordered.
    assert_eq!(s.latency.total(), s.goodput());
    let [p50, p95, p99, p999] = s.latency.slo_percentiles();
    assert!(p50 <= p95 && p95 <= p99 && p99 <= p999);
    assert!(p50 >= 1e3, "sub-microsecond latency is not physical here: {p50}");
}

#[test]
fn overload_sheds_instead_of_collapsing() {
    // Per-node drain rate: 4 per 5 ms = 800/s; two nodes = 1600/s total,
    // offered 3000/s. The queue bound keeps shed replies immediate.
    let spec = ServiceSpec::new()
        .frontend(FrontendSpec {
            queue_cap: 16,
            batch_max: 4,
            batch_window: SimDuration::from_millis(5),
            ..Default::default()
        })
        .open_loop(OpenLoopSpec { rate_per_s: 3000.0 });
    let world = run_with(2, 12, SimTime::from_secs(10), &spec, None);
    let s = &world.recorder.service;
    let (_, _, fe_shed) = frontend_sums(&world);
    assert!(fe_shed > 0, "bounded queues never shed under 2x overload");
    assert!(s.shed.count() > 0, "no request settled as Overloaded");
    assert!(s.goodput() > 0, "overload must degrade, not destroy, the service");
    // The admission bound keeps answered-request latency bounded: worst
    // case is the full queue draining at the batch rate across retries.
    let [_, _, p99, _] = s.latency.slo_percentiles();
    assert!(p99 < 0.5e9, "p99 blew past 500 ms under shedding: {p99}");
}

#[test]
fn node_crash_fails_over_and_recovers() {
    let spec = ServiceSpec::new().open_loop(OpenLoopSpec { rate_per_s: 300.0 });
    let plan = FaultPlan::new().crash_window(0, SimTime::from_secs(8), SimDuration::from_secs(6));
    let world = run_with(2, 13, SimTime::from_secs(24), &spec, Some(plan));
    let s = &world.recorder.service;
    // The crashed front-end goes silent, so attempts against it time out
    // and fail over to the survivor.
    assert!(s.timeouts.count() + s.failovers.count() > 0, "crash went unnoticed");
    assert!(s.failovers.count() > 0, "no attempt was rerouted");
    // Service continued during the outage window...
    let during = s.served_ok.count_in(SimTime::from_secs(9), SimTime::from_secs(13));
    assert!(during > 0, "no full-precision answers while one node was down");
    // ...and the crashed node serves again after restart.
    let node0 = world.recorder.node(0);
    assert!(
        node0.frontend_served.count() > node0.frontend_served.count_at(SimTime::from_secs(14)),
        "node 0 never served again after its restart"
    );
}

#[test]
fn closed_loop_population_self_paces() {
    let spec = ServiceSpec::new().closed_loop();
    let world = run_with(2, 14, SimTime::from_secs(10), &spec, None);
    let s = &world.recorder.service;
    assert!(s.offered.count() > 100);
    assert!(s.goodput() > 0);
    // 16 users with 100 ms mean think time offer ~160/s at most.
    assert!(
        s.offered.count() < 16 * 10 * 25 / 2,
        "closed loop offered more than its population allows: {}",
        s.offered.count()
    );
}

#[test]
fn serving_runs_are_seed_deterministic() {
    let spec = ServiceSpec::new().open_loop(OpenLoopSpec { rate_per_s: 200.0 }).closed_loop();
    let a = run_with(2, 21, SimTime::from_secs(10), &spec, None);
    let b = run_with(2, 21, SimTime::from_secs(10), &spec, None);
    let c = run_with(2, 22, SimTime::from_secs(10), &spec, None);
    assert_eq!(a.recorder.service, b.recorder.service);
    assert_eq!(a.recorder.node(0).frontend_batches, b.recorder.node(0).frontend_batches);
    assert_ne!(
        a.recorder.service.latency, c.recorder.service.latency,
        "different seeds produced identical latency histograms"
    );
}

/// Checks `offered = settled + in flight` at every whole second up to
/// `horizon_s`, where a request offered a second before it must have
/// settled: `in flight` lies between zero and the offers of the last
/// second, and never above `cap`.
fn assert_conserved(
    kind: &str,
    offered: &RateCounter,
    settled: &[&RateCounter],
    horizon_s: u64,
    cap: u64,
) {
    for t in (1..=horizon_s).map(SimTime::from_secs) {
        let done: u64 = settled.iter().map(|c| c.count_at(t)).sum();
        let in_flight = offered.count_at(t).checked_sub(done);
        let last_second = offered.count_in(t - SimDuration::from_secs(1), t);
        assert!(
            in_flight.is_some_and(|n| n <= last_second.min(cap)),
            "{kind} at {t:?}: offered {} settled {done}, {last_second} offered in the last second",
            offered.count_at(t)
        );
    }
}

#[test]
fn every_request_and_read_settles_exactly_once_under_random_fault_plans() {
    let horizon_s = 12;
    let faults = RandomFaultConfig {
        window: (SimTime::from_secs(4), SimTime::from_secs(9)),
        crash_downtime: (SimDuration::from_millis(500), SimDuration::from_secs(2)),
        ta_outage_duration: (SimDuration::from_secs(1), SimDuration::from_secs(3)),
        partition_duration: (SimDuration::from_millis(500), SimDuration::from_secs(2)),
        loss_duration: (SimDuration::from_secs(1), SimDuration::from_secs(2)),
        ..RandomFaultConfig::default()
    };
    let open_and_quorum = ServiceSpec::new()
        .open_loop(OpenLoopSpec { rate_per_s: 400.0 })
        .quorum_loop(QuorumLoopSpec { rate_per_s: 200.0, ..QuorumLoopSpec::default() });
    let closed = ServiceSpec::new().closed_loop();
    for seed in 1..=8 {
        let plan = FaultPlan::randomized(&faults, 3, seed);
        let horizon = SimTime::from_secs(horizon_s);
        let world = run_with(3, seed, horizon, &open_and_quorum, Some(plan.clone()));
        let s = &world.recorder.service;
        assert!(s.timeouts.count() + s.quorum_unavailable.count() > 0, "seed {seed}: no fault bit");
        let settled =
            [&s.served_ok, &s.served_degraded, &s.shed, &s.unavailable, &s.timeouts, &s.all_down];
        assert_conserved("open loop", &s.offered, &settled, horizon_s, u64::MAX);
        let settled = [&s.quorum_accepted, &s.quorum_no_quorum, &s.quorum_unavailable];
        assert_conserved("quorum", &s.quorum_offered, &settled, horizon_s, u64::MAX);

        let world = run_with(3, seed, horizon, &closed, Some(plan));
        let s = &world.recorder.service;
        let settled =
            [&s.served_ok, &s.served_degraded, &s.shed, &s.unavailable, &s.timeouts, &s.all_down];
        // One request in flight per user at most.
        assert_conserved("closed loop", &s.offered, &settled, horizon_s, 16);
    }
}
