//! End-to-end T3E behaviour: the availability-vs-integrity trade-off the
//! paper's related work describes.

use runtime::{SysEvent, World};
use sim::{SimDuration, SimTime, Simulation};

fn build(
    tpm_drift_ppm: f64,
    source_throttle: Option<SimDuration>,
    client_period: SimDuration,
) -> Simulation<World, SysEvent> {
    t3e::deployment(tpm_drift_ppm, source_throttle, client_period, 61)
}

#[test]
fn fault_free_t3e_serves_and_tracks_the_tpm() {
    // Honest-ish TPM at +200 ppm; light client load within the use budget.
    let mut s = build(200.0, None, SimDuration::from_millis(20));
    s.run_until(SimTime::from_secs(120));
    let w = s.world();
    let trace = w.recorder.node(0);
    let served = trace.client_served.count();
    let denied = trace.client_denied.count();
    assert!(served > 5_000, "served {served}");
    assert!(denied < served / 50, "fault-free T3E rarely stalls: {denied} denials vs {served}");
    // The node's drift follows the TPM (≈ +0.2 ms/s → +24 ms at 120 s).
    let slope =
        trace.drift_ms.slope_per_sec_in(SimTime::from_secs(10), SimTime::from_secs(120)).unwrap();
    assert!((slope - 0.2).abs() < 0.05, "drift slope {slope} ms/s (TPM at +200 ppm)");
}

#[test]
fn source_delay_attack_costs_availability_not_correctness() {
    // Readings rationed to one per 500 ms (plus 100 ms of delay), heavy
    // client load: the 32-use budget depletes in ~64 ms, then the node
    // stalls until the next rationed reading — a visible throughput
    // collapse (demand 500/s vs budgeted 64/s).
    let mut s = build(0.0, Some(SimDuration::from_millis(500)), SimDuration::from_millis(2));
    s.run_until(SimTime::from_secs(60));
    let w = s.world();
    let trace = w.recorder.node(0);
    let served = trace.client_served.count();
    let denied = trace.client_denied.count();
    let success = served as f64 / (served + denied) as f64;
    assert!(
        success < 0.5,
        "the delay attack must show up as lost throughput: {success:.3} success rate"
    );
    // But the timestamps that *are* served stay near the TPM's time: the
    // node's drift is bounded by reading staleness (≲ delay + poll),
    // never the unbounded skew Triad's F– produces.
    let (lo, hi) = trace.drift_ms.value_range().unwrap();
    assert!(lo > -1_000.0 && hi < 1_000.0, "staleness-bounded drift, got [{lo}, {hi}] ms");
    // Stalling is visible in the state timeline.
    let avail = trace.states.availability(SimTime::from_secs(5), SimTime::from_secs(60));
    assert!(avail < 0.9, "stalls must register: availability {avail}");
}

#[test]
fn tpm_owner_can_skew_time_within_spec_undetected() {
    // §II-A: "the TPM can be configured by an attacker owning it (leading
    // to up to a ±32.5% drift-rate)". T3E has no root of trust to check
    // against, so the node simply follows.
    let mut s = build(t3e::TPM_SPEC_MAX_DRIFT_PPM, None, SimDuration::from_millis(20));
    s.run_until(SimTime::from_secs(30));
    let w = s.world();
    let trace = w.recorder.node(0);
    let slope =
        trace.drift_ms.slope_per_sec_in(SimTime::from_secs(5), SimTime::from_secs(30)).unwrap();
    // +32.5% = +325 ms/s, nearly 3× the strongest F– in the paper.
    assert!((slope - 325.0).abs() < 10.0, "drift slope {slope} ms/s");
    // And availability is perfect while it happens.
    let denied = trace.client_denied.count();
    let served = trace.client_served.count();
    assert!(denied < served / 50, "no stalls while skewing: {denied}/{served}");
}

#[test]
fn delayed_stale_readings_never_roll_time_back() {
    // A reading delayed past its successor must be ignored (monotonicity
    // of the reading stream); rationed readings with added delay exercise
    // the interleaving.
    let mut s = build(0.0, Some(SimDuration::from_millis(200)), SimDuration::from_millis(10));
    s.run_until(SimTime::from_secs(30));
    // The ClientWorkload asserts served-timestamp monotonicity internally;
    // surviving the run is the property.
    let w = s.world();
    assert!(w.recorder.node(0).client_served.count() > 100);
}
