//! The headline attack (§IV-B.2 / Figure 6): a single compromised node
//! launches an F– calibration attack and infects the honest cluster with
//! forward time-skips.
//!
//! The attacker sits on its own node's network path. It cannot read the
//! encrypted calibration messages; it only times them — and adds 100 ms to
//! the Time Authority's *immediate* responses. That alone makes the
//! victim's clock run ~11% fast, and Triad's untaint policy ("adopt any
//! higher timestamp") propagates the skew to every honest node that asks
//! it for the time.
//!
//! ```sh
//! cargo run --example attack_fminus
//! ```

use triad_tt::attacks::DelayAttackMode;
use triad_tt::netsim::Addr;
use triad_tt::scenario::{AexSpec, AttackSpec, ScenarioSpec};
use triad_tt::sim::SimTime;
use triad_tt::tsc::PAPER_TSC_HZ;

fn main() {
    let switch = SimTime::from_secs(104);
    let horizon = SimTime::from_secs(420);
    println!(
        "F- attack on Node 3 (+100 ms on 0s-sleep TA responses).\n\
         Honest nodes run on quiet cores until t = {switch}, then see Triad-like AEXs.\n"
    );

    let honest_env = AexSpec::SwitchAt {
        at: switch,
        before: Box::new(AexSpec::IsolatedCore),
        after: Box::new(AexSpec::TriadLike),
    };
    let world = ScenarioSpec::new(3)
        .horizon(horizon)
        .node_aex(0, honest_env.clone())
        .node_aex(1, honest_env)
        .node_aex(2, AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FMinus))
        .run(7);

    let victim = world.recorder.node(2);
    let f3 = victim.latest_calibrated_hz().unwrap();
    println!(
        "Node 3 (compromised): F_calib = {:.3} MHz = {:.3} x F_TSC -> clock runs {:+.0} ms/s",
        f3 / 1e6,
        f3 / PAPER_TSC_HZ,
        triad_tt::stats::ppm_to_ms_per_s(triad_tt::stats::drift_rate_ppm(f3, PAPER_TSC_HZ)),
    );

    for i in [0usize, 1] {
        let trace = world.recorder.node(i);
        let pre = trace
            .drift_ms
            .window(SimTime::from_secs(40), switch)
            .iter()
            .map(|&(_, d)| d.abs())
            .fold(0.0f64, f64::max);
        let (_, final_drift) = trace.drift_ms.last().unwrap();
        println!(
            "Node {} (honest): max |drift| before switch = {pre:.1} ms, \
             final drift = {:+.0} ms ({} timestamps adopted from peers)",
            i + 1,
            final_drift,
            trace.peer_adoptions.count(),
        );
    }

    println!("\nDrift vs reference time (note the post-104 s ratchet):");
    let labels: Vec<String> = (0..3).map(|i| world.recorder.node(i).label.clone()).collect();
    let series: Vec<(&str, &triad_tt::trace::TimeSeries)> =
        (0..3).map(|i| (labels[i].as_str(), &world.recorder.node(i).drift_ms)).collect();
    print!("{}", triad_tt::trace::ascii_chart(&series, 90, 18));
    println!("\nA single compromised OS made every honest enclave skip seconds into the future.");
}
