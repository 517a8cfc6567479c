//! The §V hardened protocol under the same F– attack that breaks base
//! Triad: true-chimer majority filtering, in-TCB deadlines, long-window
//! calibration, and RTT filtering keep the honest cluster on reference
//! time and drag the compromised node back.
//!
//! ```sh
//! cargo run --example resilient_cluster
//! ```

use triad_tt::attacks::DelayAttackMode;
use triad_tt::netsim::Addr;
use triad_tt::scenario::{AexSpec, AttackSpec, NodeImplSpec, ScenarioSpec};
use triad_tt::sim::SimTime;

fn run(hardened: bool) -> (f64, f64, u64) {
    let switch = SimTime::from_secs(104);
    let honest_env = AexSpec::SwitchAt {
        at: switch,
        before: Box::new(AexSpec::IsolatedCore),
        after: Box::new(AexSpec::TriadLike),
    };
    let mut spec = ScenarioSpec::new(3)
        .horizon(SimTime::from_secs(420))
        .node_aex(0, honest_env.clone())
        .node_aex(1, honest_env)
        .node_aex(2, AexSpec::TriadLike)
        .attack(AttackSpec::calibration_delay_paper(Addr(3), DelayAttackMode::FMinus));
    if hardened {
        spec = spec.node_impl(NodeImplSpec::Resilient(Box::default()));
    }
    let world = spec.run(11);
    let honest_final = (0..2)
        .map(|i| world.recorder.node(i).drift_ms.last().map(|(_, d)| d).unwrap_or(0.0))
        .fold(f64::NEG_INFINITY, f64::max);
    let (v_lo, v_hi) = world.recorder.node(2).drift_ms.value_range().unwrap_or((0.0, 0.0));
    let rejections = (0..2).map(|i| world.recorder.node(i).chimer_rejections.count()).sum();
    (honest_final, v_lo.abs().max(v_hi.abs()), rejections)
}

fn main() {
    println!("F- attack on Node 3, honest nodes switch to Triad-like AEXs at t = 104 s.\n");

    let (base_honest, base_victim, _) = run(false);
    println!("Base Triad protocol:");
    println!("  honest final drift   = {base_honest:+.0} ms  (infected!)");
    println!("  victim max |drift|   = {base_victim:.0} ms\n");

    let (hard_honest, hard_victim, rejections) = run(true);
    println!("Hardened protocol (deadline + long-window + Marzullo + RTT filter):");
    println!("  honest final drift   = {hard_honest:+.1} ms");
    println!("  victim max |drift|   = {hard_victim:.0} ms (dragged back by majority + TA checks)");
    println!("  false-chimer flags   = {rejections} (honest nodes outvoting the attacked clock)");

    println!(
        "\nThe same attacker that pushed honest clocks {:+.0} s into the future now \
         moves them by {:+.1} ms.",
        base_honest / 1000.0,
        hard_honest
    );
}
