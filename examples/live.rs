//! Live loopback cluster: the same protocol machines the simulation
//! runs, on real UDP sockets and OS clocks.
//!
//! Stands up a Time Authority, `--nodes` Triad nodes (each with a serving
//! front-end), an open-loop serve generator, and a quorum-read generator,
//! entirely on `127.0.0.1`. Every node runs on the simulation's host model
//! (`runtime::Host`, read at monotonic time), calibrates its TSC against
//! the TA over real round-trips, then serves timestamps while the quorum
//! layer cross-checks attestation panels.
//!
//! ```sh
//! cargo run --release --example live -- --nodes 3 --secs 5
//! cargo run --release --example live -- --smoke   # CI: short run + asserts
//! ```

use std::time::Duration;

use triad_tt::net::{run_cluster, LiveSpec};
use triad_tt::service::{OpenLoopSpec, QuorumLoopSpec};
use triad_tt::sim::SimDuration;
use triad_tt::triad::TriadConfig;

struct Args {
    nodes: usize,
    secs: f64,
    seed: u64,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args { nodes: 3, secs: 5.0, seed: 7, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--nodes" => args.nodes = val("--nodes").parse().expect("--nodes: integer"),
            "--secs" => args.secs = val("--secs").parse().expect("--secs: number"),
            "--seed" => args.seed = val("--seed").parse().expect("--seed: integer"),
            "--smoke" => args.smoke = true,
            other => panic!("unknown flag {other} (try --nodes/--secs/--seed/--smoke)"),
        }
    }
    if args.smoke {
        args.secs = args.secs.min(3.0);
    }
    assert!(args.nodes >= 3, "quorum panels need at least 3 nodes");
    args
}

fn main() {
    let args = parse_args();
    let spec = LiveSpec {
        nodes: args.nodes,
        seed: args.seed,
        node_cfg: TriadConfig {
            // Short calibration span so convergence lands well inside the
            // run: x-values 0 and 200 ms, three round-trips each.
            calib_sleeps: vec![SimDuration::ZERO, SimDuration::from_millis(200)],
            samples_per_sleep: 3,
            ..TriadConfig::default()
        },
        open_loop: Some(OpenLoopSpec { rate_per_s: 200.0 }),
        quorum_loop: Some(QuorumLoopSpec { rate_per_s: 50.0, ..QuorumLoopSpec::default() }),
        ..LiveSpec::default()
    };

    println!(
        "Live loopback cluster: TA + {} nodes + {} front-ends + 2 generators, {:.1} s, seed {}",
        args.nodes, args.nodes, args.secs, args.seed
    );
    let (report, ()) = run_cluster(&spec, |_| {
        std::thread::sleep(Duration::from_secs_f64(args.secs));
    });

    println!("\nCalibration (host-model TSC vs TA over real UDP round-trips):");
    let mut calibrated_nodes = 0usize;
    for (i, rec) in report.nodes.iter().enumerate() {
        let trace = rec.node(i);
        let true_hz = report.true_hz[i];
        match trace.latest_calibrated_hz() {
            Some(f) => {
                calibrated_nodes += 1;
                let err_ppm = (f / true_hz - 1.0) * 1e6;
                println!(
                    "  node {i}: F_calib = {:.6} MHz, true = {:.6} MHz ({err_ppm:+.1} ppm, {} calibrations, {} TA refs)",
                    f / 1e6,
                    true_hz / 1e6,
                    trace.calibrations_hz.len(),
                    trace.ta_references.count(),
                );
            }
            None => println!("  node {i}: never calibrated"),
        }
    }
    if let Some(ta) = report.authority {
        println!("  TA: {} requests, {} responses", ta.requests, ta.responses);
    }

    let serve = &report.generators[0].service;
    println!("\nServing (open loop @ {:.0}/s):", 200.0);
    println!(
        "  offered {}, served ok {}, degraded {}, shed {}, unavailable {}, timeouts {}, failovers {}",
        serve.offered.count(),
        serve.served_ok.count(),
        serve.served_degraded.count(),
        serve.shed.count(),
        serve.unavailable.count(),
        serve.timeouts.count(),
        serve.failovers.count(),
    );
    if serve.latency.total() > 0 {
        let [p50, p95, p99, _] = serve.latency.slo_percentiles();
        println!(
            "  latency p50 = {:.0} µs, p95 = {:.0} µs, p99 = {:.0} µs",
            p50 / 1e3,
            p95 / 1e3,
            p99 / 1e3
        );
    }

    let quorum = &report.generators[1].service;
    println!("\nQuorum reads (open loop @ {:.0}/s, f = 1):", 50.0);
    println!(
        "  offered {}, accepted {}, no-quorum {}, unavailable {}, suspects {}, quarantines {}",
        quorum.quorum_offered.count(),
        quorum.quorum_accepted.count(),
        quorum.quorum_no_quorum.count(),
        quorum.quorum_unavailable.count(),
        quorum.byzantine_suspects.count(),
        quorum.quarantines.count(),
    );
    if quorum.quorum_latency.total() > 0 {
        let [p50, p95, p99, _] = quorum.quorum_latency.slo_percentiles();
        println!(
            "  latency p50 = {:.0} µs, p95 = {:.0} µs, p99 = {:.0} µs",
            p50 / 1e3,
            p95 / 1e3,
            p99 / 1e3
        );
    }

    if args.smoke {
        let mut failures = Vec::new();
        if calibrated_nodes != args.nodes {
            failures.push(format!("only {calibrated_nodes}/{} nodes calibrated", args.nodes));
        }
        if serve.served_ok.count() == 0 {
            failures.push("no serve request completed".to_string());
        }
        if quorum.quorum_accepted.count() == 0 {
            failures.push("no quorum read was accepted".to_string());
        }
        if failures.is_empty() {
            println!("\nsmoke: OK");
        } else {
            eprintln!("\nsmoke: FAILED");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}
