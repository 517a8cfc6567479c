//! The repo benchmark: five workloads, end-to-end metrics by a
//! interference-robust estimator, and an outside-in per-layer ledger.
//! See `README.md` beside this package for the design and the numbers.

mod aa;
mod des;
mod envelope;
mod json;
mod layers;
mod live;
mod metrics;
mod procfs;
mod spans;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use des::{DesWorkload, Op};
use envelope::{fast_envelope, median, quantile_sorted, sorted, MIN_SAMPLES};
use json::Metric;
use metrics::MetricSet;
use spans::SpanLog;

/// The workloads, in the order `all` and `aa` run them.
pub const WORKLOADS: [&str; 5] =
    ["serve_open", "quorum_fanout", "protocol_chaos", "adversary_eval", "live_closed"];

/// Seconds one run measures for unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Fewest samples per slice in the traced run's untraced pass. Its numbers
/// are diagnostics, not gated, and it has under half the run's time.
const TRACE_MIN_SAMPLES: usize = 5;
/// Share of `--seconds` the traced run spends on its untraced pass (counts,
/// and the denominator of the tracing overhead).
const TRACE_UNTRACED_SHARE: f64 = 0.45;
/// Share of `--seconds` the traced run spends stepping under spans.
const TRACE_TRACED_SHARE: f64 = 0.25;
/// Spans kept in memory and written out; later ones are only counted.
const SPAN_CAP: usize = 200_000;
/// Round trips per echo baseline.
const ECHO_ROUND_TRIPS: usize = 2_000;
/// Bytes `SealingKey` adds around a plaintext: direction, sequence, tag.
const SEAL_OVERHEAD_BYTES: f64 = 25.0;

/// What one pass reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Why `correct` is false, one line per violated check.
    violations: Vec<String>,
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the traced pass's spans to `out/trace-<workload>.jsonl`.
fn write_trace(log: &SpanLog, workload: &str) -> Result<(), String> {
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    log.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} spans ({} dropped over the cap) -> {}",
        log.len(),
        log.dropped(),
        path.display()
    );
    Ok(())
}

fn des_workload(name: &str, seed: u64) -> Option<DesWorkload> {
    Some(match name {
        "serve_open" => des::serve_open(seed),
        "quorum_fanout" => des::quorum_fanout(seed),
        "protocol_chaos" => des::protocol_chaos(seed),
        "adversary_eval" => des::adversary_eval(seed),
        _ => return None,
    })
}

fn peak_rss() -> f64 {
    procfs::peak_rss_mib().expect("/proc/self/status must be readable")
}

/// The correctness checks every DES pass runs on its own outputs.
fn des_violations(w: &DesWorkload, run: &des::DesRun, s: &des::DesSummary) -> Vec<String> {
    let mut v = Vec::new();
    if !s.deterministic {
        v.push("a repetition's per-slice counts or final counters differ from the first".into());
    }
    if matches!(w.op, Op::Answered | Op::QuorumAccepted) && s.answered_ratio < 0.99 {
        v.push(format!("answered ratio {} < 0.99 in the timed span", s.answered_ratio));
    }
    for (unit, stats) in w.units.iter().zip(&run.units) {
        if let Some(f) = stats.finals.fitness {
            if !f.value.is_finite() {
                v.push(format!("{}: fitness {} is not finite", unit.label, f.value));
            }
        }
    }
    v
}

fn des_end_to_end(w: &DesWorkload, seconds: f64) -> Result<Outcome, String> {
    let run = des::run_untraced(w, Duration::from_secs_f64(seconds), MIN_SAMPLES);
    let s = des::summarize(w, &run, MIN_SAMPLES).map_err(|e| e.to_string())?;
    let mut set = MetricSet::end_to_end();
    set.set("ops_per_s", s.ops_per_s);
    set.set("rtt_p50_us", s.op_cost_p50_us);
    set.set("rtt_p90_us", s.op_cost_p90_us);
    set.set("setup_s", s.setup_s);
    set.set("peak_rss_mb", peak_rss());
    let violations = des_violations(w, &run, &s);
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted: s.attempted,
        failed: s.failed,
        metrics: set.into_vec(),
        violations,
    })
}

/// Σ (count per op × isolated ns) for the serving workloads: the ledger.
/// Returns the rows for printing; the caller sums them.
fn ledger_rows(w: &DesWorkload, set: &MetricSet) -> Vec<(&'static str, f64, f64)> {
    let (frontend_steps, counter_incs, quorum) = match w.op {
        // offered + served_ok + frontend_served.
        Op::Answered => (1.0, 3.0, 0.0),
        // quorum_offered + quorum_accepted + three frontend_attests.
        Op::QuorumAccepted => (3.0, 5.0, 1.0),
        Op::SimSecond | Op::Evaluation => return Vec::new(),
    };
    let msgs = set.get("netsim.msgs_per_op");
    vec![
        ("wire.encode_ns", msgs, set.get("wire.encode_ns")),
        ("crypto.seal_ns", msgs, set.get("crypto.seal_ns")),
        ("netsim.dispatch_ns", msgs, set.get("netsim.dispatch_ns")),
        ("crypto.open_ns", msgs, set.get("crypto.open_ns")),
        ("wire.decode_ns", msgs, set.get("wire.decode_ns")),
        ("sim.push_pop_ns", set.get("sim.events_per_op"), set.get("sim.push_pop_ns")),
        ("service.frontend_step_ns", frontend_steps, set.get("service.frontend_step_ns")),
        ("stats.hist_record_ns", 1.0, set.get("stats.hist_record_ns")),
        ("trace.counter_inc_ns", counter_incs, set.get("trace.counter_inc_ns")),
        ("service.decide_ns", quorum, set.get("service.decide_ns")),
        ("sim.cancel_ns", quorum, set.get("sim.cancel_ns")),
    ]
}

fn des_traced(w: &DesWorkload, seconds: f64) -> Result<Outcome, String> {
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);
    let run = des::run_untraced(w, budget(TRACE_UNTRACED_SHARE), TRACE_MIN_SAMPLES);
    let s = des::summarize(w, &run, TRACE_MIN_SAMPLES).map_err(|e| e.to_string())?;
    let mut log = SpanLog::new(SPAN_CAP);
    let traced = des::run_traced(w, &run, budget(TRACE_TRACED_SHARE), &mut log);
    write_trace(&log, w.name)?;

    let mut set = MetricSet::per_layer();
    let population = run.units.iter().map(|u| u.finals.live_events).max().unwrap_or(0);
    layers::isolated(population, &mut set);

    // Counts from the untraced pass, per operation.
    let ops = s.ops_per_round;
    set.set("netsim.msgs_per_op", s.msgs_per_round as f64 / ops);
    set.set(
        "netsim.bytes_per_op",
        s.msgs_per_round as f64 / ops * (set.get("wire.bytes_per_msg") + SEAL_OVERHEAD_BYTES),
    );
    set.set("sim.events_per_op", s.events_per_round as f64 / ops);
    set.set("sim.ns_per_event", s.ns_per_event);
    set.set("sim.live_events", population as f64);
    set.set(
        "sim.pool_slots",
        run.units.iter().map(|u| u.finals.pool_slots).max().unwrap_or(0) as f64,
    );
    let steps = sorted(&traced.step_ns);
    set.set("sim.step_ns_p50", quantile_sorted(&steps, 0.5));
    set.set("sim.step_ns_p99", quantile_sorted(&steps, 0.99));

    let sum = |f: fn(&des::Finals) -> u64| run.units.iter().map(|u| f(&u.finals)).sum::<u64>();
    let offered = sum(|f| f.offered);
    if offered > 0 {
        set.set("service.ok_ratio", sum(|f| f.served_ok) as f64 / offered as f64);
        set.set("service.degraded_ratio", sum(|f| f.served_degraded) as f64 / offered as f64);
        // Simulated time: part of the fingerprint, so it repeats exactly.
        let serving = run.units.iter().find(|u| u.finals.sim_latency_p50_ns > 0.0);
        if let Some(u) = serving {
            set.set("service.sim_latency_p50_us", u.finals.sim_latency_p50_ns / 1e3);
            set.set("service.sim_latency_p99_us", u.finals.sim_latency_p99_ns / 1e3);
        }
    }
    let (served, denied) = (sum(|f| f.client_served), sum(|f| f.client_denied));
    if served + denied > 0 {
        set.set("resilient.client_avail_ratio", served as f64 / (served + denied) as f64);
    }
    set.set("resilient.detections", sum(|f| f.detections) as f64);
    set.set("faults.plan_events", sum(|f| f.fault_events) as f64);

    // Assembly and scoring of this workload's own first scenario.
    let unit = &w.units[0];
    let builds: Vec<f64> = (0..MIN_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(unit.build());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    set.set("scenario.build_us", fast_envelope(&builds, MIN_SAMPLES).expect("sized above") / 1e3);
    let finished = unit.run_to_end();
    let scores: Vec<f64> = (0..MIN_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(search::score(finished.world(), search::FitnessTarget::Drift));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    set.set("search.score_us", fast_envelope(&scores, MIN_SAMPLES).expect("sized above") / 1e3);
    if w.op == Op::Evaluation {
        set.set("search.serving_event_share", des::serving_event_share(w, &run));
    }

    set.set("bench.wall_ops_per_s", s.wall_ops_per_s);
    set.set("bench.median_ops_per_s", s.median_ops_per_s);
    set.set("bench.interference_ratio", s.ops_per_s / s.wall_ops_per_s);
    set.set("bench.reps", s.reps as f64);
    set.set("bench.slices", s.slices as f64);
    set.set("bench.trace_overhead_ratio", traced.round_ns / (ops / s.wall_ops_per_s * 1e9));
    set.set("bench.fail_ratio", s.failed as f64 / s.attempted as f64);

    let rows = ledger_rows(w, &set);
    if !rows.is_empty() {
        let measured = 1e9 / s.ops_per_s;
        let total: f64 = rows.iter().map(|(_, count, ns)| count * ns).sum();
        println!("ledger ({} ns per op by the envelope):", measured);
        for (name, count, ns) in &rows {
            println!("  {name:<26} {count:>8.3} x {ns:>8.2} ns = {:>9.2} ns", count * ns);
        }
        set.set("ledger.sum_ns_per_op", total);
        set.set("ledger.residual_ratio", 1.0 - total / measured);
    }

    let mut violations = des_violations(w, &run, &s);
    if !traced.counts_match {
        violations.push("the stepped pass dispatched different per-slice event counts".into());
    }
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted: s.attempted,
        failed: s.failed,
        metrics: set.into_vec(),
        violations,
    })
}

fn live_violations(run: &live::LiveRun) -> Vec<String> {
    let mut v = Vec::new();
    if run.failed > 0 {
        v.push(format!("{} round trips returned no answer", run.failed));
    }
    if !run.answered_exactly_once() {
        v.push(format!(
            "front-end answered {} requests for {} completed round trips ({} slow, {} drops)",
            run.frontend_served, run.answered_total, run.slow_total, run.frontend_drops
        ));
    }
    if run.rtt_ns.len() < MIN_SAMPLES {
        v.push(format!("only {} round trips in the window", run.rtt_ns.len()));
    }
    v
}

fn live_end_to_end(seed: u64, seconds: f64) -> Outcome {
    let run = live::run(seed, Duration::from_secs_f64(seconds), live::BRING_UPS, None);
    let violations = live_violations(&run);
    let rtts = sorted(&run.rtt_ns);
    let mut set = MetricSet::end_to_end();
    if !rtts.is_empty() {
        let p50_us = quantile_sorted(&rtts, 0.5) / 1e3;
        // Closed loop, one client: the rate a client sees is 1 / latency.
        // Taken from the median so the bimodal mean does not leak in; the
        // wall rate is the layer metric `net.wall_ops_per_s`.
        set.set("ops_per_s", 1e6 / p50_us);
        set.set("rtt_p50_us", p50_us);
        set.set("rtt_p90_us", quantile_sorted(&rtts, 0.9) / 1e3);
    }
    set.set("setup_s", median(&run.bring_up_s));
    set.set("peak_rss_mb", peak_rss());
    Outcome {
        correct: violations.is_empty(),
        attempted: (run.rtt_ns.len() as u64 + run.failed).max(1),
        failed: run.failed,
        metrics: set.into_vec(),
        violations,
    }
}

fn live_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let window = |share: f64| Duration::from_secs_f64(seconds * share);
    let run = live::run(seed, window(TRACE_UNTRACED_SHARE), 2, None);
    let mut log = SpanLog::new(SPAN_CAP);
    let traced = live::run(seed, window(TRACE_TRACED_SHARE), 1, Some(&mut log));
    write_trace(&log, "live_closed")?;

    let mut set = MetricSet::per_layer();
    layers::isolated(1, &mut set);
    let p50_us = |ns: &[f64]| quantile_sorted(&sorted(ns), 0.5) / 1e3;
    let bare = p50_us(&live::echo_rtts(false, ECHO_ROUND_TRIPS));
    let sealed = p50_us(&live::echo_rtts(true, ECHO_ROUND_TRIPS));
    set.set("net.udp_echo_rtt_us", bare);
    set.set("net.sealed_echo_rtt_us", sealed);

    let mut violations = live_violations(&run);
    violations.extend(live_violations(&traced));
    let rtts = sorted(&run.rtt_ns);
    if let (false, false) = (rtts.is_empty(), traced.rtt_ns.is_empty()) {
        let n = rtts.len() as f64;
        let p50 = quantile_sorted(&rtts, 0.5) / 1e3;
        set.set("net.wait_residual_us", p50 - sealed);
        set.set("net.rtt_mean_us", rtts.iter().sum::<f64>() / n / 1e3);
        set.set("net.rtt_p99_us", quantile_sorted(&rtts, 0.99) / 1e3);
        set.set("net.rtt_max_us", rtts[rtts.len() - 1] / 1e3);
        set.set("net.fast_mode_ratio", rtts.iter().filter(|&&ns| ns < 1e6).count() as f64 / n);
        set.set(
            "net.retries_per_op",
            run.frontend_served.saturating_sub(run.answered_total) as f64
                / run.answered_total as f64,
        );
        set.set("net.wall_ops_per_s", n / run.window_s);
        set.set("net.cpu_us_per_op", run.cpu_s / n * 1e6);
        set.set("bench.wall_ops_per_s", n / run.window_s);
        set.set("bench.median_ops_per_s", 1e6 / p50);
        set.set("bench.reps", n);
        set.set("bench.trace_overhead_ratio", p50_us(&traced.rtt_ns) / p50);
    }
    let attempted = (run.rtt_ns.len() as u64 + run.failed).max(1);
    set.set("bench.fail_ratio", run.failed as f64 / attempted as f64);
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted,
        failed: run.failed,
        metrics: set.into_vec(),
        violations,
    })
}

/// One pass of one workload in this process: prints every metric by name
/// and unit, then the result line. Exit code 0 only when every correctness
/// check held.
fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    println!("workload {workload} seed {seed} seconds {seconds} trace {}", u8::from(trace));
    let outcome = match (des_workload(workload, seed), trace) {
        (Some(w), false) => des_end_to_end(&w, seconds),
        (Some(w), true) => des_traced(&w, seconds),
        (None, false) => Ok(live_end_to_end(seed, seconds)),
        (None, true) => live_traced(seed, seconds),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        println!("{:<30} {:>20.6} {}", m.name, m.value, m.unit);
    }
    for v in &outcome.violations {
        eprintln!("{workload}: check failed: {v}");
    }
    println!(
        "{}",
        json::result_line(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one pass in a child process (each workload gets a process of its
/// own, so peak memory and warm caches never leak between them).
pub(crate) fn spawn_pass(workload: &str, seed: u64, seconds: f64, trace: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    cmd
}

const USAGE: &str = "\
usage: triad-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       triad-perfbench run <workload>|all [--seed N] [--seconds S] [--trace]
       triad-perfbench aa [--runs N] [--seed N] [--seconds S]
workloads: serve_open quorum_fanout protocol_chaos adversary_eval live_closed
  --trace 0   end-to-end metrics (tracing off)
  --trace 1   per-layer metrics and bench/out/trace-<workload>.jsonl
  run         every pass in a child process; --trace adds the traced pass
  aa          every workload N times (default 5), twice over: spread and gap per metric";

/// `--key value` pairs after the subcommand, plus bare flags.
struct Flags {
    pairs: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], bare_flags: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags { pairs: Vec::new(), bare: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if bare_flags.contains(&a.as_str()) {
                flags.bare.push(a.clone());
            } else if let Some(key) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.pairs.push((key.to_string(), value.clone()));
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        Ok(flags)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.pairs.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn checked_seconds(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && (0.0..=60.0).contains(&seconds) {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} outside 0..=60"))
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let target = args.get(1).ok_or("run needs a workload or `all`")?;
            let flags = Flags::parse(&args[2..], &["--trace"])?;
            flags.only(&["seed", "seconds"])?;
            let seed = flags.get("seed", 1u64)?;
            let seconds = checked_seconds(flags.get("seconds", DEFAULT_SECONDS)?)?;
            let names: Vec<&str> = if target == "all" {
                WORKLOADS.to_vec()
            } else if WORKLOADS.contains(&target.as_str()) {
                vec![target]
            } else {
                return Err(format!("unknown workload {target:?}"));
            };
            let passes: &[bool] = if flags.bare.is_empty() { &[false] } else { &[false, true] };
            let mut ok = true;
            for name in names {
                for &trace in passes {
                    let status = spawn_pass(name, seed, seconds, trace)
                        .status()
                        .map_err(|e| format!("cannot start the {name} pass: {e}"))?;
                    ok &= status.success();
                }
            }
            Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        Some("aa") => {
            let flags = Flags::parse(&args[1..], &[])?;
            flags.only(&["runs", "seed", "seconds"])?;
            let runs = flags.get("runs", 5usize)?;
            if runs < 2 {
                return Err("--runs must be at least 2 (quartiles need two points)".into());
            }
            let seconds = checked_seconds(flags.get("seconds", DEFAULT_SECONDS)?)?;
            aa::run(runs, flags.get("seed", 1u64)?, seconds)
        }
        Some(first) if first.starts_with("--") => {
            let flags = Flags::parse(args, &[])?;
            flags.only(&["workload", "seed", "seconds", "trace"])?;
            let workload: String = flags.get("workload", String::new())?;
            if !WORKLOADS.contains(&workload.as_str()) {
                return Err(format!("unknown workload {workload:?}"));
            }
            let trace = match flags.get("trace", 0u8)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            let seconds = checked_seconds(flags.get("seconds", DEFAULT_SECONDS)?)?;
            Ok(run_one(&workload, flags.get("seed", 1u64)?, seconds, trace))
        }
        _ => Err("expected `run`, `aa`, or --workload".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("triad-perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
