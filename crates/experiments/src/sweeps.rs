//! E14–E18 — extension sweeps: quantifying the design space around the
//! paper's point measurements.
//!
//! - **E14 (delay sweep)**: the F– drift rate as a function of the
//!   injected delay. The attack algebra predicts `rate = d/(1−d)` seconds
//!   of drift per second for an injected delay `d` (and the paper's single
//!   point: 100 ms → +113 ms/s); the sweep verifies the whole curve.
//! - **E15 (cluster-size sweep)**: fault-free availability and the F–
//!   infection across cluster sizes — the propagation is not an artifact
//!   of the 3-node setup.
//! - **E16 (AEX-rate sweep)**: availability and untainting load as the
//!   interrupt rate varies, quantifying §IV-B's observation that *fewer*
//!   AEXs mean *more* availability (and a stronger F+).
//! - **E17 (network-scale sweep)**: the cluster-wide drift slope from
//!   localhost to WAN one-way delays, replicated over a seed grid — every
//!   peer-timestamp adoption is stale by one propagation time, an erosion
//!   the paper's localhost testbed hides.
//! - **E18 (TA-load sweep)**: TA references per node per minute, solo vs
//!   clustered — what §III-B's clustering buys.

use attacks::DelayAttackMode;
use netsim::{Addr, DelayModel};
use scenario::{derive_seed, AexSpec, AttackSpec, RunPlan, ScenarioSpec};
use sim::{SimDuration, SimTime};

use crate::output::{Comparison, RunOpts, Table};

/// One point of the F– delay sweep.
#[derive(Debug, Clone)]
pub struct DelayPoint {
    /// Injected delay (ms).
    pub injected_ms: f64,
    /// Predicted drift rate `d/(1−d)` (ms/s).
    pub predicted_ms_per_s: f64,
    /// Measured drift rate (ms/s).
    pub measured_ms_per_s: f64,
}

/// One point of the cluster-size sweep.
#[derive(Debug, Clone)]
pub struct SizePoint {
    /// Number of nodes.
    pub n: usize,
    /// Worst-node availability, fault-free.
    pub fault_free_availability: f64,
    /// Max honest final drift under F– (ms).
    pub honest_final_drift_ms: f64,
}

/// One point of the AEX-rate sweep.
#[derive(Debug, Clone)]
pub struct AexRatePoint {
    /// Mean inter-AEX delay (s).
    pub mean_inter_aex_s: f64,
    /// Worst-node availability.
    pub availability: f64,
    /// Total peer untaints across the cluster.
    pub untaints: u64,
}

/// One point of the network-scale sweep (aggregated over a seed grid).
#[derive(Debug, Clone)]
pub struct NetworkPoint {
    /// Label ("localhost", "lan", "wan").
    pub label: &'static str,
    /// One-way delay mean (µs).
    pub one_way_us: u64,
    /// Cluster-wide drift slope in steady state (ms/s), averaged over the
    /// replications — the peer-adoption staleness erosion.
    pub cluster_slope_ms_per_s: f64,
    /// Smallest per-replication slope (ms/s).
    pub slope_min_ms_per_s: f64,
    /// Largest per-replication slope (ms/s).
    pub slope_max_ms_per_s: f64,
    /// Number of replications averaged.
    pub reps: usize,
}

/// One point of the cluster-vs-solo comparison.
#[derive(Debug, Clone)]
pub struct TaLoadPoint {
    /// Number of nodes.
    pub n: usize,
    /// TA references per node per minute in steady state.
    pub ta_refs_per_node_per_min: f64,
    /// Steady-state availability (worst node).
    pub availability: f64,
}

/// All sweep results.
#[derive(Debug, Clone)]
pub struct SweepsResult {
    /// E14 points.
    pub delay: Vec<DelayPoint>,
    /// E15 points.
    pub size: Vec<SizePoint>,
    /// E16 points.
    pub aex_rate: Vec<AexRatePoint>,
    /// E17 points.
    pub network: Vec<NetworkPoint>,
    /// E18 points.
    pub ta_load: Vec<TaLoadPoint>,
}

/// `e14_delay_sweep.csv`.
pub(crate) const DELAY_CSV: Table<DelayPoint> = Table(&[
    ("injected_ms", |p| format!("{}", p.injected_ms)),
    ("predicted_ms_per_s", |p| format!("{:.2}", p.predicted_ms_per_s)),
    ("measured_ms_per_s", |p| format!("{:.2}", p.measured_ms_per_s)),
]);

const DELAY_REPORT: Table<DelayPoint> = Table(&[
    ("injected", |p| format!("{} ms", p.injected_ms)),
    ("predicted (ms/s)", |p| format!("{:+.1}", p.predicted_ms_per_s)),
    ("measured (ms/s)", |p| format!("{:+.1}", p.measured_ms_per_s)),
]);

/// `e15_size_sweep.csv`.
pub(crate) const SIZE_CSV: Table<SizePoint> = Table(&[
    ("n", |p| p.n.to_string()),
    ("fault_free_availability", |p| format!("{:.4}", p.fault_free_availability)),
    ("honest_final_drift_ms", |p| format!("{:.1}", p.honest_final_drift_ms)),
]);

const SIZE_REPORT: Table<SizePoint> = Table(&[
    ("n", |p| p.n.to_string()),
    ("fault-free availability", |p| format!("{:.2}%", p.fault_free_availability * 100.0)),
    ("honest drift under F-", |p| format!("{:+.0} ms", p.honest_final_drift_ms)),
]);

/// `e16_aex_rate_sweep.csv`.
pub(crate) const AEX_RATE_CSV: Table<AexRatePoint> = Table(&[
    ("mean_inter_aex_s", |p| format!("{}", p.mean_inter_aex_s)),
    ("availability", |p| format!("{:.5}", p.availability)),
    ("untaints", |p| p.untaints.to_string()),
]);

const AEX_RATE_REPORT: Table<AexRatePoint> = Table(&[
    ("mean inter-AEX", |p| format!("{} s", p.mean_inter_aex_s)),
    ("availability", |p| format!("{:.3}%", p.availability * 100.0)),
    ("peer untaints", |p| p.untaints.to_string()),
]);

/// `e17_network_sweep.csv`.
pub(crate) const NETWORK_CSV: Table<NetworkPoint> = Table(&[
    ("label", |p| p.label.to_string()),
    ("one_way_us", |p| p.one_way_us.to_string()),
    ("mean_cluster_slope_ms_per_s", |p| format!("{:.4}", p.cluster_slope_ms_per_s)),
    ("slope_min", |p| format!("{:.4}", p.slope_min_ms_per_s)),
    ("slope_max", |p| format!("{:.4}", p.slope_max_ms_per_s)),
    ("reps", |p| p.reps.to_string()),
]);

const NETWORK_REPORT: Table<NetworkPoint> = Table(&[
    ("network", |p| p.label.to_string()),
    ("one-way", |p| format!("{} us", p.one_way_us)),
    ("mean cluster slope", |p| format!("{:+.3} ms/s", p.cluster_slope_ms_per_s)),
    ("range over seeds", |p| {
        format!("[{:+.2}, {:+.2}] x{}", p.slope_min_ms_per_s, p.slope_max_ms_per_s, p.reps)
    }),
]);

/// `e18_ta_load.csv`.
pub(crate) const TA_LOAD_CSV: Table<TaLoadPoint> = Table(&[
    ("n", |p| p.n.to_string()),
    ("ta_refs_per_node_per_min", |p| format!("{:.2}", p.ta_refs_per_node_per_min)),
    ("availability", |p| format!("{:.5}", p.availability)),
]);

const TA_LOAD_REPORT: Table<TaLoadPoint> = Table(&[
    ("n", |p| p.n.to_string()),
    ("TA refs/node/min", |p| format!("{:.1}", p.ta_refs_per_node_per_min)),
    ("availability", |p| format!("{:.3}%", p.availability * 100.0)),
]);

fn delay_sweep(opts: &RunOpts) -> Vec<DelayPoint> {
    let horizon = if opts.quick { SimTime::from_secs(90) } else { SimTime::from_secs(180) };
    let plan =
        RunPlan::with_seeds([25u64, 50, 100, 200, 400].map(|ms| (ms, opts.seed ^ 0xE14 ^ ms)));
    opts.runner().run(&plan, |cell| {
        let ms = cell.param;
        let d = ms as f64 / 1000.0;
        let world = ScenarioSpec::new(3)
            .horizon(horizon)
            .attack(AttackSpec::CalibrationDelay {
                victim: Addr(3),
                mode: DelayAttackMode::FMinus,
                added_delay: SimDuration::from_millis(ms),
                sleep_threshold: SimDuration::from_millis(500),
            })
            .run(cell.seed);
        let measured = world
            .recorder
            .node(2)
            .drift_ms
            .slope_per_sec_in(SimTime::from_secs(40), horizon)
            .unwrap_or(f64::NAN);
        DelayPoint {
            injected_ms: ms as f64,
            predicted_ms_per_s: d / (1.0 - d) * 1000.0,
            measured_ms_per_s: measured,
        }
    })
}

fn size_sweep(opts: &RunOpts) -> Vec<SizePoint> {
    let horizon = if opts.quick { SimTime::from_secs(120) } else { SimTime::from_secs(240) };
    let plan = RunPlan::with_seeds([2usize, 3, 5, 7].map(|n| (n, opts.seed ^ 0xE15 ^ n as u64)));
    opts.runner().run(&plan, |cell| {
        let n = cell.param;
        // Fault-free availability.
        let quiet = ScenarioSpec::new(n).horizon(horizon).all_nodes_aex(AexSpec::TriadLike);
        let world = quiet.run(cell.seed);
        // Steady-state availability (the initial calibration scales
        // with the number of retries, not the cluster size).
        let steady_from = SimTime::from_secs(60);
        let fault_free_availability = (0..n)
            .map(|i| world.recorder.node(i).states.availability(steady_from, horizon))
            .fold(f64::INFINITY, f64::min);

        // F– infection: attack the last node; all Triad-like.
        let world = quiet
            .clone()
            .attack(AttackSpec::calibration_delay_paper(Addr(n as u16), DelayAttackMode::FMinus))
            .run(opts.seed ^ 0xE15 ^ (n as u64) << 8);
        let honest_final_drift_ms = (0..n - 1)
            .map(|i| world.recorder.node(i).drift_ms.last().map(|(_, d)| d).unwrap_or(0.0))
            .fold(f64::NEG_INFINITY, f64::max);

        SizePoint { n, fault_free_availability, honest_final_drift_ms }
    })
}

fn aex_rate_sweep(opts: &RunOpts) -> Vec<AexRatePoint> {
    let horizon = if opts.quick { SimTime::from_secs(120) } else { SimTime::from_secs(300) };
    let plan = RunPlan::with_seeds(
        [0.1f64, 0.5, 2.0, 10.0].map(|mean_s| (mean_s, opts.seed ^ 0xE16 ^ mean_s.to_bits())),
    );
    opts.runner().run(&plan, |cell| {
        let mean_s = cell.param;
        let world = ScenarioSpec::new(3)
            .horizon(horizon)
            .all_nodes_aex(AexSpec::Exponential { mean: SimDuration::from_secs_f64(mean_s) })
            .machine_aex(AexSpec::IsolatedCore)
            .run(cell.seed);
        let availability = (0..3)
            .map(|i| world.recorder.node(i).states.availability(SimTime::from_secs(60), horizon))
            .fold(f64::INFINITY, f64::min);
        let untaints = (0..3).map(|i| world.recorder.node(i).peer_untaints.count()).sum();
        AexRatePoint { mean_inter_aex_s: mean_s, availability, untaints }
    })
}

/// E17: cluster drift vs network scale. Every peer-timestamp adoption
/// loses one one-way delay of freshness (the adopted timestamp is stale by
/// the propagation time); with frequent AEXs this erosion becomes a
/// *systematic negative cluster drift* of ≈ −(one-way delay × adoption
/// rate). On the paper's localhost testbed this is buried under the
/// ±100 ppm calibration spread; on a WAN it dominates — a finding this
/// reproduction surfaces beyond the paper.
fn network_sweep(opts: &RunOpts) -> Vec<NetworkPoint> {
    let horizon = if opts.quick { SimTime::from_secs(120) } else { SimTime::from_secs(300) };
    // A single WAN run's slope carries multi-ms/s run-to-run variance
    // (RTT noise feeds straight into the calibrated frequency), easily
    // swamping the erosion being measured — so every point is replicated
    // across a seed grid and the criterion reads the mean.
    let reps = if opts.quick { 3 } else { 5 };
    let params = [("localhost", 30u64), ("lan", 300), ("wan", 10_000)];
    // Replication `r` draws its base seed from the experiment seed, and
    // its point `j` from that base.
    let plan = RunPlan::with_seeds((0..reps).flat_map(|r| {
        let base = derive_seed(opts.seed ^ 0xE17, r as u64);
        params.into_iter().enumerate().map(move |(j, p)| (p, derive_seed(base, j as u64)))
    }));
    let slopes: Vec<f64> = opts.runner().run(&plan, |cell| {
        let (_, one_way_us) = cell.param;
        let delay = DelayModel::NormalClamped {
            mean: SimDuration::from_micros(one_way_us),
            std: SimDuration::from_micros(one_way_us / 5),
            min: SimDuration::from_micros(one_way_us / 2),
        };
        // Timeouts must scale with the network, or WAN peer rounds always
        // expire and the comparison degenerates to TA-only operation.
        let cfg = triad_core::TriadConfig {
            peer_timeout: SimDuration::from_micros((one_way_us * 5).max(10_000)),
            ..Default::default()
        };
        let world = ScenarioSpec::new(3)
            .horizon(horizon)
            .delay(delay)
            .config(cfg)
            .all_nodes_aex(AexSpec::TriadLike)
            .run(cell.seed);
        // Average the three nodes' steady-state slopes.
        (0..3)
            .filter_map(|i| {
                world.recorder.node(i).drift_ms.slope_per_sec_in(SimTime::from_secs(60), horizon)
            })
            .sum::<f64>()
            / 3.0
    });
    // Replications are the plan's outer loop: replication r's slope for
    // parameter j sits at index r * params.len() + j.
    params
        .iter()
        .enumerate()
        .map(|(j, &(label, one_way_us))| {
            let series: Vec<f64> = (0..reps).map(|r| slopes[r * params.len() + j]).collect();
            NetworkPoint {
                label,
                one_way_us,
                cluster_slope_ms_per_s: series.iter().sum::<f64>() / reps as f64,
                slope_min_ms_per_s: series.iter().copied().fold(f64::INFINITY, f64::min),
                slope_max_ms_per_s: series.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                reps,
            }
        })
        .collect()
}

/// E18: what clustering buys (§III-B: "for shorter roundtrip delays and
/// fewer requests to the TA, Triad nodes are organized in clusters").
fn ta_load_sweep(opts: &RunOpts) -> Vec<TaLoadPoint> {
    let horizon = if opts.quick { SimTime::from_secs(120) } else { SimTime::from_secs(300) };
    let steady = SimTime::from_secs(60);
    let plan = RunPlan::with_seeds([1usize, 3, 5].map(|n| (n, opts.seed ^ 0xE18 ^ n as u64)));
    opts.runner().run(&plan, |cell| {
        let n = cell.param;
        let world =
            ScenarioSpec::new(n).horizon(horizon).all_nodes_aex(AexSpec::TriadLike).run(cell.seed);
        let window_min = (horizon - steady).as_secs_f64() / 60.0;
        let refs: u64 = (0..n)
            .map(|i| {
                let c = &world.recorder.node(i).ta_references;
                c.count() - c.count_at(steady)
            })
            .sum();
        let availability = (0..n)
            .map(|i| world.recorder.node(i).states.availability(steady, horizon))
            .fold(f64::INFINITY, f64::min);
        TaLoadPoint {
            n,
            ta_refs_per_node_per_min: refs as f64 / n as f64 / window_min,
            availability,
        }
    })
}

/// Runs all five sweeps and writes their CSVs.
pub fn run(opts: &RunOpts) -> SweepsResult {
    let result = SweepsResult {
        delay: delay_sweep(opts),
        size: size_sweep(opts),
        aex_rate: aex_rate_sweep(opts),
        network: network_sweep(opts),
        ta_load: ta_load_sweep(opts),
    };
    let dir = opts.dir_for("sweeps");
    DELAY_CSV.write_csv(&dir, "e14_delay_sweep.csv", &result.delay).expect("write delay sweep");
    SIZE_CSV.write_csv(&dir, "e15_size_sweep.csv", &result.size).expect("write size sweep");
    AEX_RATE_CSV
        .write_csv(&dir, "e16_aex_rate_sweep.csv", &result.aex_rate)
        .expect("write aex sweep");
    NETWORK_CSV
        .write_csv(&dir, "e17_network_sweep.csv", &result.network)
        .expect("write network sweep");
    TA_LOAD_CSV.write_csv(&dir, "e18_ta_load.csv", &result.ta_load).expect("write ta load sweep");
    result
}

impl SweepsResult {
    /// Paper-vs-measured (or prediction-vs-measured) rows.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let delay_ok = self.delay.iter().all(|p| {
            (p.measured_ms_per_s - p.predicted_ms_per_s).abs()
                < 0.08 * p.predicted_ms_per_s.max(10.0)
        });
        let avail_ok = self.size.iter().all(|p| p.fault_free_availability > 0.9);
        let infect_ok = self.size.iter().all(|p| p.honest_final_drift_ms > 500.0);
        let avail_monotone =
            self.aex_rate.windows(2).all(|w| w[1].availability >= w[0].availability - 1e-4);
        // Flooding (the fastest rate) can deny service outright: the 1 s
        // calibration probe never sees an AEX-free window. Untaint counts
        // are only meaningful for the points that calibrated.
        let calibrated: Vec<&AexRatePoint> =
            self.aex_rate.iter().filter(|p| p.availability > 0.5).collect();
        let untaints_decreasing = calibrated.windows(2).all(|w| w[1].untaints <= w[0].untaints);
        let flooding_denies_service =
            self.aex_rate.first().map(|p| p.availability < 0.01).unwrap_or(false);
        // E17: erosion grows with one-way delay; on a WAN it dominates the
        // calibration spread and drags the whole cluster negative.
        let erosion_monotone = self
            .network
            .windows(2)
            .all(|w| w[1].cluster_slope_ms_per_s <= w[0].cluster_slope_ms_per_s + 0.005);
        let wan_negative =
            self.network.last().map(|p| p.cluster_slope_ms_per_s < -1.0).unwrap_or(false);
        // E18: a solo node hits the TA for every AEX; a cluster almost
        // never does.
        let solo = self.ta_load.first();
        let clustered = self.ta_load.get(1);
        let clustering_saves_ta = match (solo, clustered) {
            (Some(s), Some(c)) => {
                s.ta_refs_per_node_per_min > 10.0 * c.ta_refs_per_node_per_min.max(0.01)
            }
            _ => false,
        };
        vec![
            Comparison::new(
                "sweeps-e14",
                "F- drift rate follows d/(1-d)",
                "100 ms -> +113 ms/s is one point of the predicted curve",
                self.delay
                    .iter()
                    .map(|p| {
                        format!(
                            "{}ms: {:.0}/{:.0}",
                            p.injected_ms, p.measured_ms_per_s, p.predicted_ms_per_s
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", "),
                delay_ok,
            ),
            Comparison::new(
                "sweeps-e15",
                "infection is not a 3-node artifact",
                "a single compromised node infects clusters of any size",
                self.size
                    .iter()
                    .map(|p| format!("n={}: {:+.0} ms", p.n, p.honest_final_drift_ms))
                    .collect::<Vec<_>>()
                    .join(", "),
                infect_ok && avail_ok,
            ),
            Comparison::new(
                "sweeps-e16",
                "fewer AEXs -> higher availability",
                "lower AEX rate increases availability (section IV-B)",
                self.aex_rate
                    .iter()
                    .map(|p| format!("{}s: {:.3}%", p.mean_inter_aex_s, p.availability * 100.0))
                    .collect::<Vec<_>>()
                    .join(", "),
                avail_monotone && untaints_decreasing,
            ),
            Comparison::new(
                "sweeps-e17",
                "peer-adoption staleness erosion grows with network scale",
                "(beyond the paper) adopted timestamps are stale by one one-way delay",
                self.network
                    .iter()
                    .map(|p| format!("{}: {:+.3} ms/s", p.label, p.cluster_slope_ms_per_s))
                    .collect::<Vec<_>>()
                    .join(", "),
                erosion_monotone && wan_negative,
            ),
            Comparison::new(
                "sweeps-e18",
                "clustering slashes TA load",
                "clusters exist 'for shorter roundtrips and fewer requests to the TA' (section III-B)",
                self.ta_load
                    .iter()
                    .map(|p| format!("n={}: {:.1} refs/node/min", p.n, p.ta_refs_per_node_per_min))
                    .collect::<Vec<_>>()
                    .join(", "),
                clustering_saves_ta,
            ),
            Comparison::new(
                "sweeps-e16",
                "AEX flooding denies service",
                "an attacker 'may arbitrarily cause interruptions' (section III-A): \
                 at 0.1 s mean the 1 s calibration probe never completes",
                format!(
                    "availability at 0.1 s mean: {:.3}%",
                    self.aex_rate.first().map(|p| p.availability * 100.0).unwrap_or(f64::NAN)
                ),
                flooding_denies_service,
            ),
        ]
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "E14 — F− drift rate vs injected delay\n{}\
             \nE15 — cluster size\n{}\
             \nE16 — AEX rate\n{}\
             \nE17 — network scale (adoption staleness erosion)\n{}\
             \nE18 — TA load: solo vs cluster\n{}",
            DELAY_REPORT.render(&self.delay),
            SIZE_REPORT.render(&self.size),
            AEX_RATE_REPORT.render(&self.aex_rate),
            NETWORK_REPORT.render(&self.network),
            TA_LOAD_REPORT.render(&self.ta_load),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_their_shape_criteria() {
        let opts = RunOpts::quick(std::env::temp_dir().join("triad_sweeps_test"));
        let r = run(&opts);
        for c in r.comparisons() {
            assert!(c.matches, "{c:?}");
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
