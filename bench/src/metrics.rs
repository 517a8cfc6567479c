//! The canonical metric tables: every name the benchmark may print, its
//! unit, and the order it is printed in. `BENCHMARK.json` lists the same
//! names (a unit test keeps the two in step), and every workload reports
//! every name — a layer a workload does not touch reads 0.

use crate::json::Metric;

/// One end-to-end metric: what a user of the system sees, with the share
/// of the parent's median by which it may worsen before a change is
/// rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit token.
    pub unit: &'static str,
    /// Direction: `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median.
    pub bound: f64,
}

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "ops_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "rtt_p50_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "rtt_p90_us", unit: "us", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", higher_is_better: false, bound: 0.20 },
];

/// Per-layer metrics: isolated costs, counts and ratios of single layers.
/// Printed by the traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // wire: message codec.
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_msg", "B"),
    // crypto: AEAD sessions.
    ("crypto.seal_ns", "ns"),
    ("crypto.open_ns", "ns"),
    ("crypto.seal_batch3_ns", "ns"),
    ("crypto.soft_seal_ns", "ns"),
    ("crypto.backend", "flag"),
    // netsim: the simulated fabric.
    ("netsim.dispatch_ns", "ns"),
    ("netsim.msgs_per_op", "count"),
    ("netsim.bytes_per_op", "B"),
    // sim: the event kernel.
    ("sim.push_pop_ns", "ns"),
    ("sim.cancel_ns", "ns"),
    ("sim.events_per_op", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.live_events", "count"),
    ("sim.pool_slots", "count"),
    ("sim.step_ns_p50", "ns"),
    ("sim.step_ns_p99", "ns"),
    // runtime: sealed messaging glue and world assembly.
    ("runtime.send_ns", "ns"),
    ("runtime.open_delivery_ns", "ns"),
    ("runtime.build_us", "us"),
    // service + stats: the serving edge.
    ("service.frontend_step_ns", "ns"),
    ("service.decide_ns", "ns"),
    ("stats.marzullo3_ns", "ns"),
    ("stats.hist_record_ns", "ns"),
    ("service.ok_ratio", "ratio"),
    ("service.degraded_ratio", "ratio"),
    ("service.sim_latency_p50_us", "us"),
    ("service.sim_latency_p99_us", "us"),
    // protocol machines and what they lean on.
    ("resilient.step_ns", "ns"),
    ("core.step_ns", "ns"),
    ("trace.counter_inc_ns", "ns"),
    ("tsc.read_ns", "ns"),
    ("resilient.client_avail_ratio", "ratio"),
    ("resilient.detections", "count"),
    ("faults.plan_events", "count"),
    // scenario assembly and the adversary search.
    ("scenario.build_us", "us"),
    ("search.spec_us", "us"),
    ("search.score_us", "us"),
    ("search.decode_us", "us"),
    ("search.serving_event_share", "ratio"),
    // net: the live UDP runtime.
    ("net.frame_ns", "ns"),
    ("net.parse_open_ns", "ns"),
    ("net.udp_echo_rtt_us", "us"),
    ("net.sealed_echo_rtt_us", "us"),
    ("net.wait_residual_us", "us"),
    ("net.rtt_mean_us", "us"),
    ("net.rtt_p99_us", "us"),
    ("net.rtt_max_us", "us"),
    ("net.fast_mode_ratio", "ratio"),
    ("net.retries_per_op", "count"),
    ("net.wall_ops_per_s", "1/s"),
    ("net.cpu_us_per_op", "us"),
    // the benchmark's own health, and the ledger arithmetic.
    ("bench.wall_ops_per_s", "1/s"),
    ("bench.median_ops_per_s", "1/s"),
    ("bench.interference_ratio", "ratio"),
    ("bench.reps", "count"),
    ("bench.slices", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.fail_ratio", "ratio"),
    ("ledger.sum_ns_per_op", "ns"),
    ("ledger.residual_ratio", "ratio"),
];

/// A full set of one table's metrics, every value starting at 0.
#[derive(Debug, Clone)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// Every end-to-end metric, zeroed.
    pub fn end_to_end() -> Self {
        MetricSet { metrics: END_TO_END.iter().map(|m| Metric::new(m.name, 0.0, m.unit)).collect() }
    }

    /// Every per-layer metric, zeroed.
    pub fn per_layer() -> Self {
        MetricSet { metrics: PER_LAYER.iter().map(|&(n, u)| Metric::new(n, 0.0, u)).collect() }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not list: a metric nobody declared
    /// must not appear in the output.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the canonical table"));
        m.value = value;
    }

    /// Reads `name` back (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the canonical table"))
            .value
    }

    /// The metrics in table order.
    pub fn into_vec(self) -> Vec<Metric> {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string value of `"key": "..."` inside one JSON object's text.
    fn string_field(entry: &str, key: &str) -> String {
        let rest =
            &entry[entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2..];
        let rest = &rest[rest.find('"').expect("open quote") + 1..];
        rest[..rest.find('"').expect("close quote")].to_string()
    }

    /// The objects listed under `"<section>": [...]` of BENCHMARK.json.
    fn entries<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
        let body = &json[json.find(&format!("\"{section}\"")).expect("section present")..];
        body[..body.find(']').expect("section closes")].split('{').skip(1).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_canonical_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside bench/");

        let listed: Vec<String> =
            entries(&json, "workloads").iter().map(|e| string_field(e, "name")).collect();
        assert_eq!(listed, crate::WORKLOADS);

        let listed: Vec<(String, String)> = entries(&json, "per_layer")
            .iter()
            .map(|e| (string_field(e, "name"), string_field(e, "unit")))
            .collect();
        let want: Vec<(String, String)> =
            PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed, want);

        let listed = entries(&json, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(END_TO_END) {
            assert_eq!(string_field(entry, "name"), m.name);
            assert_eq!(string_field(entry, "unit"), m.unit);
            let better = if m.higher_is_better { "higher" } else { "lower" };
            assert_eq!(string_field(entry, "better"), better, "{}", m.name);
            let bound = &entry[entry.find("\"bound\":").expect("bound present") + 8..];
            let bound: f64 = bound.trim().trim_end_matches(['}', ',', ' ', '\n']).parse().unwrap();
            assert_eq!(bound, m.bound, "{}", m.name);
        }
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END.iter().map(|m| (m.name, m.unit)).chain(PER_LAYER.iter().copied());
        for (name, unit) in all {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
    }

    #[test]
    fn metric_set_round_trips_and_rejects_strangers() {
        let mut set = MetricSet::end_to_end();
        set.set("setup_s", 0.25);
        assert_eq!(set.get("setup_s"), 0.25);
        assert_eq!(set.get("ops_per_s"), 0.0);
        let v = set.into_vec();
        assert_eq!(v.len(), END_TO_END.len());
        assert_eq!(v[3], Metric::new("setup_s", 0.25, "s"));
        assert_eq!(MetricSet::per_layer().into_vec().len(), PER_LAYER.len());
        let r = std::panic::catch_unwind(|| MetricSet::end_to_end().set("nope", 1.0));
        assert!(r.is_err());
    }
}
