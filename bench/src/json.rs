//! The result line the benchmark contract asks for, and the one reader
//! (`aa`) that parses it back.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (`ops_per_s`, `crypto.seal_ns`, …).
    pub name: &'static str,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit token (`1/s`, `us`, `ns`, `count`, `ratio`, …).
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Renders the one-line result object:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
///
/// # Panics
///
/// Panics on a non-finite value: JSON cannot carry it, and a NaN metric is
/// a benchmark bug that must not be reported as a measurement.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite ({})", m.name, m.value);
        if i > 0 {
            out.push_str(", ");
        }
        // f64's Display is the shortest decimal that round-trips and never
        // uses an exponent, so it is always a valid JSON number.
        out.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    out
}

/// Reads metric `name`'s value back out of a [`result_line`].
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Reads a top-level integer field (`attempted`, `failed`) of a
/// [`result_line`].
pub fn count_field(line: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[Metric::new("latency_ms", 1.2034, "ms"), Metric::new("setup_s", 0.8127, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn values_keep_all_digits_and_never_use_exponents() {
        let line = result_line(
            false,
            1,
            1,
            &[Metric::new("big", 2.5e21, "1/s"), Metric::new("small", 1.25e-7, "s")],
        );
        assert!(line.contains("\"value\": 2500000000000000000000,"));
        assert!(line.contains("\"value\": 0.000000125,"));
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
    }

    #[test]
    fn metrics_round_trip_through_the_reader() {
        let m = [
            Metric::new("ops_per_s", 612_345.678_901_2, "1/s"),
            Metric::new("sim.ns_per_event", 431.0, "ns"),
        ];
        let line = result_line(true, 77, 3, &m);
        assert_eq!(metric_value(&line, "ops_per_s"), Some(612_345.678_901_2));
        assert_eq!(metric_value(&line, "sim.ns_per_event"), Some(431.0));
        assert_eq!(metric_value(&line, "absent"), None);
        assert_eq!(count_field(&line, "attempted"), Some(77));
        assert_eq!(count_field(&line, "failed"), Some(3));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        let _ = result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "s")]);
    }

    #[test]
    fn an_empty_metric_set_is_still_an_object() {
        assert_eq!(
            result_line(true, 1, 0, &[]),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}"
        );
    }
}
