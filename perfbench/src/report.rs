//! The metric vocabulary and the result line the benchmark prints.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports all of them with tracing off.
/// `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-workload headline figures, printed by name with tracing off and
/// reported with the per-layer metrics when traced (0 where a workload has
/// none). The `latency_*` pair come from the daemon probe of the traced
/// sweep-churn run. `(name, unit)`.
pub const WORKLOAD: &[(&str, &str)] = &[
    ("chain_steps_per_s", "steps/s"),
    ("kmc_steps_per_s", "steps/s"),
    ("local_rounds_per_s", "rounds/s"),
    ("sharded_rounds_per_s", "rounds/s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms.low", "ms"),
    ("latency_p95_ms.low", "ms"),
    ("latency_p50_ms.high", "ms"),
    ("latency_p95_ms.high", "ms"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics from the traced run. `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lattice.pair_ring_mask_ns", "ns"),
    ("lattice.window25_ns", "ns"),
    ("lattice.get_ns", "ns"),
    ("system.check_move_ns", "ns"),
    ("system.move_particle_ns", "ns"),
    ("system.perimeter_us", "us"),
    ("system.spiral_s", "s"),
    ("system.connected_ms", "ms"),
    ("core.chain.step_ns", "ns"),
    ("core.chain.acceptance", "ratio"),
    ("core.kmc.event_us", "us"),
    ("core.kmc.steps_per_event", "steps"),
    ("core.local.activation_ns", "ns"),
    ("core.local.idle_frac", "ratio"),
    ("core.sharded.flat_round_ms", "ms"),
    ("core.sharded.round_ms.w1", "ms"),
    ("core.sharded.round_ms.w2", "ms"),
    ("core.sharded.efficiency", "ratio"),
    ("core.sharded.init_ms", "ms"),
    ("core.sharded.tail_sample_ms", "ms"),
    ("core.snapshot_us", "us"),
    ("core.restore_us", "us"),
    ("engine.parse_us", "us"),
    ("engine.open_ms", "ms"),
    ("engine.finish_ms", "ms"),
    ("engine.job_ms.p50", "ms"),
    ("engine.job_ms.p95", "ms"),
    ("engine.job_overhead_frac", "ratio"),
    ("engine.checkpoint_write_us", "us"),
    ("engine.busy_frac", "ratio"),
    ("serve.startup_ms", "ms"),
    ("serve.submit_ms.p50", "ms"),
    ("serve.submit_ms.p95", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p95", "ms"),
    ("serve.run_ms.p50", "ms"),
    ("serve.fetch_ms.p50", "ms"),
    ("serve.status_ms.p50", "ms"),
    ("serve.rejected_frac", "ratio"),
    ("serve.http_requests", "count"),
    ("serve.http_rejected", "count"),
    ("bench.gen_late_ms.p95", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Metric values by name. Only names of the vocabulary are accepted.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    ///
    /// # Panics
    ///
    /// On a name outside the vocabulary: a typo in the benchmark itself.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = END_TO_END
            .iter()
            .chain(WORKLOAD)
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"));
        self.0.insert(key, value);
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders a finite number with all its digits; non-finite values become 0.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// exactly the metrics of `names`, each with its unit (0 when the workload
/// does not exercise it).
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[(&str, &str)],
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(metrics.get(name).unwrap_or(0.0))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(WORKLOAD)
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric name is used twice");
        for (name, unit) in END_TO_END.iter().chain(WORKLOAD).chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(!unit.is_empty() && unit.len() <= 16, "{name} has no unit");
        }
    }

    #[test]
    fn result_line_carries_every_requested_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.25);
        let line = result_line(true, 3, 0, &m, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        let parsed = sops_telemetry::parse(&line).expect("result line is JSON");
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.members())
                .map(<[_]>::len),
            Some(END_TO_END.len())
        );
    }

    /// Every metric name the benchmark's design promises (README tables).
    const DESIGN_NAMES: &[&str] = &[
        "wall_s",
        "setup_s",
        "peak_rss_mb",
        "chain_steps_per_s",
        "kmc_steps_per_s",
        "local_rounds_per_s",
        "sharded_rounds_per_s",
        "jobs_per_s",
        "latency_p50_ms.low",
        "latency_p95_ms.low",
        "latency_p50_ms.high",
        "latency_p95_ms.high",
        "failed_frac",
        "lattice.pair_ring_mask_ns",
        "lattice.window25_ns",
        "lattice.get_ns",
        "system.check_move_ns",
        "system.move_particle_ns",
        "system.perimeter_us",
        "system.spiral_s",
        "system.connected_ms",
        "core.chain.step_ns",
        "core.chain.acceptance",
        "core.kmc.event_us",
        "core.kmc.steps_per_event",
        "core.local.activation_ns",
        "core.local.idle_frac",
        "core.sharded.flat_round_ms",
        "core.sharded.round_ms.w1",
        "core.sharded.round_ms.w2",
        "core.sharded.efficiency",
        "core.sharded.init_ms",
        "core.sharded.tail_sample_ms",
        "core.snapshot_us",
        "core.restore_us",
        "engine.parse_us",
        "engine.open_ms",
        "engine.finish_ms",
        "engine.job_ms.p50",
        "engine.job_ms.p95",
        "engine.job_overhead_frac",
        "engine.checkpoint_write_us",
        "engine.busy_frac",
        "serve.startup_ms",
        "serve.submit_ms.p50",
        "serve.submit_ms.p95",
        "serve.queue_wait_ms.p50",
        "serve.queue_wait_ms.p95",
        "serve.run_ms.p50",
        "serve.fetch_ms.p50",
        "serve.status_ms.p50",
        "serve.rejected_frac",
        "serve.http_requests",
        "serve.http_rejected",
        "bench.gen_late_ms.p95",
        "bench.trace_overhead_frac",
    ];

    #[test]
    fn every_design_name_is_printed_and_nothing_else_but_the_headline_rate() {
        let printed: Vec<&str> = END_TO_END
            .iter()
            .chain(WORKLOAD)
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in DESIGN_NAMES {
            assert!(printed.contains(name), "{name} is never printed");
        }
        let extra: Vec<&&str> = printed
            .iter()
            .filter(|n| !DESIGN_NAMES.contains(n))
            .collect();
        assert_eq!(extra, [&"work_per_s"]);
    }

    /// Field `field` of each member of the `key` array of `BENCHMARK.json`.
    fn column(bench: &sops_telemetry::Value, key: &str, field: &str) -> Vec<String> {
        let Some(sops_telemetry::Value::Arr(items)) = bench.get(key) else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|m| match m.get(field) {
                Some(sops_telemetry::Value::Str(s)) => s.clone(),
                _ => panic!("a member of {key} has no {field}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_each_mode_prints() {
        let bench = sops_telemetry::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let check = |key: &str, printed: Vec<&(&str, &str)>| {
            let names: Vec<&str> = printed.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = printed.iter().map(|(_, u)| *u).collect();
            assert_eq!(column(&bench, key, "name"), names);
            assert_eq!(column(&bench, key, "unit"), units);
        };
        check("end_to_end", END_TO_END.iter().collect());
        check("per_layer", PER_LAYER.iter().chain(WORKLOAD).collect());
        assert_eq!(column(&bench, "workloads", "name"), crate::workloads::NAMES);
    }

    #[test]
    #[should_panic(expected = "not in the vocabulary")]
    fn unknown_names_are_refused() {
        Metrics::default().set("wall_ms", 1.0);
    }
}
