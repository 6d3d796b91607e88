//! # perfbench — the lab's benchmark
//!
//! Three pinned campaign workloads (`paper-wire`, `infra-faults`,
//! `config-storm`), run at one worker and timed from outside through the
//! public API of `mutiny_core::campaign`, plus a traced run per workload
//! that drives the same public stages itself and yields per-layer
//! numbers. See `README.md` for the protocol.

pub mod measure;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workloads;

/// A reported metric: name, unit and which direction is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 4] = [
    ("exp_per_s", "1/s", "higher"),
    ("exp_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [MetricDef; 37] = [
    ("plan.record_ms", "ms", "lower"),
    ("plan.plan_ms", "ms", "lower"),
    ("plan.experiments", "count", "higher"),
    ("golden.run_ms", "ms", "lower"),
    ("golden.runs", "count", "lower"),
    ("scenarios.snapshot_ms", "ms", "lower"),
    ("scenarios.snapshots", "count", "lower"),
    ("cluster.fork_us", "us", "lower"),
    ("cluster.window_ms", "ms", "lower"),
    ("cluster.window_us_per_sim_s", "us/sim_s", "lower"),
    ("faults.messages", "count", "lower"),
    ("faults.message_ns", "ns", "lower"),
    ("faults.admissions", "count", "lower"),
    ("faults.actions", "count", "lower"),
    ("faults.action_us", "us", "lower"),
    ("apiserver.requests", "count", "lower"),
    ("apiserver.errors", "count", "lower"),
    ("apiserver.objects", "count", "lower"),
    ("apiserver.decode_hit_rate", "ratio", "higher"),
    ("apiserver.sync_us", "us", "lower"),
    ("etcd.commits", "count", "lower"),
    ("etcd.rejected", "count", "lower"),
    ("etcd.compactions", "count", "lower"),
    ("kcm.step_us", "us", "lower"),
    ("kcm.pods_created", "count", "lower"),
    ("scheduler.step_us", "us", "lower"),
    ("scheduler.scheduled", "count", "lower"),
    ("kubelet.step_us", "us", "lower"),
    ("netsim.refresh_us", "us", "lower"),
    ("netsim.request_us", "us", "lower"),
    ("netsim.failures", "count", "lower"),
    ("core.classify_us", "us", "lower"),
    ("core.timeline_us", "us", "lower"),
    ("exec.par_speedup", "ratio", "higher"),
    ("host.probe_ms", "ms", "lower"),
    ("ledger.coverage", "ratio", "higher"),
    ("tracing.overhead", "ratio", "lower"),
];

/// Looks up the unit of a metric defined in [`END_TO_END`] or
/// [`PER_LAYER`].
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for name in &all {
            assert!(stats::valid_metric_name(name), "bad metric name {name:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    /// The tables here and the metric lists in `BENCHMARK.json` must say
    /// the same thing.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"name\":").count();
        let workloads = workloads::WORKLOADS.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in workloads::WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
    }
}
