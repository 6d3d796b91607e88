//! Campaign-throughput bench: the perf trajectory of the experiment hot
//! path. Emits `BENCH_campaign.json` at the workspace root so successive
//! PRs can compare experiments/sec and per-experiment latency
//! percentiles.
//!
//! Knobs (see the `mutiny_bench` crate docs): `MUTINY_SCALE` (default
//! 0.05 here — the acceptance scale), `MUTINY_GOLDEN_RUNS` (default 12
//! here; baselines are bench setup, not the measured quantity),
//! `MUTINY_SEED`, `MUTINY_THREADS`.

use k8s_cluster::ClusterConfig;
use mutiny_core::campaign::run_campaign_with_threads;
use mutiny_core::exec;
use std::io::Write as _;
use std::time::Instant;

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn main() {
    // This bench defaults to the acceptance scale instead of the full
    // campaign, and to cheap baselines (they are setup, not measurement).
    if std::env::var("MUTINY_SCALE").is_err() {
        std::env::set_var("MUTINY_SCALE", "0.05");
    }
    if std::env::var("MUTINY_GOLDEN_RUNS").is_err() {
        std::env::set_var("MUTINY_GOLDEN_RUNS", "12");
    }
    // The perf trajectory wants the phase breakdown and detection
    // latencies unconditionally; determinism is pinned elsewhere
    // (tests/metrics_determinism.rs), so always-on is safe here.
    mutiny_telemetry::enable_in_process();

    let cluster = ClusterConfig::default();
    let seed = mutiny_bench::seed();
    let scale = mutiny_bench::scale();
    let scenario_names: Vec<&str> = mutiny_bench::scenarios().iter().map(|s| s.name()).collect();
    let fault_names: Vec<&str> = mutiny_bench::faults().iter().map(|f| f.name()).collect();
    let plan = mutiny_bench::plan();
    // Distinct per-node wires targeted by node-level families — the
    // coverage trajectory of the per-node channel axis.
    let node_channels = plan
        .iter()
        .filter_map(|p| p.spec.channel.node())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let threads = exec::default_threads(plan.len());
    eprintln!(
        "[campaign-throughput] {} experiments (scale {scale}, scenarios: {}, faults: {}), {threads} worker thread(s)",
        plan.len(),
        scenario_names.join(","),
        fault_names.join(",")
    );

    eprintln!(
        "[campaign-throughput] building baselines ({} golden runs)…",
        mutiny_bench::golden_runs()
    );
    let t = Instant::now();
    let baselines = mutiny_bench::baselines();
    let baseline_s = t.elapsed().as_secs_f64();

    // Measured quantity 1: campaign wall-clock on the work-stealing
    // executor. The decode-cache counters are scoped to exactly this
    // run, so the reported hit rate is the campaign's, not the baseline
    // build's.
    k8s_apiserver::reset_decode_cache_stats();
    mutiny_core::campaign::reset_fork_stats();
    let t = Instant::now();
    let _ = run_campaign_with_threads(&cluster, &plan, &baselines, seed, threads);
    let campaign_s = t.elapsed().as_secs_f64();
    // Fork-the-world counters for exactly the campaign run: how many
    // golden prefixes were built once vs served from the snapshot cache.
    let (fork_snapshots, fork_hits) = mutiny_core::campaign::fork_stats();
    let fork_hit_rate = if fork_snapshots + fork_hits == 0 {
        0.0
    } else {
        fork_hits as f64 / (fork_snapshots + fork_hits) as f64
    };
    let (dc_hits, dc_misses) = k8s_apiserver::decode_cache_stats();
    let dc_hit_rate = if dc_hits + dc_misses == 0 {
        0.0
    } else {
        dc_hits as f64 / (dc_hits + dc_misses) as f64
    };
    // Snapshot timelines and phases now: the per-experiment-latency leg
    // below re-runs the same plan, which would double-count every
    // experiment in the aggregates.
    mutiny_telemetry::flush_thread();
    let detection = mutiny_telemetry::timeline::percentiles_by_family();
    let phases = mutiny_telemetry::profile::snapshot();

    // Measured quantity 2: per-experiment latency distribution, timed
    // serially so one experiment's time is not polluted by siblings.
    let sample_every = (plan.len() / 48).max(1);
    let sample: Vec<_> = plan.iter().cloned().step_by(sample_every).collect();
    let mut per_ms: Vec<f64> = Vec::with_capacity(sample.len());
    for planned in &sample {
        let t = Instant::now();
        let one = [planned.clone()];
        let _ = run_campaign_with_threads(&cluster, &one, &baselines, seed, 1);
        per_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    per_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));

    let experiments_per_sec = plan.len() as f64 / campaign_s.max(1e-9);
    // Per-family storage-experiment counts: the trajectory of the
    // storage fault dimension.
    let storage_counts_json = {
        let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for p in plan.iter().filter(|p| p.fault.name().starts_with("etcd-")) {
            *counts.entry(p.fault.name()).or_default() += 1;
        }
        let rows: Vec<String> = counts
            .iter()
            .map(|(name, n)| format!("    \"{name}\": {n}"))
            .collect();
        if rows.is_empty() {
            "{}".to_string()
        } else {
            format!("{{\n{}\n  }}", rows.join(",\n"))
        }
    };
    let trace_scenarios = scenario_names
        .iter()
        .filter(|n| n.starts_with("trace-"))
        .count();
    let generated_scenarios = scenario_names
        .iter()
        .filter(|n| n.starts_with("gen-"))
        .count();
    // Campaign phase breakdown (where wall-clock goes) and per-family
    // detection latency (how fast faults surface in monitoring), both
    // from the campaign run snapshotted above.
    let phases_json = {
        use mutiny_telemetry::profile::ALL;
        let per_phase: Vec<String> = ALL
            .iter()
            .map(|p| format!("    \"{}_s\": {:.3}", p.label(), phases.of(*p)))
            .collect();
        format!(
            "{{\n{},\n    \"golden_prefix_share\": {:.3}\n  }}",
            per_phase.join(",\n"),
            phases.golden_prefix_share()
        )
    };
    let detection_json = if detection.is_empty() {
        "[]".to_string()
    } else {
        let rows: Vec<String> = detection
            .iter()
            .map(|f| {
                format!(
                    "    {{ \"family\": \"{}\", \"experiments\": {}, \"detected\": {}, \"p50_ms\": {:.1}, \"p95_ms\": {:.1} }}",
                    f.family, f.experiments, f.detected, f.p50_ms, f.p95_ms
                )
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let json = format!(
        "{{\n  \"bench\": \"campaign_throughput\",\n  \"experiments\": {},\n  \"scale\": {scale},\n  \"scenarios\": {},\n  \"scenario_names\": \"{}\",\n  \"trace_scenarios\": {trace_scenarios},\n  \"generated_scenarios\": {generated_scenarios},\n  \"faults\": {},\n  \"fault_names\": \"{}\",\n  \"node_channels\": {node_channels},\n  \"storage_experiments\": {storage_counts_json},\n  \"threads\": {threads},\n  \"golden_runs\": {},\n  \"baseline_build_s\": {:.3},\n  \"campaign_wall_s\": {:.3},\n  \"experiments_per_sec\": {:.3},\n  \"per_experiment_p50_ms\": {:.3},\n  \"per_experiment_p95_ms\": {:.3},\n  \"decode_cache_hits\": {dc_hits},\n  \"decode_cache_misses\": {dc_misses},\n  \"decode_cache_hit_rate\": {:.3},\n  \"fork_snapshots\": {fork_snapshots},\n  \"fork_hit_rate\": {fork_hit_rate:.3},\n  \"phases\": {phases_json},\n  \"detection_latency\": {detection_json}\n}}\n",
        plan.len(),
        scenario_names.len(),
        scenario_names.join(","),
        fault_names.len(),
        fault_names.join(","),
        mutiny_bench::golden_runs(),
        baseline_s,
        campaign_s,
        experiments_per_sec,
        percentile(&per_ms, 0.50),
        percentile(&per_ms, 0.95),
        dc_hit_rate,
    );

    let out_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_campaign.json");
    let mut f = std::fs::File::create(&out_path).expect("create BENCH_campaign.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_campaign.json");
    println!("{json}");
    eprintln!("[campaign-throughput] wrote {}", out_path.display());

    // This bench drives the executors directly rather than through
    // `mutiny_bench::campaign`, so honor MUTINY_TRACE_EXPORT and
    // MUTINY_METRICS explicitly.
    mutiny_bench::export_traces_if_requested();
    mutiny_telemetry::export::export_if_requested();
}
