//! The benchmark's one command:
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-wire|infra-faults|config-storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced pass and reports the per-layer metrics. Both check the outputs
//! and print, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use mutiny_core::campaign::{CampaignResults, PlannedExperiment};
use perfbench::measure::{self, Pass};
use perfbench::probe;
use perfbench::stats::{fnv1a, median, p95, P95_MIN_SAMPLES};
use perfbench::trace::{self, Traced};
use perfbench::workloads::{self, Setup, Workload, GOLDEN_RUNS};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A shadow step every this many 250 ms slices (every 2 s of sim time).
const SHADOW_EVERY: usize = 8;
/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workloads::find(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The lab reads `MUTINY_*` variables below the bench layer (storage
/// engine, decode cache, fork mode, threads, telemetry); any of them
/// would silently change what is measured.
fn refuse_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MUTINY_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set; unset every MUTINY_* variable",
            set.join(", ")
        ))
    }
}

/// Collects the metrics, the human-readable report and the checks.
struct Report {
    lines: String,
    metrics: Vec<(&'static str, f64)>,
    checks_ok: bool,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn line(&mut self, s: impl AsRef<str>) {
        self.lines.push_str(s.as_ref());
        self.lines.push('\n');
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.line(format!(
            "check {:<44} {}",
            what,
            if ok { "ok" } else { "FAILED" }
        ));
        self.checks_ok &= ok;
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        let unit = perfbench::unit_of(name).expect("metric defined in the tables");
        self.line(format!("{name:<30} {value:>14.4} {unit}"));
        self.metrics.push((name, value));
    }

    fn count(&mut self, runs: usize, failed: usize) {
        self.attempted += runs;
        self.failed += failed;
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = perfbench::unit_of(name).expect("metric defined in the tables");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.checks_ok && self.metrics.iter().all(|(_, v)| v.is_finite()),
            self.attempted,
            self.failed
        )
    }
}

fn rows_digest(results: &CampaignResults) -> u64 {
    fnv1a(mutiny_bench::render_rows(results).as_bytes())
}

fn run(args: &Args) -> Result<Report, String> {
    let w = &args.workload;
    let cluster = workloads::cluster();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut r = Report {
        lines: String::new(),
        metrics: Vec::new(),
        checks_ok: true,
        attempted: 0,
        failed: 0,
    };
    r.line(format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} workers=1",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    r.line(format!("scenarios: {}", w.scenarios.join(",")));
    r.line(format!("families:  {}", w.families.join(",")));
    r.line(format!(
        "plan: seed {} keep every {} of the cross-product; golden runs {} per scenario from seed {}",
        w.plan_seed, w.keep_every, GOLDEN_RUNS, args.seed
    ));

    // Set-up, several times from scratch: record, plan, build baselines;
    // with host probe runs before each set-up and after the last.
    let mut setups: Vec<Setup> = Vec::with_capacity(SETUP_REPS);
    let mut setup_probes: Vec<f64> = Vec::new();
    for _ in 0..SETUP_REPS {
        setup_probes.extend((0..probe::SETUP_BLOCK).map(|_| probe::run_ms()));
        setups.push(workloads::setup(w, &cluster, args.seed)?);
    }
    setup_probes.extend((0..probe::SETUP_BLOCK).map(|_| probe::run_ms()));
    let digests: Vec<u64> = setups
        .iter()
        .map(|s| workloads::plan_digest(&s.plan))
        .collect();
    let setup = setups.pop().expect("at least one set-up");
    let plan: &[PlannedExperiment] = &setup.plan;
    let counts = workloads::family_counts(plan);
    r.line(format!(
        "plan digest {:016x} ({} experiments): {}",
        digests[0],
        plan.len(),
        counts
            .iter()
            .map(|(f, n)| format!("{f}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    r.check(
        "plan identical across set-ups",
        digests.iter().all(|d| *d == digests[0]),
    );
    r.check(
        &format!("plan digest is the pinned {:016x}", w.digest),
        digests[0] == w.digest && plan.len() == w.experiments,
    );
    let setup_times: Vec<f64> = setups.iter().chain([&setup]).map(Setup::total_s).collect();
    let baselines = &setup.baselines;

    if !args.trace {
        // Whole one-worker passes until the run has measured `--seconds`,
        // give or take half a pass: another pass starts only while the
        // time left is more than half a mean pass.
        let mut passes: Vec<Pass> = Vec::new();
        let mut measured = 0.0;
        while passes.is_empty() || args.seconds - measured > measured / passes.len() as f64 / 2.0 {
            let pass = measure::one_worker_pass(&cluster, plan, baselines, w.plan_seed);
            measured += pass.wall_s;
            r.count(plan.len(), pass.failed());
            passes.push(pass);
        }
        let peak_rss = measure::peak_rss_mb()?;
        let reference = measure::results(&passes[0].rows);
        let digest = rows_digest(&reference);
        r.line(format!(
            "rows digest {digest:016x} ({} rows, {} passes)",
            reference.len(),
            passes.len()
        ));
        let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
        r.line(format!("pass wall times (s): {}", walls.join(" ")));
        r.check(
            "every pass renders the same rows",
            passes
                .iter()
                .all(|p| rows_digest(&measure::results(&p.rows)) == digest),
        );
        check_parallel(
            &mut r,
            &cluster,
            plan,
            baselines,
            w.plan_seed,
            nproc,
            digest,
        );
        r.check(
            "rows survive the TSV round trip",
            mutiny_bench::roundtrip_check(&reference),
        );
        if w.name == "paper-wire" {
            r.line(mutiny_core::findings::render_findings(&reference));
        }

        let completed: usize = passes.iter().map(|p| p.rows.iter().flatten().count()).sum();
        let times: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.times_ms.iter().copied())
            .collect();
        // The gated times are reported at the reference host speed (see
        // `probe`): each experiment scaled by the speed measured next to
        // it, the set-ups by the speed measured between them. The raw
        // figures are printed beside them.
        let mut adjusted: Vec<f64> = Vec::with_capacity(times.len());
        for p in &passes {
            adjusted.extend(
                probe::at_reference(&p.times_ms, &p.probes).ok_or("a pass ran no host probe")?,
            );
        }
        let pass_probes: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.probes.iter().map(|x| x.1))
            .collect();
        let speed = probe::speed(&pass_probes).ok_or("no host probe in the passes")?;
        let setup_speed = probe::speed(&setup_probes).ok_or("no host probe in set-up")?;
        let per_s = completed as f64 / measured;
        let p50 = median(&times).ok_or("no experiment timings")?;
        let setup_s = median(&setup_times).ok_or("no set-up timings")?;
        r.line(format!(
            "host speed {speed:.4} in the passes ({} probes), {setup_speed:.4} in set-up \
             (probe median {:.4} / {:.4} ms, reference {} ms)",
            pass_probes.len(),
            probe::REFERENCE_MS / speed,
            probe::REFERENCE_MS / setup_speed,
            probe::REFERENCE_MS
        ));
        r.line(format!(
            "raw: exp_per_s {per_s:.4} 1/s, exp_p50_ms {p50:.4} ms, setup_s {setup_s:.4} s"
        ));
        r.metric(
            "exp_per_s",
            completed as f64 / (adjusted.iter().sum::<f64>() / 1e3),
        );
        r.metric(
            "exp_p50_ms",
            median(&adjusted).ok_or("no experiment timings")?,
        );
        r.metric("setup_s", setup_s * setup_speed);
        r.metric("peak_rss_mb", peak_rss);
        // p95 only on workloads with enough experiments: repeated passes
        // over a small plan would rest it on one or two experiments.
        match (plan.len() >= P95_MIN_SAMPLES)
            .then(|| p95(&adjusted))
            .flatten()
        {
            Some(v) => r.line(format!(
                "{:<30} {v:>14.4} ms (at the reference speed, not gated; {} samples)",
                "exp_p95_ms",
                times.len()
            )),
            None => r.line(format!(
                "{:<30} {:>14} ms (fewer than {} experiments: {})",
                "exp_p95_ms",
                "-",
                P95_MIN_SAMPLES,
                plan.len()
            )),
        }
        let frac = r.failed as f64 / r.attempted.max(1) as f64;
        r.line(format!(
            "{:<30} {frac:>14.4} fraction (reported as `failed`)",
            "failed_frac"
        ));
    } else {
        k8s_apiserver::reset_decode_cache_stats();
        let pass = measure::one_worker_pass(&cluster, plan, baselines, w.plan_seed);
        let (hits, misses) = k8s_apiserver::decode_cache_stats();
        r.count(plan.len(), pass.failed());
        let reference = measure::results(&pass.rows);
        let digest = rows_digest(&reference);
        r.line(format!(
            "rows digest {digest:016x} ({} rows)",
            reference.len()
        ));
        let par_s = check_parallel(
            &mut r,
            &cluster,
            plan,
            baselines,
            w.plan_seed,
            nproc,
            digest,
        );
        r.check(
            "rows survive the TSV round trip",
            mutiny_bench::roundtrip_check(&reference),
        );

        let traced = trace::traced_pass(&cluster, plan, baselines, w.plan_seed, SHADOW_EVERY);
        let traced_rows = measure::results(&traced.rows);
        r.count(
            plan.len(),
            traced.rows.iter().filter(|x| x.is_none()).count(),
        );
        r.check(
            "traced rows equal the untraced rows byte for byte",
            mutiny_bench::render_rows(&traced_rows) == mutiny_bench::render_rows(&reference),
        );
        write_spans(&mut r, w, &traced)?;
        layer_metrics(
            &mut r,
            &setups,
            &setup,
            &pass,
            &traced,
            par_s,
            (hits, misses),
        );
    }
    Ok(r)
}

/// Runs the plan with `nproc` workers and checks its rows against the
/// one-worker rows. Returns the run's wall time (s).
fn check_parallel(
    r: &mut Report,
    cluster: &k8s_cluster::ClusterConfig,
    plan: &[PlannedExperiment],
    baselines: &std::collections::HashMap<
        mutiny_scenarios::Scenario,
        mutiny_core::golden::Baseline,
    >,
    campaign_seed: u64,
    nproc: usize,
    digest: u64,
) -> f64 {
    let (res, wall) = measure::on_fresh_thread(|| {
        measure::parallel_run(cluster, plan, baselines, campaign_seed, nproc)
    });
    let ok = res.as_ref().is_some_and(|res| rows_digest(res) == digest);
    r.count(
        plan.len(),
        res.as_ref()
            .map_or(plan.len(), |res| plan.len().saturating_sub(res.len())),
    );
    r.check(
        &format!("{nproc}-worker rows equal the one-worker rows"),
        ok,
    );
    wall
}

fn write_spans(r: &mut Report, w: &Workload, traced: &Traced) -> Result<(), String> {
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("cannot create {SPAN_DIR}: {e}"))?;
    let path = format!("{SPAN_DIR}/spans-{}.tsv", w.name);
    std::fs::write(&path, traced.tracer.to_tsv())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    r.line(format!(
        "{} spans written to {path}; self time by stage:",
        traced.tracer.spans.len()
    ));
    for (name, (n, ns)) in traced.tracer.self_time_by_stage() {
        r.line(format!(
            "  {name:<22} {n:>7} spans {:>12.3} ms self",
            ns as f64 / 1e6
        ));
    }
    Ok(())
}

fn layer_metrics(
    r: &mut Report,
    setups: &[Setup],
    setup: &Setup,
    pass: &Pass,
    t: &Traced,
    par_s: f64,
    (hits, misses): (u64, u64),
) {
    let all: Vec<&Setup> = setups.iter().chain([setup]).collect();
    let med = |f: &dyn Fn(&Setup) -> f64| {
        median(&all.iter().map(|s| f(s)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let golden_runs = (GOLDEN_RUNS * setup.baselines.len()) as f64;
    let n = t.rows.len().max(1) as f64;
    let stage = t.tracer.self_time_by_stage();
    let stage_ns = |name: &str| stage.get(name).copied().unwrap_or((0, 0));
    let mean_us = |name: &str| {
        let (k, ns) = stage_ns(name);
        if k == 0 {
            0.0
        } else {
            ns as f64 / k as f64 / 1e3
        }
    };
    let window_ns = stage_ns("cluster.window").1 as f64;
    let shadow_ns = stage_ns("ledger.shadow").1 as f64;

    r.metric("plan.record_ms", med(&|s| s.record_s) * 1e3);
    r.metric("plan.plan_ms", med(&|s| s.plan_s) * 1e3);
    r.metric("plan.experiments", setup.plan.len() as f64);
    r.metric("golden.run_ms", med(&|s| s.golden_s) * 1e3 / golden_runs);
    r.metric("golden.runs", golden_runs);
    r.metric("scenarios.snapshot_ms", mean_us("scenarios.snapshot") / 1e3);
    r.metric("scenarios.snapshots", t.snapshots as f64);
    r.metric("cluster.fork_us", mean_us("cluster.fork"));
    r.metric("cluster.window_ms", window_ns / n / 1e6);
    r.metric(
        "cluster.window_us_per_sim_s",
        window_ns / 1e3 / (t.sim_window_ms as f64 / 1e3),
    );
    r.metric("faults.messages", t.messages as f64);
    r.metric(
        "faults.message_ns",
        t.message_ns as f64 / t.messages.max(1) as f64,
    );
    r.metric("faults.admissions", t.admissions as f64);
    r.metric("faults.actions", t.actions as f64);
    r.metric("faults.action_us", t.action_ns as f64 / n / 1e3);
    r.metric("apiserver.requests", t.work.requests as f64);
    r.metric("apiserver.errors", t.work.errors as f64);
    r.metric("apiserver.objects", t.objects as f64 / n);
    r.metric(
        "apiserver.decode_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    r.metric("apiserver.sync_us", t.shadow.sync.mean_ns() / 1e3);
    r.metric("etcd.commits", t.work.commits as f64);
    r.metric("etcd.rejected", t.work.rejected as f64);
    r.metric("etcd.compactions", t.work.compactions as f64);
    r.metric("kcm.step_us", t.shadow.kcm.mean_ns() / 1e3);
    r.metric("kcm.pods_created", t.work.pods_created as f64);
    r.metric("scheduler.step_us", t.shadow.sched.mean_ns() / 1e3);
    r.metric("scheduler.scheduled", t.work.scheduled as f64);
    r.metric("kubelet.step_us", t.shadow.kubelet.mean_ns() / 1e3);
    r.metric("netsim.refresh_us", t.shadow.refresh.mean_ns() / 1e3);
    r.metric("netsim.request_us", t.shadow.request.mean_ns() / 1e3);
    r.metric("netsim.failures", t.work.net_failures as f64);
    r.metric("core.classify_us", mean_us("core.classify"));
    r.metric("core.timeline_us", mean_us("core.timeline"));
    r.metric("exec.par_speedup", pass.wall_s / par_s);
    r.metric(
        "host.probe_ms",
        median(&pass.probes.iter().map(|p| p.1).collect::<Vec<_>>()).unwrap_or(f64::NAN),
    );
    r.metric("ledger.coverage", t.ledger_ns / window_ns);
    r.metric(
        "tracing.overhead",
        (t.wall_s - shadow_ns / 1e9) / pass.wall_s,
    );
}

fn main() -> ExitCode {
    let args = match refuse_knobs().and_then(|()| parse_args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{}", report.lines);
            println!("{}", report.json());
            if report.checks_ok {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output checks failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
