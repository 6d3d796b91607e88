//! Shared harness for the evaluation benches.
//!
//! The table/figure benches all consume the same injection campaign. This
//! module builds it once (per scale setting) and caches the result rows in
//! a TSV file under `target/`, so `cargo bench` regenerates every artifact
//! without rerunning thousands of cluster simulations per bench target.
//!
//! Environment knobs:
//!
//! * `MUTINY_SCALE` — fraction of the generated plan to execute
//!   (default 1.0 = the full campaign; the `campaign_throughput` bench
//!   defaults to 0.05 and `scripts/verify.sh` smokes at 0.02);
//! * `MUTINY_SCENARIOS` — comma-separated scenario names to run
//!   (default: the whole registry — the paper's three plus
//!   rolling-update, node-drain and hpa-autoscale);
//! * `MUTINY_FAULTS` — comma-separated fault-family names to inject
//!   (default: the whole fault registry — the paper's wire triplet plus
//!   delay, duplicate, partition and crash-restart);
//! * `MUTINY_GOLDEN_RUNS` — golden runs per scenario baseline
//!   (default 100, as in the paper);
//! * `MUTINY_SEED` — campaign base seed (default 2024);
//! * `MUTINY_CHECKPOINT_ROWS` — rows per checkpoint chunk (default 250);
//!   finished chunks are flushed to `<cache>.partial` as they complete,
//!   so an interrupted campaign resumes at the first unflushed row
//!   instead of restarting;
//! * `MUTINY_THREADS` — worker count for the work-stealing executor
//!   (default: available parallelism). Results are identical for any
//!   value — per-experiment seeds derive from the (campaign, scenario)
//!   pair — so this only trades wall-clock for cores;
//! * `MUTINY_FORK` — fork-the-world execution (default on): snapshot
//!   each scenario's fault-free prefix at `t0` and fork it per
//!   experiment; `MUTINY_FORK=0` replays every prefix from `t=0`
//!   (byte-identical rows, own `_nofork` cache identity);
//! * `MUTINY_SHARD` — `i/n`; plan the full cross-product but run only
//!   plan indices ≡ i (mod n), writing a `_shard<i>of<n>` TSV; the
//!   `merge_shards` bin reassembles the unsharded TSV byte-identically;
//! * `MUTINY_TRACES` — a directory of `*.trace` files; each is
//!   registered as a replay scenario (`trace-<stem>`) and joins the
//!   campaign cross-product unchanged;
//! * `MUTINY_GEN` — `<n>:<seed>`; registers `n` synthesized scenarios
//!   (`gen-<seed>-<i>`) composed from the scenario primitives;
//! * `MUTINY_TRACE_EXPORT` — a directory; after the campaign rows are
//!   available, one golden run per (non-replay) scenario is recorded
//!   through the apiserver request tap and written there as a trace file.
//!
//! The `campaign_throughput` bench writes `BENCH_campaign.json` at the
//! workspace root (experiments/sec, p50/p95 per-experiment time, and the
//! work-stealing vs static-chunk executor ratio) so every PR leaves a
//! perf-trajectory data point.

use mutiny_core::campaign::{
    plan_campaign, record_fields, run_campaign_range, CampaignResults, CampaignRow,
    PlannedExperiment, FORK_ENV,
};
use mutiny_core::classify::{ClientFailure, OrchestratorFailure};
use mutiny_core::exec;
use mutiny_core::golden::{build_baseline, Baseline};
use mutiny_core::injector::{FieldMutation, InjectionPoint, InjectionSpec, StorageOp};
use k8s_cluster::ClusterConfig;
use k8s_model::{Channel, ChannelId, Kind};
use mutiny_faults::{registry as fault_registry, Fault};
use mutiny_scenarios::{registry, Scenario};
use simkit::Rng;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;

/// Campaign scale factor from `MUTINY_SCALE`.
pub fn scale() -> f64 {
    std::env::var("MUTINY_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0f64).clamp(0.01, 1.0)
}

/// Golden runs per workload from `MUTINY_GOLDEN_RUNS` (paper: 100).
pub fn golden_runs() -> usize {
    std::env::var("MUTINY_GOLDEN_RUNS").ok().and_then(|s| s.parse().ok()).unwrap_or(100).max(4)
}

/// Campaign base seed from `MUTINY_SEED`.
pub fn seed() -> u64 {
    std::env::var("MUTINY_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(2024)
}

/// One-time dynamic scenario registration from `MUTINY_TRACES` (a
/// directory of `*.trace` files → replay scenarios) and `MUTINY_GEN`
/// (`<n>:<seed>` → synthesized scenarios). Guarded by a `OnceLock` and
/// called from [`scenarios`], so every scenario listing — and therefore
/// the campaign cross-product, the cache identity, and the
/// `MUTINY_SCENARIOS` filter — sees the dynamic registrations.
///
/// # Panics
///
/// Panics on an unreadable trace directory, a malformed trace file, or a
/// malformed `MUTINY_GEN` spec — silently running a smaller campaign
/// would corrupt the perf trajectory.
fn register_dynamic_scenarios() {
    static ONCE: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    ONCE.get_or_init(|| {
        if let Ok(dir) = std::env::var("MUTINY_TRACES") {
            let traces = mutiny_trace::register_traces(std::path::Path::new(&dir))
                .unwrap_or_else(|e| panic!("MUTINY_TRACES={dir}: {e}"));
            eprintln!(
                "[mutiny-bench] registered {} trace scenario(s) from {dir}",
                traces.len()
            );
        }
        if let Ok(spec) = std::env::var("MUTINY_GEN") {
            let (n, gen_seed) = spec
                .split_once(':')
                .and_then(|(n, s)| Some((n.parse::<u64>().ok()?, s.parse::<u64>().ok()?)))
                .unwrap_or_else(|| panic!("MUTINY_GEN must be <n>:<seed>, got {spec:?}"));
            let gens = mutiny_trace::register_generated(n, gen_seed)
                .unwrap_or_else(|e| panic!("MUTINY_GEN={spec}: {e}"));
            eprintln!(
                "[mutiny-bench] registered {} generated scenario(s) under seed {gen_seed}",
                gens.len()
            );
        }
    });
}

/// The scenarios this campaign covers: `MUTINY_SCENARIOS` (comma-
/// separated registry names) or the whole registry, including any
/// dynamic registrations from `MUTINY_TRACES` / `MUTINY_GEN`.
///
/// # Panics
///
/// Panics when the filter names a scenario the registry does not know —
/// silently running a smaller campaign would corrupt the perf trajectory.
pub fn scenarios() -> Vec<Scenario> {
    register_dynamic_scenarios();
    match std::env::var("MUTINY_SCENARIOS") {
        Ok(list) => list
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(|n| {
                registry::find(n).unwrap_or_else(|| {
                    panic!("MUTINY_SCENARIOS names unknown scenario {n:?}")
                })
            })
            .collect(),
        Err(_) => registry::all(),
    }
}

/// The fault families this campaign injects: `MUTINY_FAULTS` (comma-
/// separated registry names) or the whole fault registry.
///
/// # Panics
///
/// Panics when the filter names a family the registry does not know —
/// silently running a smaller campaign would corrupt the perf trajectory.
pub fn faults() -> Vec<Fault> {
    match std::env::var("MUTINY_FAULTS") {
        Ok(list) => list
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(|n| {
                fault_registry::find(n)
                    .unwrap_or_else(|| panic!("MUTINY_FAULTS names unknown fault family {n:?}"))
            })
            .collect(),
        Err(_) => fault_registry::all(),
    }
}

/// The campaign shard from `MUTINY_SHARD=i/n`: plan the full
/// cross-product, run only the experiments whose plan index ≡ `i`
/// (mod `n`). `None` when unset. Rows depend only on their planned
/// (scenario, spec) — never on the plan index — so the `n` shard TSVs
/// round-robin-merge ([`merge_shard_texts`]) byte-identically into the
/// unsharded campaign TSV.
///
/// # Panics
///
/// Panics on a malformed value (not `i/n`, `n == 0`, or `i >= n`): a
/// silently ignored shard spec would run the full campaign `n` times.
pub fn shard() -> Option<(usize, usize)> {
    let v = std::env::var("MUTINY_SHARD").ok()?;
    let parse = |v: &str| -> Option<(usize, usize)> {
        let (i, n) = v.split_once('/')?;
        let (i, n) = (i.trim().parse().ok()?, n.trim().parse().ok()?);
        (n >= 1 && i < n).then_some((i, n))
    };
    match parse(&v) {
        Some(pair) => Some(pair),
        None => panic!("MUTINY_SHARD must be i/n with i < n, got {v:?}"),
    }
}

/// Restricts `plan` to the configured [`shard`]'s residue class (plan
/// order preserved). The identity transform when no shard is set.
pub fn shard_plan(plan: Vec<PlannedExperiment>) -> Vec<PlannedExperiment> {
    match shard() {
        Some((i, n)) => plan
            .into_iter()
            .enumerate()
            .filter(|(idx, _)| idx % n == i)
            .map(|(_, p)| p)
            .collect(),
        None => plan,
    }
}

/// Round-robin-merges per-shard campaign TSVs (shard order `0..n`) back
/// into the unsharded TSV: merged row `j` is row `j / n` of shard
/// `j % n`, exactly inverting the residue-class split. Returns `None`
/// when the shard line counts are inconsistent with one round-robin
/// partition (e.g. files from different campaigns, or a shard missing).
pub fn merge_shard_texts(shards: &[&str]) -> Option<String> {
    let n = shards.len();
    if n == 0 {
        return None;
    }
    let lines: Vec<Vec<&str>> = shards.iter().map(|s| s.lines().collect()).collect();
    let total: usize = lines.iter().map(Vec::len).sum();
    let mut out = String::with_capacity(shards.iter().map(|s| s.len()).sum());
    for j in 0..total {
        // Inconsistent shard sizes leave some index unservable before
        // `total` rows are emitted.
        let row = lines[j % n].get(j / n)?;
        out.push_str(row);
        out.push('\n');
    }
    Some(out)
}

/// Rows per checkpoint chunk from `MUTINY_CHECKPOINT_ROWS`.
pub fn checkpoint_rows() -> usize {
    std::env::var("MUTINY_CHECKPOINT_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(250)
}

/// The workspace target directory where campaign/baseline caches live.
fn cache_dir() -> PathBuf {
    // Benches run with the package directory as CWD, so a relative
    // `target/` would point inside `crates/bench`; resolve the workspace
    // target directory explicitly and make sure it exists.
    let dir = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..").join("target")
        });
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The TSV cache location for the current environment settings. Public
/// so the checkpoint-resume tests (and `scripts/verify.sh`) can find the
/// exact file a [`campaign`] call will read and write.
pub fn cache_path() -> PathBuf {
    // The scenario and fault-family sets are part of the cache identity:
    // a filtered run must not be mistaken for (or poison) the full
    // campaign's rows.
    let scenario_names: Vec<&str> = scenarios().iter().map(|s| s.name()).collect();
    let fault_names: Vec<&str> = faults().iter().map(|f| f.name()).collect();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in scenario_names.join(",").bytes().chain("|".bytes()).chain(fault_names.join(",").bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    // A run with the decode cache disabled gets its own cache identity:
    // `scripts/verify.sh` diffs the `_nodc` TSV against the cached-mode
    // TSV byte for byte, which only works if the two runs cannot reuse
    // (or poison) each other's rows.
    let nodc = if std::env::var("MUTINY_DECODE_CACHE").map(|v| v == "0").unwrap_or(false) {
        "_nodc"
    } else {
        ""
    };
    // Same isolation for the fork-the-world escape hatch: verify.sh diffs
    // the `_nofork` TSV against the forked-mode TSV byte for byte.
    let nofork = if std::env::var(FORK_ENV).map(|v| v == "0").unwrap_or(false) {
        "_nofork"
    } else {
        ""
    };
    // Shards write disjoint row subsets: each residue class gets its own
    // cache (and checkpoint) identity so shards can run concurrently and
    // `merge_shard_texts` can reassemble the unsharded TSV.
    let shard_tag = match shard() {
        Some((i, n)) => format!("_shard{i}of{n}"),
        None => String::new(),
    };
    cache_dir().join(format!(
        "mutiny_campaign_s{:.2}_g{}_seed{}_sc{}_f{}_{:08x}{}{}{}.tsv",
        scale(),
        golden_runs(),
        seed(),
        scenario_names.len(),
        fault_names.len(),
        h & 0xffff_ffff,
        nodc,
        nofork,
        shard_tag,
    ))
}

/// Disk-cache location for one scenario's golden baseline. The identity
/// is `(scenario, golden runs, seed)` — exactly the inputs of
/// [`build_baseline`] beyond the (fixed) default cluster.
///
/// Like the campaign TSV cache, the identity does **not** include a code
/// fingerprint: caches under `target/` trust that the simulation code
/// has not changed since they were written. `scripts/verify.sh` clears
/// both cache families up front for exactly that reason; delete
/// `target/mutiny_baseline_*.tsv` by hand after local changes that move
/// golden behavior.
fn baseline_cache_path(sc: Scenario) -> PathBuf {
    cache_dir().join(format!(
        "mutiny_baseline_{}_g{}_seed{}.tsv",
        sc.name(),
        golden_runs(),
        seed()
    ))
}

/// Builds the per-scenario baselines, sharing them across bench targets
/// through a disk cache (same template as the campaign TSV checkpoint:
/// parse-or-rebuild, atomic promote via rename). Before this cache, every
/// bench target whose campaign TSV was cold re-ran `golden_runs × |scenarios|`
/// golden simulations; now the first target to need a baseline pays for
/// it and the other sixteen load it back.
pub fn baselines() -> HashMap<Scenario, Baseline> {
    use mutiny_telemetry::profile::{self, Phase};
    let cluster = ClusterConfig::default();
    let runs = golden_runs();
    let mut out = HashMap::new();
    for sc in scenarios() {
        let path = baseline_cache_path(sc);
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Some(b) = parse_baseline(&text) {
                eprintln!("[mutiny-bench] loaded cached baseline from {}", path.display());
                out.insert(sc, b);
                continue;
            }
            eprintln!("[mutiny-bench] discarding stale baseline cache {}", path.display());
            let _ = std::fs::remove_file(&path);
        }
        let b = profile::time(Phase::Baseline, || build_baseline(&cluster, sc, runs, seed()));
        // Atomic promote: a reader never observes a half-written cache.
        let tmp = path.with_extension("tsv.partial");
        let persisted = std::fs::write(&tmp, render_baseline(&b))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = persisted {
            eprintln!(
                "[mutiny-bench] warning: could not persist baseline cache {}: {e}",
                path.display()
            );
        }
        out.insert(sc, b);
    }
    out
}

/// Generates the full campaign plan — the cross-product of every
/// scenario in [`scenarios`] with every fault family in [`faults`] —
/// subsampled by [`scale`].
pub fn plan() -> Vec<PlannedExperiment> {
    use mutiny_telemetry::profile::{self, Phase};
    profile::time(Phase::Plan, || {
        let cluster = ClusterConfig::default();
        let families = faults();
        let mut rng = Rng::new(seed());
        let mut all = Vec::new();
        for sc in scenarios() {
            let traffic =
                record_fields(&cluster, sc, vec![Channel::ApiToEtcd], seed() ^ 0xF1E1D);
            all.extend(plan_campaign(&traffic, sc, &families, &mut rng));
        }
        let s = scale();
        if s >= 0.999 {
            return all;
        }
        let keep_every = (1.0 / s).round().max(1.0) as usize;
        all.into_iter().enumerate().filter(|(i, _)| i % keep_every == 0).map(|(_, p)| p).collect()
    })
}

/// True when `rows` is exactly the result prefix of `plan` (same
/// scenarios, same specs, in order) — the safety check before resuming
/// from a checkpoint written by an interrupted campaign.
fn rows_are_plan_prefix(rows: &CampaignResults, plan: &[PlannedExperiment]) -> bool {
    rows.len() <= plan.len()
        && rows.rows.iter().zip(plan).all(|(row, planned)| {
            row.scenario == planned.scenario
                && row.fault == planned.fault
                && row.spec == planned.spec
        })
}

/// Parses checkpoint text, tolerating a torn trailing row.
///
/// A process killed mid-flush leaves the `.partial` file ending in an
/// incomplete line (every complete flush is newline-terminated), so only
/// the bytes past the last `\n` can be torn — they are dropped and the
/// well-formed prefix is kept. Returns the parsed prefix rows plus the
/// byte length of that prefix, so the caller can truncate the file back
/// to a clean flush boundary before appending. A malformed line *inside*
/// the newline-terminated prefix is not tearing — the checkpoint is
/// corrupt/stale and `None` tells the caller to discard it.
fn parse_checkpoint(text: &str) -> Option<(CampaignResults, usize)> {
    let clean = match text.rfind('\n') {
        Some(i) => &text[..=i],
        None => "", // a single torn line: no clean prefix at all
    };
    let rows = parse_rows(clean)?;
    Some((rows, clean.len()))
}

/// The campaign results: loaded from the TSV cache when present, executed
/// otherwise. Execution checkpoints every [`checkpoint_rows`] finished
/// experiments to `<cache>.partial` — killing the process mid-campaign
/// loses at most one chunk (a torn trailing row is truncated away on
/// resume), and the next call resumes from the checkpoint (rows are
/// index-deterministic, so a resumed campaign is byte-identical to an
/// uninterrupted one). The finished checkpoint is atomically renamed to
/// the final cache. Checkpoint IO failures never abort the campaign:
/// they downgrade to warnings and the run completes in memory.
pub fn campaign() -> CampaignResults {
    let path = cache_path();
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Some(results) = parse_rows(&text) {
            eprintln!("[mutiny-bench] loaded {} cached rows from {}", results.len(), path.display());
            return results;
        }
    }
    let cluster = ClusterConfig::default();
    // Plan the full cross-product, then keep only this process's residue
    // class (no shard: the identity transform). Sharded rows are the
    // exact rows the unsharded campaign would produce at those indices.
    let plan = shard_plan(plan());
    let partial_path = path.with_extension("tsv.partial");

    // Resume from a checkpoint when its rows match the plan prefix.
    let mut done = CampaignResults::default();
    if let Ok(text) = std::fs::read_to_string(&partial_path) {
        match parse_checkpoint(&text) {
            Some((rows, clean_len)) if rows_are_plan_prefix(&rows, &plan) => {
                if clean_len < text.len() {
                    // Torn tail from a kill mid-flush: truncate back to
                    // the last complete row so appended chunks produce a
                    // byte-identical final cache.
                    eprintln!(
                        "[mutiny-bench] truncating torn checkpoint tail ({} bytes)",
                        text.len() - clean_len
                    );
                    let truncated = std::fs::OpenOptions::new()
                        .write(true)
                        .open(&partial_path)
                        .and_then(|f| f.set_len(clean_len as u64));
                    if truncated.is_err() {
                        eprintln!(
                            "[mutiny-bench] discarding untruncatable checkpoint {}",
                            partial_path.display()
                        );
                        let _ = std::fs::remove_file(&partial_path);
                        done = CampaignResults::default();
                    } else {
                        done = rows;
                    }
                } else {
                    done = rows;
                }
                if !done.is_empty() {
                    eprintln!(
                        "[mutiny-bench] resuming from checkpoint: {}/{} rows already done",
                        done.len(),
                        plan.len()
                    );
                }
            }
            _ => {
                eprintln!("[mutiny-bench] discarding stale checkpoint {}", partial_path.display());
                let _ = std::fs::remove_file(&partial_path);
            }
        }
    }

    // The checkpoint file is best-effort: an IO error mid-campaign must
    // not abort thousands of finished experiments, so failures disable
    // further checkpointing (and the final promote falls back to a
    // direct write of the in-memory rows).
    let can_promote;
    if done.len() < plan.len() {
        eprintln!(
            "[mutiny-bench] building baselines ({} golden runs × {} scenarios)…",
            golden_runs(),
            scenarios().len()
        );
        let baselines = baselines();
        eprintln!(
            "[mutiny-bench] running {} injection experiments (scale {})…",
            plan.len() - done.len(),
            scale()
        );
        let t = std::time::Instant::now();
        let chunk = checkpoint_rows();
        let mut checkpoint = match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&partial_path)
        {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!(
                    "[mutiny-bench] warning: cannot open campaign checkpoint {}: {e}; \
                     continuing without checkpointing",
                    partial_path.display()
                );
                None
            }
        };
        while done.len() < plan.len() {
            let start = done.len();
            let end = (start + chunk).min(plan.len());
            let part = run_campaign_range(
                &cluster,
                &plan,
                &baselines,
                seed(),
                start..end,
                exec::default_threads(end - start),
            );
            if let Some(f) = checkpoint.as_mut() {
                let flushed =
                    f.write_all(render_rows(&part).as_bytes()).and_then(|()| f.flush());
                if let Err(e) = flushed {
                    eprintln!(
                        "[mutiny-bench] warning: campaign checkpoint write failed: {e}; \
                         continuing without checkpointing"
                    );
                    checkpoint = None;
                }
            }
            done.merge(part);
            eprintln!("[mutiny-bench] checkpoint: {}/{} rows", done.len(), plan.len());
        }
        eprintln!("[mutiny-bench] campaign finished in {:?}", t.elapsed());
        can_promote = checkpoint.is_some();
    } else {
        // The checkpoint already held every row (read and parsed above);
        // it is the finished campaign.
        can_promote = true;
    }

    // Promote the finished checkpoint to the final cache — but only when
    // every chunk actually reached it; a checkpoint abandoned after an IO
    // error is a prefix, and renaming it would cache a truncated
    // campaign. The fallback writes the in-memory rows directly, and the
    // partial is only removed once the final cache actually holds them —
    // on a full disk the checkpoint is the sole persisted progress.
    let promoted = can_promote && std::fs::rename(&partial_path, &path).is_ok();
    if !promoted {
        let wrote = std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(render_rows(&done).as_bytes()));
        match wrote {
            Ok(()) => {
                let _ = std::fs::remove_file(&partial_path);
            }
            Err(e) => eprintln!(
                "[mutiny-bench] warning: could not write campaign cache {}: {e}; \
                 keeping the checkpoint for the next run",
                path.display()
            ),
        }
    }
    export_traces_if_requested();
    mutiny_telemetry::export::export_if_requested();
    done
}

/// Exports golden-run traces when `MUTINY_TRACE_EXPORT=<dir>` is set:
/// one recorded golden run (at the campaign seed) per selected scenario,
/// written as `<dir>/<scenario>.trace`. Replay scenarios (`trace-*`) are
/// skipped — re-recording a replay adds nothing and would shadow its own
/// source file. Runs once per process; [`campaign`] calls it after the
/// rows are available, so `MUTINY_TRACE_EXPORT=traces cargo bench` on
/// any campaign bench leaves the trace files behind even on a warm
/// cache.
///
/// # Panics
///
/// Panics when a trace cannot be written — a silently missing export
/// would break the replay leg that consumes it.
pub fn export_traces_if_requested() {
    static ONCE: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    ONCE.get_or_init(|| {
        let Ok(dir) = std::env::var("MUTINY_TRACE_EXPORT") else {
            return;
        };
        let dir = PathBuf::from(dir);
        let cluster = ClusterConfig::default();
        for sc in scenarios() {
            if sc.name().starts_with("trace-") {
                continue;
            }
            let path = mutiny_trace::export_scenario(&cluster, sc, seed(), &dir)
                .unwrap_or_else(|e| panic!("MUTINY_TRACE_EXPORT: {}: {e}", sc.name()));
            eprintln!("[mutiny-bench] exported trace {}", path.display());
        }
    });
}

// --- baseline (de)serialization --------------------------------------------
//
// Golden baselines must round-trip exactly: z-scores are computed against
// `avg_response` and `golden_maes`, so a lossy float would shift every
// classification in the benches that load the cache instead of building.
// Rust's `{}` float formatting is shortest-round-trip, and `parse::<f64>`
// restores the identical bit pattern.

/// Renders a [`Baseline`] in the line-oriented baseline cache schema.
/// Public so the trace round-trip tests can assert that a replayed run's
/// baseline is byte-identical to its recorded source, not just equal.
pub fn render_baseline(b: &Baseline) -> String {
    fn floats(out: &mut String, name: &str, vs: &[f64]) {
        out.push_str(name);
        out.push('\t');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    let mut out = String::from("mutiny-baseline-v2\n");
    floats(&mut out, "avg_response", &b.avg_response);
    floats(&mut out, "golden_maes", &b.golden_maes);
    floats(&mut out, "golden_worst_startup", &b.golden_worst_startup);
    floats(&mut out, "golden_last_creation", &b.golden_last_creation);
    out.push_str("expected_ready");
    for (k, v) in &b.expected_ready {
        out.push_str(&format!("\t{}={v}", escape(k)));
    }
    out.push('\n');
    out.push_str("expected_endpoints");
    for (k, v) in &b.expected_endpoints {
        out.push_str(&format!("\t{}={v}", escape(k)));
    }
    out.push('\n');
    out.push_str(&format!("expected_pods_created\t{}\n", b.expected_pods_created));
    out.push_str(&format!("golden_pods_created_max\t{}\n", b.golden_pods_created_max));
    out.push_str(&format!("expected_dns_ready\t{}\n", b.expected_dns_ready));
    out.push_str(&format!("golden_settle_ms\t{}\n", b.golden_settle_ms));
    out
}

/// Parses the baseline cache schema; `None` on any mismatch (the caller
/// rebuilds from golden runs, exactly like a stale campaign checkpoint).
pub fn parse_baseline(text: &str) -> Option<Baseline> {
    let mut lines = text.lines();
    if lines.next()? != "mutiny-baseline-v2" {
        return None;
    }
    fn floats(line: &str, name: &str) -> Option<Vec<f64>> {
        let rest = line.strip_prefix(name)?;
        if rest.is_empty() {
            return Some(Vec::new()); // field present, no samples
        }
        let rest = rest.strip_prefix('\t')?;
        if rest.is_empty() {
            return Some(Vec::new());
        }
        rest.split(' ').map(|v| v.parse().ok()).collect()
    }
    fn map_entries<V: std::str::FromStr>(
        line: &str,
        name: &str,
    ) -> Option<std::collections::BTreeMap<String, V>> {
        let rest = line.strip_prefix(name)?;
        let mut out = std::collections::BTreeMap::new();
        for pair in rest.split('\t').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=')?;
            out.insert(unescape(k), v.parse().ok()?);
        }
        Some(out)
    }
    let b = Baseline {
        avg_response: floats(lines.next()?, "avg_response")?,
        golden_maes: floats(lines.next()?, "golden_maes")?,
        golden_worst_startup: floats(lines.next()?, "golden_worst_startup")?,
        golden_last_creation: floats(lines.next()?, "golden_last_creation")?,
        expected_ready: map_entries(lines.next()?, "expected_ready")?,
        expected_endpoints: map_entries(lines.next()?, "expected_endpoints")?,
        expected_pods_created: lines.next()?.strip_prefix("expected_pods_created\t")?.parse().ok()?,
        golden_pods_created_max: lines
            .next()?
            .strip_prefix("golden_pods_created_max\t")?
            .parse()
            .ok()?,
        expected_dns_ready: lines.next()?.strip_prefix("expected_dns_ready\t")?.parse().ok()?,
        golden_settle_ms: lines.next()?.strip_prefix("golden_settle_ms\t")?.parse().ok()?,
    };
    if lines.next().is_some() {
        return None; // trailing garbage: treat as stale
    }
    Some(b)
}

// --- TSV (de)serialization -------------------------------------------------
//
// The injection *point* must round-trip exactly: the ablation and Figure 5
// benches replay specs taken from cached rows, and a lossy reconstruction
// would silently replay different faults than the campaign measured.

fn escape(s: &str) -> String {
    s.replace('%', "%25").replace('\t', "%09").replace('\n', "%0A")
}

fn unescape(s: &str) -> String {
    s.replace("%0A", "\n").replace("%09", "\t").replace("%25", "%")
}

fn render_point(point: &InjectionPoint) -> String {
    use protowire::reflect::Value;
    match point {
        InjectionPoint::Drop => "drop".to_owned(),
        InjectionPoint::Delay { hold_ms } => format!("delay:{hold_ms}"),
        InjectionPoint::Duplicate { echo_ms } => format!("dup:{echo_ms}"),
        InjectionPoint::Partition { from_off, dur_ms } => {
            format!("partition:{from_off}:{dur_ms}")
        }
        InjectionPoint::Crash { from_off, dur_ms } => format!("crash:{from_off}:{dur_ms}"),
        InjectionPoint::Config { defect, param } => {
            format!("config:{}:{param}", escape(defect))
        }
        InjectionPoint::Storage { op, from_off, dur_ms, replica, param } => {
            format!("storage:{op}:{from_off}:{dur_ms}:{replica}:{param}")
        }
        InjectionPoint::ProtoByte { byte_frac, bit } => format!("proto:{byte_frac}:{bit}"),
        InjectionPoint::Field { path, mutation } => {
            let m = match mutation {
                FieldMutation::FlipIntBit(b) => format!("flipint:{b}"),
                FieldMutation::FlipStringChar(i) => format!("flipchar:{i}"),
                FieldMutation::FlipBool => "flipbool".to_owned(),
                FieldMutation::Set(Value::Int(v)) => format!("set-int:{v}"),
                FieldMutation::Set(Value::Bool(v)) => format!("set-bool:{v}"),
                FieldMutation::Set(Value::Str(s)) => format!("set-str:{}", escape(s)),
            };
            format!("field:{}:{m}", escape(path))
        }
    }
}

fn parse_point(s: &str) -> Option<InjectionPoint> {
    use protowire::reflect::Value;
    if s == "drop" {
        return Some(InjectionPoint::Drop);
    }
    if let Some(ms) = s.strip_prefix("delay:") {
        return Some(InjectionPoint::Delay { hold_ms: ms.parse().ok()? });
    }
    if let Some(ms) = s.strip_prefix("dup:") {
        return Some(InjectionPoint::Duplicate { echo_ms: ms.parse().ok()? });
    }
    if let Some(rest) = s.strip_prefix("partition:") {
        let (from, dur) = rest.split_once(':')?;
        return Some(InjectionPoint::Partition {
            from_off: from.parse().ok()?,
            dur_ms: dur.parse().ok()?,
        });
    }
    if let Some(rest) = s.strip_prefix("crash:") {
        let (from, dur) = rest.split_once(':')?;
        return Some(InjectionPoint::Crash {
            from_off: from.parse().ok()?,
            dur_ms: dur.parse().ok()?,
        });
    }
    if let Some(rest) = s.strip_prefix("config:") {
        // The param is the last `:`-separated piece; the defect class
        // itself never contains raw colons after escaping, but rsplit
        // keeps third-party defect names safe anyway.
        let (defect, param) = rest.rsplit_once(':')?;
        return Some(InjectionPoint::Config {
            defect: unescape(defect),
            param: param.parse().ok()?,
        });
    }
    if let Some(rest) = s.strip_prefix("storage:") {
        let mut parts = rest.split(':');
        let op = match parts.next()? {
            "disk-full" => StorageOp::DiskFull,
            "compaction-pressure" => StorageOp::CompactionPressure,
            "corrupt-at-rest" => StorageOp::CorruptAtRest,
            "inconsistent-view" => StorageOp::InconsistentView,
            _ => return None,
        };
        let point = InjectionPoint::Storage {
            op,
            from_off: parts.next()?.parse().ok()?,
            dur_ms: parts.next()?.parse().ok()?,
            replica: parts.next()?.parse().ok()?,
            param: parts.next()?.parse().ok()?,
        };
        if parts.next().is_some() {
            return None;
        }
        return Some(point);
    }
    if let Some(rest) = s.strip_prefix("proto:") {
        let (frac, bit) = rest.split_once(':')?;
        return Some(InjectionPoint::ProtoByte {
            byte_frac: frac.parse().ok()?,
            bit: bit.parse().ok()?,
        });
    }
    let rest = s.strip_prefix("field:")?;
    let (path, m) = rest.split_once(':')?;
    let path = unescape(path);
    let mutation = if let Some(b) = m.strip_prefix("flipint:") {
        FieldMutation::FlipIntBit(b.parse().ok()?)
    } else if let Some(i) = m.strip_prefix("flipchar:") {
        FieldMutation::FlipStringChar(i.parse().ok()?)
    } else if m == "flipbool" {
        FieldMutation::FlipBool
    } else if let Some(v) = m.strip_prefix("set-int:") {
        FieldMutation::Set(Value::Int(v.parse().ok()?))
    } else if let Some(v) = m.strip_prefix("set-bool:") {
        FieldMutation::Set(Value::Bool(v.parse().ok()?))
    } else if let Some(v) = m.strip_prefix("set-str:") {
        FieldMutation::Set(Value::Str(unescape(v)))
    } else {
        return None;
    };
    Some(InjectionPoint::Field { path, mutation })
}

/// Renders campaign rows in the TSV cache schema (one line per row).
/// Public so the acceptance tests can assert byte-identity of the TSV
/// across worker counts, not just row equality.
pub fn render_rows(results: &CampaignResults) -> String {
    let mut out = String::new();
    for r in &results.rows {
        // z uses Rust's shortest round-trip float formatting: resuming
        // from a checkpoint re-parses flushed rows, and they must equal
        // the freshly computed ones exactly. The fault-family name and
        // the channel ride along so non-wire families (whose specs may
        // target any channel) round-trip exactly. Config rows carry a
        // 13th defect-class column; it is re-derived from the point on
        // parse, so pre-config 12-column caches still load and re-render
        // byte-identically.
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.scenario.name(),
            r.fault.name(),
            r.of.label(),
            r.cf.label(),
            r.z,
            r.fired,
            r.activated,
            r.user_error,
            render_point(&r.spec.point),
            r.spec.channel,
            r.spec.kind,
            r.spec.occurrence,
        ));
        if let InjectionPoint::Config { defect, .. } = &r.spec.point {
            out.push('\t');
            out.push_str(&escape(defect));
        }
        out.push('\n');
    }
    out
}

fn parse_rows(text: &str) -> Option<CampaignResults> {
    let mut rows = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        // 12 columns pre-config; config rows append a 13th defect-class
        // column, ignored on parse (re-derived from the point).
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 12 && f.len() != 13 {
            return None;
        }
        let scenario = registry::find(f[0])?;
        let fault = fault_registry::find(f[1])?;
        let of = OrchestratorFailure::ALL.iter().copied().find(|o| o.label() == f[2])?;
        let cf = ClientFailure::ALL.iter().copied().find(|c| c.label() == f[3])?;
        let point = parse_point(f[8])?;
        let path = match &point {
            InjectionPoint::Field { path, .. } => Some(path.clone()),
            _ => None,
        };
        let channel = ChannelId::parse(f[9])?;
        let kind = Kind::parse(f[10])?;
        let occurrence: u32 = f[11].parse().ok()?;
        rows.push(CampaignRow {
            scenario,
            spec: InjectionSpec { channel, kind, point, occurrence },
            fault,
            of,
            cf,
            z: f[4].parse().ok()?,
            fired: f[5] == "true",
            activated: f[6] == "true",
            user_error: f[7] == "true",
            path,
        });
    }
    Some(CampaignResults { rows })
}

/// Round-trips the TSV cache (exercised by unit tests). The spec must
/// survive exactly: ablation and replay benches re-run cached specs.
pub fn roundtrip_check(results: &CampaignResults) -> bool {
    parse_rows(&render_rows(results))
        .map(|r| {
            r.len() == results.len()
                && r.rows.iter().zip(&results.rows).all(|(a, b)| {
                    a.scenario == b.scenario
                        && a.fault == b.fault
                        && a.of == b.of
                        && a.cf == b.cf
                        && a.path == b.path
                        && a.spec == b.spec
                })
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_roundtrip_preserves_rows() {
        use protowire::reflect::Value;
        let row = |spec: InjectionSpec, fault: Fault| CampaignRow {
            scenario: mutiny_scenarios::DEPLOY,
            path: match &spec.point {
                InjectionPoint::Field { path, .. } => Some(path.clone()),
                _ => None,
            },
            spec,
            fault,
            of: OrchestratorFailure::Sta,
            cf: ClientFailure::Su,
            z: 12.5,
            fired: true,
            activated: false,
            user_error: true,
        };
        let spec = |point| InjectionSpec {
            channel: Channel::ApiToEtcd.into(),
            kind: Kind::Pod,
            point,
            occurrence: 3,
        };
        let kcm_spec = |point| InjectionSpec {
            channel: Channel::KcmToApi.into(),
            kind: Kind::Lease,
            point,
            occurrence: 1,
        };
        let rows = vec![
            row(spec(InjectionPoint::Drop), mutiny_faults::DROP),
            row(
                spec(InjectionPoint::ProtoByte { byte_frac: 0.375, bit: 6 }),
                mutiny_faults::BIT_FLIP,
            ),
            row(
                spec(InjectionPoint::Field {
                    path: "spec.template.metadata.labels['app']".into(),
                    mutation: FieldMutation::FlipStringChar(1),
                }),
                mutiny_faults::BIT_FLIP,
            ),
            row(
                spec(InjectionPoint::Field {
                    path: "spec.replicas".into(),
                    mutation: FieldMutation::FlipIntBit(4),
                }),
                mutiny_faults::BIT_FLIP,
            ),
            row(
                spec(InjectionPoint::Field {
                    path: "spec.nodeName".into(),
                    mutation: FieldMutation::Set(Value::Str("ghost node\twith%escapes".into())),
                }),
                mutiny_faults::VALUE_SET,
            ),
            row(
                spec(InjectionPoint::Field {
                    path: "spec.paused".into(),
                    mutation: FieldMutation::FlipBool,
                }),
                mutiny_faults::BIT_FLIP,
            ),
            // The new families round-trip too, including non-store
            // channels (the channel column exists for exactly this).
            row(spec(InjectionPoint::Delay { hold_ms: 3_000 }), mutiny_faults::DELAY),
            row(spec(InjectionPoint::Duplicate { echo_ms: 1_500 }), mutiny_faults::DUPLICATE),
            row(
                spec(InjectionPoint::Partition { from_off: 2_000, dur_ms: 4_000 }),
                mutiny_faults::PARTITION,
            ),
            row(
                kcm_spec(InjectionPoint::Crash { from_off: 2_000, dur_ms: 6_000 }),
                mutiny_faults::CRASH_RESTART,
            ),
        ];
        let results = CampaignResults { rows };
        assert!(roundtrip_check(&results));
    }

    #[test]
    fn node_scoped_rows_roundtrip_and_old_caches_still_parse() {
        // Node-level family rows carry `class@node` in the channel
        // column and must survive the cache round-trip exactly.
        let node_row = |fault: Fault, node: &str, point| CampaignRow {
            scenario: mutiny_scenarios::DEPLOY,
            spec: InjectionSpec {
                channel: ChannelId::node_scoped(Channel::KubeletToApi, node),
                kind: Kind::Node,
                point,
                occurrence: 1,
            },
            fault,
            of: OrchestratorFailure::Tim,
            cf: ClientFailure::Nsi,
            z: 1.5,
            fired: true,
            activated: false,
            user_error: false,
            path: None,
        };
        let results = CampaignResults {
            rows: vec![
                node_row(
                    mutiny_faults::KUBELET_CRASH_RESTART,
                    "w3",
                    InjectionPoint::Crash { from_off: 2_500, dur_ms: 60_000 },
                ),
                node_row(
                    mutiny_faults::NODE_PARTITION,
                    "w1",
                    InjectionPoint::Partition { from_off: 2_000, dur_ms: 8_000 },
                ),
            ],
        };
        let text = render_rows(&results);
        assert!(text.contains("\tkubelet->apiserver@w3\t"), "node column missing: {text}");
        assert!(roundtrip_check(&results));

        // A cache written before per-node channel identity existed keeps
        // the bare class in the channel column; it must still parse, to
        // a class-wide wire.
        let old_cache = "deploy\tdrop\tNo\tNSI\t0\ttrue\tfalse\tfalse\tdrop\tapiserver->etcd\tPod\t1\n";
        let parsed = parse_rows(old_cache).expect("pre-node cache line must parse");
        assert_eq!(parsed.len(), 1);
        let spec = &parsed.rows[0].spec;
        assert_eq!(spec.channel, ChannelId::class_wide(Channel::ApiToEtcd));
        assert_eq!(spec.channel.node(), None);
        // And re-rendering it emits the identical historical key.
        assert_eq!(render_rows(&parsed), old_cache);
    }

    #[test]
    fn storage_rows_roundtrip_with_op_encoding() {
        // Storage rows encode the whole injection point in the point
        // column (`storage:<op>:<from>:<dur>:<replica>:<param>`); every
        // op must survive the cache round-trip and re-render
        // byte-identically — ablation replays cached specs verbatim.
        let row = |fault: Fault, op, dur_ms, param| CampaignRow {
            scenario: mutiny_scenarios::DEPLOY,
            spec: InjectionSpec {
                channel: Channel::ApiToEtcd.into(),
                kind: Kind::Pod,
                point: InjectionPoint::Storage { op, from_off: 2_250, dur_ms, replica: 1, param },
                occurrence: 1,
            },
            fault,
            of: OrchestratorFailure::Sta,
            cf: ClientFailure::Su,
            z: 4.0,
            fired: true,
            activated: false,
            user_error: false,
            path: None,
        };
        let results = CampaignResults {
            rows: vec![
                row(mutiny_faults::ETCD_DISK_FULL, StorageOp::DiskFull, 10_000, 0),
                row(mutiny_faults::ETCD_COMPACTION_PRESSURE, StorageOp::CompactionPressure, 8_000, 0),
                row(mutiny_faults::ETCD_CORRUPT_AT_REST, StorageOp::CorruptAtRest, 0, 7),
                row(mutiny_faults::ETCD_INCONSISTENT_VIEW, StorageOp::InconsistentView, 6_000, 0),
            ],
        };
        let text = render_rows(&results);
        assert!(
            text.contains("\tstorage:disk-full:2250:10000:1:0\t"),
            "storage point encoding missing: {text}"
        );
        assert!(roundtrip_check(&results));
        let reparsed = parse_rows(&text).expect("storage rows must parse");
        assert_eq!(render_rows(&reparsed), text, "storage rows must re-render byte-identically");
    }

    #[test]
    fn config_rows_carry_a_defect_column_and_old_caches_render_unchanged() {
        // Config rows append a 13th defect-class column; it must
        // round-trip and be re-derived from the point.
        let results = CampaignResults {
            rows: vec![CampaignRow {
                scenario: mutiny_scenarios::DEPLOY,
                spec: InjectionSpec {
                    channel: Channel::UserToApi.into(),
                    kind: Kind::Deployment,
                    point: InjectionPoint::Config { defect: "selector".into(), param: 1 },
                    occurrence: 2,
                },
                fault: mutiny_faults::CFG_SELECTOR,
                of: OrchestratorFailure::MoR,
                cf: ClientFailure::Nsi,
                z: 3.5,
                fired: true,
                activated: true,
                user_error: false,
                path: None,
            }],
        };
        let text = render_rows(&results);
        let line = text.lines().next().unwrap();
        assert_eq!(line.split('\t').count(), 13, "defect column missing: {line}");
        assert!(line.ends_with("\tselector"), "defect class not last: {line}");
        assert!(roundtrip_check(&results));
        let reparsed = parse_rows(&text).expect("13-column config row must parse");
        assert_eq!(render_rows(&reparsed), text, "config rows must re-render byte-identically");

        // Every pre-config cache row has 12 columns. A representative
        // set (wire, field, temporal, node-scoped) must parse unchanged
        // and re-render byte-identically — resumed checkpoints from
        // older runs depend on it.
        let old_cache = concat!(
            "deploy\tdrop\tNo\tNSI\t0\ttrue\tfalse\tfalse\tdrop\tapiserver->etcd\tPod\t1\n",
            "deploy\tvalue-set\tSta\tSU\t12.5\ttrue\ttrue\tfalse\t",
            "field:spec.replicas:set-int:0\tapiserver->etcd\tReplicaSet\t3\n",
            "scale\tdelay\tTim\tNSI\t1.5\ttrue\tfalse\tfalse\t",
            "delay:3000\tkcm->apiserver\tLease\t2\n",
            "failover\tnode-partition\tTim\tNSI\t2\ttrue\tfalse\tfalse\t",
            "partition:2000:8000\tkubelet->apiserver@w1\tNode\t1\n",
        );
        let parsed = parse_rows(old_cache).expect("pre-config 12-column rows must parse");
        assert_eq!(parsed.len(), 4);
        assert_eq!(render_rows(&parsed), old_cache);
        // A 14-column row is garbage, not a future schema we understand.
        assert!(parse_rows("a\tb\tc\td\te\tf\tg\th\ti\tj\tk\tl\tm\tn\n").is_none());
    }

    #[test]
    fn point_serialization_is_exact() {
        use protowire::reflect::Value;
        for point in [
            InjectionPoint::Drop,
            InjectionPoint::Delay { hold_ms: 12_345 },
            InjectionPoint::Duplicate { echo_ms: 1 },
            InjectionPoint::Partition { from_off: 0, dur_ms: 4_000 },
            InjectionPoint::Crash { from_off: 2_000, dur_ms: 6_000 },
            InjectionPoint::Config { defect: "resources".into(), param: 2 },
            InjectionPoint::Config { defect: "odd%class\twith:colons".into(), param: -1 },
            InjectionPoint::ProtoByte { byte_frac: 0.123456789, bit: 7 },
            InjectionPoint::Field {
                path: "metadata.labels['k8s-app']".into(),
                mutation: FieldMutation::Set(Value::Str(String::new())),
            },
            InjectionPoint::Field {
                path: "spec.replicas".into(),
                mutation: FieldMutation::Set(Value::Int(-7)),
            },
            InjectionPoint::Field {
                path: "spec.paused".into(),
                mutation: FieldMutation::Set(Value::Bool(true)),
            },
        ] {
            assert_eq!(parse_point(&render_point(&point)), Some(point.clone()), "{point:?}");
        }
    }

    #[test]
    fn baseline_cache_roundtrips_exactly() {
        let mut b = Baseline::default();
        b.avg_response = vec![0.1 + 0.2, 123.456789012345, f64::MIN_POSITIVE, 0.0, 1e308];
        b.golden_maes = vec![1.5, 2.25];
        b.golden_worst_startup = vec![1250.0];
        b.golden_last_creation = Vec::new(); // empty series must survive
        b.expected_ready.insert("web-1".into(), 2);
        b.expected_ready.insert("web-4".into(), 3);
        b.expected_endpoints.insert("web-1-svc".into(), 2);
        b.expected_pods_created = 12;
        b.golden_pods_created_max = 14;
        b.expected_dns_ready = 1;
        b.golden_settle_ms = 53_000;
        let text = render_baseline(&b);
        let back = parse_baseline(&text).expect("cache must parse");
        // Floats must be bit-exact: z-scores are computed against these.
        assert_eq!(back.avg_response, b.avg_response);
        assert_eq!(back.golden_maes, b.golden_maes);
        assert_eq!(back.golden_worst_startup, b.golden_worst_startup);
        assert_eq!(back.golden_last_creation, b.golden_last_creation);
        assert_eq!(back.expected_ready, b.expected_ready);
        assert_eq!(back.expected_endpoints, b.expected_endpoints);
        assert_eq!(back.expected_pods_created, b.expected_pods_created);
        assert_eq!(back.golden_pods_created_max, b.golden_pods_created_max);
        assert_eq!(back.expected_dns_ready, b.expected_dns_ready);
        assert_eq!(back.golden_settle_ms, b.golden_settle_ms);
        // Corrupt or versioned-away caches are rejected, not misparsed.
        assert!(parse_baseline("mutiny-baseline-v999\n").is_none());
        assert!(parse_baseline(&text.replace("avg_response", "avg_nonsense")).is_none());
        assert!(parse_baseline(&format!("{text}trailing garbage\n")).is_none());
    }

    #[test]
    fn torn_checkpoint_tail_is_detected_and_dropped() {
        let row = CampaignRow {
            scenario: mutiny_scenarios::DEPLOY,
            spec: InjectionSpec {
                channel: Channel::ApiToEtcd.into(),
                kind: Kind::Pod,
                point: InjectionPoint::Drop,
                occurrence: 3,
            },
            fault: mutiny_faults::DROP,
            of: OrchestratorFailure::Sta,
            cf: ClientFailure::Su,
            z: 12.5,
            fired: true,
            activated: false,
            user_error: true,
            path: None,
        };
        let results = CampaignResults { rows: vec![row.clone(), row.clone(), row] };
        let text = render_rows(&results);

        // Intact checkpoint: all rows, clean length = full length.
        let (rows, clean) = parse_checkpoint(&text).expect("intact checkpoint parses");
        assert_eq!(rows.len(), 3);
        assert_eq!(clean, text.len());

        // Kill mid-flush: the trailing row is cut mid-line. The two
        // complete rows survive and the clean length points at the last
        // newline, wherever the tear lands inside the final row.
        let second_nl = text
            .char_indices()
            .filter(|&(_, c)| c == '\n')
            .nth(1)
            .map(|(i, _)| i)
            .expect("three rows have three newlines");
        for torn_end in [second_nl + 2, text.len() - 1] {
            let torn = &text[..torn_end];
            let (rows, clean) = parse_checkpoint(torn).expect("torn tail must not poison prefix");
            assert_eq!(rows.len(), 2, "torn at byte {torn_end}");
            assert_eq!(clean, second_nl + 1);
            assert_eq!(render_rows(&rows), text[..clean], "prefix must re-render identically");
        }

        // A tear that eats the whole first line leaves nothing.
        let (rows, clean) = parse_checkpoint(&text[..10]).expect("single torn line");
        assert_eq!(rows.len(), 0);
        assert_eq!(clean, 0);

        // Corruption *inside* the newline-terminated prefix is not a torn
        // tail: the whole checkpoint is rejected as stale.
        let corrupt = text.replacen("deploy", "dEploy", 1);
        assert!(parse_checkpoint(&corrupt).is_none());
    }

    #[test]
    fn scale_defaults_are_sane() {
        assert!(scale() > 0.0 && scale() <= 1.0);
        assert!(golden_runs() >= 4);
        assert!(checkpoint_rows() >= 1);
        // The default campaign covers both registries: six scenarios and
        // seven fault families at minimum.
        assert!(scenarios().len() >= 6);
        assert!(faults().len() >= 7);
    }

    #[test]
    fn checkpoint_prefix_check_rejects_drift() {
        let planned = |sc, path: &str| PlannedExperiment {
            scenario: sc,
            fault: mutiny_faults::BIT_FLIP,
            spec: InjectionSpec {
                channel: Channel::ApiToEtcd.into(),
                kind: Kind::Pod,
                point: InjectionPoint::Field {
                    path: path.into(),
                    mutation: FieldMutation::FlipBool,
                },
                occurrence: 1,
            },
        };
        let row_of = |p: &PlannedExperiment| CampaignRow {
            scenario: p.scenario,
            spec: p.spec.clone(),
            fault: p.fault,
            of: OrchestratorFailure::No,
            cf: ClientFailure::Nsi,
            z: 0.0,
            fired: true,
            activated: false,
            user_error: false,
            path: None,
        };
        let plan = vec![
            planned(mutiny_scenarios::DEPLOY, "spec.paused"),
            planned(mutiny_scenarios::NODE_DRAIN, "spec.paused"),
        ];
        let good = CampaignResults { rows: vec![row_of(&plan[0])] };
        assert!(rows_are_plan_prefix(&good, &plan));
        let reordered = CampaignResults { rows: vec![row_of(&plan[1])] };
        assert!(!rows_are_plan_prefix(&reordered, &plan));
        let too_long = CampaignResults {
            rows: vec![row_of(&plan[0]), row_of(&plan[1]), row_of(&plan[0])],
        };
        assert!(!rows_are_plan_prefix(&too_long, &plan));
    }
}
