//! Untraced runs: the campaign as users run it, timed from outside.

use crate::probe;
use k8s_cluster::ClusterConfig;
use mutiny_core::campaign::{
    run_campaign_range_with_fork, run_campaign_with_threads_fork, CampaignResults, CampaignRow,
    PlannedExperiment,
};
use mutiny_core::golden::Baseline;
use mutiny_scenarios::Scenario;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One pass over the whole plan at one worker.
pub struct Pass {
    /// One slot per planned experiment, in plan order; `None` when the
    /// experiment panicked or returned no row.
    pub rows: Vec<Option<CampaignRow>>,
    /// Host time of each experiment's call, in plan order (ms).
    pub times_ms: Vec<f64>,
    /// Wall time of the whole pass, less the host probe runs (s).
    pub wall_s: f64,
    /// Host probe runs between experiments: the number of experiments
    /// run before each and its time (ms); see [`crate::probe`].
    pub probes: Vec<(usize, f64)>,
}

impl Pass {
    /// Experiments that panicked or returned no row.
    pub fn failed(&self) -> usize {
        self.rows.iter().filter(|r| r.is_none()).count()
    }
}

/// The finished rows of a set of slots, in plan order.
pub fn results(rows: &[Option<CampaignRow>]) -> CampaignResults {
    CampaignResults {
        rows: rows.iter().flatten().cloned().collect(),
    }
}

/// Runs `f` on a fresh thread and returns its result. The campaign keeps
/// its fork-the-world snapshots in a thread-local cache, so a fresh
/// thread makes every pass build its snapshots again, as a user's
/// campaign does.
pub fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(f)
            .join()
            .expect("pass thread panicked outside an experiment")
    })
}

/// Runs every planned experiment once, at one worker, in plan order (as
/// the campaign does, so each scenario's fork snapshot is built by the
/// same experiment in every run), timing each call into
/// `mutiny_core::campaign`, with host probe runs between experiments
/// ([`probe::INTERVAL_MS`]). Fork-the-world execution is pinned on. A
/// panicking experiment leaves its slot empty and the pass goes on.
pub fn one_worker_pass(
    cluster: &ClusterConfig,
    plan: &[PlannedExperiment],
    baselines: &HashMap<Scenario, Baseline>,
    campaign_seed: u64,
) -> Pass {
    on_fresh_thread(|| {
        let start = Instant::now();
        let mut rows: Vec<Option<CampaignRow>> = vec![None; plan.len()];
        let mut times_ms = Vec::with_capacity(plan.len());
        let mut probes = Vec::new();
        let mut since_probe_ms = 0.0;
        for (i, slot) in rows.iter_mut().enumerate() {
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                run_campaign_range_with_fork(
                    cluster,
                    plan,
                    baselines,
                    campaign_seed,
                    i..i + 1,
                    1,
                    true,
                )
            }));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            times_ms.push(ms);
            since_probe_ms += ms;
            if let Ok(mut res) = out {
                if res.rows.len() == 1 {
                    *slot = res.rows.pop();
                }
            }
            if since_probe_ms >= probe::INTERVAL_MS {
                probes.push((times_ms.len(), probe::run_ms()));
                since_probe_ms = 0.0;
            }
        }
        Pass {
            rows,
            times_ms,
            wall_s: start.elapsed().as_secs_f64() - probes.iter().map(|p| p.1).sum::<f64>() / 1e3,
            probes,
        }
    })
}

/// The whole plan on the campaign's work-stealing executor with
/// `threads` workers. `None` when a worker panicked.
pub fn parallel_run(
    cluster: &ClusterConfig,
    plan: &[PlannedExperiment],
    baselines: &HashMap<Scenario, Baseline>,
    campaign_seed: u64,
    threads: usize,
) -> (Option<CampaignResults>, f64) {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        run_campaign_with_threads_fork(cluster, plan, baselines, campaign_seed, threads, true)
    }));
    (out.ok(), start.elapsed().as_secs_f64())
}

/// The process's resident-memory high-water mark (`VmHWM`), in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
