//! The pinned workloads. Each is a named scenario list × a named fault
//! family list, a plan seed and a fixed selection rule, so registering a
//! new family or scenario in the lab's registries never changes what a
//! workload runs. The expected plan digest and size are pinned too: a
//! change to how the lab records traffic or plans specs shows up as a
//! digest mismatch instead of a silently different workload.

use k8s_cluster::ClusterConfig;
use k8s_model::Channel;
use mutiny_core::campaign::{
    plan_campaign, record_fields, CampaignResults, CampaignRow, PlannedExperiment,
};
use mutiny_core::classify::{ClientFailure, OrchestratorFailure};
use mutiny_core::golden::{build_baseline_with_threads, Baseline};
use mutiny_faults::Fault;
use mutiny_scenarios::Scenario;
use simkit::Rng;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Every built-in scenario, in registry order. All three workloads plan
/// over all six.
pub const SCENARIOS: [&str; 6] = [
    "deploy",
    "scale",
    "failover",
    "rolling-update",
    "node-drain",
    "hpa-autoscale",
];

/// Golden runs per scenario baseline (the throughput bench's value).
pub const GOLDEN_RUNS: usize = 12;

/// One pinned workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Scenario names, in planning order.
    pub scenarios: &'static [&'static str],
    /// Fault family names, in planning order.
    pub families: &'static [&'static str],
    /// Seed of the recording run, the planner and the experiment worlds.
    pub plan_seed: u64,
    /// Selection rule: keep the experiments whose index in the
    /// (scenario, family, spec) cross-product is a multiple of this.
    pub keep_every: usize,
    /// Experiments the rule selects.
    pub experiments: usize,
    /// [`plan_digest`] of the selected plan.
    pub digest: u64,
}

/// The three pinned workloads.
pub const WORKLOADS: [Workload; 3] = [
    // The campaign the paper reports: wire bit-flips, value sets and
    // drops on apiserver→etcd. Small-state experiments set its p50 and
    // the replication storms (selector, template-label and
    // deletionTimestamp faults) set its throughput.
    Workload {
        name: "paper-wire",
        scenarios: &SCENARIOS,
        families: &["bit-flip", "value-set", "drop"],
        plan_seed: 2024,
        keep_every: 36,
        experiments: 252,
        digest: 0x8a41_35c4_9529_994f,
    },
    // Infrastructure faults: every experiment stays small, and the work
    // is per-experiment overhead plus the paths that rebuild state
    // (restart, relist, compaction, recovery).
    Workload {
        name: "infra-faults",
        scenarios: &SCENARIOS,
        families: &[
            "delay",
            "duplicate",
            "partition",
            "crash-restart",
            "kubelet-crash-restart",
            "node-partition",
            "etcd-disk-full",
            "etcd-compaction-pressure",
            "etcd-corrupt-at-rest",
            "etcd-inconsistent-view",
            "cfg-resources",
            "cfg-probe",
            "cfg-grace",
        ],
        plan_seed: 2024,
        keep_every: 1,
        experiments: 390,
        digest: 0x2cac_03fa_3d5f_da64,
    },
    // Admission-time defects that make controllers create pods without
    // bound (the paper's uncontrolled replication): large-state
    // reconcile dominates.
    Workload {
        name: "config-storm",
        scenarios: &SCENARIOS,
        families: &["cfg-selector", "cfg-replicas"],
        plan_seed: 2024,
        keep_every: 1,
        experiments: 32,
        digest: 0x5d90_84c4_d5f3_b5b9,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The pinned cluster configuration: the defaults with the storage
/// engine set explicitly (the default reads `MUTINY_STORAGE`).
pub fn cluster() -> ClusterConfig {
    ClusterConfig {
        storage: etcd_sim::StorageKind::Mem,
        ..ClusterConfig::default()
    }
}

impl Workload {
    /// Resolves the pinned scenario names against the registry.
    ///
    /// # Errors
    ///
    /// Names the first scenario the registry does not know.
    pub fn scenario_handles(&self) -> Result<Vec<Scenario>, String> {
        self.scenarios
            .iter()
            .map(|n| mutiny_scenarios::registry::find(n).ok_or(format!("unknown scenario {n:?}")))
            .collect()
    }

    /// Resolves the pinned family names against the registry.
    ///
    /// # Errors
    ///
    /// Names the first family the registry does not know.
    pub fn family_handles(&self) -> Result<Vec<Fault>, String> {
        self.families
            .iter()
            .map(|n| mutiny_faults::registry::find(n).ok_or(format!("unknown fault family {n:?}")))
            .collect()
    }
}

/// What one set-up produced, with the time of each stage.
pub struct Setup {
    /// The selected plan.
    pub plan: Vec<PlannedExperiment>,
    /// One fresh baseline per scenario.
    pub baselines: HashMap<Scenario, Baseline>,
    /// Seconds spent in `record_fields`.
    pub record_s: f64,
    /// Seconds spent in `plan_campaign`.
    pub plan_s: f64,
    /// Seconds spent building baselines.
    pub golden_s: f64,
}

impl Setup {
    /// Whole set-up time.
    pub fn total_s(&self) -> f64 {
        self.record_s + self.plan_s + self.golden_s
    }
}

/// Records traffic and plans the cross-product for `w` (phases 1 and 2
/// of the campaign), then applies the selection rule.
///
/// # Errors
///
/// When a pinned scenario or family is not registered.
pub fn plan(
    w: &Workload,
    cluster: &ClusterConfig,
) -> Result<(Vec<PlannedExperiment>, f64, f64), String> {
    let scenarios = w.scenario_handles()?;
    let families = w.family_handles()?;
    let mut rng = Rng::new(w.plan_seed);
    let (mut record_s, mut plan_s) = (0.0, 0.0);
    let mut all = Vec::new();
    for sc in scenarios {
        let t = Instant::now();
        let traffic = record_fields(cluster, sc, vec![Channel::ApiToEtcd], w.plan_seed ^ 0xF1E1D);
        record_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        all.extend(plan_campaign(&traffic, sc, &families, &mut rng));
        plan_s += t.elapsed().as_secs_f64();
    }
    let keep = w.keep_every.max(1);
    let plan = all.into_iter().step_by(keep).collect();
    Ok((plan, record_s, plan_s))
}

/// Full set-up: the plan plus a fresh baseline for every scenario, built
/// at one worker from `golden_seed`. Nothing is read from or written to
/// a disk cache.
///
/// # Errors
///
/// When a pinned scenario or family is not registered.
pub fn setup(w: &Workload, cluster: &ClusterConfig, golden_seed: u64) -> Result<Setup, String> {
    let (plan, record_s, plan_s) = plan(w, cluster)?;
    let t = Instant::now();
    let baselines = w
        .scenario_handles()?
        .into_iter()
        .map(|sc| {
            (
                sc,
                build_baseline_with_threads(cluster, sc, GOLDEN_RUNS, golden_seed, 1),
            )
        })
        .collect();
    Ok(Setup {
        plan,
        baselines,
        record_s,
        plan_s,
        golden_s: t.elapsed().as_secs_f64(),
    })
}

/// Digest of a plan: FNV-1a over the plan rendered in the campaign TSV
/// schema with empty outcomes, so it covers scenario, family, channel,
/// kind, point and occurrence of every experiment, in order.
pub fn plan_digest(plan: &[PlannedExperiment]) -> u64 {
    let rows = plan
        .iter()
        .map(|p| CampaignRow {
            scenario: p.scenario,
            spec: p.spec.clone(),
            fault: p.fault,
            of: OrchestratorFailure::No,
            cf: ClientFailure::Nsi,
            z: 0.0,
            fired: false,
            activated: false,
            user_error: false,
            path: None,
        })
        .collect();
    crate::stats::fnv1a(mutiny_bench::render_rows(&CampaignResults { rows }).as_bytes())
}

/// Experiments per family, in family-name order.
pub fn family_counts(plan: &[PlannedExperiment]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for p in plan {
        *counts.entry(p.fault.name()).or_default() += 1;
    }
    counts
}
