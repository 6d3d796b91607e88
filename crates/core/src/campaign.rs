//! The campaign manager: experiment generation, execution and bookkeeping.
//!
//! Implements the workflow of §IV-C / Figure 4: record the fields flowing
//! to the store during a nominal workload, generate the injection plan
//! (the cross-product of the scenario set and the fault-family registry —
//! each [`Fault`] plans its own specs from the recorded traffic), then
//! drive one fresh cluster per experiment, injecting exactly one fault
//! and classifying the outcome.
//!
//! The paper's §IV-C plan (per-field bit-flips and data-type sets at
//! occurrences 1–3, per-kind serialization-byte corruptions, per-kind
//! message drops at occurrences 1–10) is exactly what the three wire
//! built-ins of `mutiny_faults` produce; [`generate_plan`] keeps that
//! paper-faithful subset, [`plan_campaign`] takes an explicit family set.

use crate::classify::{
    classify_client, classify_orchestrator, ClientFailure, OrchestratorFailure, TIM_Z_THRESHOLD,
};
use crate::golden::{build_baseline, Baseline};
use crate::injector::{InjectionRecord, InjectionSpec, Mutiny};
use crate::recorder::{FieldRecorder, RecordedTraffic};
use k8s_apiserver::InterceptorHandle;
use k8s_cluster::{ClusterConfig, World};
use k8s_model::Channel;
use mutiny_faults::{ArmedFault, Fault, FaultActuator, SharedActuator, WorldAction, WIRE_BUILTIN};
use mutiny_scenarios::Scenario;
use simkit::Rng;
use std::cell::RefCell;
use std::rc::Rc;

pub use mutiny_faults::builtin::{
    DROP_OCCURRENCES, FIELD_OCCURRENCES, PROTO_INJECTIONS_PER_KIND,
};

/// Configuration of one injection experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Cluster parameters (including the deterministic seed). The
    /// scenario's topology is applied on top when the world is built.
    pub cluster: ClusterConfig,
    /// Scenario to run (a registry handle).
    pub scenario: Scenario,
    /// The fault to inject; `None` runs a golden experiment.
    pub injection: Option<ArmedFault>,
}

impl ExperimentConfig {
    /// A golden (fault-free) experiment.
    pub fn golden(scenario: Scenario, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            cluster: ClusterConfig { seed, ..ClusterConfig::default() },
            scenario,
            injection: None,
        }
    }

    /// An injection experiment; the fault family is implied by the spec's
    /// point shape (the compatibility path for hand-built specs).
    pub fn injected(scenario: Scenario, seed: u64, spec: InjectionSpec) -> ExperimentConfig {
        ExperimentConfig::injected_fault(scenario, seed, ArmedFault::implied(spec))
    }

    /// An injection experiment with an explicit (family, spec) pair.
    pub fn injected_fault(scenario: Scenario, seed: u64, fault: ArmedFault) -> ExperimentConfig {
        ExperimentConfig {
            cluster: ClusterConfig { seed, ..ClusterConfig::default() },
            scenario,
            injection: Some(fault),
        }
    }
}

/// Everything one experiment produced.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Orchestrator-level failure category.
    pub orchestrator_failure: OrchestratorFailure,
    /// Client-level failure category.
    pub client_failure: ClientFailure,
    /// MAE z-score of the client series against the golden baseline.
    pub z_latency: f64,
    /// The injection record, if the trigger fired.
    pub injected: Option<InjectionRecord>,
    /// True when the injected instance was requested after the injection.
    pub activated: bool,
    /// True when the cluster user received any API error after t0 (F4).
    pub user_saw_error: bool,
    /// Pods created by controllers over the run.
    pub pods_created: u64,
    /// Worst application-pod startup time (ms).
    pub worst_startup_ms: f64,
}

/// Environment variable controlling fork-the-world execution. Any value
/// but `0` (the default is on) makes [`run_world`] snapshot each
/// (scenario, cluster-config) world at `t0` and fork per experiment
/// instead of replaying the fault-free prefix from `t=0`. `MUTINY_FORK=0`
/// is the replay escape hatch `verify.sh` diffs against.
pub const FORK_ENV: &str = "MUTINY_FORK";

/// True when fork-the-world execution is enabled (default: on).
pub fn fork_enabled() -> bool {
    std::env::var(FORK_ENV).map(|v| v != "0").unwrap_or(true)
}

/// Snapshots built (fork-cache misses) since the last reset.
static FORK_SNAPSHOTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// Experiments served by forking an existing snapshot (fork-cache hits).
static FORK_HITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// `(snapshots_built, forks_served)` counters of fork-the-world
/// execution, accumulated across every worker thread since the last
/// [`reset_fork_stats`]. The hit rate is
/// `forks_served / (snapshots_built + forks_served)`.
pub fn fork_stats() -> (u64, u64) {
    (
        FORK_SNAPSHOTS.load(std::sync::atomic::Ordering::Relaxed),
        FORK_HITS.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// Zeroes the fork counters (bench scoping).
pub fn reset_fork_stats() {
    FORK_SNAPSHOTS.store(0, std::sync::atomic::Ordering::Relaxed);
    FORK_HITS.store(0, std::sync::atomic::Ordering::Relaxed);
}

/// Snapshot-cache entries kept per worker thread before the cache is
/// cleared wholesale (campaigns touch one entry per scenario; only
/// config-sweeping tests ever approach the cap).
const SNAPSHOT_CACHE_CAP: usize = 32;

thread_local! {
    /// Per-thread fork-the-world snapshot cache: one `World`, parked at
    /// `t0`, per (scenario, cluster-config) pair. Thread-local because a
    /// `World` is single-threaded by construction (`Rc` throughout); each
    /// campaign worker builds its own prefix once and forks it for every
    /// experiment it steals.
    static SNAPSHOTS: RefCell<std::collections::HashMap<String, World>> =
        RefCell::new(std::collections::HashMap::new());
}

/// Returns a world ready to run the injection window: the cached
/// (scenario, config) prefix — built on first use by running a fault-free
/// world to `t0` — forked onto the experiment's interceptor.
///
/// Soundness: every fault family is inert before its arm time (wire
/// faults pass messages through without counting occurrences, config
/// defects admit unchanged, node faults schedule no actions), so the
/// prefix simulated under a no-op interceptor is byte-identical to the
/// prefix an armed experiment would have simulated itself.
fn forked_prefix(cfg: &ExperimentConfig, handle: InterceptorHandle, profiling: bool) -> World {
    use mutiny_telemetry::profile::{self, Phase};
    SNAPSHOTS.with(|cell| {
        let mut cache = cell.borrow_mut();
        let key = format!("{}\n{:?}", cfg.scenario.name(), cfg.cluster);
        if !cache.contains_key(&key) {
            if cache.len() >= SNAPSHOT_CACHE_CAP {
                cache.clear();
            }
            let timer = profiling.then(std::time::Instant::now);
            let noop: InterceptorHandle = Rc::new(RefCell::new(k8s_model::NoopInterceptor));
            let mut world = cfg.scenario.build_world(&cfg.cluster, noop);
            cfg.scenario.schedule(&mut world);
            let t0 = world.t0();
            world.run_until(t0);
            if let Some(t) = timer {
                profile::add(Phase::GoldenPrefix, t.elapsed());
            }
            FORK_SNAPSHOTS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            cache.insert(key.clone(), world);
        } else {
            FORK_HITS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        // The fork itself replaces the prefix replay, so its (small) cost
        // is attributed to the same phase.
        let timer = profiling.then(std::time::Instant::now);
        let world = cache.get(&key).expect("snapshot just ensured").fork(handle);
        if let Some(t) = timer {
            profile::add(Phase::GoldenPrefix, t.elapsed());
        }
        world
    })
}

/// Runs the full experiment timeline and returns the finished world plus
/// the injection record. Shared by the campaign and the propagation study
/// (§V-C4), which needs post-run access to the store. Honors
/// [`FORK_ENV`]; use [`run_world_with_fork`] to pin the mode explicitly
/// (environment reads are racy across parallel tests).
pub fn run_world(cfg: &ExperimentConfig) -> (World, Option<InjectionRecord>) {
    run_world_with_fork(cfg, fork_enabled())
}

/// [`run_world`] with the execution mode pinned: `fork` snapshots and
/// forks the golden prefix, `!fork` replays it from `t=0`. Both modes
/// produce byte-identical results (see `tests/fork_determinism.rs`).
pub fn run_world_with_fork(
    cfg: &ExperimentConfig,
    fork: bool,
) -> (World, Option<InjectionRecord>) {
    use mutiny_telemetry::profile::{self, Phase};
    // Hoisted once per run: the slice loop below is hot, and profiling
    // is pure wall-clock (`Instant`) — it never touches the sim clock,
    // RNG, or event order, so results are identical with it on or off.
    let profiling = profile::enabled();

    let actuator: Rc<RefCell<Box<dyn FaultActuator>>> =
        Rc::new(RefCell::new(match &cfg.injection {
            Some(armed) => armed.arm(k8s_cluster::WORKLOAD_START_MS),
            None => Box::new(Mutiny::disarmed()),
        }));
    let handle: InterceptorHandle =
        Rc::new(RefCell::new(SharedActuator(Rc::clone(&actuator))));
    let mut world = if fork {
        forked_prefix(cfg, handle, profiling)
    } else {
        let build_timer = profiling.then(std::time::Instant::now);
        let mut world = cfg.scenario.build_world(&cfg.cluster, handle);
        cfg.scenario.schedule(&mut world);
        // Building and scheduling is pre-injection work: part of the
        // golden prefix a fork-the-world snapshot skips.
        if let Some(t) = build_timer {
            profile::add(Phase::GoldenPrefix, t.elapsed());
        }
        world
    };

    // Step the horizon in slices so read-tracking can be armed right
    // after the injection fires (activation analysis, §V-C1), and so
    // infrastructure faults can apply their out-of-band world actions
    // (e.g. the apiserver re-list after a crash window heals).
    let mut tracking_armed = false;
    let horizon = world.horizon();
    let t0 = world.t0();
    while world.now() < horizon {
        // Attribute the slice by where it *starts*: t0 is a multiple of
        // the slice size, so every slice is entirely pre- or post-t0.
        let pre_t0 = world.now() < t0;
        let slice_timer = profiling.then(std::time::Instant::now);
        let next = (world.now() + 250).min(horizon);
        world.run_until(next);
        let now = world.now();
        let actions = actuator.borrow_mut().poll_actions(now);
        for action in actions {
            match action {
                WorldAction::RestartApiserver => world.api.restart(),
                WorldAction::SilenceKubelet(node) => {
                    if let Some(kl) =
                        world.kubelets.iter_mut().find(|k| k.node_name == node)
                    {
                        kl.healthy = false;
                    }
                }
                WorldAction::RestartKubelet(node) => {
                    if let Some(idx) =
                        world.kubelets.iter().position(|k| k.node_name == node)
                    {
                        world.api.set_now(now);
                        let (kubelets, api) = (&mut world.kubelets, &mut world.api);
                        kubelets[idx].restart(api, now);
                    }
                }
                WorldAction::EtcdClampDiskBudget => {
                    world.api.etcd_mut().clamp_disk_budget();
                }
                WorldAction::EtcdRestoreDiskBudget => {
                    world.api.etcd_mut().restore_disk_budget();
                }
                WorldAction::EtcdForceCompaction => world.api.etcd_mut().compact(),
                WorldAction::EtcdCorruptReplica { replica, nth } => {
                    world.api.etcd_mut().corrupt_nth_at_rest(replica as usize, nth as usize);
                }
                WorldAction::EtcdBeginInconsistentView { replica } => {
                    world.api.etcd_mut().begin_inconsistent_view(replica as usize);
                }
                WorldAction::EtcdEndInconsistentView => {
                    world.api.etcd_mut().end_inconsistent_view();
                }
            }
        }
        if !tracking_armed && actuator.borrow().record().is_some() {
            world.api.start_read_tracking();
            tracking_armed = true;
        }
        if let Some(t) = slice_timer {
            let phase = if pre_t0 { Phase::GoldenPrefix } else { Phase::FaultWindow };
            profile::add(phase, t.elapsed());
        }
    }
    let record = actuator.borrow().record().cloned();
    (world, record)
}

/// Runs one experiment against a prebuilt baseline (the campaign path).
pub fn run_experiment_with_baseline(
    cfg: &ExperimentConfig,
    baseline: &Baseline,
) -> ExperimentOutcome {
    run_experiment_with_baseline_fork(cfg, baseline, fork_enabled())
}

/// [`run_experiment_with_baseline`] with the fork-the-world mode pinned.
pub fn run_experiment_with_baseline_fork(
    cfg: &ExperimentConfig,
    baseline: &Baseline,
    fork: bool,
) -> ExperimentOutcome {
    use mutiny_telemetry::profile::{self, Phase};
    let (world, injected) = run_world_with_fork(cfg, fork);
    let classify_timer = profile::enabled().then(std::time::Instant::now);
    let activated = injected
        .as_ref()
        .map(|r| world.api.was_read(&r.key))
        .unwrap_or(false);
    let t0 = world.t0();
    let user_saw_error = world
        .api
        .audit()
        .records()
        .iter()
        .any(|r| r.channel == Channel::UserToApi && r.at >= t0 && r.result.is_err());

    let stats = &world.stats;
    let (client_failure, z_latency) = classify_client(stats, baseline);
    let orchestrator_failure = classify_orchestrator(stats, baseline);
    let startups = stats.startup_times(t0);

    if mutiny_telemetry::metrics_enabled() {
        mutiny_telemetry::timeline::record(mutiny_telemetry::timeline::TimelineRecord {
            scenario: cfg.scenario.name().to_string(),
            fault: cfg
                .injection
                .as_ref()
                .map(|a| a.fault.name())
                .unwrap_or("golden")
                .to_string(),
            timeline: propagation_timeline(&world, injected.as_ref(), Some(baseline)),
        });
    }
    if let Some(t) = classify_timer {
        profile::add(Phase::Classify, t.elapsed());
    }

    ExperimentOutcome {
        orchestrator_failure,
        client_failure,
        z_latency,
        injected,
        activated,
        user_saw_error,
        pods_created: stats.samples.last().map(|s| s.pods_created_cum).unwrap_or(0),
        worst_startup_ms: simkit::stats::max(&startups),
    }
}

/// True when a gauge sample shows none of the robust failure signals.
/// Only signals that stay quiet during the golden workload ramp qualify
/// (a half-ready deployment mid-rollout is *normal* before the tail), so
/// divergence timestamps never fire on healthy startup transients.
fn sample_clean(s: &k8s_cluster::MetricsSample) -> bool {
    !s.etcd_stalled && s.nodes_not_ready == 0 && !s.netpods_failed
}

/// One gauge-sample period (ms): absorbs seed-to-seed settling jitter
/// when comparing an experiment run against the golden settle deadline.
const SETTLE_SLACK_MS: u64 = 3_000;

/// Sim-times (at/after `inj`) where a per-deployment readiness gauge or
/// per-service endpoint count sat below the baseline's steady-state
/// expectation *after* the golden settle deadline — the "deployment
/// degraded / underreplicated" alert a real monitoring stack fires. The
/// deadline gate keeps the signal quiet on every healthy trajectory by
/// construction (no golden run is below expectation past it), including
/// scenarios whose healthy runs churn replicas mid-flight
/// (rolling-update, failover, node-drain), while still catching victims
/// that never converge at all — the signature wire-fault damage.
fn readiness_shortfalls(
    stats: &k8s_cluster::RunStats,
    baseline: &Baseline,
    inj: u64,
    mut note: impl FnMut(u64),
) {
    let deadline = baseline.golden_settle_ms.saturating_add(SETTLE_SLACK_MS);
    for s in &stats.samples {
        if s.at < inj || s.at <= deadline {
            continue;
        }
        let ready_below = baseline
            .expected_ready
            .iter()
            .any(|(k, &want)| s.app_ready.get(k).copied().unwrap_or(0) < want);
        let ep_below = baseline
            .expected_endpoints
            .iter()
            .any(|(k, &want)| s.app_endpoints.get(k).copied().unwrap_or(0) < want);
        if ready_below || ep_below {
            note(s.at);
        }
    }
}

/// Notes pods whose creation→Running span exceeds the golden
/// worst-startup bound — the monitoring-view analog of the classifier's
/// Tim rule. A pod-age panel can alert the instant a pod outlives the
/// bound, so the milestone is `created + bound`, not the (later) moment
/// the pod finally came up. The bound is the golden maximum padded by
/// the same z-margin the classifier uses, so no baseline golden run can
/// trip it; only completed startups count — a pod still Pending at the
/// horizon is the shortfall signal's business, and flagging it here
/// would false-fire on end-of-run churn a longer horizon would absorb.
fn slow_startups(
    stats: &k8s_cluster::RunStats,
    baseline: &Baseline,
    inj: u64,
    mut note: impl FnMut(u64),
) {
    let gw = &baseline.golden_worst_startup;
    if gw.is_empty() {
        return;
    }
    let bound = simkit::stats::max(gw)
        .max(simkit::stats::mean(gw) + TIM_Z_THRESHOLD * simkit::stats::std_dev(gw))
        as u64;
    // Pods created from `t0` qualify, not just post-injection ones: a
    // delayed Running update slows down a pod the scenario created
    // *before* the fault actuated. Its age can only cross the bound
    // after the injection (the prefix is fault-free), but clamp the
    // milestone to `inj` so the timeline invariant holds regardless.
    for (pod, &created) in &stats.pod_created {
        if created < stats.t0 {
            continue;
        }
        if let Some(&running) = stats.pod_running.get(pod) {
            if running.saturating_sub(created) > bound {
                note(inj.max(created + bound));
            }
        }
    }
}

/// Computes the propagation timeline of one finished experiment from
/// artifacts the run already produced — the injection record, the gauge
/// samples, the audit log, and the client series — so collecting it
/// cannot perturb the run. The *detection* milestone is what a
/// Prometheus-style monitoring view would alert on: deviating gauges,
/// readiness regressions against the baseline's steady state, API audit
/// errors, and failed synthetic probes (the client series doubles as the
/// monitoring stack's blackbox probe). Wire families like
/// drop/delay/partition never dirty the hard gauges — their damage is
/// lost or untimely messages, which surface as deployments stuck below
/// their expected replica/endpoint counts (the post-settle shortfall
/// signal, [`readiness_shortfalls`]) or as controllers re-doing work
/// and spawning more pods than any golden run did (the excess-creation
/// signal).
/// This is a monitoring-centric heuristic, deliberately decoupled from
/// the statistical classifiers (`classify_*`), which compare whole-run
/// aggregates against the golden baseline.
pub fn propagation_timeline(
    world: &World,
    injected: Option<&InjectionRecord>,
    baseline: Option<&Baseline>,
) -> mutiny_telemetry::timeline::Timeline {
    let mut tl = mutiny_telemetry::timeline::Timeline::default();
    let stats = &world.stats;
    let end_clean = stats.samples.last().map(sample_clean).unwrap_or(true)
        && stats.trailing_failures() == 0;
    tl.steady_at_end = end_clean;
    let Some(rec) = injected else {
        return tl; // trigger never matched: nothing to measure against
    };
    let inj = rec.at;
    tl.injected_at = Some(inj);

    // Monitoring-visible deviations at/after the injection: gauges,
    // audit errors, and failed blackbox probes (client requests). Golden
    // runs keep all these channels clean, so detection never fires on a
    // healthy rollout.
    let mut detect: Option<u64> = None;
    let mut last_dev: Option<u64> = None;
    let mut note = |at: u64| {
        detect = Some(detect.map_or(at, |d| d.min(at)));
        last_dev = Some(last_dev.map_or(at, |d| d.max(at)));
    };
    for s in &stats.samples {
        if s.at >= inj && !sample_clean(s) {
            note(s.at);
        }
    }
    for r in world.api.audit().records() {
        if r.at >= inj && r.result.is_err() {
            note(r.at);
        }
    }
    for c in &stats.client {
        if c.at >= inj && c.outcome.is_failure() {
            note(c.at);
        }
    }
    if let Some(b) = baseline {
        readiness_shortfalls(stats, b, inj, &mut note);
        // Excess pod creation: controllers spawning more pods than any
        // golden run ever did (the paper's More-Resources transient — a
        // delayed or duplicated control message resurrects work the
        // controller then re-does). The cumulative-pod-count panel is
        // the cheapest alert a kube-state-metrics stack fires.
        for s in &stats.samples {
            if s.at >= inj && s.pods_created_cum > b.golden_pods_created_max {
                note(s.at);
            }
        }
        slow_startups(stats, b, inj, &mut note);
    }
    tl.detection = detect;
    // With probes and regressions feeding detection, every observable
    // channel is part of the monitoring view; first divergence coincides
    // with detection.
    tl.first_divergence = detect;

    // Recovery: the first clean gauge sample after the last observed
    // deviation, provided the run actually ended clean.
    if end_clean {
        if let Some(last) = last_dev {
            tl.recovery =
                stats.samples.iter().find(|s| s.at > last && sample_clean(s)).map(|s| s.at);
        }
    }
    tl
}

/// Golden runs used by the lazily cached default baselines.
pub const DEFAULT_BASELINE_RUNS: usize = 12;

/// Runs one experiment, building (and caching) a default baseline for the
/// workload on first use. Campaigns should prebuild baselines and call
/// [`run_experiment_with_baseline`] instead.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentOutcome {
    let baseline = cached_default_baseline(cfg.scenario);
    run_experiment_with_baseline(cfg, &baseline)
}

/// A lazily computed baseline for the default [`ClusterConfig`].
pub fn cached_default_baseline(scenario: Scenario) -> std::sync::Arc<Baseline> {
    use std::sync::{Arc, Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<std::collections::HashMap<&'static str, Arc<Baseline>>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
    let mut guard = cache.lock().expect("baseline cache poisoned");
    if let Some(b) = guard.get(scenario.name()) {
        return Arc::clone(b);
    }
    let b = Arc::new(build_baseline(
        &ClusterConfig::default(),
        scenario,
        DEFAULT_BASELINE_RUNS,
        0xBA5E,
    ));
    guard.insert(scenario.name(), Arc::clone(&b));
    b
}

// ---------------------------------------------------------------------------
// Campaign generation
// ---------------------------------------------------------------------------

/// One planned experiment.
#[derive(Debug, Clone)]
pub struct PlannedExperiment {
    /// Scenario to run.
    pub scenario: Scenario,
    /// Fault family that planned (and will actuate) the spec.
    pub fault: Fault,
    /// The concrete injection spec.
    pub spec: InjectionSpec,
}

/// Records the traffic flowing during a golden run of the scenario
/// (campaign phase 1): the field catalogue and class-aggregated kind
/// counts for the `channels` classes, plus the per-node wire catalogue
/// (always recorded — node-level families pick victims from it even
/// when the field catalogue targets the store wire).
pub fn record_fields(
    cluster: &ClusterConfig,
    scenario: Scenario,
    channels: Vec<Channel>,
    seed: u64,
) -> RecordedTraffic {
    let recorder = Rc::new(RefCell::new(FieldRecorder::new(
        channels,
        k8s_cluster::WORKLOAD_START_MS,
    )));
    let handle: InterceptorHandle = recorder.clone();
    let cfg = ClusterConfig { seed, ..cluster.clone() };
    let mut world = scenario.build_world(&cfg, handle);
    scenario.schedule(&mut world);
    world.run_to_horizon();
    let traffic = recorder.borrow().traffic();
    traffic
}

/// Generates the injection plan for one scenario as the cross-product of
/// the given fault families (campaign phase 2). Each family plans from a
/// per-(scenario, family) labelled RNG fork (node-level families fork
/// again per victim node), so:
///
/// * filtering the family set (`MUTINY_FAULTS`) never changes the specs
///   of the families that remain,
/// * victim-set changes never shift another node's specs, and
/// * the plan is byte-identical for any worker count (planning is
///   single-threaded and seeded).
pub fn plan_campaign(
    traffic: &RecordedTraffic,
    scenario: Scenario,
    faults: &[Fault],
    rng: &mut Rng,
) -> Vec<PlannedExperiment> {
    let mut plan = Vec::new();
    for fault in faults {
        let mut frng = rng.fork(&format!("{}/{}", scenario.name(), fault.name()));
        for spec in fault.plan(traffic, &mut frng) {
            plan.push(PlannedExperiment { scenario, fault: *fault, spec });
        }
    }
    plan
}

/// Generates the paper-faithful §IV-C plan: the three wire built-ins
/// (bit-flip, value-set, drop) over the recorded traffic.
pub fn generate_plan(
    traffic: &RecordedTraffic,
    scenario: Scenario,
    rng: &mut Rng,
) -> Vec<PlannedExperiment> {
    plan_campaign(traffic, scenario, &WIRE_BUILTIN, rng)
}

// ---------------------------------------------------------------------------
// Campaign execution
// ---------------------------------------------------------------------------

/// One finished campaign experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Scenario of the experiment.
    pub scenario: Scenario,
    /// Injected fault.
    pub spec: InjectionSpec,
    /// Fault family (Table IV/V rows key on it, like scenarios).
    pub fault: Fault,
    /// Orchestrator-level failure.
    pub of: OrchestratorFailure,
    /// Client-level failure.
    pub cf: ClientFailure,
    /// Client MAE z-score.
    pub z: f64,
    /// The trigger fired during the run.
    pub fired: bool,
    /// The injected instance was requested after the injection.
    pub activated: bool,
    /// The user saw an API error (F4 / Figure 7).
    pub user_error: bool,
    /// Injected field path, when the target was a field.
    pub path: Option<String>,
}

/// Results of a campaign (plus golden-run bookkeeping).
#[derive(Debug, Clone, Default)]
pub struct CampaignResults {
    /// One row per injection experiment.
    pub rows: Vec<CampaignRow>,
}

impl CampaignResults {
    /// Total experiments.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no experiments ran.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Fraction of fired injections whose instance was later requested.
    pub fn activation_rate(&self) -> f64 {
        let fired: Vec<&CampaignRow> = self.rows.iter().filter(|r| r.fired).collect();
        if fired.is_empty() {
            return 0.0;
        }
        fired.iter().filter(|r| r.activated).count() as f64 / fired.len() as f64
    }

    /// Rows of a given scenario.
    pub fn by_scenario(&self, sc: Scenario) -> impl Iterator<Item = &CampaignRow> {
        self.rows.iter().filter(move |r| r.scenario == sc)
    }

    /// The distinct fault families present in the rows, in registry
    /// order (the tables iterate this so new families extend them
    /// automatically).
    pub fn faults(&self) -> Vec<Fault> {
        let mut out: Vec<Fault> = Vec::new();
        for r in &self.rows {
            if !out.contains(&r.fault) {
                out.push(r.fault);
            }
        }
        out.sort();
        out
    }

    /// The distinct scenarios present in the rows, in registry order
    /// (the tables iterate this so new scenarios extend them
    /// automatically).
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out: Vec<Scenario> = Vec::new();
        for r in &self.rows {
            if !out.contains(&r.scenario) {
                out.push(r.scenario);
            }
        }
        out.sort();
        out
    }

    /// Count matching a predicate.
    pub fn count(&self, pred: impl Fn(&CampaignRow) -> bool) -> usize {
        self.rows.iter().filter(|r| pred(r)).count()
    }

    /// Merges another result set into this one.
    pub fn merge(&mut self, other: CampaignResults) {
        self.rows.extend(other.rows);
    }
}

/// A per-experiment campaign failure. Campaign executors skip the
/// affected rows with a warning instead of aborting the whole run —
/// a missing or corrupt per-scenario baseline disk cache
/// (`target/mutiny_baseline_*`) costs that scenario's rows, not the
/// campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// No baseline was supplied for a planned scenario.
    MissingBaseline {
        /// Name of the scenario whose baseline is absent.
        scenario: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::MissingBaseline { scenario } => write!(
                f,
                "no baseline for scenario `{scenario}` (missing or corrupt \
                 target/mutiny_baseline_* cache?); skipping its rows"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Stable per-(campaign, scenario) world seed. Every experiment of a
/// scenario shares one seed — and therefore one fault-free prefix — so
/// fork-the-world can snapshot that prefix once and fork it per
/// experiment, and so a row depends only on its (scenario, spec), never
/// on its plan index. That index-independence is what makes residue-class
/// sharding (`MUTINY_SHARD`) and checkpoint resume trivially exact.
pub fn scenario_world_seed(base_seed: u64, scenario: Scenario) -> u64 {
    // FNV-1a over the scenario name, mixed with the campaign seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in scenario.name().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ base_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Folds per-experiment results into rows, warning once per distinct
/// error instead of once per affected row (a missing baseline hits every
/// row of its scenario).
fn collect_rows(results: Vec<Result<CampaignRow, CampaignError>>) -> CampaignResults {
    let mut rows = Vec::with_capacity(results.len());
    let mut warned: Vec<CampaignError> = Vec::new();
    for res in results {
        match res {
            Ok(row) => rows.push(row),
            Err(e) => {
                if !warned.contains(&e) {
                    eprintln!("[campaign] warning: {e}");
                    warned.push(e);
                }
            }
        }
    }
    CampaignResults { rows }
}

/// Executes a plan on the work-stealing executor; `baselines` must match
/// the plan's scenario distribution (one baseline per scenario).
///
/// Per-experiment seeds derive from the (campaign, scenario) pair alone,
/// so the result rows are byte-identical to a serial run for any worker
/// count (see [`run_campaign_with_threads`] and the determinism tests).
pub fn run_campaign(
    cluster: &ClusterConfig,
    plan: &[PlannedExperiment],
    baselines: &std::collections::HashMap<Scenario, Baseline>,
    base_seed: u64,
) -> CampaignResults {
    run_campaign_with_threads(
        cluster,
        plan,
        baselines,
        base_seed,
        crate::exec::default_threads(plan.len()),
    )
}

/// [`run_campaign`] with an explicit worker count (the determinism tests
/// and the throughput bench pin it).
pub fn run_campaign_with_threads(
    cluster: &ClusterConfig,
    plan: &[PlannedExperiment],
    baselines: &std::collections::HashMap<Scenario, Baseline>,
    base_seed: u64,
    threads: usize,
) -> CampaignResults {
    run_campaign_range(cluster, plan, baselines, base_seed, 0..plan.len(), threads)
}

/// [`run_campaign_with_threads`] with the fork-the-world mode pinned
/// explicitly (for tests that compare both modes in one process).
pub fn run_campaign_with_threads_fork(
    cluster: &ClusterConfig,
    plan: &[PlannedExperiment],
    baselines: &std::collections::HashMap<Scenario, Baseline>,
    base_seed: u64,
    threads: usize,
    fork: bool,
) -> CampaignResults {
    run_campaign_range_with_fork(cluster, plan, baselines, base_seed, 0..plan.len(), threads, fork)
}

/// Runs the plan slice `range`. A row depends only on its planned
/// (scenario, spec) — seeds are per-scenario, never per-index — so
/// executing `0..n` in any partition (consecutive ranges for checkpoint
/// resume, residue classes for `MUTINY_SHARD` sharding) yields exactly
/// the rows of one full run.
pub fn run_campaign_range(
    cluster: &ClusterConfig,
    plan: &[PlannedExperiment],
    baselines: &std::collections::HashMap<Scenario, Baseline>,
    base_seed: u64,
    range: std::ops::Range<usize>,
    threads: usize,
) -> CampaignResults {
    run_campaign_range_with_fork(cluster, plan, baselines, base_seed, range, threads, fork_enabled())
}

/// [`run_campaign_range`] with the fork-the-world mode pinned explicitly
/// (the determinism tests compare both modes without racing on the
/// environment).
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_range_with_fork(
    cluster: &ClusterConfig,
    plan: &[PlannedExperiment],
    baselines: &std::collections::HashMap<Scenario, Baseline>,
    base_seed: u64,
    range: std::ops::Range<usize>,
    threads: usize,
    fork: bool,
) -> CampaignResults {
    let start = range.start.min(plan.len());
    let end = range.end.min(plan.len()).max(start);
    let results = crate::exec::run_indexed(end - start, threads, |i| {
        run_planned_with_fork(cluster, &plan[start + i], baselines, base_seed, fork)
    });
    collect_rows(results)
}

/// Runs one planned experiment with the campaign's per-scenario seed
/// and the execution mode pinned, and produces the finished row.
///
/// # Errors
///
/// [`CampaignError::MissingBaseline`] when `baselines` has no entry for
/// the planned scenario.
fn run_planned_with_fork(
    cluster: &ClusterConfig,
    planned: &PlannedExperiment,
    baselines: &std::collections::HashMap<Scenario, Baseline>,
    base_seed: u64,
    fork: bool,
) -> Result<CampaignRow, CampaignError> {
    let seed = scenario_world_seed(base_seed, planned.scenario);
    let cfg = ExperimentConfig {
        cluster: ClusterConfig { seed, ..cluster.clone() },
        scenario: planned.scenario,
        injection: Some(ArmedFault::new(planned.fault, planned.spec.clone())),
    };
    let baseline = baselines.get(&planned.scenario).ok_or_else(|| {
        CampaignError::MissingBaseline { scenario: planned.scenario.name().to_string() }
    })?;
    let outcome = run_experiment_with_baseline_fork(&cfg, baseline, fork);
    Ok(CampaignRow {
        scenario: planned.scenario,
        fault: planned.fault,
        path: match &planned.spec.point {
            crate::injector::InjectionPoint::Field { path, .. } => Some(path.clone()),
            _ => None,
        },
        spec: planned.spec.clone(),
        of: outcome.orchestrator_failure,
        cf: outcome.client_failure,
        z: outcome.z_latency,
        fired: outcome.injected.is_some(),
        activated: outcome.activated,
        user_error: outcome.user_saw_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecordedField;
    use k8s_model::Kind;

    use mutiny_scenarios::DEPLOY;

    #[test]
    fn golden_experiment_classifies_clean() {
        let baseline = build_baseline(&ClusterConfig::default(), DEPLOY, 8, 10);
        let cfg = ExperimentConfig::golden(DEPLOY, 999);
        let out = run_experiment_with_baseline(&cfg, &baseline);
        assert_eq!(out.orchestrator_failure, OrchestratorFailure::No);
        assert_eq!(out.client_failure, ClientFailure::Nsi);
        assert!(!out.user_saw_error);
        assert!(out.injected.is_none());
    }

    #[test]
    fn recording_covers_workload_kinds() {
        let traffic = record_fields(
            &ClusterConfig::default(),
            DEPLOY,
            vec![Channel::ApiToEtcd],
            42,
        );
        assert!(!traffic.fields.is_empty());
        let kinds_seen: Vec<Kind> = traffic.kinds.iter().map(|(_, k, _)| *k).collect();
        for expect in [Kind::Pod, Kind::ReplicaSet, Kind::Deployment, Kind::Service, Kind::Node, Kind::Endpoints, Kind::Lease] {
            assert!(kinds_seen.contains(&expect), "kind {expect} not recorded: {kinds_seen:?}");
        }
        // The dependency-tracking fields the paper's F2 centres on.
        let fields = &traffic.fields;
        assert!(fields.iter().any(|f| f.path.contains("matchLabels")), "selector fields missing");
        assert!(fields.iter().any(|f| f.path.contains("labels[")), "label fields missing");
        assert!(fields.iter().any(|f| f.path.contains("ownerReferences")), "ownerRefs missing");
        assert!(fields.iter().any(|f| f.path == "spec.replicas"), "replicas missing");
        // The per-node wire catalogue always rides along: every node's
        // kubelet heartbeats during the workload window.
        let nodes = traffic.nodes();
        assert!(nodes.len() >= 5, "expected one wire per node, got {nodes:?}");
        assert!(nodes.contains(&"w1"), "{nodes:?}");
    }

    #[test]
    fn plan_follows_campaign_rules() {
        use crate::injector::FaultKind;
        use protowire::reflect::{FieldType, Value};
        let fields = vec![
            RecordedField {
                channel: Channel::ApiToEtcd.into(),
                kind: Kind::ReplicaSet,
                path: "spec.replicas".into(),
                field_type: FieldType::Int,
                sample: Value::Int(2),
                message_count: 5,
                max_occurrence: 3,
            },
            RecordedField {
                channel: Channel::ApiToEtcd.into(),
                kind: Kind::Pod,
                path: "spec.nodeName".into(),
                field_type: FieldType::Str,
                sample: Value::Str("w1".into()),
                message_count: 5,
                max_occurrence: 2,
            },
        ];
        let traffic = RecordedTraffic {
            fields,
            kinds: vec![(Channel::ApiToEtcd.into(), Kind::ReplicaSet, 5u64)],
            node_kinds: Vec::new(),
            user_kinds: Vec::new(),
        };
        let mut rng = Rng::new(1);
        let plan = generate_plan(&traffic, DEPLOY, &mut rng);
        // Int: 3 mutations × 3 occurrences; Str (len 2): 3 × 3;
        // proto: 8; drops: 10 — the same §IV-C counts as before the
        // fault engine, now grouped by family.
        assert_eq!(plan.len(), 9 + 9 + 8 + 10);
        let drops = plan.iter().filter(|p| p.spec.fault_kind() == FaultKind::Drop).count();
        assert_eq!(drops, 10);
        let bitflips = plan.iter().filter(|p| p.spec.fault_kind() == FaultKind::BitFlip).count();
        // 2 int flips ×3 + 2 char flips ×3 + 8 proto = 20.
        assert_eq!(bitflips, 20);
        // Every planned experiment carries the family that planned it.
        assert!(plan.iter().all(|p| p.fault == Fault::implied_by(&p.spec)));
    }

    #[test]
    fn cross_product_plans_every_family() {
        use protowire::reflect::Value;
        let fields = vec![RecordedField {
            channel: Channel::ApiToEtcd.into(),
            kind: Kind::ReplicaSet,
            path: "spec.replicas".into(),
            field_type: protowire::reflect::FieldType::Int,
            sample: Value::Int(2),
            message_count: 5,
            max_occurrence: 3,
        }];
        let traffic = RecordedTraffic {
            fields,
            kinds: vec![(Channel::ApiToEtcd.into(), Kind::ReplicaSet, 5u64)],
            node_kinds: vec![
                (
                    k8s_model::ChannelId::node_scoped(Channel::KubeletToApi, "w1"),
                    Kind::Node,
                    4,
                ),
                (
                    k8s_model::ChannelId::node_scoped(Channel::KubeletToApi, "w2"),
                    Kind::Node,
                    4,
                ),
            ],
            user_kinds: vec![
                (Channel::UserToApi, Kind::Deployment, 3),
                (Channel::KcmToApi, Kind::Pod, 8),
                (Channel::KcmToApi, Kind::ReplicaSet, 2),
            ],
        };
        let faults = mutiny_faults::registry::all();
        let mut rng = Rng::new(1);
        let plan = plan_campaign(&traffic, DEPLOY, &faults, &mut rng);
        let planned_families: Vec<&str> =
            plan.iter().map(|p| p.fault.name()).collect();
        for f in [
            "bit-flip",
            "value-set",
            "drop",
            "delay",
            "duplicate",
            "partition",
            "crash-restart",
            "kubelet-crash-restart",
            "node-partition",
            "cfg-resources",
            "cfg-selector",
            "cfg-probe",
            "cfg-grace",
            "cfg-replicas",
            "etcd-disk-full",
            "etcd-compaction-pressure",
            "etcd-corrupt-at-rest",
            "etcd-inconsistent-view",
        ] {
            assert!(planned_families.contains(&f), "{f} missing from the cross-product");
        }
        // Filtering the family set leaves the surviving specs untouched
        // (per-family labelled RNG forks).
        let mut rng2 = Rng::new(1);
        let only_bitflip =
            plan_campaign(&traffic, DEPLOY, &[mutiny_faults::BIT_FLIP], &mut rng2);
        let from_full: Vec<&InjectionSpec> = plan
            .iter()
            .filter(|p| p.fault == mutiny_faults::BIT_FLIP)
            .map(|p| &p.spec)
            .collect();
        assert_eq!(
            from_full,
            only_bitflip.iter().map(|p| &p.spec).collect::<Vec<_>>(),
            "family filtering changed the planned specs"
        );
    }
}
