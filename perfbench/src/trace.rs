//! The traced run. The benchmark drives each experiment through the same
//! public stages the campaign calls (snapshot, fork, arm, windowed
//! `run_until`, actions, classification, timeline), records each stage
//! as a span, counts and times the wire calls into the armed fault, and
//! reads the layers' work counters after every experiment. Component
//! step costs come from shadow steps on throwaway forks of the live
//! world. Its rows must equal the untraced campaign's byte for byte.

use crate::measure::on_fresh_thread;
use crate::stats::self_time;
use k8s_apiserver::InterceptorHandle;
use k8s_cluster::{ClusterConfig, World, WORKLOAD_START_MS};
use k8s_model::{AdmitCtx, Channel, Interceptor, MsgCtx, NoopInterceptor, Object, WireVerdict};
use mutiny_core::campaign::{
    propagation_timeline, scenario_world_seed, CampaignRow, PlannedExperiment,
};
use mutiny_core::classify::{classify_client, classify_orchestrator};
use mutiny_core::golden::Baseline;
use mutiny_core::injector::InjectionPoint;
use mutiny_faults::{ArmedFault, FaultActuator, SharedActuator, WorldAction};
use mutiny_scenarios::Scenario;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// Sim-time slice of the experiment loop (ms), as in the campaign.
const SLICE_MS: u64 = 250;
/// The client's target service (fixed by `k8s_cluster::World`).
const CLIENT_SERVICE: &str = "web-1-svc";
/// Tick periods of `World::handle` (sim ms), used to turn per-step
/// shadow costs into the time a component spends in a window.
const KCM_TICK_MS: u64 = 100;
const SCHED_TICK_MS: u64 = 100;
const KUBELET_TICK_MS: u64 = 200;
const NET_TICK_MS: u64 = 500;

/// One recorded span: a stage with a start, an end and the span that
/// caused it. Times are ns since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Start (ns).
    pub start_ns: u64,
    /// End (ns).
    pub end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Every span, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Self time of every span (ns): its duration minus the interval its
    /// children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, ch)| self_time(s.start_ns, s.end_ns, ch))
            .collect()
    }

    /// Per stage name: (spans, summed self time in ns).
    pub fn self_time_by_stage(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += st;
        }
        out
    }

    /// The spans as TSV: id, parent, name, start, end, self time (ns).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, st)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{parent}\t{}\t{}\t{}\t{st}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Calls into the armed fault: counted, with summed host time.
#[derive(Default)]
struct WireTally {
    messages: Cell<u64>,
    message_ns: Cell<u64>,
    admissions: Cell<u64>,
}

/// The campaign's `SharedActuator`, wrapped to count and time its calls.
struct Counting {
    inner: SharedActuator,
    tally: Rc<WireTally>,
}

impl Interceptor for Counting {
    fn on_message(&mut self, ctx: &MsgCtx<'_>) -> WireVerdict {
        let t = Instant::now();
        let verdict = self.inner.on_message(ctx);
        let ns = t.elapsed().as_nanos() as u64;
        self.tally.messages.set(self.tally.messages.get() + 1);
        self.tally.message_ns.set(self.tally.message_ns.get() + ns);
        verdict
    }

    fn on_admission(&mut self, ctx: &AdmitCtx<'_>, obj: &mut Object) -> bool {
        self.tally.admissions.set(self.tally.admissions.get() + 1);
        self.inner.on_admission(ctx, obj)
    }
}

/// Work counters read from a world's public accessors and metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Audit records (API requests).
    pub requests: u64,
    /// Failed requests among them.
    pub errors: u64,
    /// etcd revisions committed.
    pub commits: u64,
    /// etcd writes rejected.
    pub rejected: u64,
    /// etcd compactions.
    pub compactions: u64,
    /// Pods created by the controller manager.
    pub pods_created: u64,
    /// Pods bound by the scheduler.
    pub scheduled: u64,
    /// Failed client requests (refused, timed out, DNS).
    pub net_failures: u64,
    /// Client requests sent.
    pub client_requests: u64,
}

impl Counters {
    fn read(world: &World) -> Counters {
        let audit = world.api.audit().records();
        let etcd = world.api.etcd();
        let net = &world.net.metrics;
        Counters {
            requests: audit.len() as u64,
            errors: audit.iter().filter(|r| r.result.is_err()).count() as u64,
            commits: etcd.revision(),
            rejected: etcd.writes_rejected(),
            compactions: etcd.compactions(),
            pods_created: world.kcm.metrics.pods_created,
            scheduled: world.scheduler.metrics.scheduled,
            net_failures: net.refused + net.timeouts + net.dns_failures,
            client_requests: world.stats.client.len() as u64,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            requests: self.requests.saturating_sub(before.requests),
            errors: self.errors.saturating_sub(before.errors),
            commits: self.commits.saturating_sub(before.commits),
            rejected: self.rejected.saturating_sub(before.rejected),
            compactions: self.compactions.saturating_sub(before.compactions),
            pods_created: self.pods_created.saturating_sub(before.pods_created),
            scheduled: self.scheduled.saturating_sub(before.scheduled),
            net_failures: self.net_failures.saturating_sub(before.net_failures),
            client_requests: self.client_requests.saturating_sub(before.client_requests),
        }
    }

    fn add(&mut self, d: Counters) {
        self.requests += d.requests;
        self.errors += d.errors;
        self.commits += d.commits;
        self.rejected += d.rejected;
        self.compactions += d.compactions;
        self.pods_created += d.pods_created;
        self.scheduled += d.scheduled;
        self.net_failures += d.net_failures;
        self.client_requests += d.client_requests;
    }
}

/// Summed host time (ns) and number of calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Summed ns.
    pub ns: u64,
    /// Calls.
    pub calls: u64,
}

impl Cost {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    fn merge(&mut self, o: Cost) {
        self.ns += o.ns;
        self.calls += o.calls;
    }

    /// Mean ns per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Per-step component costs measured by shadow steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowCosts {
    /// `ApiServer::sync_cache`.
    pub sync: Cost,
    /// `Kcm::step`.
    pub kcm: Cost,
    /// `Scheduler::step`.
    pub sched: Cost,
    /// `Kubelet::step`, every kubelet.
    pub kubelet: Cost,
    /// `NetSim::refresh`.
    pub refresh: Cost,
    /// `NetSim::request`.
    pub request: Cost,
}

impl ShadowCosts {
    fn merge(&mut self, o: &ShadowCosts) {
        self.sync.merge(o.sync);
        self.kcm.merge(o.kcm);
        self.sched.merge(o.sched);
        self.kubelet.merge(o.kubelet);
        self.refresh.merge(o.refresh);
        self.request.merge(o.request);
    }
}

/// Everything the traced pass measured.
pub struct Traced {
    /// One slot per planned experiment, in plan order (`None`: panicked
    /// or no baseline).
    pub rows: Vec<Option<CampaignRow>>,
    /// Wall time of the pass (s).
    pub wall_s: f64,
    /// The spans.
    pub tracer: Tracer,
    /// Snapshots built.
    pub snapshots: u64,
    /// Wire calls into the armed faults.
    pub messages: u64,
    /// Summed ns of those calls.
    pub message_ns: u64,
    /// Admission calls into the armed faults.
    pub admissions: u64,
    /// `WorldAction`s applied.
    pub actions: u64,
    /// Summed ns in `poll_actions` and the action calls.
    pub action_ns: u64,
    /// Watch-cache objects at the end of each experiment, summed.
    pub objects: u64,
    /// Per-component shadow costs, over all experiments.
    pub shadow: ShadowCosts,
    /// The ledger's estimate of window time (ns), summed.
    pub ledger_ns: f64,
    /// Simulated window time, summed (ms).
    pub sim_window_ms: u64,
    /// Work done in the windows, summed over experiments.
    pub work: Counters,
}

struct Ctx<'a> {
    cluster: &'a ClusterConfig,
    campaign_seed: u64,
    shadow_every: usize,
    snapshots: HashMap<&'static str, (World, Counters)>,
    out: Traced,
}

/// Runs the plan once, at one worker in plan order, through the public
/// stages, with a shadow step every `shadow_every` slices (0: none).
pub fn traced_pass(
    cluster: &ClusterConfig,
    plan: &[PlannedExperiment],
    baselines: &HashMap<Scenario, Baseline>,
    campaign_seed: u64,
    shadow_every: usize,
) -> Traced {
    on_fresh_thread(|| {
        let start = Instant::now();
        let mut ctx = Ctx {
            cluster,
            campaign_seed,
            shadow_every,
            snapshots: HashMap::new(),
            out: Traced {
                rows: vec![None; plan.len()],
                wall_s: 0.0,
                tracer: Tracer::new(),
                snapshots: 0,
                messages: 0,
                message_ns: 0,
                admissions: 0,
                actions: 0,
                action_ns: 0,
                objects: 0,
                shadow: ShadowCosts::default(),
                ledger_ns: 0.0,
                sim_window_ms: 0,
                work: Counters::default(),
            },
        };
        for (i, planned) in plan.iter().enumerate() {
            ctx.out.rows[i] = baselines.get(&planned.scenario).and_then(|b| {
                catch_unwind(AssertUnwindSafe(|| experiment(&mut ctx, planned, b))).ok()
            });
        }
        ctx.out.wall_s = start.elapsed().as_secs_f64();
        ctx.out
    })
}

fn experiment(ctx: &mut Ctx<'_>, planned: &PlannedExperiment, baseline: &Baseline) -> CampaignRow {
    let root = ctx.out.tracer.open("experiment", None);
    let scenario = planned.scenario;
    let cluster = ClusterConfig {
        seed: scenario_world_seed(ctx.campaign_seed, scenario),
        ..ctx.cluster.clone()
    };

    // The fault-free prefix, once per scenario: build, schedule, run to t0.
    if !ctx.snapshots.contains_key(scenario.name()) {
        let s = ctx.out.tracer.open("scenarios.snapshot", Some(root));
        let noop: InterceptorHandle = Rc::new(RefCell::new(NoopInterceptor));
        let mut world = scenario.build_world(&cluster, noop);
        world.api.set_decode_cache(true);
        scenario.schedule(&mut world);
        let t0 = world.t0();
        world.run_until(t0);
        ctx.out.tracer.close(s);
        ctx.out.snapshots += 1;
        let counters = Counters::read(&world);
        ctx.snapshots.insert(scenario.name(), (world, counters));
    }

    // The armed fault behind a counting `SharedActuator`.
    let s = ctx.out.tracer.open("faults.arm", Some(root));
    let armed = ArmedFault::new(planned.fault, planned.spec.clone());
    let actuator: Rc<RefCell<Box<dyn FaultActuator>>> =
        Rc::new(RefCell::new(armed.arm(WORKLOAD_START_MS)));
    let tally = Rc::new(WireTally::default());
    let handle: InterceptorHandle = Rc::new(RefCell::new(Counting {
        inner: SharedActuator(Rc::clone(&actuator)),
        tally: Rc::clone(&tally),
    }));
    ctx.out.tracer.close(s);

    // Fork the snapshot onto the armed interceptor.
    let s = ctx.out.tracer.open("cluster.fork", Some(root));
    let (snapshot, before) = ctx
        .snapshots
        .get(scenario.name())
        .expect("snapshot just ensured");
    let before = *before;
    let mut world = snapshot.fork(handle);
    ctx.out.tracer.close(s);

    // The window in 250 ms slices, applying the fault's world
    // actions after each slice, exactly as the campaign does.
    let window = ctx.out.tracer.open("cluster.window", Some(root));
    let (t0, horizon) = (world.t0(), world.horizon());
    let mut shadow = ShadowCosts::default();
    let mut tracking_armed = false;
    let mut slice = 0usize;
    while world.now() < horizon {
        let next = (world.now() + SLICE_MS).min(horizon);
        world.run_until(next);
        let now = world.now();
        if ctx.shadow_every > 0 && slice.is_multiple_of(ctx.shadow_every) {
            let s = ctx.out.tracer.open("ledger.shadow", Some(window));
            shadow_step(&world, now, &mut shadow);
            ctx.out.tracer.close(s);
        }
        slice += 1;
        let t = Instant::now();
        let actions = actuator.borrow_mut().poll_actions(now);
        if !actions.is_empty() {
            let s = ctx.out.tracer.open("faults.actions", Some(window));
            ctx.out.actions += actions.len() as u64;
            for action in actions {
                apply(&mut world, action, now);
            }
            ctx.out.tracer.close(s);
        }
        ctx.out.action_ns += t.elapsed().as_nanos() as u64;
        if !tracking_armed && actuator.borrow().record().is_some() {
            world.api.start_read_tracking();
            tracking_armed = true;
        }
    }
    ctx.out.tracer.close(window);
    let record = actuator.borrow().record().cloned();

    // Classification, as `run_experiment_with_baseline_fork` does it.
    let s = ctx.out.tracer.open("core.classify", Some(root));
    let activated = record
        .as_ref()
        .map(|r| world.api.was_read(&r.key))
        .unwrap_or(false);
    let user_error = world
        .api
        .audit()
        .records()
        .iter()
        .any(|r| r.channel == Channel::UserToApi && r.at >= t0 && r.result.is_err());
    let (cf, z) = classify_client(&world.stats, baseline);
    let of = classify_orchestrator(&world.stats, baseline);
    ctx.out.tracer.close(s);

    // The propagation timeline.
    let s = ctx.out.tracer.open("core.timeline", Some(root));
    std::hint::black_box(propagation_timeline(
        &world,
        record.as_ref(),
        Some(baseline),
    ));
    ctx.out.tracer.close(s);

    // Work counts and the ledger's estimate for this window.
    let work = Counters::read(&world).since(before);
    ctx.out.work.add(work);
    ctx.out.messages += tally.messages.get();
    ctx.out.message_ns += tally.message_ns.get();
    ctx.out.admissions += tally.admissions.get();
    ctx.out.objects += world.api.cached_objects() as u64;
    let sim_ms = horizon.saturating_sub(t0);
    ctx.out.sim_window_ms += sim_ms;
    ctx.out.ledger_ns += ledger_estimate(
        &shadow,
        sim_ms,
        world.kubelets.len() as u64,
        work.client_requests,
    );
    ctx.out.shadow.merge(&shadow);

    let row = CampaignRow {
        scenario,
        fault: planned.fault,
        path: match &planned.spec.point {
            InjectionPoint::Field { path, .. } => Some(path.clone()),
            _ => None,
        },
        spec: planned.spec.clone(),
        of,
        cf,
        z,
        fired: record.is_some(),
        activated,
        user_error,
    };
    ctx.out.tracer.close(root);
    row
}

/// Applies one out-of-band fault action to the world (the campaign's
/// experiment loop, action for action).
fn apply(world: &mut World, action: WorldAction, now: u64) {
    match action {
        WorldAction::RestartApiserver => world.api.restart(),
        WorldAction::SilenceKubelet(node) => {
            if let Some(kl) = world.kubelets.iter_mut().find(|k| k.node_name == node) {
                kl.healthy = false;
            }
        }
        WorldAction::RestartKubelet(node) => {
            if let Some(idx) = world.kubelets.iter().position(|k| k.node_name == node) {
                world.api.set_now(now);
                let (kubelets, api) = (&mut world.kubelets, &mut world.api);
                kubelets[idx].restart(api, now);
            }
        }
        WorldAction::EtcdClampDiskBudget => world.api.etcd_mut().clamp_disk_budget(),
        WorldAction::EtcdRestoreDiskBudget => world.api.etcd_mut().restore_disk_budget(),
        WorldAction::EtcdForceCompaction => world.api.etcd_mut().compact(),
        WorldAction::EtcdCorruptReplica { replica, nth } => {
            world
                .api
                .etcd_mut()
                .corrupt_nth_at_rest(replica as usize, nth as usize);
        }
        WorldAction::EtcdBeginInconsistentView { replica } => {
            world
                .api
                .etcd_mut()
                .begin_inconsistent_view(replica as usize);
        }
        WorldAction::EtcdEndInconsistentView => world.api.etcd_mut().end_inconsistent_view(),
    }
}

fn timed(cost: &mut Cost, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    cost.add(t.elapsed().as_nanos() as u64);
}

/// Times one step of every component on a throwaway fork of `world`
/// (no-op interceptor), so the live run is left untouched.
fn shadow_step(world: &World, now: u64, costs: &mut ShadowCosts) {
    let noop: InterceptorHandle = Rc::new(RefCell::new(NoopInterceptor));
    let mut sh = world.fork(noop);
    sh.api.set_now(now);
    timed(&mut costs.sync, || sh.api.sync_cache());
    timed(&mut costs.kcm, || sh.kcm.step(&mut sh.api, now));
    timed(&mut costs.sched, || sh.scheduler.step(&mut sh.api, now));
    for i in 0..sh.kubelets.len() {
        let (kubelets, api) = (&mut sh.kubelets, &mut sh.api);
        timed(&mut costs.kubelet, || kubelets[i].step(api, now));
    }
    timed(&mut costs.refresh, || sh.net.refresh(&mut sh.api));
    // The client sits on the last node (see `World::new`).
    let client = sh
        .kubelets
        .last()
        .map(|k| k.node_name.clone())
        .unwrap_or_default();
    let needs_dns = sh.cfg.app_needs_dns;
    timed(&mut costs.request, || {
        std::hint::black_box(sh.net.request(
            &mut sh.api,
            now,
            &client,
            "default",
            CLIENT_SERVICE,
            80,
            needs_dns,
        ));
    });
}

/// The window time (ns) the components should account for: each one's
/// mean shadow-step cost times its tick count over `sim_ms` (the watch
/// drain once per controller tick, client requests as counted).
fn ledger_estimate(c: &ShadowCosts, sim_ms: u64, kubelets: u64, client_requests: u64) -> f64 {
    let ticks = |period: u64| (sim_ms / period) as f64;
    c.sync.mean_ns() * ticks(KCM_TICK_MS)
        + c.kcm.mean_ns() * ticks(KCM_TICK_MS)
        + c.sched.mean_ns() * ticks(SCHED_TICK_MS)
        + c.kubelet.mean_ns() * ticks(KUBELET_TICK_MS) * kubelets as f64
        + c.refresh.mean_ns() * ticks(NET_TICK_MS)
        + c.request.mean_ns() * client_requests as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{one_worker_pass, results};
    use mutiny_core::campaign::{plan_campaign, record_fields};
    use mutiny_core::golden::build_baseline_with_threads;

    /// Shadow steps fork the live world and step the fork; they must not
    /// change a single row. One small experiment per actuation path: a
    /// wire drop, an apiserver crash-restart (world actions) and an
    /// admission-time config defect.
    #[test]
    fn shadow_steps_leave_rows_unchanged() {
        let cluster = crate::workloads::cluster();
        let sc = mutiny_scenarios::DEPLOY;
        let traffic = record_fields(&cluster, sc, vec![Channel::ApiToEtcd], 7);
        let mut plan = Vec::new();
        for family in [
            mutiny_faults::DROP,
            mutiny_faults::CRASH_RESTART,
            mutiny_faults::CFG_RESOURCES,
        ] {
            let specs = plan_campaign(&traffic, sc, &[family], &mut simkit::Rng::new(7));
            plan.push(specs.into_iter().next().expect("family plans on deploy"));
        }
        let baselines: HashMap<Scenario, Baseline> =
            [(sc, build_baseline_with_threads(&cluster, sc, 4, 11, 1))]
                .into_iter()
                .collect();

        let render = |rows: &[Option<CampaignRow>]| mutiny_bench::render_rows(&results(rows));
        let campaign = render(&one_worker_pass(&cluster, &plan, &baselines, 5).rows);
        let plain = traced_pass(&cluster, &plan, &baselines, 5, 0);
        let shadowed = traced_pass(&cluster, &plan, &baselines, 5, 1);

        assert_eq!(campaign.lines().count(), plan.len());
        assert_eq!(
            render(&plain.rows),
            campaign,
            "traced rows differ from the campaign's"
        );
        assert_eq!(
            render(&shadowed.rows),
            campaign,
            "shadow steps changed a row"
        );
        assert!(shadowed.shadow.kcm.calls > 0 && plain.shadow.kcm.calls == 0);
        assert!(
            shadowed.actions > 0,
            "the crash-restart experiment applies world actions"
        );
    }

    #[test]
    fn tracer_self_times_exclude_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "experiment",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "cluster.window",
                parent: Some(0),
                start_ns: 10,
                end_ns: 90,
            },
            Span {
                name: "ledger.shadow",
                parent: Some(1),
                start_ns: 20,
                end_ns: 30,
            },
            Span {
                name: "ledger.shadow",
                parent: Some(1),
                start_ns: 50,
                end_ns: 55,
            },
        ];
        assert_eq!(t.self_times(), vec![20, 65, 10, 5]);
        let by_stage = t.self_time_by_stage();
        assert_eq!(by_stage["ledger.shadow"], (2, 15));
        assert_eq!(by_stage["cluster.window"], (1, 65));
    }
}
