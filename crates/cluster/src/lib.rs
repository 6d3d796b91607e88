//! # k8s-cluster — the full simulated cluster (the paper's testbed)
//!
//! Wires etcd, the apiserver, the controller manager, the scheduler, one
//! kubelet per node and the network fabric into a deterministic
//! discrete-event [`World`], then drives the paper's experimental setup
//! (§V-A): one control-plane node plus N template-bootstrapped workers
//! (the paper uses four at 8 CPU / 4 GB each; see [`Topology`]),
//! flannel-style networking, coreDNS, a monitoring pod, and an
//! application client sending 20 requests/second for 30 seconds against
//! the service application.
//!
//! The *scenarios* themselves — which applications are preinstalled,
//! which timed [`UserOp`]s run, what topology the cluster has — live in
//! the `mutiny_scenarios` crate's registry; this crate only executes the
//! plans they produce.
//!
//! ```no_run
//! use k8s_cluster::{ClusterConfig, UserOp, World};
//! use k8s_model::NoopInterceptor;
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let cfg = ClusterConfig::default();
//! let mut world = World::new(cfg, Rc::new(RefCell::new(NoopInterceptor)));
//! world.prepare(&[1]); // preinstall web-1
//! world.schedule_ops(vec![(2_000, UserOp::CreateApp { index: 2, replicas: 2 })]);
//! world.run_to_horizon();
//! assert!(world.stats.client_failures() == 0);
//! ```

pub mod autorepair;
pub mod bootstrap;
pub mod stats;
pub mod workload;

pub use autorepair::{NodeRepairConfig, NodeRepairer, RepairMetrics};
pub use mutiny_mitigations::MitigationsConfig;
pub use stats::{ClientSample, MetricsSample, RunStats};
pub use workload::{app_deployment, app_service, UserOp};

use k8s_apiserver::{ApiServer, InterceptorHandle, TraceHandle};
use k8s_kcm::{Kcm, KcmConfig};
use k8s_kubelet::{Kubelet, KubeletConfig};
use k8s_model::node::TAINT_NO_SCHEDULE;
use k8s_model::{Channel, Kind, Object};
use k8s_netsim::{NetConfig, NetSim};
use k8s_scheduler::{Scheduler, SchedulerConfig};
use mutiny_mitigations::checksum::CriticalFieldSealer;
use mutiny_mitigations::{BreakerConfig, CriticalFieldGuard, GuardConfig, ReplicationBreaker};
use simkit::{Rng, Sim, Trace};
use std::cell::RefCell;
use std::rc::Rc;

/// Cluster topology requested by a scenario: how many workers join and
/// what hardware the worker template grants each of them.
///
/// Every worker is bootstrapped from the same template (SimKube-style
/// virtual nodes) — a 20-node cluster costs one struct, not twenty
/// hand-written fixtures. The control-plane node is always added on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Worker node count.
    pub workers: usize,
    /// Per-worker allocatable CPU (millicores).
    pub worker_cpu_milli: i64,
    /// Per-worker allocatable memory (MiB).
    pub worker_memory_mb: i64,
}

impl Topology {
    /// The paper's §V-A testbed: four workers at 8 CPU / 4 GB.
    pub const fn paper() -> Topology {
        Topology { workers: 4, worker_cpu_milli: 8_000, worker_memory_mb: 4_096 }
    }

    /// `n` virtual workers bootstrapped from the paper's worker template.
    pub const fn virtual_workers(n: usize) -> Topology {
        Topology { workers: n, ..Topology::paper() }
    }

    /// Applies this topology to a cluster configuration, leaving every
    /// non-topology knob (seed, mitigations, client settings, …) intact.
    pub fn apply(self, mut cfg: ClusterConfig) -> ClusterConfig {
        cfg.workers = self.workers;
        cfg.worker_cpu_milli = self.worker_cpu_milli;
        cfg.worker_memory_mb = self.worker_memory_mb;
        cfg
    }
}

impl Default for Topology {
    fn default() -> Topology {
        Topology::paper()
    }
}

/// Cluster-wide configuration (defaults mirror the paper's setup).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Deterministic seed for the whole experiment.
    pub seed: u64,
    /// Worker node count (the paper uses 4, one hosting client+monitoring).
    pub workers: usize,
    /// etcd replica count (1 by default; 3 for the replicated-CP study).
    pub etcd_replicas: usize,
    /// etcd disk budget — fills up under uncontrolled replication.
    pub etcd_capacity_bytes: u64,
    /// Storage engine backing etcd. It has one value; the field stays
    /// only because `perfbench/src/workloads.rs` sets it.
    pub storage: etcd_sim::StorageKind,
    /// Per-node allocatable CPU (millicores).
    pub worker_cpu_milli: i64,
    /// Per-node allocatable memory (MiB).
    pub worker_memory_mb: i64,
    /// Controller-manager tunables.
    pub kcm: KcmConfig,
    /// Scheduler tunables.
    pub scheduler: SchedulerConfig,
    /// Kubelet tunables.
    pub kubelet: KubeletConfig,
    /// Network/traffic tunables.
    pub net: NetConfig,
    /// Whether the service application resolves names through cluster DNS.
    pub app_needs_dns: bool,
    /// Which of the paper's §VI-B mitigations are active (all off by
    /// default — the paper's campaign measures the unmitigated system).
    pub mitigations: MitigationsConfig,
    /// Cloud-provider node auto-repair (the Figure 2 amplifier); off by
    /// default, matching the paper's on-premises kubeadm testbed.
    pub node_repair: Option<NodeRepairConfig>,
    /// Client request rate.
    pub client_rps: u64,
    /// Client send duration.
    pub client_duration_ms: u64,
    /// Observation window after the client stops (steady-state check).
    pub post_client_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: 1,
            workers: 4,
            etcd_replicas: 1,
            etcd_capacity_bytes: 2 * 1024 * 1024,
            storage: etcd_sim::StorageKind::Mem,
            worker_cpu_milli: 8_000,
            worker_memory_mb: 4_096,
            kcm: KcmConfig::default(),
            scheduler: SchedulerConfig::default(),
            kubelet: KubeletConfig::default(),
            net: NetConfig::default(),
            app_needs_dns: false,
            mitigations: MitigationsConfig::default(),
            node_repair: None,
            client_rps: 20,
            client_duration_ms: 30_000,
            post_client_ms: 45_000,
        }
    }
}

/// Simulation events driving the world.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    KcmTick,
    SchedTick,
    KubeletTick(usize),
    NetTick,
    MetricsTick,
    StatsTick,
    ClientRequest(u32),
    UserOp(usize),
    MitigationTick,
    RepairTick,
}

/// End of the bootstrap settling phase.
const BOOTSTRAP_MS: u64 = 20_000;
/// End of the scenario-setup settling phase.
const SETUP_SETTLE_MS: u64 = 32_000;
/// Workload (and client) start — campaign recorders arm at this time.
pub const WORKLOAD_START_MS: u64 = 35_000;
const T0_MS: u64 = WORKLOAD_START_MS;

/// The fully wired simulated cluster.
pub struct World {
    /// Configuration this world was built with.
    pub cfg: ClusterConfig,
    sim: Sim<Ev>,
    /// The apiserver (and, through it, etcd).
    pub api: ApiServer,
    /// The controller manager.
    pub kcm: Kcm,
    /// The scheduler.
    pub scheduler: Scheduler,
    /// One kubelet per node; index 0 is the control-plane node.
    pub kubelets: Vec<Kubelet>,
    /// The network fabric and traffic engine.
    pub net: NetSim,
    /// Shared component trace buffer.
    pub trace: TraceHandle,
    /// Everything the data-collection layer gathered.
    pub stats: RunStats,
    /// The replication circuit breaker, when enabled.
    pub breaker: Option<ReplicationBreaker>,
    /// The critical-field change guard, when enabled.
    pub guard: Option<CriticalFieldGuard>,
    /// The cloud node auto-repair loop, when enabled.
    pub repairer: Option<NodeRepairer>,
    user_ops: Vec<UserOp>,
    client_node: String,
    client_target: String,
    horizon: u64,
    t0: u64,
    stats_cursor: u64,
    metrics_scheduled: bool,
    cp_tainted: bool,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.sim.now())
            .field("horizon", &self.horizon)
            .field("pods", &self.stats.pod_created.len())
            .finish()
    }
}

impl World {
    /// Builds the cluster: system objects installed, components wired,
    /// ticks scheduled. Run [`World::prepare`] next.
    pub fn new(cfg: ClusterConfig, interceptor: InterceptorHandle) -> World {
        // Refresh the telemetry enable flag from the environment once per
        // world, mirroring the MUTINY_DECODE_CACHE pattern: the
        // simulation itself never reads the environment mid-run, and the
        // determinism tests can flip MUTINY_METRICS between campaigns.
        mutiny_telemetry::run_begin();
        let trace: TraceHandle = Rc::new(RefCell::new(Trace::new(4_096)));
        trace.borrow_mut().store_debug = false;
        let root_rng = Rng::new(cfg.seed);

        let etcd = etcd_sim::Etcd::new(cfg.etcd_replicas, cfg.etcd_capacity_bytes);
        let mut api = ApiServer::new(etcd, interceptor, Rc::clone(&trace));
        if cfg.mitigations.integrity {
            api.install_integrity(Rc::new(CriticalFieldSealer::default()));
        }
        bootstrap::install_system_objects(&mut api);
        if cfg.mitigations.policies {
            api.install_policy(Box::new(mutiny_mitigations::DenyCriticalScaleToZero));
            api.install_policy(Box::new(mutiny_mitigations::RequireResourceLimits));
            api.install_policy(Box::new(mutiny_mitigations::ReplicaCeiling::default()));
            api.install_policy(Box::new(mutiny_mitigations::NamespacePodQuota::default()));
        }
        if cfg.mitigations.validating {
            api.install_policy(Box::new(mutiny_mitigations::ValidatingAdmission::default()));
        }
        let breaker = cfg
            .mitigations
            .breaker
            .then(|| ReplicationBreaker::new(BreakerConfig::default(), &api));
        let guard = cfg
            .mitigations
            .guard
            .then(|| CriticalFieldGuard::new(GuardConfig::default(), &mut api));

        let kcm = Kcm::new("kcm-0", cfg.kcm.clone(), &api, Rc::clone(&trace), root_rng.fork("kcm"));
        let scheduler =
            Scheduler::new("sched-0", cfg.scheduler.clone(), &api, Rc::clone(&trace));

        let mut kubelets = Vec::new();
        let mut node_names = vec!["cp-1".to_owned()];
        for i in 1..=cfg.workers {
            node_names.push(format!("w{i}"));
        }
        for (i, name) in node_names.iter().enumerate() {
            kubelets.push(Kubelet::new(
                name,
                i as u32,
                cfg.worker_cpu_milli,
                cfg.worker_memory_mb,
                cfg.kubelet.clone(),
                &api,
                Rc::clone(&trace),
                root_rng.fork(&format!("kubelet-{name}")),
            ));
        }

        let net = NetSim::new(cfg.net.clone(), root_rng.fork("net"));
        let client_node = node_names.last().expect("at least one node").clone();

        let mut sim = Sim::new();
        sim.schedule(10, Ev::KcmTick);
        sim.schedule(20, Ev::SchedTick);
        for i in 0..kubelets.len() {
            sim.schedule(30 + 40 * i as u64, Ev::KubeletTick(i));
        }
        sim.schedule(500, Ev::NetTick);
        sim.schedule(200, Ev::StatsTick);
        if breaker.is_some() || guard.is_some() {
            sim.schedule(750, Ev::MitigationTick);
        }
        let repairer = cfg.node_repair.clone().map(NodeRepairer::new);
        if repairer.is_some() {
            sim.schedule(1_250, Ev::RepairTick);
        }

        let stats_cursor = api.watch_head();
        World {
            cfg,
            sim,
            api,
            kcm,
            scheduler,
            kubelets,
            net,
            trace,
            stats: RunStats::default(),
            breaker,
            guard,
            repairer,
            user_ops: Vec::new(),
            client_node,
            client_target: "web-1-svc".to_owned(),
            horizon: T0_MS,
            t0: T0_MS,
            stats_cursor,
            metrics_scheduled: false,
            cp_tainted: false,
        }
    }

    /// Forks this world at its current simulated time: a structurally
    /// independent copy sharing immutable payloads (`Arc<[u8]>` store
    /// buffers, `Rc<Object>` cache entries) with the original, wired to a
    /// fresh `interceptor`. Fork-the-world campaign execution snapshots a
    /// scenario once at `t0` and forks per experiment instead of
    /// replaying the fault-free prefix; every fault family is inert
    /// before its arm time, so a forked run is byte-identical to a
    /// replay-from-zero with the same interceptor.
    pub fn fork(&self, interceptor: InterceptorHandle) -> World {
        // Mirror `World::new`: refresh the telemetry enable flag once per
        // (forked) run so determinism tests can flip MUTINY_METRICS
        // between campaigns in fork mode too.
        mutiny_telemetry::run_begin();
        let trace: TraceHandle = Rc::new(RefCell::new(self.trace.borrow().clone()));
        let api = self.api.fork(interceptor, Rc::clone(&trace));
        let mut kcm = self.kcm.clone();
        kcm.set_trace(Rc::clone(&trace));
        let mut scheduler = self.scheduler.clone();
        scheduler.set_trace(Rc::clone(&trace));
        let mut kubelets = self.kubelets.clone();
        for kl in &mut kubelets {
            kl.set_trace(Rc::clone(&trace));
        }
        World {
            cfg: self.cfg.clone(),
            sim: self.sim.clone(),
            api,
            kcm,
            scheduler,
            kubelets,
            net: self.net.clone(),
            trace,
            stats: self.stats.clone(),
            breaker: self.breaker.clone(),
            guard: self.guard.clone(),
            repairer: self.repairer.clone(),
            user_ops: self.user_ops.clone(),
            client_node: self.client_node.clone(),
            client_target: self.client_target.clone(),
            horizon: self.horizon,
            t0: self.t0,
            stats_cursor: self.stats_cursor,
            metrics_scheduled: self.metrics_scheduled,
            cp_tainted: self.cp_tainted,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    /// Workload start time.
    pub fn t0(&self) -> u64 {
        self.t0
    }

    /// End of the observation window.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Runs the event loop up to simulated time `t`.
    pub fn run_until(&mut self, t: u64) {
        while let Some((at, ev)) = self.sim.next_until(t) {
            self.handle(at, ev);
        }
    }

    /// Bootstraps the cluster and pre-creates the scenario's application
    /// objects (§IV-C's "fault/error injection scenario set-up"): each
    /// entry in `apps` becomes a two-replica `web-<index>` Deployment plus
    /// its Service. Returns the workload start time `t0`.
    pub fn prepare(&mut self, apps: &[u32]) -> u64 {
        self.run_until(2_000);
        self.taint_control_plane();
        self.run_until(BOOTSTRAP_MS);
        for index in apps {
            let d = workload::app_deployment(*index, 2, self.cfg.app_needs_dns);
            let _ = self.api.create(Channel::UserToApi, Object::Deployment(d));
            let _ =
                self.api.create(Channel::UserToApi, Object::Service(workload::app_service(*index)));
        }
        self.run_until(SETUP_SETTLE_MS);
        self.t0 = T0_MS;
        self.t0
    }

    fn taint_control_plane(&mut self) {
        if self.cp_tainted {
            return;
        }
        if let Some(Object::Node(n)) = self.api.get(Kind::Node, "", "cp-1").as_deref() {
            let mut n = n.clone();
            n.add_taint("node-role.kubernetes.io/control-plane", TAINT_NO_SCHEDULE);
            if self.api.update(Channel::UserToApi, Object::Node(n)).is_ok() {
                self.cp_tainted = true;
            }
        }
    }

    /// Schedules the scenario's timed user operations (offsets from
    /// `t0`), the application client, and metrics sampling. Call after
    /// [`World::prepare`]; then either [`World::run_to_horizon`] or step
    /// manually with [`World::run_until`].
    pub fn schedule_ops(&mut self, ops: Vec<(u64, UserOp)>) {
        let t0 = self.t0;
        self.stats.t0 = t0;
        for (off, op) in ops {
            let idx = self.user_ops.len();
            self.user_ops.push(op);
            self.sim.schedule(t0 + off, Ev::UserOp(idx));
        }
        let interval = 1_000 / self.cfg.client_rps.max(1);
        let total = self.cfg.client_duration_ms / interval;
        for i in 0..total {
            self.sim.schedule(t0 + i * interval, Ev::ClientRequest(i as u32));
        }
        if !self.metrics_scheduled {
            self.sim.schedule(t0, Ev::MetricsTick);
            self.metrics_scheduled = true;
        }
        self.horizon = t0 + self.cfg.client_duration_ms + self.cfg.post_client_ms;
    }

    /// Runs the world to the end of the observation window.
    pub fn run_to_horizon(&mut self) {
        self.run_until(self.horizon);
    }

    fn handle(&mut self, at: u64, ev: Ev) {
        self.api.set_now(at);
        match ev {
            Ev::KcmTick => {
                self.kcm.step(&mut self.api, at);
                self.sim.schedule_after(100, Ev::KcmTick);
            }
            Ev::SchedTick => {
                self.scheduler.step(&mut self.api, at);
                self.sim.schedule_after(100, Ev::SchedTick);
            }
            Ev::KubeletTick(i) => {
                self.kubelets[i].step(&mut self.api, at);
                self.sim.schedule_after(200, Ev::KubeletTick(i));
            }
            Ev::NetTick => {
                self.net.refresh(&mut self.api);
                self.sim.schedule_after(500, Ev::NetTick);
            }
            Ev::MetricsTick => {
                self.sample_metrics(at);
                self.sim.schedule_after(3_000, Ev::MetricsTick);
            }
            Ev::StatsTick => {
                self.collect_pod_timings(at);
                self.sim.schedule_after(200, Ev::StatsTick);
            }
            Ev::ClientRequest(_) => {
                let outcome = self.net.request(
                    &mut self.api,
                    at,
                    &self.client_node.clone(),
                    "default",
                    &self.client_target.clone(),
                    80,
                    self.cfg.app_needs_dns,
                );
                self.stats.client.push(ClientSample { at, outcome });
            }
            Ev::UserOp(idx) => {
                let op = self.user_ops[idx].clone();
                workload::execute_op(&mut self.api, &op, self.cfg.app_needs_dns);
            }
            Ev::MitigationTick => {
                if let Some(b) = self.breaker.as_mut() {
                    b.step(&mut self.api, at);
                }
                if let Some(g) = self.guard.as_mut() {
                    g.step(&mut self.api, at);
                }
                self.sim.schedule_after(1_000, Ev::MitigationTick);
            }
            Ev::RepairTick => {
                if let Some(r) = self.repairer.as_mut() {
                    r.step(&mut self.api, at);
                }
                self.sim.schedule_after(5_000, Ev::RepairTick);
            }
        }
    }

    fn collect_pod_timings(&mut self, _at: u64) {
        let (events, next) = self.api.poll_events(self.stats_cursor);
        self.stats_cursor = next;
        for ev in events {
            if ev.kind != Kind::Pod || !ev.key.starts_with("/registry/pods/default/web-") {
                continue;
            }
            match ev.object.as_deref() {
                Some(Object::Pod(pod)) => {
                    let created_at = *self
                        .stats
                        .pod_created
                        .entry(String::from(&*ev.key))
                        .or_insert(pod.metadata.creation_timestamp.max(0) as u64);
                    let _ = created_at;
                    if pod.status.phase == "Running" {
                        let start = pod.status.start_time.max(0) as u64;
                        self.stats.pod_running.entry(String::from(&*ev.key)).or_insert(start);
                    }
                    if pod.status.restart_count > self.stats.app_pod_restarts {
                        self.stats.app_pod_restarts = pod.status.restart_count;
                    }
                }
                None if self.stats.t0 > 0
                    && self.api.now() >= self.stats.t0
                    && self.stats.pod_created.contains_key(&*ev.key) =>
                {
                    self.stats.app_pods_deleted += 1;
                }
                _ => {}
            }
        }
    }

    fn sample_metrics(&mut self, at: u64) {
        let mut sample = MetricsSample { at, ..Default::default() };

        self.api.for_each(Kind::Deployment, Some("default"), |obj| {
            if let Object::Deployment(d) = obj {
                if d.metadata.name.starts_with("web-") {
                    sample
                        .app_ready
                        .insert(d.metadata.name.clone(), d.status.ready_replicas);
                }
            }
        });
        self.api.for_each(Kind::Endpoints, Some("default"), |obj| {
            if let Object::Endpoints(ep) = obj {
                if ep.metadata.name.starts_with("web-") {
                    sample
                        .app_endpoints
                        .insert(ep.metadata.name.clone(), ep.ready_addresses().count());
                }
            }
        });

        sample.pods_total = self.api.count(Kind::Pod, None);
        sample.pods_created_cum = self.kcm.metrics.pods_created;
        sample.etcd_objects = self.api.etcd().object_count();
        sample.etcd_stalled = self.api.etcd().is_degraded();
        sample.kcm_leader = self.kcm.is_leader();
        sample.kcm_queue = self.kcm.queue_len();
        sample.sched_leader = self.scheduler.is_leader();
        sample.sched_pending = self.scheduler.pending_len();
        sample.sched_restarts = self.scheduler.metrics.restarts;

        let mut dns_ready = 0i64;
        let mut netpods_failed = false;
        let mut prometheus_ready = false;
        self.api.for_each(Kind::Pod, Some("kube-system"), |obj| {
            if let Object::Pod(p) = obj {
                match p.metadata.labels.get("k8s-app").map(String::as_str) {
                    Some("kube-dns") if p.is_ready() => dns_ready += 1,
                    _ => {}
                }
                match p.metadata.labels.get("app").map(String::as_str) {
                    Some("net-agent") | Some("kube-proxy") if !p.is_ready() => {
                        netpods_failed = true;
                    }
                    Some("prometheus") if p.is_ready() => prometheus_ready = true,
                    _ => {}
                }
            }
        });
        sample.dns_ready = dns_ready;
        sample.netpods_failed = netpods_failed;
        sample.prometheus_ready = prometheus_ready;
        sample.netagents_down = self.net.agents_down();
        sample.net_nodes = self.net.node_count();

        let mut not_ready = 0usize;
        self.api.for_each(Kind::Node, None, |obj| {
            if let Object::Node(n) = obj {
                if !n.status.ready {
                    not_ready += 1;
                }
            }
        });
        sample.nodes_not_ready = not_ready;

        self.stats.samples.push(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_model::NoopInterceptor;

    fn golden_world(seed: u64) -> World {
        let cfg = ClusterConfig { seed, ..Default::default() };
        World::new(cfg, Rc::new(RefCell::new(NoopInterceptor)))
    }

    /// The paper's deploy workload, spelled out as a raw op plan (the
    /// registry entry lives in `mutiny_scenarios`; golden-run expectations
    /// for every registered scenario are tested there).
    fn deploy_ops() -> Vec<(u64, UserOp)> {
        vec![
            (2_000, UserOp::CreateApp { index: 2, replicas: 2 }),
            (2_200, UserOp::CreateApp { index: 3, replicas: 2 }),
            (2_400, UserOp::CreateApp { index: 4, replicas: 2 }),
        ]
    }

    #[test]
    fn bootstrap_brings_up_system_pods() {
        let mut w = golden_world(1);
        w.prepare(&[1]);
        // 5 nodes × 2 DaemonSets + 2 coredns + 1 prometheus.
        let sys_pods = w.api.count(Kind::Pod, Some("kube-system"));
        assert!(sys_pods >= 13, "only {sys_pods} system pods came up");
        assert!(w.net.dns_up(), "DNS should be up after bootstrap");
        assert_eq!(w.net.agents_down(), 0);
    }

    #[test]
    fn topology_scales_worker_count_from_template() {
        let cfg = Topology::virtual_workers(20)
            .apply(ClusterConfig { seed: 9, ..Default::default() });
        let mut w = World::new(cfg, Rc::new(RefCell::new(NoopInterceptor)));
        w.prepare(&[1]);
        // 20 workers + the control plane, all from the one template.
        assert_eq!(w.api.count(Kind::Node, None), 21);
        assert_eq!(w.kubelets.len(), 21);
        // DaemonSets cover every node.
        let sys_pods = w.api.count(Kind::Pod, Some("kube-system"));
        assert!(sys_pods >= 2 * 21, "only {sys_pods} system pods on 21 nodes");
    }

    #[test]
    fn golden_deploy_plan_serves_every_request() {
        let mut w = golden_world(2);
        w.prepare(&[1]);
        w.schedule_ops(deploy_ops());
        w.run_to_horizon();
        assert_eq!(w.stats.client.len(), 600);
        assert_eq!(
            w.stats.client_failures(),
            0,
            "golden run had failures: refused={} timeouts={} dns={}",
            w.net.metrics.refused,
            w.net.metrics.timeouts,
            w.net.metrics.dns_failures
        );
        // The three new deployments converged.
        let last = w.stats.last_sample().unwrap();
        for name in ["web-1", "web-2", "web-3", "web-4"] {
            assert_eq!(last.app_ready.get(name), Some(&2), "{name} not converged: {last:?}");
        }
        assert!(w.api.audit().user_errors() == 0);
    }

    #[test]
    fn golden_run_with_all_mitigations_is_clean() {
        // The §VI-B defenses must not disturb a healthy cluster: no policy
        // denials, no integrity repairs, no breaker trips, no rollbacks.
        let cfg = ClusterConfig {
            seed: 5,
            mitigations: MitigationsConfig::all(),
            ..Default::default()
        };
        let mut w = World::new(cfg, Rc::new(RefCell::new(k8s_model::NoopInterceptor)));
        w.prepare(&[1]);
        w.schedule_ops(deploy_ops());
        w.run_to_horizon();
        assert_eq!(w.stats.client_failures(), 0);
        let last = w.stats.last_sample().unwrap();
        for name in ["web-1", "web-2", "web-3", "web-4"] {
            assert_eq!(last.app_ready.get(name), Some(&2), "{name} not converged");
        }
        assert_eq!(w.api.policy_denials, 0, "policies denied a legitimate request");
        assert_eq!(w.api.policy_repairs, 0, "validating admission repaired a clean spec");
        assert_eq!(w.api.integrity_metrics.violations, 0, "spurious integrity violation");
        assert_eq!(w.breaker.as_ref().unwrap().metrics.trips, 0, "spurious breaker trip");
        assert_eq!(w.guard.as_ref().unwrap().metrics.rollbacks, 0, "spurious rollback");
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let run = |seed| {
            let mut w = golden_world(seed);
            w.prepare(&[1]);
            w.schedule_ops(deploy_ops());
            w.run_to_horizon();
            w.stats.response_series()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
