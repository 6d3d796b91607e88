//! The critical-field change guard: journal, health monitor, rollback.
//!
//! The paper's headline recommendation (§I, §VI-B): "the system should log
//! changes to labels that can cause critical failures, monitor whether
//! those changes alter system availability, and possibly roll back to the
//! old values when needed."
//!
//! [`CriticalFieldGuard`] watches the apiserver's event stream and keeps a
//! journal of every change to a critical field (the [`crate::catalog`]
//! subset). After each guarded change it watches cluster health for a
//! configurable window; if health degrades while changes are in the
//! window, the guard rolls the changed objects back to their pre-change
//! snapshots. The journal alone also fixes the paper's F4 (user
//! unawareness): the divergence is *recorded* even when the apiserver
//! acknowledged the original request without error.

use crate::catalog::critical_paths;
use k8s_apiserver::ApiServer;
use k8s_model::{Channel, Kind, Object};
use protowire::reflect::Value;
use std::collections::HashMap;

/// Guard tunables.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// How long after a guarded change health is attributed to it.
    pub observe_window_ms: u64,
    /// Rollback attempts per object key (prevents rollback loops).
    pub max_rollbacks_per_key: u32,
    /// Pod-count growth per window considered a storm.
    pub storm_threshold: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            observe_window_ms: 20_000,
            max_rollbacks_per_key: 1,
            storm_threshold: 15,
        }
    }
}

/// One journaled critical-field change.
#[derive(Debug, Clone)]
pub struct ChangeRecord {
    /// When the change was observed.
    pub at: u64,
    /// Registry key of the changed object (shared with the watch event
    /// that produced it).
    pub key: std::rc::Rc<str>,
    /// Kind of the changed object.
    pub kind: Kind,
    /// Changed paths as `(path, old, new)`; `None` means absent.
    pub changes: Vec<(String, Option<Value>, Option<Value>)>,
    /// True once the guard rolled this change back.
    pub rolled_back: bool,
}

/// A point-in-time health assessment derived from the API state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthSample {
    /// At least one DNS pod is ready.
    pub dns_ready: bool,
    /// Some networking pod (net-agent / kube-proxy) is not ready.
    pub netpods_failed: bool,
    /// Pod count grew faster than the storm threshold.
    pub pod_storm: bool,
    /// The data store refused writes (disk full).
    pub etcd_stalled: bool,
    /// Nodes currently reporting not ready.
    pub nodes_not_ready: usize,
}

impl HealthSample {
    /// True when any degradation signal is raised.
    pub fn degraded(&self) -> bool {
        !self.dns_ready
            || self.netpods_failed
            || self.pod_storm
            || self.etcd_stalled
            || self.nodes_not_ready > 0
    }
}

/// Guard counters, exposed to the ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardMetrics {
    /// Critical-field changes journaled.
    pub journaled: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Rollbacks skipped because the per-key budget was spent.
    pub rollback_budget_exhausted: u64,
    /// Compactions requested in response to a degraded store.
    pub store_compactions: u64,
}

/// Watches for critical-field changes and rolls them back when cluster
/// health degrades inside the observation window.
#[derive(Clone)]
pub struct CriticalFieldGuard {
    cfg: GuardConfig,
    cursor: u64,
    /// Last known state per key (the rollback target).
    snapshots: HashMap<std::rc::Rc<str>, std::rc::Rc<Object>>,
    /// Journal of guarded changes (pre-change snapshot retained until the
    /// window expires).
    journal: Vec<ChangeRecord>,
    /// Pre-change snapshots for journal entries still in the window.
    pending: Vec<(usize, std::rc::Rc<Object>)>,
    /// Rollbacks already spent per key.
    rollbacks_done: HashMap<std::rc::Rc<str>, u32>,
    /// Pod count at the last step (storm detection).
    last_pod_count: usize,
    last_step: u64,
    /// True once the cluster finished bootstrapping (first healthy step);
    /// the guard does not attribute bootstrap churn to user changes.
    armed: bool,
    /// Counters.
    pub metrics: GuardMetrics,
}

impl std::fmt::Debug for CriticalFieldGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CriticalFieldGuard")
            .field("journal", &self.journal.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl CriticalFieldGuard {
    /// Creates a guard watching from the apiserver's current event head,
    /// seeded with a snapshot of every object already stored (a controller
    /// re-list on startup).
    pub fn new(cfg: GuardConfig, api: &mut ApiServer) -> CriticalFieldGuard {
        let cursor = api.watch_head();
        let mut snapshots = HashMap::new();
        for kind in Kind::ALL {
            for obj in api.list(kind, None) {
                snapshots.insert(obj.key().into(), obj);
            }
        }
        CriticalFieldGuard {
            cfg,
            cursor,
            snapshots,
            journal: Vec::new(),
            pending: Vec::new(),
            rollbacks_done: HashMap::new(),
            last_pod_count: 0,
            last_step: 0,
            armed: false,
            metrics: GuardMetrics::default(),
        }
    }

    /// The journal of observed critical-field changes.
    pub fn journal(&self) -> &[ChangeRecord] {
        &self.journal
    }

    /// Computes the current health sample from the API state.
    pub fn sample_health(&mut self, api: &mut ApiServer) -> HealthSample {
        let mut dns_ready = false;
        let mut netpods_failed = false;
        api.for_each(Kind::Pod, Some("kube-system"), |obj| {
            if let Object::Pod(p) = obj {
                if p.metadata.labels.get("k8s-app").map(String::as_str) == Some("kube-dns")
                    && p.is_ready()
                {
                    dns_ready = true;
                }
                if matches!(
                    p.metadata.labels.get("app").map(String::as_str),
                    Some("net-agent") | Some("kube-proxy")
                ) && !p.is_ready()
                {
                    netpods_failed = true;
                }
            }
        });
        let pods = api.count(Kind::Pod, None);
        let pod_storm = pods > self.last_pod_count + self.cfg.storm_threshold;
        self.last_pod_count = pods;
        let mut nodes_not_ready = 0usize;
        api.for_each(Kind::Node, None, |obj| {
            if let Object::Node(n) = obj {
                if !n.status.ready {
                    nodes_not_ready += 1;
                }
            }
        });
        HealthSample {
            dns_ready,
            netpods_failed,
            pod_storm,
            etcd_stalled: api.etcd().is_degraded(),
            nodes_not_ready,
        }
    }

    /// Runs one guard step at simulated time `now`: journal new changes,
    /// sample health, roll back if degraded.
    pub fn step(&mut self, api: &mut ApiServer, now: u64) {
        self.last_step = now;
        self.observe_changes(api, now);

        let health = self.sample_health(api);
        // Storage-pressure response: a degraded store (disk budget
        // exhausted or writes already rejected) gets an operator-style
        // compaction — semantics-preserving, and trims the watch log so
        // lagging watchers re-list instead of replaying into the stall.
        if health.etcd_stalled {
            api.etcd_mut().compact();
            self.metrics.store_compactions += 1;
        }
        if !self.armed {
            // Arm once the cluster is healthy; bootstrap churn is not a
            // guarded change's fault.
            if health.dns_ready && !health.netpods_failed && health.nodes_not_ready == 0 {
                self.armed = true;
            }
            self.expire_pending(now);
            return;
        }

        if health.degraded() {
            self.rollback_pending(api, now);
        }
        self.expire_pending(now);
    }

    fn observe_changes(&mut self, api: &mut ApiServer, now: u64) {
        let (events, next) = api.poll_events(self.cursor);
        self.cursor = next;
        for ev in events {
            // Pods and Endpoints are *derived* state: controllers rebuild
            // them from their owners, and their critical fields legitimately
            // churn through the lifecycle (bindings, IPs, readiness). The
            // guard protects the authored objects those derivations come
            // from; rolling back derived state would fight the controllers.
            if matches!(ev.kind, Kind::Pod | Kind::Endpoints) {
                continue;
            }
            match ev.object {
                Some(new_obj) => {
                    let old = self.snapshots.insert(ev.key.clone(), new_obj.clone());
                    let Some(old) = old else { continue };
                    let diffs = diff_critical(&old, &new_obj);
                    if diffs.is_empty() {
                        continue;
                    }
                    self.metrics.journaled += 1;
                    let idx = self.journal.len();
                    self.journal.push(ChangeRecord {
                        at: now,
                        key: ev.key.clone(),
                        kind: ev.kind,
                        changes: diffs,
                        rolled_back: false,
                    });
                    if self.armed {
                        self.pending.push((idx, old));
                    }
                }
                None => {
                    self.snapshots.remove(&ev.key);
                    // Deletions are not rolled back: recreating objects the
                    // user meant to delete would fight legitimate cleanup.
                    self.pending.retain(|(idx, _)| self.journal[*idx].key != ev.key);
                }
            }
        }
    }

    fn rollback_pending(&mut self, api: &mut ApiServer, now: u64) {
        let pending = std::mem::take(&mut self.pending);
        for (idx, old_obj) in pending {
            let record = &mut self.journal[idx];
            if now.saturating_sub(record.at) > self.cfg.observe_window_ms {
                continue; // expired while degraded for other reasons
            }
            let spent = self.rollbacks_done.entry(record.key.clone()).or_insert(0);
            if *spent >= self.cfg.max_rollbacks_per_key {
                self.metrics.rollback_budget_exhausted += 1;
                continue;
            }
            *spent += 1;
            let mut restore = (*old_obj).clone();
            // Bypass optimistic concurrency: the rollback wins.
            restore.meta_mut().resource_version = 0;
            if api.update(Channel::UserToApi, restore).is_ok() {
                record.rolled_back = true;
                self.metrics.rollbacks += 1;
            }
        }
    }

    fn expire_pending(&mut self, now: u64) {
        let window = self.cfg.observe_window_ms;
        let journal = &self.journal;
        self.pending
            .retain(|(idx, _)| now.saturating_sub(journal[*idx].at) <= window);
    }
}

/// True for a default/unset value: overwriting one is an initialization
/// (first assignment), not a suspicious change.
fn is_default(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i == 0,
        Value::Str(s) => s.is_empty(),
        Value::Bool(b) => !*b,
    }
}

/// Critical-field differences between two versions of an object. First
/// assignments (default → value) are not reported: initialization is part
/// of the normal lifecycle, and "rolling back" to an unset value would
/// undo legitimate work.
fn diff_critical(
    old: &Object,
    new: &Object,
) -> Vec<(String, Option<Value>, Option<Value>)> {
    let old_fields: HashMap<String, Value> = critical_paths(old).into_iter().collect();
    let new_fields: HashMap<String, Value> = critical_paths(new).into_iter().collect();
    let mut out = Vec::new();
    for (path, old_v) in &old_fields {
        if is_default(old_v) {
            continue;
        }
        match new_fields.get(path) {
            Some(new_v) if new_v == old_v => {}
            other => out.push((path.clone(), Some(old_v.clone()), other.cloned())),
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use etcd_sim::Etcd;
    use k8s_apiserver::{InterceptorHandle, TraceHandle};
    use k8s_model::{Container, NoopInterceptor, ObjectMeta, Pod, Service};
    use simkit::Trace;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn api() -> ApiServer {
        let interceptor: InterceptorHandle = Rc::new(RefCell::new(NoopInterceptor));
        let trace: TraceHandle = Rc::new(RefCell::new(Trace::new(256)));
        ApiServer::new(Etcd::new(1, 8 << 20), interceptor, trace)
    }

    /// Installs a minimal healthy cluster: a ready DNS pod and one node.
    fn install_healthy(api: &mut ApiServer) {
        let node = k8s_model::Node::worker("w1", 8000, 4096);
        let mut node = node;
        node.status.ready = true;
        api.create(Channel::KubeletToApi, Object::Node(node)).unwrap();
        let mut dns = Pod::default();
        dns.metadata = ObjectMeta::named("kube-system", "coredns-1");
        dns.metadata.labels.insert("k8s-app".into(), "kube-dns".into());
        dns.spec.containers.push(Container {
            name: "c".into(),
            image: "dns:1".into(),
            ..Default::default()
        });
        dns.status.phase = "Running".into();
        dns.status.ready = true;
        api.create(Channel::ApiToEtcd, Object::Pod(dns)).unwrap();
    }

    fn install_service(api: &mut ApiServer) {
        let mut svc = Service::default();
        svc.metadata = ObjectMeta::named("default", "web-svc");
        svc.spec.selector.insert("app".into(), "web".into());
        svc.spec.cluster_ip = "10.96.0.20".into();
        svc.spec.port = 80;
        api.create(Channel::UserToApi, Object::Service(svc)).unwrap();
    }

    #[test]
    fn journals_critical_changes() {
        let mut a = api();
        install_healthy(&mut a);
        install_service(&mut a);
        let mut g = CriticalFieldGuard::new(GuardConfig::default(), &mut a);
        g.step(&mut a, 1_000); // snapshot + arm

        if let Some(Object::Service(svc)) = a.get(Kind::Service, "default", "web-svc").as_deref() {
            let mut svc = svc.clone();
            svc.spec.selector.insert("app".into(), "wea".into()); // corrupted
            a.update(Channel::ApiToEtcd, Object::Service(svc)).unwrap();
        }
        g.step(&mut a, 2_000);
        assert_eq!(g.metrics.journaled, 1);
        let rec = &g.journal()[0];
        assert!(rec.key.contains("web-svc"));
        assert!(rec.changes.iter().any(|(p, _, _)| p.contains("selector['app']")));
    }

    #[test]
    fn noncritical_changes_are_not_journaled() {
        let mut a = api();
        install_healthy(&mut a);
        install_service(&mut a);
        let mut g = CriticalFieldGuard::new(GuardConfig::default(), &mut a);
        g.step(&mut a, 1_000);
        // Touch nothing critical: generation/annotations churn only.
        if let Some(svc) = a.get(Kind::Service, "default", "web-svc") {
            let mut svc = (*svc).clone();
            svc.meta_mut().annotations.insert("note".into(), "hello".into());
            a.update(Channel::UserToApi, svc).unwrap();
        }
        g.step(&mut a, 2_000);
        assert_eq!(g.metrics.journaled, 0);
    }

    #[test]
    fn rolls_back_when_health_degrades_in_window() {
        let mut a = api();
        install_healthy(&mut a);
        install_service(&mut a);
        let mut g = CriticalFieldGuard::new(GuardConfig::default(), &mut a);
        g.step(&mut a, 1_000); // arm

        // Corrupt the service selector (critical) …
        if let Some(Object::Service(svc)) = a.get(Kind::Service, "default", "web-svc").as_deref() {
            let mut svc = svc.clone();
            svc.spec.selector.insert("app".into(), "wea".into());
            a.update(Channel::ApiToEtcd, Object::Service(svc)).unwrap();
        }
        g.step(&mut a, 2_000);
        // … then degrade health inside the window (DNS pod dies).
        if let Some(Object::Pod(dns)) = a.get(Kind::Pod, "kube-system", "coredns-1").as_deref() {
            let mut dns = dns.clone();
            dns.status.ready = false;
            a.update(Channel::KubeletToApi, Object::Pod(dns)).unwrap();
        }
        g.step(&mut a, 5_000);
        assert_eq!(g.metrics.rollbacks, 1);
        let svc = a.get(Kind::Service, "default", "web-svc").unwrap();
        if let Object::Service(svc) = &*svc {
            assert_eq!(svc.spec.selector["app"], "web", "selector not restored");
        }
        assert!(g.journal()[0].rolled_back);
    }

    #[test]
    fn healthy_changes_expire_without_rollback() {
        let mut a = api();
        install_healthy(&mut a);
        install_service(&mut a);
        let mut g = CriticalFieldGuard::new(GuardConfig::default(), &mut a);
        g.step(&mut a, 1_000);

        if let Some(Object::Service(svc)) = a.get(Kind::Service, "default", "web-svc").as_deref() {
            let mut svc = svc.clone();
            svc.spec.port = 8080; // a legitimate (if critical) change
            a.update(Channel::UserToApi, Object::Service(svc)).unwrap();
        }
        g.step(&mut a, 2_000);
        g.step(&mut a, 30_000); // window expires, health fine
        // Degrade health *after* the window: no rollback.
        if let Some(Object::Pod(dns)) = a.get(Kind::Pod, "kube-system", "coredns-1").as_deref() {
            let mut dns = dns.clone();
            dns.status.ready = false;
            a.update(Channel::KubeletToApi, Object::Pod(dns)).unwrap();
        }
        g.step(&mut a, 31_000);
        assert_eq!(g.metrics.rollbacks, 0);
        let svc = a.get(Kind::Service, "default", "web-svc").unwrap();
        if let Object::Service(svc) = &*svc {
            assert_eq!(svc.spec.port, 8080, "legitimate change must survive");
        }
    }

    #[test]
    fn rollback_budget_is_respected() {
        let cfg = GuardConfig { max_rollbacks_per_key: 0, ..GuardConfig::default() };
        let mut a = api();
        install_healthy(&mut a);
        install_service(&mut a);
        let mut g = CriticalFieldGuard::new(cfg, &mut a);
        g.step(&mut a, 1_000);
        if let Some(Object::Service(svc)) = a.get(Kind::Service, "default", "web-svc").as_deref() {
            let mut svc = svc.clone();
            svc.spec.selector.insert("app".into(), "wea".into());
            a.update(Channel::ApiToEtcd, Object::Service(svc)).unwrap();
        }
        g.step(&mut a, 2_000);
        if let Some(Object::Pod(dns)) = a.get(Kind::Pod, "kube-system", "coredns-1").as_deref() {
            let mut dns = dns.clone();
            dns.status.ready = false;
            a.update(Channel::KubeletToApi, Object::Pod(dns)).unwrap();
        }
        g.step(&mut a, 5_000);
        assert_eq!(g.metrics.rollbacks, 0);
        assert_eq!(g.metrics.rollback_budget_exhausted, 1);
    }

    #[test]
    fn degraded_store_triggers_compaction() {
        let mut a = api();
        install_healthy(&mut a);
        let mut g = CriticalFieldGuard::new(GuardConfig::default(), &mut a);
        g.step(&mut a, 1_000); // arm on a healthy cluster
        assert_eq!(g.metrics.store_compactions, 0);
        let before = a.etcd().compactions();
        a.etcd_mut().clamp_disk_budget(); // the etcd-disk-full actuation
        g.step(&mut a, 2_000);
        assert_eq!(g.metrics.store_compactions, 1);
        assert!(a.etcd().compactions() > before, "compaction must reach the engine");
        a.etcd_mut().restore_disk_budget();
        g.step(&mut a, 3_000);
        assert_eq!(g.metrics.store_compactions, 1, "a healthy store is not compacted");
    }

    #[test]
    fn diff_detects_removals_but_not_first_assignments() {
        let mut a = Service::default();
        a.metadata = ObjectMeta::named("default", "s");
        a.spec.selector.insert("app".into(), "web".into());
        let mut b = a.clone();
        b.spec.selector.remove("app");
        b.spec.selector.insert("tier".into(), "backend".into());
        let diffs = diff_critical(&Object::Service(a.clone()), &Object::Service(b));
        // Losing a selector entry is a guarded change …
        assert!(diffs.iter().any(|(p, o, n)| p.contains("app") && o.is_some() && n.is_none()));
        // … but a new entry (first assignment) is not: rolling it back
        // would undo legitimate initialization.
        assert!(!diffs.iter().any(|(p, _, _)| p.contains("tier")));

        // A scheduler binding ("" → node) must not be journaled.
        let mut before = k8s_model::Pod::default();
        before.metadata = ObjectMeta::named("default", "p");
        let mut after = before.clone();
        after.spec.node_name = "w1".into();
        let diffs = diff_critical(&Object::Pod(before), &Object::Pod(after));
        assert!(diffs.is_empty(), "first assignment journaled: {diffs:?}");
    }
}
