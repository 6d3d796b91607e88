//! Stricter admission checks.
//!
//! §VI-B proposes concrete denials Kubernetes does not enforce out of the
//! box: "stricter checks can be enforced: e.g., scaling of coreDNS to 0
//! should be denied"; "user requests that can overload the system should
//! be blocked, e.g., reject the spawning of a large number of Pods
//! without resource limits"; and namespace quotas to "limit resource
//! counts … and mitigate failures". Each proposal is one
//! [`AdmissionPolicy`] here.

use k8s_apiserver::{prefix_range, AdmissionPolicy, PolicyCtx};
use k8s_model::{Object, Op};

/// Label marking a Deployment as critical: scaling it to zero (or deleting
/// it) is denied, like coreDNS.
pub const CRITICAL_LABEL: &str = "mutiny.io/critical";

fn is_critical_deployment(d: &k8s_model::Deployment) -> bool {
    d.metadata.labels.get("k8s-app").map(String::as_str) == Some("kube-dns")
        || d.metadata.labels.get(CRITICAL_LABEL).map(String::as_str) == Some("true")
}

/// Denies scaling critical Deployments (coreDNS, anything labelled
/// `mutiny.io/critical=true`) to zero replicas, and denies deleting them.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenyCriticalScaleToZero;

impl AdmissionPolicy for DenyCriticalScaleToZero {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &str {
        "deny-critical-scale-to-zero"
    }

    fn review(&mut self, ctx: &PolicyCtx<'_>) -> Result<(), String> {
        let Object::Deployment(d) = ctx.object else { return Ok(()) };
        if !is_critical_deployment(d) {
            return Ok(());
        }
        match ctx.op {
            Op::Delete => Err(format!(
                "deployment {}/{} is critical and must not be deleted",
                d.metadata.namespace, d.metadata.name
            )),
            Op::Create | Op::Update if d.spec.replicas < 1 => Err(format!(
                "deployment {}/{} is critical and must keep at least 1 replica",
                d.metadata.namespace, d.metadata.name
            )),
            _ => Ok(()),
        }
    }
}

/// Rejects pods (and pod templates) without CPU and memory requests — the
/// unbounded-pod overload guard.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequireResourceLimits;

impl RequireResourceLimits {
    fn check_containers(containers: &[k8s_model::Container], what: &str) -> Result<(), String> {
        for c in containers {
            if c.cpu_milli <= 0 || c.memory_mb <= 0 {
                return Err(format!(
                    "{what} container {:?} has no resource requests; unbounded pods can \
                     overload nodes",
                    c.name
                ));
            }
        }
        Ok(())
    }
}

impl AdmissionPolicy for RequireResourceLimits {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &str {
        "require-resource-limits"
    }

    fn review(&mut self, ctx: &PolicyCtx<'_>) -> Result<(), String> {
        if ctx.op == Op::Delete {
            return Ok(());
        }
        match ctx.object {
            Object::Pod(p) => Self::check_containers(&p.spec.containers, "pod"),
            Object::Deployment(d) => {
                Self::check_containers(&d.spec.template.spec.containers, "template")
            }
            Object::ReplicaSet(rs) => {
                Self::check_containers(&rs.spec.template.spec.containers, "template")
            }
            Object::DaemonSet(ds) => {
                Self::check_containers(&ds.spec.template.spec.containers, "template")
            }
            _ => Ok(()),
        }
    }
}

/// Caps the replica count of any single workload (the "reject the spawning
/// of a large number of Pods" guard).
#[derive(Debug, Clone, Copy)]
pub struct ReplicaCeiling {
    /// Maximum replicas accepted for one workload.
    pub max: i64,
}

impl Default for ReplicaCeiling {
    fn default() -> Self {
        ReplicaCeiling { max: 50 }
    }
}

impl AdmissionPolicy for ReplicaCeiling {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }

    fn name(&self) -> &str {
        "replica-ceiling"
    }

    fn review(&mut self, ctx: &PolicyCtx<'_>) -> Result<(), String> {
        if ctx.op == Op::Delete {
            return Ok(());
        }
        let replicas = match ctx.object {
            Object::Deployment(d) => d.spec.replicas,
            Object::ReplicaSet(rs) => rs.spec.replicas,
            Object::HorizontalPodAutoscaler(h) => h.spec.max_replicas,
            _ => return Ok(()),
        };
        if replicas > self.max {
            return Err(format!("replicas {replicas} exceed the cluster ceiling {}", self.max));
        }
        Ok(())
    }
}

/// Per-namespace pod-count quota (the §VI-B namespace resource-quota
/// mitigation). Exempt namespaces (typically `kube-system`) are not
/// counted or capped.
#[derive(Debug, Clone)]
pub struct NamespacePodQuota {
    /// Maximum pods per non-exempt namespace.
    pub max_pods: usize,
    /// Namespaces the quota does not apply to.
    pub exempt: Vec<String>,
}

impl Default for NamespacePodQuota {
    fn default() -> Self {
        NamespacePodQuota { max_pods: 60, exempt: vec!["kube-system".to_owned()] }
    }
}

impl AdmissionPolicy for NamespacePodQuota {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        "namespace-pod-quota"
    }

    fn review(&mut self, ctx: &PolicyCtx<'_>) -> Result<(), String> {
        if ctx.op != Op::Create {
            return Ok(());
        }
        let Object::Pod(p) = ctx.object else { return Ok(()) };
        let ns = &p.metadata.namespace;
        if self.exempt.iter().any(|e| e == ns) {
            return Ok(());
        }
        let prefix = format!("/registry/pods/{ns}/");
        let current = prefix_range(ctx.view, &prefix).count();
        if current >= self.max_pods {
            return Err(format!(
                "namespace {ns:?} is at its pod quota ({current}/{})",
                self.max_pods
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_model::{Channel, Container, Deployment, ObjectMeta, Pod};
    use std::collections::BTreeMap;

    fn ctx<'a>(
        op: Op,
        object: &'a Object,
        view: &'a BTreeMap<String, std::rc::Rc<Object>>,
    ) -> PolicyCtx<'a> {
        PolicyCtx { op, channel: Channel::UserToApi, object, existing: None, now: 0, view }
    }

    fn dns_deployment(replicas: i64) -> Object {
        let mut d = Deployment::default();
        d.metadata = ObjectMeta::named("kube-system", "coredns");
        d.metadata.labels.insert("k8s-app".into(), "kube-dns".into());
        d.spec.replicas = replicas;
        Object::Deployment(d)
    }

    #[test]
    fn coredns_scale_to_zero_denied() {
        let view = BTreeMap::new();
        let mut p = DenyCriticalScaleToZero;
        let zero = dns_deployment(0);
        assert!(p.review(&ctx(Op::Update, &zero, &view)).is_err());
        let one = dns_deployment(1);
        assert!(p.review(&ctx(Op::Update, &one, &view)).is_ok());
        assert!(p.review(&ctx(Op::Delete, &one, &view)).is_err());
    }

    #[test]
    fn ordinary_deployment_may_scale_to_zero() {
        let view = BTreeMap::new();
        let mut p = DenyCriticalScaleToZero;
        let mut d = Deployment::default();
        d.metadata = ObjectMeta::named("default", "web");
        d.spec.replicas = 0;
        assert!(p.review(&ctx(Op::Update, &Object::Deployment(d), &view)).is_ok());
    }

    #[test]
    fn critical_label_protects_any_deployment() {
        let view = BTreeMap::new();
        let mut p = DenyCriticalScaleToZero;
        let mut d = Deployment::default();
        d.metadata = ObjectMeta::named("default", "payments");
        d.metadata.labels.insert(CRITICAL_LABEL.into(), "true".into());
        d.spec.replicas = 0;
        assert!(p.review(&ctx(Op::Update, &Object::Deployment(d), &view)).is_err());
    }

    fn pod_with_resources(cpu: i64, mem: i64) -> Object {
        let mut p = Pod::default();
        p.metadata = ObjectMeta::named("default", "p");
        p.spec.containers.push(Container {
            name: "c".into(),
            image: "img:1".into(),
            cpu_milli: cpu,
            memory_mb: mem,
            ..Default::default()
        });
        Object::Pod(p)
    }

    #[test]
    fn unbounded_pod_denied() {
        let view = BTreeMap::new();
        let mut p = RequireResourceLimits;
        assert!(p.review(&ctx(Op::Create, &pod_with_resources(0, 64), &view)).is_err());
        assert!(p.review(&ctx(Op::Create, &pod_with_resources(100, 0), &view)).is_err());
        assert!(p.review(&ctx(Op::Create, &pod_with_resources(100, 64), &view)).is_ok());
    }

    #[test]
    fn replica_ceiling_caps_workloads_and_hpa() {
        let view = BTreeMap::new();
        let mut p = ReplicaCeiling { max: 10 };
        let mut d = Deployment::default();
        d.metadata = ObjectMeta::named("default", "web");
        d.spec.replicas = 11;
        assert!(p.review(&ctx(Op::Create, &Object::Deployment(d.clone()), &view)).is_err());
        d.spec.replicas = 10;
        assert!(p.review(&ctx(Op::Create, &Object::Deployment(d), &view)).is_ok());

        let mut h = k8s_model::HorizontalPodAutoscaler::default();
        h.metadata = ObjectMeta::named("default", "hpa");
        h.spec.max_replicas = 500; // a corrupted bound
        assert!(
            p.review(&ctx(Op::Create, &Object::HorizontalPodAutoscaler(h), &view)).is_err()
        );
    }

    #[test]
    fn pod_quota_counts_namespace_pods() {
        let mut view = BTreeMap::new();
        for i in 0..3 {
            let key = format!("/registry/pods/default/p{i}");
            view.insert(key, std::rc::Rc::new(pod_with_resources(100, 64)));
        }
        let mut p = NamespacePodQuota { max_pods: 3, exempt: vec!["kube-system".into()] };
        assert!(p.review(&ctx(Op::Create, &pod_with_resources(100, 64), &view)).is_err());

        // kube-system is exempt.
        let mut sys = Pod::default();
        sys.metadata = ObjectMeta::named("kube-system", "sys");
        sys.spec.containers.push(Container {
            name: "c".into(),
            image: "img:1".into(),
            ..Default::default()
        });
        assert!(p.review(&ctx(Op::Create, &Object::Pod(sys), &view)).is_ok());
    }

    #[test]
    fn pod_quota_stops_at_the_namespace_boundary() {
        // `default-x` keys share the text `default` (and sort right before
        // `default/` keys): they must not count against `default`.
        let mut view = BTreeMap::new();
        let pod = std::rc::Rc::new(pod_with_resources(100, 64));
        for i in 0..3 {
            view.insert(format!("/registry/pods/default-x/p{i}"), pod.clone());
        }
        view.insert("/registry/pods/default/p0".to_owned(), pod.clone());
        let mut p = NamespacePodQuota { max_pods: 2, exempt: Vec::new() };
        assert!(p.review(&ctx(Op::Create, &pod, &view)).is_ok(), "1/2 in default");
        view.insert("/registry/pods/default/p1".to_owned(), pod.clone());
        assert!(p.review(&ctx(Op::Create, &pod, &view)).is_err(), "2/2 in default");
    }

    #[test]
    fn quota_ignores_updates_and_deletes() {
        let view = BTreeMap::new();
        let mut p = NamespacePodQuota { max_pods: 0, exempt: Vec::new() };
        let pod = pod_with_resources(100, 64);
        assert!(p.review(&ctx(Op::Update, &pod, &view)).is_ok());
        assert!(p.review(&ctx(Op::Delete, &pod, &view)).is_ok());
    }
}
