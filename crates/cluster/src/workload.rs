//! User operations and the service application (kbench role).
//!
//! The paper's three orchestration workloads (deploy, scale-up, failover,
//! §V-A) used to live here as a closed enum; they are now registry entries
//! in the `mutiny_scenarios` crate, alongside rolling-update and
//! node-drain. This module keeps the scenario-agnostic building blocks:
//! the timed [`UserOp`] vocabulary every scenario schedules, and the
//! service-application object builders.
//!
//! The service application is a stateless web server that reads a random
//! seed from a volume at startup and answers CPU-bound requests; by
//! default it does not require DNS (so cluster-wide DNS outages need not
//! hurt it — a propagation subtlety the paper calls out).

use crate::bootstrap::app_deployment_base;
use k8s_model::{Channel, Deployment, Kind, Object, Op, Service};
use std::sync::Arc;

/// One kbench-style user operation, scheduled by a scenario at an offset
/// from the workload start (`t0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserOp {
    /// Create Deployment `web-<index>` plus its Service.
    CreateApp {
        /// Application index (names `web-<index>`).
        index: u32,
        /// Desired replicas.
        replicas: i64,
    },
    /// Set `web-<index>`'s replica count.
    Scale {
        /// Application index.
        index: u32,
        /// New replica count.
        replicas: i64,
    },
    /// Apply a NoExecute taint to a node (simulated node failure).
    TaintNode {
        /// Node name.
        node: String,
    },
    /// Change `web-<index>`'s container image, triggering a rolling
    /// update under the Deployment's maxSurge/maxUnavailable budget.
    SetImage {
        /// Application index.
        index: u32,
        /// New container image.
        image: String,
    },
    /// Cordon a node: apply a NoSchedule taint so no new pods land on it
    /// (planned maintenance, the first half of `kubectl drain`).
    CordonNode {
        /// Node name.
        node: String,
    },
    /// Evict one application pod from a node (the sequential second half
    /// of `kubectl drain`). Picks the name-smallest remaining `web-*` pod
    /// on the node, so the eviction sequence is deterministic; a no-op
    /// once the node is empty.
    EvictPodOn {
        /// Node name.
        node: String,
    },
    /// Re-submit a recorded write verbatim (trace replay): the payload
    /// bytes captured by the trace recorder go back through the full
    /// admission pipeline on the user channel. The worlds on both sides
    /// are deterministic, so recorded metadata (resourceVersions, uids)
    /// lines up with the replaying world's state.
    Replay {
        /// Recorded operation.
        verb: Op,
        /// Resource kind.
        kind: Kind,
        /// URL namespace.
        namespace: String,
        /// URL name.
        name: String,
        /// Encoded object as submitted (`None` for deletes). Shared so
        /// scheduling N replay runs from one loaded trace is refcount
        /// bumps, and `Arc` keeps [`UserOp`] send-safe for the campaign
        /// executor.
        payload: Option<Arc<[u8]>>,
    },
}

/// Builds the application Deployment `web-<index>`.
pub fn app_deployment(index: u32, replicas: i64, needs_dns: bool) -> Deployment {
    let name = format!("web-{index}");
    let mut d = app_deployment_base(&name, "default", replicas);
    let c = &mut d.spec.template.spec.containers[0];
    c.image = "registry.local/web:1.0".into();
    c.command = vec!["serve".into()];
    c.cpu_milli = 500;
    c.memory_mb = 256;
    c.port = 8080;
    d.spec.template.spec.volume = "seed-vol".into();
    d.spec.template.spec.needs_dns = needs_dns;
    d
}

/// Builds the Service for `web-<index>`.
pub fn app_service(index: u32) -> Service {
    let mut s = Service::default();
    s.metadata = k8s_model::ObjectMeta::named("default", &format!("web-{index}-svc"));
    s.spec.selector.insert("app".into(), format!("web-{index}"));
    s.spec.cluster_ip = format!("10.96.1.{index}");
    s.spec.port = 80;
    s.spec.target_port = 8080;
    s.spec.protocol = "TCP".into();
    s
}

/// Executes one user operation through the user channel. API errors are
/// recorded in the audit log (Figure 7's data); kbench keeps going.
pub(crate) fn execute_op(
    api: &mut k8s_apiserver::ApiServer,
    op: &UserOp,
    needs_dns: bool,
) {
    match op {
        UserOp::CreateApp { index, replicas } => {
            let d = app_deployment(*index, *replicas, needs_dns);
            let _ = api.create(Channel::UserToApi, Object::Deployment(d));
            let _ = api.create(Channel::UserToApi, Object::Service(app_service(*index)));
        }
        UserOp::Scale { index, replicas } => {
            let name = format!("web-{index}");
            if let Some(Object::Deployment(d)) = api.get(Kind::Deployment, "default", &name).as_deref() {
                let mut d = d.clone();
                d.spec.replicas = *replicas;
                let _ = api.update(Channel::UserToApi, Object::Deployment(d));
            } else {
                // kbench notices the object is gone; that surfaces as an
                // audit error via a doomed update.
                let d = app_deployment(*index, *replicas, needs_dns);
                let _ = api.update(Channel::UserToApi, Object::Deployment(d));
            }
        }
        UserOp::TaintNode { node } => {
            if let Some(Object::Node(n)) = api.get(Kind::Node, "", node).as_deref() {
                let mut n = n.clone();
                n.add_taint("simulated-failure", k8s_model::node::TAINT_NO_EXECUTE);
                let _ = api.update(Channel::UserToApi, Object::Node(n));
            }
        }
        UserOp::SetImage { index, image } => {
            let name = format!("web-{index}");
            if let Some(Object::Deployment(d)) = api.get(Kind::Deployment, "default", &name).as_deref() {
                let mut d = d.clone();
                d.spec.template.spec.containers[0].image = image.clone();
                let _ = api.update(Channel::UserToApi, Object::Deployment(d));
            }
        }
        UserOp::CordonNode { node } => {
            if let Some(Object::Node(n)) = api.get(Kind::Node, "", node).as_deref() {
                let mut n = n.clone();
                n.add_taint("maintenance", k8s_model::node::TAINT_NO_SCHEDULE);
                let _ = api.update(Channel::UserToApi, Object::Node(n));
            }
        }
        UserOp::EvictPodOn { node } => {
            // Smallest name wins (the first match: `for_each` visits in key
            // order), so the eviction sequence is deterministic.
            let mut victim: Option<String> = None;
            api.for_each(Kind::Pod, Some("default"), |obj| {
                if let Object::Pod(p) = obj {
                    if p.spec.node_name == *node
                        && p.metadata.name.starts_with("web-")
                        && !p.metadata.is_terminating()
                        && victim.as_deref().is_none_or(|v| p.metadata.name.as_str() < v)
                    {
                        victim = Some(p.metadata.name.clone());
                    }
                }
            });
            if let Some(name) = victim {
                let _ = api.delete(Channel::UserToApi, Kind::Pod, "default", &name);
            }
        }
        UserOp::Replay { verb, kind, namespace, name, payload } => match verb {
            Op::Delete => {
                let _ = api.delete(Channel::UserToApi, *kind, namespace, name);
            }
            Op::Create | Op::Update => {
                // An unreadable payload means the trace file was damaged
                // after export; skip the event like kbench skips a failed
                // request (the audit log still shows the gap).
                let Some(obj) =
                    payload.as_ref().and_then(|b| Object::decode(*kind, b).ok())
                else {
                    return;
                };
                let _ = match verb {
                    Op::Create => api.create(Channel::UserToApi, obj),
                    _ => api.update(Channel::UserToApi, obj),
                };
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_objects_are_consistent() {
        let d = app_deployment(1, 2, false);
        let s = app_service(1);
        assert_eq!(d.metadata.name, "web-1");
        assert!(d.spec.selector.matches(&d.spec.template.metadata.labels));
        assert_eq!(s.spec.selector.get("app").map(String::as_str), Some("web-1"));
        assert_eq!(s.spec.target_port, d.spec.template.spec.containers[0].port);
    }
}
