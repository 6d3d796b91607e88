//! Node auto-repair: the managed-cloud behaviour behind Figure 2.
//!
//! GKE-style platforms watch node health and *replace* nodes that stay
//! NotReady — normally a resiliency feature. The paper's Figure 2 incident
//! shows its failure mode: an intermittent apiserver kept kubelets from
//! reporting health, so the autoscaler deleted and recreated node after
//! node "even if the Nodes were correctly running the applications",
//! turning a reporting problem into a cluster outage.
//!
//! [`NodeRepairer`] reproduces that control loop: a node NotReady beyond
//! the grace period is deleted; the node's kubelet re-registers it on its
//! next healthy step (real clouds provision a replacement machine). While
//! heartbeats stay blocked cluster-wide, the loop deletes every node over
//! and over — and the ghost-pod garbage collector then reaps the
//! application pods that were bound to them. Kubernetes' *full disruption
//! mode* does not help: it suspends evictions, not the cloud's repair
//! loop.

use k8s_apiserver::ApiServer;
use k8s_model::{Channel, Kind, Object};
use std::collections::HashMap;

/// Auto-repair tunables.
#[derive(Debug, Clone)]
pub struct NodeRepairConfig {
    /// How long a node may stay NotReady before it is replaced.
    pub unready_grace_ms: u64,
    /// Minimum time between two repairs of the same node name.
    pub cooldown_ms: u64,
    /// Leave control-plane nodes alone (clouds manage them separately).
    pub skip_control_plane: bool,
}

impl Default for NodeRepairConfig {
    fn default() -> Self {
        NodeRepairConfig {
            unready_grace_ms: 30_000,
            cooldown_ms: 20_000,
            skip_control_plane: true,
        }
    }
}

/// Repair counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairMetrics {
    /// Nodes deleted for replacement.
    pub nodes_deleted: u64,
    /// Pods torn down with their machines.
    pub pods_torn_down: u64,
}

/// The cloud-provider node-repair loop.
#[derive(Debug, Clone)]
pub struct NodeRepairer {
    cfg: NodeRepairConfig,
    /// First time each node was observed NotReady.
    unready_since: HashMap<String, u64>,
    /// Last repair per node name (cooldown).
    last_repair: HashMap<String, u64>,
    /// Counters.
    pub metrics: RepairMetrics,
}

impl NodeRepairer {
    /// Creates the repair loop.
    pub fn new(cfg: NodeRepairConfig) -> NodeRepairer {
        NodeRepairer {
            cfg,
            unready_since: HashMap::new(),
            last_repair: HashMap::new(),
            metrics: RepairMetrics::default(),
        }
    }

    /// Runs one repair round at simulated time `now`.
    pub fn step(&mut self, api: &mut ApiServer, now: u64) {
        let mut unready: Vec<String> = Vec::new();
        let mut ready: Vec<String> = Vec::new();
        api.for_each(Kind::Node, None, |obj| {
            if let Object::Node(n) = obj {
                if self.cfg.skip_control_plane
                    && n.spec.taints.iter().any(|t| t.key.contains("control-plane"))
                {
                    return;
                }
                if n.status.ready {
                    ready.push(n.metadata.name.clone());
                } else {
                    unready.push(n.metadata.name.clone());
                }
            }
        });
        for name in ready {
            self.unready_since.remove(&name);
        }
        for name in unready {
            let since = *self.unready_since.entry(name.clone()).or_insert(now);
            if now.saturating_sub(since) < self.cfg.unready_grace_ms {
                continue;
            }
            let cooled = self
                .last_repair
                .get(&name)
                .map(|t| now.saturating_sub(*t) >= self.cfg.cooldown_ms)
                .unwrap_or(true);
            if !cooled {
                continue;
            }
            // Replace the machine: delete the Node object; the replacement
            // registers itself (the kubelet re-creates the Node when its
            // next healthy step finds it missing). The old machine is
            // wiped, so every pod bound to it goes down with it — which is
            // what made the Figure 2 incident an Outage: the pods were
            // healthy, the *reporting* was not.
            if api.delete(Channel::UserToApi, Kind::Node, "", &name).is_ok() {
                self.metrics.nodes_deleted += 1;
                self.last_repair.insert(name.clone(), now);
                self.unready_since.remove(&name);
                self.teardown_pods(api, &name);
            }
        }
    }

    fn teardown_pods(&mut self, api: &mut ApiServer, node: &str) {
        let mut doomed: Vec<(String, String)> = Vec::new();
        api.for_each(Kind::Pod, None, |obj| {
            if let Object::Pod(p) = obj {
                if p.spec.node_name == node && !p.metadata.is_terminating() {
                    doomed.push((p.metadata.namespace.clone(), p.metadata.name.clone()));
                }
            }
        });
        for (ns, name) in doomed {
            if api.delete(Channel::UserToApi, Kind::Pod, &ns, &name).is_ok() {
                self.metrics.pods_torn_down += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_apiserver::{InterceptorHandle, TraceHandle};
    use k8s_model::node::TAINT_NO_SCHEDULE;
    use k8s_model::{NoopInterceptor, Node};
    use simkit::Trace;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn api() -> ApiServer {
        let interceptor: InterceptorHandle = Rc::new(RefCell::new(NoopInterceptor));
        let trace: TraceHandle = Rc::new(RefCell::new(Trace::new(64)));
        ApiServer::new(etcd_sim::Etcd::new(1, 8 << 20), interceptor, trace)
    }

    fn install_node(api: &mut ApiServer, name: &str, ready: bool) {
        let mut n = Node::worker(name, 8000, 4096);
        n.status.ready = ready;
        api.create(Channel::KubeletToApi, Object::Node(n)).unwrap();
    }

    #[test]
    fn ready_nodes_are_left_alone() {
        let mut a = api();
        install_node(&mut a, "w1", true);
        let mut r = NodeRepairer::new(NodeRepairConfig::default());
        r.step(&mut a, 0);
        r.step(&mut a, 120_000);
        assert_eq!(r.metrics.nodes_deleted, 0);
        assert!(a.get(Kind::Node, "", "w1").is_some());
    }

    #[test]
    fn unready_node_is_replaced_after_grace() {
        let mut a = api();
        install_node(&mut a, "w1", false);
        let mut r = NodeRepairer::new(NodeRepairConfig::default());
        r.step(&mut a, 0); // starts the grace clock
        r.step(&mut a, 10_000); // inside the grace period
        assert_eq!(r.metrics.nodes_deleted, 0);
        r.step(&mut a, 31_000);
        assert_eq!(r.metrics.nodes_deleted, 1);
        assert!(a.get(Kind::Node, "", "w1").is_none());
    }

    #[test]
    fn replacement_wipes_the_machine_pods() {
        let mut a = api();
        install_node(&mut a, "w1", false);
        install_node(&mut a, "w2", true);
        for (name, node) in [("p1", "w1"), ("p2", "w1"), ("p3", "w2")] {
            let mut p = k8s_model::Pod::default();
            p.metadata = k8s_model::ObjectMeta::named("default", name);
            p.spec.node_name = node.into();
            p.spec.containers.push(k8s_model::Container {
                name: "c".into(),
                image: "img:1".into(),
                ..Default::default()
            });
            a.create(Channel::KcmToApi, Object::Pod(p)).unwrap();
        }
        let mut r = NodeRepairer::new(NodeRepairConfig::default());
        r.step(&mut a, 0);
        r.step(&mut a, 31_000);
        assert_eq!(r.metrics.nodes_deleted, 1);
        assert_eq!(r.metrics.pods_torn_down, 2, "both w1 pods go down with the machine");
        assert!(a.get(Kind::Pod, "default", "p1").is_none());
        assert!(a.get(Kind::Pod, "default", "p3").is_some(), "w2's pod survives");
    }

    #[test]
    fn unready_nodes_are_replaced_in_name_order() {
        let mut a = api();
        // Registered out of name order: the deletions must not follow
        // creation order (nor any hash order), only the names.
        for name in ["w3", "w1", "w2"] {
            install_node(&mut a, name, false);
        }
        let mut r = NodeRepairer::new(NodeRepairConfig::default());
        r.step(&mut a, 0);
        let cursor = a.watch_head();
        r.step(&mut a, 31_000);
        let (events, _) = a.poll_events(cursor);
        let deleted: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == Kind::Node && e.object.is_none())
            .map(|e| &*e.key)
            .collect();
        assert_eq!(deleted, ["/registry/nodes/w1", "/registry/nodes/w2", "/registry/nodes/w3"]);
    }

    #[test]
    fn recovery_resets_the_grace_clock() {
        let mut a = api();
        install_node(&mut a, "w1", false);
        let mut r = NodeRepairer::new(NodeRepairConfig::default());
        r.step(&mut a, 0);
        // The node recovers before the grace period elapses …
        if let Some(Object::Node(n)) = a.get(Kind::Node, "", "w1").as_deref() {
            let mut n = n.clone();
            n.status.ready = true;
            a.update(Channel::KubeletToApi, Object::Node(n)).unwrap();
        }
        r.step(&mut a, 20_000);
        // … then fails again: the clock must restart from here.
        if let Some(Object::Node(n)) = a.get(Kind::Node, "", "w1").as_deref() {
            let mut n = n.clone();
            n.status.ready = false;
            a.update(Channel::KubeletToApi, Object::Node(n)).unwrap();
        }
        r.step(&mut a, 25_000);
        r.step(&mut a, 40_000); // only 15 s unready
        assert_eq!(r.metrics.nodes_deleted, 0);
        r.step(&mut a, 56_000);
        assert_eq!(r.metrics.nodes_deleted, 1);
    }

    #[test]
    fn cooldown_bounds_the_deletion_loop() {
        let mut a = api();
        let cfg = NodeRepairConfig {
            unready_grace_ms: 1_000,
            cooldown_ms: 60_000,
            ..Default::default()
        };
        let mut r = NodeRepairer::new(cfg);
        install_node(&mut a, "w1", false);
        r.step(&mut a, 0);
        r.step(&mut a, 2_000);
        assert_eq!(r.metrics.nodes_deleted, 1);
        // The kubelet re-registers the (still blacked-out) node.
        install_node(&mut a, "w1", false);
        r.step(&mut a, 3_000);
        r.step(&mut a, 5_000);
        assert_eq!(r.metrics.nodes_deleted, 1, "cooldown violated");
        r.step(&mut a, 63_000);
        r.step(&mut a, 65_000);
        assert_eq!(r.metrics.nodes_deleted, 2);
    }

    #[test]
    fn control_plane_nodes_are_exempt() {
        let mut a = api();
        let mut cp = Node::worker("cp-1", 8000, 4096);
        cp.add_taint("node-role.kubernetes.io/control-plane", TAINT_NO_SCHEDULE);
        cp.status.ready = false;
        a.create(Channel::KubeletToApi, Object::Node(cp)).unwrap();
        let mut r = NodeRepairer::new(NodeRepairConfig::default());
        r.step(&mut a, 0);
        r.step(&mut a, 120_000);
        assert_eq!(r.metrics.nodes_deleted, 0);
        assert!(a.get(Kind::Node, "", "cp-1").is_some());
    }
}
