//! Validating admission for configuration defects.
//!
//! The config-defect fault families (`cfg-*` in `mutiny_faults`) submit
//! specs that are *valid and decodable* but semantically broken — wrong
//! resource requests, selector/template mismatches, flappy probes,
//! pathological grace periods, runaway replica counts. The built-in
//! validation accepts all of them; this policy is the §VI-B-style
//! mitigation that closes the gap: a validating-admission pass that
//! **repairs** the deterministically repairable defect classes and
//! **rejects** the rest.
//!
//! Detection is anchored on the same invariants the defects break, most
//! of them over fields the critical-field catalog ([`crate::catalog`])
//! already marks as critical (selectors, labels, replicas):
//!
//! | defect class | invariant                                  | action |
//! |--------------|--------------------------------------------|--------|
//! | `resources`  | requests present and node-sized            | reject |
//! | `resources`  | limit ≥ request                            | repair |
//! | `selector`   | selector non-empty and matches template    | repair |
//! | `probe`      | probe window ≥ the kubelet's flap bound    | repair |
//! | `grace`      | grace in the sane band                     | repair |
//! | `replicas`   | replicas ≤ the workload ceiling            | repair |
//!
//! Repairs run before reviews in the apiserver's policy chain, so a
//! repaired spec is never also rejected. Each detection is counted per
//! defect class, and the campaign's ablation bench toggles the whole
//! policy per arm to measure detection coverage and false rejects per
//! family.

use crate::catalog::is_critical_path;
use k8s_apiserver::{AdmissionPolicy, PolicyCtx};
use k8s_model::workloads::selector_matches_template;
use k8s_model::{Object, Op, PodSpec};

/// Largest CPU request (millicores) any simulated node could host; a
/// request above it can never schedule and is rejected outright.
pub const MAX_NODE_CPU_MILLI: i64 = 16_000;

/// Largest memory request (MiB) any simulated node could host.
pub const MAX_NODE_MEMORY_MB: i64 = 65_536;

/// Probe windows strictly below this flap healthy pods — the same bound
/// the kubelet's probe loop uses (`AGGRESSIVE_PROBE_WINDOW_MS`).
pub const MIN_PROBE_WINDOW_MS: u64 = 3_000;

/// Longest accepted `terminationGracePeriodSeconds`; above it, deleted
/// pods camp in Terminating and stall rolling updates.
pub const MAX_GRACE_SECONDS: i64 = 600;

/// Grace the repair clamps an out-of-band value back to.
pub const REPAIRED_GRACE_SECONDS: i64 = 30;

/// Largest accepted replica count for one workload.
pub const MAX_REPLICAS: i64 = 50;

/// The validating-admission policy: repairs or rejects config-defect
/// classes at admission. Counters are per defect class, keyed by the
/// same class strings the `cfg-*` fault families inject
/// (`resources`, `selector`, `probe`, `grace`, `replicas`).
#[derive(Debug, Clone, Default)]
pub struct ValidatingAdmission {
    /// (defect class, repaired) detections, in admission order.
    pub detections: Vec<(&'static str, bool)>,
}

impl ValidatingAdmission {
    /// Detections per defect class: (class, repairs, rejects).
    pub fn coverage(&self) -> Vec<(&'static str, u64, u64)> {
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for &(class, repaired) in &self.detections {
            match out.iter_mut().find(|(c, _, _)| *c == class) {
                Some((_, rep, rej)) => {
                    if repaired {
                        *rep += 1;
                    } else {
                        *rej += 1;
                    }
                }
                None => out.push((class, u64::from(repaired), u64::from(!repaired))),
            }
        }
        out
    }
}

/// The pod spec an object carries (its own, or its template's).
fn pod_spec(obj: &Object) -> Option<&PodSpec> {
    match obj {
        Object::Pod(p) => Some(&p.spec),
        Object::ReplicaSet(r) => Some(&r.spec.template.spec),
        Object::Deployment(d) => Some(&d.spec.template.spec),
        Object::DaemonSet(d) => Some(&d.spec.template.spec),
        _ => None,
    }
}

fn pod_spec_mut(obj: &mut Object) -> Option<&mut PodSpec> {
    match obj {
        Object::Pod(p) => Some(&mut p.spec),
        Object::ReplicaSet(r) => Some(&mut r.spec.template.spec),
        Object::Deployment(d) => Some(&mut d.spec.template.spec),
        Object::DaemonSet(d) => Some(&mut d.spec.template.spec),
        _ => None,
    }
}

/// The probe window of a pod spec, mirroring `Pod::probe_window_ms`.
fn probe_window_ms(spec: &PodSpec) -> Option<u64> {
    let (p, t) = (spec.probe_period_seconds, spec.probe_failure_threshold);
    if p > 0 && t > 0 {
        Some((p as u64).saturating_mul(t as u64).saturating_mul(1_000))
    } else {
        None
    }
}

impl AdmissionPolicy for ValidatingAdmission {
    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        "validating-admission"
    }

    fn repair(&mut self, ctx: &PolicyCtx<'_>) -> Option<Object> {
        if ctx.op == Op::Delete {
            return None;
        }
        let mut fixed = ctx.object.clone();
        let mut classes: Vec<&'static str> = Vec::new();

        // resources: an explicit limit below the request dooms the
        // container; raising the limit to the request (0 = "same as
        // request") is the only repair that preserves intent.
        if let Some(spec) = pod_spec_mut(&mut fixed) {
            for c in &mut spec.containers {
                if c.request_exceeds_limit() {
                    c.cpu_limit_milli = 0;
                    c.memory_limit_mb = 0;
                    classes.push("resources");
                }
            }
            // probe: windows below the kubelet's flap bound mark healthy
            // pods NotReady; reset to cluster-default probing.
            if probe_window_ms(spec).is_some_and(|w| w < MIN_PROBE_WINDOW_MS) {
                spec.probe_period_seconds = 0;
                spec.probe_failure_threshold = 0;
                classes.push("probe");
            }
            // grace: clamp pathological values back into the sane band
            // (0 means the cluster default and is left alone).
            let grace = spec.termination_grace_period_seconds;
            if grace > MAX_GRACE_SECONDS {
                spec.termination_grace_period_seconds = REPAIRED_GRACE_SECONDS;
                classes.push("grace");
            } else if grace == 1 {
                spec.termination_grace_period_seconds = 0;
                classes.push("grace");
            }
        }

        // selector: the selector/template invariant is over fields the
        // critical-field catalog protects. When the selector is intact,
        // the template labels are the corrupted side — restore them from
        // the selector (services key on the same labels, so this repair
        // also keeps endpoints converging). An emptied selector is
        // restored from the template instead.
        let selector_template = match &mut fixed {
            Object::ReplicaSet(r) => Some((&mut r.spec.selector, &mut r.spec.template)),
            Object::Deployment(d) => Some((&mut d.spec.selector, &mut d.spec.template)),
            Object::DaemonSet(d) => Some((&mut d.spec.selector, &mut d.spec.template)),
            _ => None,
        };
        if let Some((selector, template)) = selector_template {
            debug_assert!(is_critical_path("spec.selector.matchLabels['app']"));
            if !selector_matches_template(selector, template) {
                if !selector.match_labels.is_empty() {
                    for (k, v) in &selector.match_labels {
                        template.metadata.labels.insert(k.clone(), v.clone());
                    }
                    classes.push("selector");
                } else if !template.metadata.labels.is_empty() {
                    selector.match_labels = template.metadata.labels.clone();
                    classes.push("selector");
                }
            }
        }

        // replicas: clamp runaway counts to the ceiling (scale-to-zero
        // is a legitimate operation and is left to the critical-scale
        // policy — a deliberate coverage gap the ablation measures).
        let replicas = match &mut fixed {
            Object::ReplicaSet(r) => Some(&mut r.spec.replicas),
            Object::Deployment(d) => Some(&mut d.spec.replicas),
            _ => None,
        };
        if let Some(replicas) = replicas {
            if *replicas > MAX_REPLICAS {
                *replicas = MAX_REPLICAS;
                classes.push("replicas");
            }
        }

        if classes.is_empty() {
            return None;
        }
        for class in classes {
            self.detections.push((class, true));
        }
        Some(fixed)
    }

    fn review(&mut self, ctx: &PolicyCtx<'_>) -> Result<(), String> {
        if ctx.op == Op::Delete {
            return Ok(());
        }
        let Some(spec) = pod_spec(ctx.object) else { return Ok(()) };
        for c in &spec.containers {
            if c.cpu_milli <= 0 || c.memory_mb <= 0 {
                self.detections.push(("resources", false));
                return Err(format!(
                    "container {:?} has no resource requests; repair is ambiguous, rejecting",
                    c.name
                ));
            }
            if c.cpu_milli > MAX_NODE_CPU_MILLI || c.memory_mb > MAX_NODE_MEMORY_MB {
                self.detections.push(("resources", false));
                return Err(format!(
                    "container {:?} requests {}m/{}MiB; no node can host it",
                    c.name, c.cpu_milli, c.memory_mb
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_model::{Channel, Container, Deployment, LabelSelector, ObjectMeta, Pod, ReplicaSet};
    use std::collections::BTreeMap;
    use std::rc::Rc;

    fn ctx<'a>(
        op: Op,
        object: &'a Object,
        view: &'a BTreeMap<String, Rc<Object>>,
    ) -> PolicyCtx<'a> {
        PolicyCtx { op, channel: Channel::UserToApi, object, existing: None, now: 0, view }
    }

    fn pod() -> Object {
        let mut p = Pod::default();
        p.metadata = ObjectMeta::named("default", "p");
        p.spec.containers.push(Container {
            name: "c".into(),
            image: "img:1".into(),
            cpu_milli: 500,
            memory_mb: 256,
            ..Default::default()
        });
        Object::Pod(p)
    }

    fn rs() -> ReplicaSet {
        let mut rs = ReplicaSet::default();
        rs.metadata = ObjectMeta::named("default", "web-rs");
        rs.spec.replicas = 2;
        rs.spec.selector = LabelSelector::eq("app", "web");
        rs.spec.template.metadata.labels.insert("app".into(), "web".into());
        rs.spec.template.spec.containers.push(Container {
            name: "web".into(),
            image: "img:1".into(),
            cpu_milli: 500,
            memory_mb: 256,
            ..Default::default()
        });
        rs
    }

    #[test]
    fn clean_specs_pass_untouched() {
        let view = BTreeMap::new();
        let mut v = ValidatingAdmission::default();
        for obj in [pod(), Object::ReplicaSet(rs())] {
            assert_eq!(v.repair(&ctx(Op::Create, &obj, &view)), None, "{obj:?}");
            assert!(v.review(&ctx(Op::Create, &obj, &view)).is_ok());
        }
        assert!(v.detections.is_empty());
    }

    #[test]
    fn limit_below_request_is_repaired() {
        let view = BTreeMap::new();
        let mut v = ValidatingAdmission::default();
        let mut obj = pod();
        if let Object::Pod(p) = &mut obj {
            p.spec.containers[0].cpu_limit_milli = 100;
        }
        let fixed = v.repair(&ctx(Op::Create, &obj, &view)).expect("repair");
        assert!(!fixed.as_pod().unwrap().request_exceeds_limit());
        assert_eq!(v.coverage(), vec![("resources", 1, 0)]);
    }

    #[test]
    fn missing_and_unhostable_requests_are_rejected() {
        let view = BTreeMap::new();
        let mut v = ValidatingAdmission::default();
        let mut zero = pod();
        if let Object::Pod(p) = &mut zero {
            p.spec.containers[0].cpu_milli = 0;
        }
        assert!(v.review(&ctx(Op::Create, &zero, &view)).is_err());
        let mut huge = pod();
        if let Object::Pod(p) = &mut huge {
            p.spec.containers[0].cpu_milli = 64_000;
        }
        assert!(v.review(&ctx(Op::Create, &huge, &view)).is_err());
        assert_eq!(v.coverage(), vec![("resources", 0, 2)]);
    }

    #[test]
    fn broken_selector_is_restored_from_the_template() {
        let view = BTreeMap::new();
        let mut v = ValidatingAdmission::default();
        // Template-label typo: the intact selector restores the label,
        // so downstream services keep matching the created pods.
        let mut typo = rs();
        typo.spec.template.metadata.labels.insert("app".into(), "web-typo".into());
        let fixed = v.repair(&ctx(Op::Create, &Object::ReplicaSet(typo), &view)).expect("repair");
        let Object::ReplicaSet(r) = &fixed else { unreachable!() };
        assert!(selector_matches_template(&r.spec.selector, &r.spec.template));
        assert_eq!(
            r.spec.template.metadata.labels.get("app").map(String::as_str),
            Some("web")
        );
        // Emptied selector.
        let mut empty = rs();
        empty.spec.selector.match_labels.clear();
        let fixed = v.repair(&ctx(Op::Create, &Object::ReplicaSet(empty), &view)).expect("repair");
        let Object::ReplicaSet(r) = &fixed else { unreachable!() };
        assert!(selector_matches_template(&r.spec.selector, &r.spec.template));
        assert_eq!(v.coverage(), vec![("selector", 2, 0)]);
    }

    #[test]
    fn flappy_probe_and_bad_grace_are_repaired() {
        let view = BTreeMap::new();
        let mut v = ValidatingAdmission::default();
        let mut obj = pod();
        if let Object::Pod(p) = &mut obj {
            p.spec.probe_period_seconds = 1;
            p.spec.probe_failure_threshold = 1;
            p.spec.termination_grace_period_seconds = 3_600;
        }
        let fixed = v.repair(&ctx(Op::Create, &obj, &view)).expect("repair");
        let p = fixed.as_pod().unwrap();
        assert_eq!(p.probe_window_ms(), None, "repaired to default probing");
        assert_eq!(p.spec.termination_grace_period_seconds, REPAIRED_GRACE_SECONDS);
        assert_eq!(v.coverage(), vec![("probe", 1, 0), ("grace", 1, 0)]);

        // A sane explicit probe (at the bound) is left alone.
        let mut sane = pod();
        if let Object::Pod(p) = &mut sane {
            p.spec.probe_period_seconds = 10;
            p.spec.probe_failure_threshold = 3;
        }
        let mut v2 = ValidatingAdmission::default();
        assert_eq!(v2.repair(&ctx(Op::Create, &sane, &view)), None);
    }

    #[test]
    fn runaway_replicas_are_clamped_and_zero_is_left_alone() {
        let view = BTreeMap::new();
        let mut v = ValidatingAdmission::default();
        let mut d = Deployment::default();
        d.metadata = ObjectMeta::named("default", "web");
        d.spec.replicas = 200;
        d.spec.selector = LabelSelector::eq("app", "web");
        d.spec.template.metadata.labels.insert("app".into(), "web".into());
        let fixed = v.repair(&ctx(Op::Create, &Object::Deployment(d.clone()), &view)).expect("repair");
        let Object::Deployment(fd) = &fixed else { unreachable!() };
        assert_eq!(fd.spec.replicas, MAX_REPLICAS);
        // Scale-to-zero is a legitimate operation: the known coverage gap.
        d.spec.replicas = 0;
        assert_eq!(v.repair(&ctx(Op::Update, &Object::Deployment(d), &view)), None);
        assert_eq!(v.coverage(), vec![("replicas", 1, 0)]);
    }
}
