//! Pluggable admission policies and stored-state integrity checking.
//!
//! The paper's discussion (§VI-B) argues that one-shot validation at the
//! API boundary is not enough: "it is not enough to validate the data only
//! once. If for some reason an incorrect value gets to Etcd […] no circuit
//! breaker, or other resiliency strategies mitigate the impact". These two
//! extension points let deployments add exactly the defenses the paper
//! proposes:
//!
//! * [`AdmissionPolicy`] — validating-webhook-style checks over incoming
//!   requests with a read-only view of the cluster (stricter checks such as
//!   "scaling of coreDNS to 0 should be denied" or "reject the spawning of
//!   a large number of Pods without resource limits");
//! * [`IntegrityChecker`] — a redundancy code sealed into each object
//!   *before* the apiserver→etcd transaction and verified on every decode,
//!   so in-flight corruption of protected fields is detected *after* the
//!   fact, not just at the API boundary.
//!
//! Both hooks are empty by default; installing them changes nothing about
//! request semantics other than the added rejections/repairs. The
//! `mutiny-mitigations` crate ships the implementations evaluated in the
//! ablation benches.

use k8s_model::{Channel, Object, Op};
use std::collections::BTreeMap;

/// A read-only request context handed to admission policies.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    /// The operation under review.
    pub op: Op,
    /// Channel the request arrived on.
    pub channel: Channel,
    /// The incoming object (for deletes: the stored object being deleted).
    pub object: &'a Object,
    /// The stored object an update/delete refers to, if any.
    pub existing: Option<&'a Object>,
    /// Simulated time.
    pub now: u64,
    /// Read-only view of the apiserver's watch cache (registry key →
    /// object, in key order), for policies that need cluster-wide context
    /// such as namespace pod counts; read a key prefix with
    /// [`prefix_range`].
    pub view: &'a BTreeMap<String, std::rc::Rc<Object>>,
}

/// The entries of an ordered registry map whose keys start with `prefix`,
/// in key order. Keys sharing a prefix are contiguous in a `BTreeMap`, so
/// this is a range scan from `prefix` that stops at the first key past
/// it: the cost is the matches, not the map.
pub fn prefix_range<'a, V>(
    map: &'a BTreeMap<String, V>,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a String, &'a V)> + 'a {
    use std::ops::Bound;
    map.range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(k, _)| k.starts_with(prefix))
}

/// A validating admission policy: reviews requests after the built-in
/// validation layer and may reject them.
///
/// Policies run only for requests arriving from components or users — the
/// internal apiserver→etcd path is not re-reviewed, exactly like admission
/// webhooks in Kubernetes (which is why store-channel injections bypass
/// them; the [`IntegrityChecker`] exists to cover that gap).
pub trait AdmissionPolicy {
    /// Short identifier used in audit messages.
    fn name(&self) -> &str;

    /// Reviews one request.
    ///
    /// # Errors
    ///
    /// A human-readable denial reason; the request is rejected with it.
    fn review(&mut self, ctx: &PolicyCtx<'_>) -> Result<(), String>;

    /// Optional mutating pass run *before* [`AdmissionPolicy::review`]:
    /// a policy may return a repaired replacement for the incoming
    /// object (a mutating webhook). `None` leaves the object untouched.
    /// Repairs count in `ApiServer::policy_repairs`, not as denials.
    fn repair(&mut self, _ctx: &PolicyCtx<'_>) -> Option<Object> {
        None
    }

    /// Clones the policy behind its trait object, preserving any
    /// accumulated review state (fork-the-world snapshots carry installed
    /// policies into every forked run).
    fn clone_box(&self) -> Box<dyn AdmissionPolicy>;
}

/// What the apiserver does when a stored object fails integrity
/// verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityAction {
    /// Restore the last known-good cached value (and rewrite it to the
    /// store) — the paper's "roll back to the old values when needed".
    #[default]
    Repair,
    /// Delete the object, like an undecryptable resource (§II-D).
    Discard,
    /// Count the violation but keep the corrupted value (detection-only
    /// mode, for measuring how often the code would have fired).
    Observe,
}

/// A redundancy code over an object's protected fields.
///
/// `seal` runs after admission, immediately before the object is encoded
/// for the apiserver→etcd transaction; `verify` runs on every object the
/// apiserver decodes out of the store.
pub trait IntegrityChecker {
    /// Computes and embeds the integrity code.
    fn seal(&self, obj: &mut Object);

    /// True when the embedded code matches the object's protected fields.
    /// Objects without a code (written before the checker was installed)
    /// must verify as true.
    fn verify(&self, obj: &Object) -> bool;

    /// The response to a verification failure.
    fn action(&self) -> IntegrityAction {
        IntegrityAction::Repair
    }
}

/// Counters for the integrity subsystem, exposed to classifiers and
/// ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityMetrics {
    /// Verification failures observed.
    pub violations: u64,
    /// Objects restored from the last known-good value.
    pub repaired: u64,
    /// Objects discarded because no good value was available.
    pub discarded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_model::{Namespace, ObjectMeta};

    struct DenyAll;
    impl AdmissionPolicy for DenyAll {
        fn name(&self) -> &str {
            "deny-all"
        }
        fn review(&mut self, _ctx: &PolicyCtx<'_>) -> Result<(), String> {
            Err("denied".into())
        }
        fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
            Box::new(DenyAll)
        }
    }

    #[test]
    fn policy_trait_is_object_safe() {
        let mut p: Box<dyn AdmissionPolicy> = Box::new(DenyAll);
        let mut ns = Namespace::default();
        ns.metadata = ObjectMeta::named("", "default");
        let obj = Object::Namespace(ns);
        let view = BTreeMap::new();
        let ctx = PolicyCtx {
            op: Op::Create,
            channel: Channel::UserToApi,
            object: &obj,
            existing: None,
            now: 0,
            view: &view,
        };
        assert_eq!(p.name(), "deny-all");
        assert!(p.review(&ctx).is_err());
    }

    #[test]
    fn default_integrity_action_is_repair() {
        struct Nop;
        impl IntegrityChecker for Nop {
            fn seal(&self, _obj: &mut Object) {}
            fn verify(&self, _obj: &Object) -> bool {
                true
            }
        }
        assert_eq!(Nop.action(), IntegrityAction::Repair);
    }
}
