//! # k8s-apiserver — the simulated kube-apiserver
//!
//! The apiserver is the only component that talks to etcd; every other
//! component sends requests to it and observes state changes through its
//! watch stream (§II-C). This simulation reproduces the mechanisms the
//! paper's campaign exercises:
//!
//! * **request flow with two interception points** — component→apiserver
//!   messages cross the wire codec, then authentication-style decode +
//!   validation + admission, then the apiserver→etcd transaction crosses
//!   the codec again. Mutiny hooks both (§IV-A);
//! * **validation** — regex/border-case checks that reject malformed values
//!   but cannot catch valid-but-wrong ones (§V-C4, Table VI), including the
//!   namespace-vs-URL and selector-vs-template checks the paper credits
//!   with preventing infinite pod spawn on the user channel;
//! * **admission** — uid assignment, generation bumping, and channel-based
//!   field ownership (server-side-apply: the kubelet may only write pod
//!   status, the scheduler only the binding);
//! * **watch cache** — reads are served from the decoded cache fed by the
//!   watch stream, which is why at-rest etcd corruption propagates
//!   differently from in-flight corruption (§V-C1). The cache hands out
//!   shared `Rc<Object>` handles: `list`/`get`/watch delivery are
//!   refcount bumps, and consumers clone an object only when they
//!   actually mutate it — the decoded twin of the store's `Arc<[u8]>`
//!   zero-copy values;
//! * **undecryptable-resource deletion** — objects whose stored bytes no
//!   longer decode are deleted to protect list operations (§II-D);
//! * **audit log** — records per-request outcomes, the data behind the
//!   paper's user-unawareness finding (F4, Figure 7).

pub mod admission;
pub mod audit;
pub mod intern;
pub mod leader;
pub mod policy;
pub mod validation;
pub mod workqueue;

pub use audit::{AuditLog, AuditRecord, RequestResult};
pub use leader::LeaderElector;
pub use policy::{
    prefix_range, AdmissionPolicy, IntegrityAction, IntegrityChecker, IntegrityMetrics,
    PolicyCtx,
};

use etcd_sim::{Bytes, Etcd, EtcdError};
use k8s_model::{
    registry_key, registry_key_into, registry_prefix_into, AdmitCtx, Channel, ChannelId,
    Interceptor, Kind, MsgCtx, Object, Op, WireVerdict,
};
use simkit::{Trace, TraceLevel};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide decode-cache hit counter (every apiserver instance feeds
/// it, so campaign workers aggregate without plumbing).
static DECODE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
/// Process-wide decode-cache miss counter (syncs that had to decode while
/// the cache was enabled).
static DECODE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Cumulative decode-cache `(hits, misses)` across every apiserver in the
/// process — the campaign-throughput bench reports the hit rate from this.
pub fn decode_cache_stats() -> (u64, u64) {
    (DECODE_CACHE_HITS.load(Ordering::Relaxed), DECODE_CACHE_MISSES.load(Ordering::Relaxed))
}

/// Resets the process-wide decode-cache counters (bench setup).
pub fn reset_decode_cache_stats() {
    DECODE_CACHE_HITS.store(0, Ordering::Relaxed);
    DECODE_CACHE_MISSES.store(0, Ordering::Relaxed);
}

/// True unless `MUTINY_DECODE_CACHE=0` disables the revision-keyed decode
/// cache (the determinism tests diff both modes byte-for-byte).
fn decode_cache_enabled() -> bool {
    std::env::var("MUTINY_DECODE_CACHE").map(|v| v != "0").unwrap_or(true)
}

/// Static telemetry key tables: per-channel metric names resolved to
/// `&'static str` so the instrumented hot paths never format a string,
/// enabled or not.
mod tele {
    use k8s_model::{ChannelClass, WireVerdict};

    const CHANNELS: usize = 5;

    fn chan_idx(class: ChannelClass) -> usize {
        match class {
            ChannelClass::ApiToEtcd => 0,
            ChannelClass::KcmToApi => 1,
            ChannelClass::SchedulerToApi => 2,
            ChannelClass::KubeletToApi => 3,
            ChannelClass::UserToApi => 4,
        }
    }

    /// Admission-verdict counter key for a request on `class`.
    pub fn req_key(class: ChannelClass, ok: bool) -> &'static str {
        const T: [[&str; 2]; CHANNELS] = [
            ["apiserver.request.etcd.rejected", "apiserver.request.etcd.ok"],
            ["apiserver.request.kcm.rejected", "apiserver.request.kcm.ok"],
            ["apiserver.request.scheduler.rejected", "apiserver.request.scheduler.ok"],
            ["apiserver.request.kubelet.rejected", "apiserver.request.kubelet.ok"],
            ["apiserver.request.user.rejected", "apiserver.request.user.ok"],
        ];
        T[chan_idx(class)][usize::from(ok)]
    }

    /// Wire-verdict counter key for a message on `class`: what the fault
    /// interceptor decided (delivered / replaced / dropped / delayed /
    /// duplicated), per `ChannelClass`.
    pub fn wire_key(class: ChannelClass, verdict: &WireVerdict) -> &'static str {
        const T: [[&str; 5]; CHANNELS] = [
            [
                "wire.etcd.delivered",
                "wire.etcd.replaced",
                "wire.etcd.dropped",
                "wire.etcd.delayed",
                "wire.etcd.duplicated",
            ],
            [
                "wire.kcm.delivered",
                "wire.kcm.replaced",
                "wire.kcm.dropped",
                "wire.kcm.delayed",
                "wire.kcm.duplicated",
            ],
            [
                "wire.scheduler.delivered",
                "wire.scheduler.replaced",
                "wire.scheduler.dropped",
                "wire.scheduler.delayed",
                "wire.scheduler.duplicated",
            ],
            [
                "wire.kubelet.delivered",
                "wire.kubelet.replaced",
                "wire.kubelet.dropped",
                "wire.kubelet.delayed",
                "wire.kubelet.duplicated",
            ],
            [
                "wire.user.delivered",
                "wire.user.replaced",
                "wire.user.dropped",
                "wire.user.delayed",
                "wire.user.duplicated",
            ],
        ];
        let v = match verdict {
            WireVerdict::Pass => 0,
            WireVerdict::Replace(_) => 1,
            WireVerdict::Drop => 2,
            WireVerdict::Delay(_) => 3,
            WireVerdict::Duplicate(_) => 4,
        };
        T[chan_idx(class)][v]
    }
}

thread_local! {
    /// Per-thread scratch for registry-key probes: `get`/`list`/`count`
    /// look keys up far more often than they store them, so the key is
    /// formatted into this reusable buffer instead of a fresh `String`.
    static KEY_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Runs `f` with the thread's key-scratch buffer. The buffer is *moved*
/// out of the thread-local for the duration of `f` (and put back after),
/// so the `RefCell` borrow never spans caller code — re-entrant use
/// (e.g. a `for_each` callback reading a second apiserver on the same
/// thread) just pays one fresh allocation instead of panicking.
fn with_key_scratch<R>(f: impl FnOnce(&mut String) -> R) -> R {
    let mut buf = KEY_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let out = f(&mut buf);
    KEY_SCRATCH.with(|s| *s.borrow_mut() = buf);
    out
}

/// Errors returned to API clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// No such object.
    NotFound,
    /// Create of an existing object.
    AlreadyExists,
    /// Validation rejected the request (message names the rule).
    Invalid(String),
    /// Optimistic-concurrency or identity conflict.
    Conflict(String),
    /// The request payload could not be decoded.
    Undecodable,
    /// The data store rejected the transaction (disk full).
    StoreUnavailable,
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::NotFound => write!(f, "not found"),
            ApiError::AlreadyExists => write!(f, "already exists"),
            ApiError::Invalid(m) => write!(f, "invalid: {m}"),
            ApiError::Conflict(m) => write!(f, "conflict: {m}"),
            ApiError::Undecodable => write!(f, "request payload undecodable"),
            ApiError::StoreUnavailable => write!(f, "data store unavailable"),
        }
    }
}

impl std::error::Error for ApiError {}

/// A decoded change notification served to watching components. The
/// object is shared (`Rc`): delivering an event to N watchers bumps a
/// refcount N times instead of deep-cloning the decoded object. The key
/// is interned the same way (`Rc<str>`): fan-out to N watchers bumps a
/// refcount instead of re-allocating the key string per delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEvent {
    /// Monotone index in the apiserver's decoded event log.
    pub index: u64,
    /// Kind of the changed object.
    pub kind: Kind,
    /// Registry key of the changed object (shared — cloning an event is a
    /// refcount bump, not a string copy).
    pub key: Rc<str>,
    /// New object state; `None` for deletions.
    pub object: Option<Rc<Object>>,
}

/// One write observed by a [`RequestTap`] as it enters the request
/// pipeline — before wire interception, validation, or admission, i.e.
/// exactly what the submitting client sent.
#[derive(Debug)]
pub struct SubmittedWrite<'a> {
    /// Simulated submission time.
    pub at: u64,
    /// The concrete wire the request arrived on.
    pub channel: ChannelId,
    /// Operation.
    pub op: Op,
    /// Resource kind.
    pub kind: Kind,
    /// URL namespace.
    pub namespace: &'a str,
    /// URL name.
    pub name: &'a str,
    /// The submitted object; `None` for deletes.
    pub object: Option<&'a Object>,
}

/// Observer of writes entering the request pipeline (a sibling of the
/// admission seam): the trace recorder uses it to export runs as
/// replayable traces. Taps see every non-deferred submission on every
/// channel — deferred replays of delayed/duplicated messages are skipped,
/// since their original submission was already observed.
pub trait RequestTap {
    /// Called once per submitted write, before the wire verdict.
    fn on_submit(&mut self, write: &SubmittedWrite<'_>);
}

/// Shared handle to a request tap.
pub type RequestTapHandle = Rc<RefCell<dyn RequestTap>>;

/// Shared handle to the injection interceptor.
pub type InterceptorHandle = Rc<RefCell<dyn Interceptor>>;

/// Shared handle to the cluster-wide trace buffer.
pub type TraceHandle = Rc<RefCell<Trace>>;

/// How many decoded events the apiserver retains for watchers.
const EVENT_LOG_RETENTION: usize = 200_000;

/// Default grace period a running pod keeps serving after a
/// user/controller delete before it is finalized (covers the
/// endpoints→proxy propagation lag, so voluntary disruptions are
/// hitless). Pods override it with `spec.terminationGracePeriodSeconds`.
pub const POD_TERMINATION_GRACE_MS: u64 = 2_000;

/// A message held by a [`WireVerdict::Delay`] or echoed by a
/// [`WireVerdict::Duplicate`], awaiting its simulated delivery time.
#[derive(Debug, Clone)]
enum Deferred {
    /// An apiserver→etcd transaction: lands as a raw store write (it
    /// already passed validation/admission when it crossed the wire).
    Put {
        /// Registry key.
        key: String,
        /// Encoded object bytes (shared — holding a delayed message is a
        /// refcount bump on the encode-time buffer, not a copy).
        bytes: Bytes,
    },
    /// A component→apiserver request: replays through the full request
    /// pipeline on delivery (without re-crossing the incoming wire).
    Request {
        /// The concrete wire the original message travelled on.
        channel: ChannelId,
        /// Operation.
        op: Op,
        /// Resource kind.
        kind: Kind,
        /// URL namespace.
        ns: String,
        /// URL name.
        name: String,
        /// Encoded payload (`None` for deletes), shared with the encode-
        /// time buffer.
        bytes: Option<Bytes>,
    },
}

/// One queued deferred delivery, ordered by (due, seq).
#[derive(Debug, Clone)]
struct DeferredEntry {
    due: u64,
    seq: u64,
    what: Deferred,
}

/// The simulated kube-apiserver.
pub struct ApiServer {
    etcd: Etcd,
    interceptor: InterceptorHandle,
    trace: TraceHandle,
    audit: AuditLog,
    /// Decoded watch cache, ordered by registry key so every kind or
    /// namespace prefix is one contiguous key range ([`prefix_range`]).
    /// Objects are shared (`Rc`): list/get/watch readers receive refcount
    /// bumps, never deep clones.
    cache: BTreeMap<String, Rc<Object>>,
    /// Revision-keyed decode cache: the write path already *has* the
    /// decoded object it commits, so it remembers `(store bytes, object)`
    /// per committed revision, and the watch-cache drain reuses the
    /// object when the event's bytes are `Arc::ptr_eq` with the
    /// remembered buffer. A fault that replaces/corrupts the bytes
    /// allocates a fresh buffer, so pointer equality can never serve a
    /// stale decode of mutated bytes — corrupt deliveries always decode
    /// fresh. Entries are pruned as soon as their revision is drained.
    decode_cache: HashMap<u64, (Bytes, Rc<Object>)>,
    /// False when `MUTINY_DECODE_CACHE=0` forces every sync to decode.
    decode_cache_on: bool,
    /// Syncs served from the decode cache (this instance).
    pub decode_cache_hits: u64,
    /// Syncs that decoded while the cache was enabled (this instance).
    pub decode_cache_misses: u64,
    /// Decoded event log served to watchers.
    events: std::collections::VecDeque<ResourceEvent>,
    first_event_index: u64,
    /// Store revision up to which the raw watch log has been drained
    /// (revision-indexed replay, like a real etcd watch).
    etcd_seen_rev: u64,
    uid_counter: u64,
    now: u64,
    /// Validation toggle (ablation: what happens without the checks).
    pub validation_enabled: bool,
    /// Count of undecryptable objects deleted.
    pub undecodable_deleted: u64,
    /// Terminating pods awaiting the end of their grace period, kept
    /// sorted by (deadline, insertion order) — deadlines are *not*
    /// monotone, each pod brings its own `terminationGracePeriodSeconds`,
    /// so the due check peeks the front instead of scanning.
    reap_at: std::collections::VecDeque<(u64, u64, String)>,
    reap_seq: u64,
    /// Delayed/duplicated wire messages awaiting their simulated delivery
    /// time, kept sorted by (due, seq).
    delayed: Vec<DeferredEntry>,
    delayed_seq: u64,
    /// Reentrancy guard: a deferred request replaying through the
    /// pipeline must not re-trigger the flush it came from.
    flushing: bool,
    /// Superseded same-key revisions skipped (not decoded) by batched
    /// cache drains.
    pub sync_events_coalesced: u64,
    /// Installed admission policies (§VI-B stricter checks).
    policies: Vec<Box<dyn AdmissionPolicy>>,
    /// Requests denied by an admission policy.
    pub policy_denials: u64,
    /// Requests repaired in place by a mutating admission policy.
    pub policy_repairs: u64,
    /// Installed integrity checker (§VI-B redundancy codes).
    integrity: Option<Rc<dyn IntegrityChecker>>,
    /// Integrity subsystem counters.
    pub integrity_metrics: IntegrityMetrics,
    /// When armed, records every key served to a reader (activation
    /// analysis: an injection is *activated* when the injected instance is
    /// requested after the injection, §V-C1).
    read_tracking: Option<HashSet<String>>,
    /// Optional observer of submitted writes (trace export).
    tap: Option<RequestTapHandle>,
}

impl std::fmt::Debug for ApiServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApiServer")
            .field("objects", &self.cache.len())
            .field("etcd_revision", &self.etcd.revision())
            .field("now", &self.now)
            .finish()
    }
}

impl ApiServer {
    /// Creates an apiserver over `etcd`, wiring in the interceptor and the
    /// shared trace buffer.
    pub fn new(etcd: Etcd, interceptor: InterceptorHandle, trace: TraceHandle) -> ApiServer {
        let etcd_seen_rev = etcd.revision();
        ApiServer {
            etcd,
            interceptor,
            trace,
            audit: AuditLog::default(),
            cache: BTreeMap::new(),
            decode_cache: HashMap::new(),
            decode_cache_on: decode_cache_enabled(),
            decode_cache_hits: 0,
            decode_cache_misses: 0,
            events: std::collections::VecDeque::new(),
            first_event_index: 0,
            etcd_seen_rev,
            uid_counter: 0,
            now: 0,
            validation_enabled: true,
            undecodable_deleted: 0,
            reap_at: std::collections::VecDeque::new(),
            reap_seq: 0,
            delayed: Vec::new(),
            delayed_seq: 0,
            flushing: false,
            sync_events_coalesced: 0,
            policies: Vec::new(),
            policy_denials: 0,
            policy_repairs: 0,
            integrity: None,
            integrity_metrics: IntegrityMetrics::default(),
            read_tracking: None,
            tap: None,
        }
    }

    /// Forks this apiserver for fork-the-world execution: a structural
    /// clone of the whole request-path state (store, watch cache, decode
    /// cache, audit log, deferred deliveries, admission state) with a
    /// fresh interceptor and trace handle. The clone is cheap where it
    /// matters — the etcd store shares its `Arc<[u8]>` buffers, the watch
    /// and decode caches bump `Rc<Object>` refcounts — so a fork is
    /// mostly refcount traffic, not deep copies. The request tap is
    /// deliberately dropped: taps observe one specific run.
    pub fn fork(&self, interceptor: InterceptorHandle, trace: TraceHandle) -> ApiServer {
        ApiServer {
            etcd: self.etcd.clone(),
            interceptor,
            trace,
            audit: self.audit.clone(),
            cache: self.cache.clone(),
            decode_cache: self.decode_cache.clone(),
            decode_cache_on: self.decode_cache_on,
            decode_cache_hits: self.decode_cache_hits,
            decode_cache_misses: self.decode_cache_misses,
            events: self.events.clone(),
            first_event_index: self.first_event_index,
            etcd_seen_rev: self.etcd_seen_rev,
            uid_counter: self.uid_counter,
            now: self.now,
            validation_enabled: self.validation_enabled,
            undecodable_deleted: self.undecodable_deleted,
            reap_at: self.reap_at.clone(),
            reap_seq: self.reap_seq,
            delayed: self.delayed.clone(),
            delayed_seq: self.delayed_seq,
            flushing: self.flushing,
            sync_events_coalesced: self.sync_events_coalesced,
            policies: self.policies.iter().map(|p| p.clone_box()).collect(),
            policy_denials: self.policy_denials,
            policy_repairs: self.policy_repairs,
            // Integrity checkers are stateless (a sealing strategy), so
            // forks share the instance.
            integrity: self.integrity.clone(),
            integrity_metrics: self.integrity_metrics,
            read_tracking: self.read_tracking.clone(),
            tap: None,
        }
    }

    /// Installs a request tap observing every submitted write (trace
    /// export). At most one tap is active; installing replaces any
    /// previous one.
    pub fn set_request_tap(&mut self, tap: RequestTapHandle) {
        self.tap = Some(tap);
    }

    /// Installs a validating admission policy; policies run in install
    /// order after the built-in validation layer.
    pub fn install_policy(&mut self, policy: Box<dyn AdmissionPolicy>) {
        self.policies.push(policy);
    }

    /// Installs the stored-state integrity checker. Objects written from
    /// now on carry a redundancy code that is verified on every decode.
    pub fn install_integrity(&mut self, checker: Rc<dyn IntegrityChecker>) {
        self.integrity = Some(checker);
    }

    /// Runs the installed policies' repair pass over a create/update:
    /// each policy may replace the incoming object with a repaired one
    /// (mutating-webhook semantics) before the review pass sees it.
    fn repair_policies(
        &mut self,
        op: Op,
        channel: ChannelId,
        object: &mut Object,
        existing: Option<&Object>,
    ) {
        if self.policies.is_empty() {
            return;
        }
        let mut repairs = 0u64;
        for p in &mut self.policies {
            let ctx = PolicyCtx {
                op,
                channel: channel.class(),
                object,
                existing,
                now: self.now,
                view: &self.cache,
            };
            if let Some(fixed) = p.repair(&ctx) {
                *object = fixed;
                repairs += 1;
            }
        }
        self.policy_repairs += repairs;
    }

    /// Runs the installed policies over one request.
    fn review_policies(
        &mut self,
        op: Op,
        channel: ChannelId,
        object: &Object,
        existing: Option<&Object>,
    ) -> Result<(), ApiError> {
        if self.policies.is_empty() {
            return Ok(());
        }
        let ctx = PolicyCtx {
            op,
            channel: channel.class(),
            object,
            existing,
            now: self.now,
            view: &self.cache,
        };
        for p in &mut self.policies {
            if let Err(reason) = p.review(&ctx) {
                self.policy_denials += 1;
                return Err(ApiError::Invalid(format!("policy {}: {reason}", p.name())));
            }
        }
        Ok(())
    }

    /// Verifies a decoded object against the installed integrity checker
    /// and applies the configured action on failure. Returns the (shared)
    /// object to serve (`None` when it was discarded or withheld).
    fn check_integrity(&mut self, key: &str, obj: Rc<Object>) -> Option<Rc<Object>> {
        let Some(checker) = self.integrity.clone() else { return Some(obj) };
        if checker.verify(&obj) {
            return Some(obj);
        }
        self.integrity_metrics.violations += 1;
        match checker.action() {
            IntegrityAction::Observe => Some(obj),
            IntegrityAction::Discard => {
                self.integrity_metrics.discarded += 1;
                self.log(
                    TraceLevel::Error,
                    format!("integrity violation on {key}: discarding object"),
                );
                self.cache.remove(key);
                self.etcd.delete(key);
                None
            }
            IntegrityAction::Repair => match self.cache.get(key).cloned() {
                Some(last_good) if checker.verify(&last_good) => {
                    self.integrity_metrics.repaired += 1;
                    self.log(
                        TraceLevel::Error,
                        format!(
                            "integrity violation on {key}: rolling back to last good value"
                        ),
                    );
                    // Rewrite the last good bytes to the store; the repair
                    // transaction is internal and bypasses the interceptor.
                    let bytes = last_good.encode_shared();
                    if let Ok(rev) = self.etcd.put(key, bytes.clone()) {
                        self.remember_decoded(rev, bytes, last_good.clone());
                    }
                    Some(last_good)
                }
                _ => {
                    // Nothing to roll back to (the create itself was
                    // corrupted): fall back to discarding.
                    self.integrity_metrics.discarded += 1;
                    self.log(
                        TraceLevel::Error,
                        format!("integrity violation on {key}: no good value, discarding"),
                    );
                    self.cache.remove(key);
                    self.etcd.delete(key);
                    None
                }
            },
        }
    }

    /// Arms read tracking: subsequently served keys are recorded so the
    /// campaign can decide whether an injected instance was *activated*.
    pub fn start_read_tracking(&mut self) {
        self.read_tracking = Some(HashSet::new());
    }

    /// True when `key` was served to any reader since tracking was armed.
    pub fn was_read(&self, key: &str) -> bool {
        self.read_tracking.as_ref().map(|s| s.contains(key)).unwrap_or(false)
    }

    fn track_read(&mut self, key: &str) {
        if let Some(s) = self.read_tracking.as_mut() {
            if !s.contains(key) {
                s.insert(key.to_owned());
            }
        }
    }

    /// Advances the apiserver's notion of simulated time (and the
    /// ambient telemetry sim clock, so clock-less components stamp
    /// metrics correctly).
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
        mutiny_telemetry::set_sim_now(now);
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The audit log (Figure 7 data source).
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Direct access to the underlying store (campaign instrumentation).
    pub fn etcd(&self) -> &Etcd {
        &self.etcd
    }

    /// Mutable store access (at-rest corruption experiments).
    pub fn etcd_mut(&mut self) -> &mut Etcd {
        &mut self.etcd
    }

    fn log(&self, level: TraceLevel, msg: String) {
        self.trace.borrow_mut().log(self.now, level, "apiserver", msg);
    }

    // --- the write path ----------------------------------------------------

    /// Creates an object. The request travels `channel` — a
    /// [`ChannelId`] or a bare [`Channel`] class — so Mutiny may tamper
    /// with or drop it before validation; the resulting etcd transaction
    /// may be tampered with again.
    ///
    /// The returned handle is shared with the decode cache: callers that
    /// only inspect the admitted object pay a refcount bump, not a deep
    /// clone.
    ///
    /// # Errors
    ///
    /// Any [`ApiError`]; every outcome is recorded in the audit log.
    pub fn create(
        &mut self,
        channel: impl Into<ChannelId>,
        obj: Object,
    ) -> Result<Rc<Object>, ApiError> {
        let (url_ns, url_name) = (obj.namespace().to_owned(), obj.name().to_owned());
        self.request(channel.into(), Op::Create, obj.kind(), &url_ns, &url_name, Some(obj), false)
    }

    /// Updates an object (same pipeline as [`ApiServer::create`]).
    ///
    /// # Errors
    ///
    /// Any [`ApiError`]; every outcome is recorded in the audit log.
    pub fn update(
        &mut self,
        channel: impl Into<ChannelId>,
        obj: Object,
    ) -> Result<Rc<Object>, ApiError> {
        let (url_ns, url_name) = (obj.namespace().to_owned(), obj.name().to_owned());
        self.request(channel.into(), Op::Update, obj.kind(), &url_ns, &url_name, Some(obj), false)
    }

    /// Deletes an object.
    ///
    /// # Errors
    ///
    /// Any [`ApiError`]; every outcome is recorded in the audit log.
    pub fn delete(
        &mut self,
        channel: impl Into<ChannelId>,
        kind: Kind,
        namespace: &str,
        name: &str,
    ) -> Result<(), ApiError> {
        self.request(channel.into(), Op::Delete, kind, namespace, name, None, false).map(|_| ())
    }

    #[allow(clippy::too_many_arguments)]
    fn request(
        &mut self,
        channel: ChannelId,
        op: Op,
        kind: Kind,
        url_ns: &str,
        url_name: &str,
        obj: Option<Object>,
        deferred: bool,
    ) -> Result<Rc<Object>, ApiError> {
        self.sync_cache();
        // The key is interned once per request: the audit record and the
        // error log below share the same allocation by refcount.
        let key: Rc<str> = registry_key(kind, url_ns, url_name).into();
        // The tap observes the submission exactly as the client sent it —
        // before the wire verdict, validation, or admission. Deferred
        // replays are invisible: their original submission was observed.
        if !deferred {
            if let Some(tap) = self.tap.clone() {
                tap.borrow_mut().on_submit(&SubmittedWrite {
                    at: self.now,
                    channel,
                    op,
                    kind,
                    namespace: url_ns,
                    name: url_name,
                    object: obj.as_ref(),
                });
            }
        }
        let result = self.request_inner(channel, op, kind, &key, url_ns, url_name, obj, deferred);
        mutiny_telemetry::counter_add(tele::req_key(channel.class(), result.is_ok()), 1);
        self.audit.record(AuditRecord {
            at: self.now,
            channel,
            op,
            kind,
            key: key.clone(),
            result: match &result {
                Ok(_) => RequestResult::Ok,
                Err(e) => RequestResult::Err(e.to_string()),
            },
        });
        if let Err(e) = &result {
            self.log(TraceLevel::Error, format!("{op} {key} via {channel} rejected: {e}"));
        }
        self.sync_cache();
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn request_inner(
        &mut self,
        channel: ChannelId,
        op: Op,
        kind: Kind,
        key: &str,
        url_ns: &str,
        url_name: &str,
        obj: Option<Object>,
        deferred: bool,
    ) -> Result<Rc<Object>, ApiError> {
        // 1. The request crosses the component→apiserver wire (a replay
        //    of a delayed/duplicated message already crossed it once).
        let mut incoming: Option<Object> = None;
        if let Some(o) = obj {
            let bytes = o.encode_shared();
            let verdict = if deferred {
                WireVerdict::Pass
            } else {
                self.intercept(channel, kind, key, op, Some(&bytes))
            };
            let effective: Bytes = match verdict {
                WireVerdict::Pass => bytes,
                WireVerdict::Replace(b) => b.into(),
                WireVerdict::Drop => {
                    // The sender's call returns without error; no request
                    // ever arrives (message-drop semantics, §IV-A).
                    self.log(
                        TraceLevel::Debug,
                        format!("{op} {key}: request dropped in flight on {channel}"),
                    );
                    return Ok(Rc::new(o));
                }
                WireVerdict::Delay(d) => {
                    // The sender sees success now; the request arrives
                    // `d` ms later through the deferred-delivery queue.
                    self.defer(
                        d,
                        Deferred::Request {
                            channel,
                            op,
                            kind,
                            ns: url_ns.to_owned(),
                            name: url_name.to_owned(),
                            bytes: Some(bytes),
                        },
                    );
                    self.log(
                        TraceLevel::Debug,
                        format!("{op} {key}: request held {d} ms in flight on {channel}"),
                    );
                    return Ok(Rc::new(o));
                }
                WireVerdict::Duplicate(d) => {
                    // Deliver now and echo an identical copy later (the
                    // echo shares the same buffer — a refcount bump).
                    self.defer(
                        d,
                        Deferred::Request {
                            channel,
                            op,
                            kind,
                            ns: url_ns.to_owned(),
                            name: url_name.to_owned(),
                            bytes: Some(bytes.clone()),
                        },
                    );
                    self.log(
                        TraceLevel::Debug,
                        format!("{op} {key}: request duplicated on {channel} (+{d} ms)"),
                    );
                    bytes
                }
            };
            // Authentication/decoding: garbage payloads are rejected here.
            incoming =
                Some(Object::decode(kind, &effective).map_err(|_| ApiError::Undecodable)?);
        } else if op == Op::Delete && !deferred {
            let verdict = self.intercept(channel, kind, key, op, None);
            let current = self
                .cache
                .get(key)
                .cloned()
                .unwrap_or_else(|| Rc::new(Object::Namespace(k8s_model::Namespace::default())));
            match verdict {
                WireVerdict::Drop => return Ok(current),
                WireVerdict::Delay(d) => {
                    self.defer(
                        d,
                        Deferred::Request {
                            channel,
                            op,
                            kind,
                            ns: url_ns.to_owned(),
                            name: url_name.to_owned(),
                            bytes: None,
                        },
                    );
                    return Ok(current);
                }
                WireVerdict::Duplicate(d) => {
                    self.defer(
                        d,
                        Deferred::Request {
                            channel,
                            op,
                            kind,
                            ns: url_ns.to_owned(),
                            name: url_name.to_owned(),
                            bytes: None,
                        },
                    );
                }
                _ => {}
            }
        }

        // 2. Validation + admission (skipped for the internal store path).
        match op {
            Op::Delete => {
                let existing = self.current_object(key);
                if existing.is_none() && self.etcd.get(key).is_none() {
                    return Err(ApiError::NotFound);
                }
                if channel != Channel::ApiToEtcd {
                    if let Some(old) = existing.clone() {
                        self.review_policies(op, channel, &old, existing.as_deref())?;
                    }
                }
                // Graceful termination: a *running* pod deleted by the
                // user or a controller keeps serving through its grace
                // period (the endpoints controller drops it immediately,
                // so rolling updates and drains are hitless). Kubelet
                // deletes are immediate — there the container is already
                // gone — and deleting an already-terminating pod forces
                // it out, like `kubectl delete --force`.
                if kind == Kind::Pod
                    && channel != Channel::ApiToEtcd
                    && channel != Channel::KubeletToApi
                {
                    if let Some(Object::Pod(p)) = existing.as_deref() {
                        if !p.metadata.is_terminating() && p.status.phase == "Running" {
                            // Per-pod grace: spec.terminationGracePeriodSeconds
                            // when set, the cluster default otherwise.
                            let grace_ms = p.termination_grace_ms(POD_TERMINATION_GRACE_MS);
                            let mut p = p.clone();
                            p.metadata.deletion_timestamp = self.now.max(1) as i64;
                            p.metadata.resource_version = self.etcd.revision() as i64 + 1;
                            let obj = Rc::new(Object::Pod(p));
                            // The terminating mark is an apiserver→etcd
                            // transaction like any other: it crosses the
                            // store wire and is injectable there (the
                            // campaign's primary injection point).
                            let bytes = obj.encode_shared();
                            let encoded = Bytes::clone(&bytes);
                            let verdict = self.intercept(
                                Channel::ApiToEtcd.into(),
                                kind,
                                key,
                                Op::Update,
                                Some(&bytes),
                            );
                            let store_bytes: Bytes = match verdict {
                                WireVerdict::Pass => bytes,
                                WireVerdict::Replace(b) => b.into(),
                                WireVerdict::Drop => {
                                    // The mark silently never lands: the
                                    // pod keeps running and the deleter
                                    // must reconcile and retry.
                                    self.log(
                                        TraceLevel::Debug,
                                        format!("delete {key}: terminating mark dropped"),
                                    );
                                    return Ok(obj);
                                }
                                WireVerdict::Delay(d) => {
                                    // The mark lands late; the grace clock
                                    // starts when it actually lands.
                                    self.defer(
                                        d,
                                        Deferred::Put { key: key.to_owned(), bytes },
                                    );
                                    self.schedule_reap(self.now + d + grace_ms, key);
                                    return Ok(obj);
                                }
                                WireVerdict::Duplicate(d) => {
                                    self.defer(
                                        d,
                                        Deferred::Put { key: key.to_owned(), bytes: bytes.clone() },
                                    );
                                    bytes
                                }
                            };
                            self.commit_and_remember(key, store_bytes, encoded, &obj)?;
                            self.schedule_reap(self.now + grace_ms, key);
                            self.log(
                                TraceLevel::Info,
                                format!(
                                    "pod {key} terminating via {channel} (graceful, {grace_ms} ms)"
                                ),
                            );
                            return Ok(obj);
                        }
                    }
                }
                self.etcd_delete(key)?;
                self.log(TraceLevel::Info, format!("deleted {key} via {channel}"));
                Ok(self
                    .cache
                    .get(key)
                    .cloned()
                    .unwrap_or_else(|| Rc::new(Object::Namespace(k8s_model::Namespace::default()))))
            }
            Op::Create | Op::Update => {
                // A create/update without a payload cannot be admitted;
                // reject it like any other undecodable request instead of
                // panicking (callers always supply one, but an injected
                // campaign must never be able to abort the process).
                let Some(mut new_obj) = incoming else {
                    return Err(ApiError::Undecodable);
                };
                let existing = self.current_object(key);

                if op == Op::Create && existing.is_some() {
                    return Err(ApiError::AlreadyExists);
                }
                if op == Op::Update && existing.is_none() {
                    return Err(ApiError::NotFound);
                }

                // Status-only updates from components go through the
                // status subresource, which does not re-validate the spec
                // (so a controller can still report status on an object
                // whose stored spec was corrupted post-validation).
                let status_only = op == Op::Update
                    && channel != Channel::ApiToEtcd
                    && existing
                        .as_ref()
                        .map(|old| !admission::spec_changed(&new_obj, old))
                        .unwrap_or(false);
                if channel != Channel::ApiToEtcd && self.validation_enabled && !status_only {
                    validation::validate(&new_obj, url_ns, url_name)
                        .map_err(ApiError::Invalid)?;
                    // Namespaced creates require the namespace to exist
                    // (only once the cluster has namespaces at all, so
                    // non-bootstrapped test fixtures stay usable).
                    let has_namespaces =
                        prefix_range(&self.cache, "/registry/namespaces/").next().is_some();
                    if op == Op::Create
                        && has_namespaces
                        && !kind.cluster_scoped()
                        && kind != Kind::Namespace
                    {
                        let ns_key = registry_key(Kind::Namespace, "", url_ns);
                        if self.current_object(&ns_key).is_none() {
                            return Err(ApiError::Invalid(format!(
                                "namespace {url_ns:?} not found"
                            )));
                        }
                    }
                }

                // Admission-time spec mutation: an armed config-defect
                // actuator may rewrite the decoded object *after* the
                // built-in validation above (defects are valid specs) and
                // *before* the policy layer — exactly where a bad-but-
                // well-formed manifest enters a real cluster. The traffic
                // recorder observes the same hook, so planned victim
                // occurrences line up with what an armed actuator sees.
                if channel != Channel::ApiToEtcd && !status_only {
                    let ctx = AdmitCtx { channel, kind, key, op, now: self.now };
                    if self.interceptor.clone().borrow_mut().on_admission(&ctx, &mut new_obj) {
                        mutiny_telemetry::counter_add("apiserver.admission.mutated", 1);
                        self.log(
                            TraceLevel::Info,
                            format!("{op} {key}: spec mutated at admission on {channel}"),
                        );
                    }
                }

                if channel != Channel::ApiToEtcd {
                    self.repair_policies(op, channel, &mut new_obj, existing.as_deref());
                    self.review_policies(op, channel, &new_obj, existing.as_deref())?;
                }

                admission::admit(
                    &mut new_obj,
                    existing.as_deref(),
                    channel.class(),
                    op,
                    self.now,
                    &mut self.uid_counter,
                )
                .map_err(|e| match e {
                    admission::AdmitError::Conflict(m) => ApiError::Conflict(m),
                    admission::AdmitError::MissingExisting => ApiError::NotFound,
                })?;

                // Stamp the resourceVersion the store will assign.
                new_obj.meta_mut().resource_version = self.etcd.revision() as i64 + 1;

                // Seal the redundancy code before the transaction crosses
                // the wire, so in-flight corruption is detectable later.
                if let Some(checker) = self.integrity.clone() {
                    checker.seal(&mut new_obj);
                }

                // 3. The apiserver→etcd transaction crosses the wire again:
                //    the campaign's primary injection point. The encoding
                //    is staged in pooled scratch and committed as one
                //    shared `Arc<[u8]>`: the store write, the watch-log
                //    entry and any deferred echo are refcount bumps on
                //    this single allocation.
                let new_obj = Rc::new(new_obj);
                let bytes = new_obj.encode_shared();
                let encoded = Bytes::clone(&bytes);
                let verdict =
                    self.intercept(Channel::ApiToEtcd.into(), kind, key, op, Some(&bytes));
                let store_bytes: Bytes = match verdict {
                    WireVerdict::Pass => bytes,
                    WireVerdict::Replace(b) => b.into(),
                    WireVerdict::Drop => {
                        // The state update silently never happens; the
                        // caller still sees success (level-triggered
                        // reconciliation must absorb this).
                        self.log(
                            TraceLevel::Debug,
                            format!("{op} {key}: etcd transaction dropped"),
                        );
                        return Ok(new_obj);
                    }
                    WireVerdict::Delay(d) => {
                        // The transaction lands `d` ms late as a raw store
                        // write (it already passed validation/admission);
                        // the caller sees success now.
                        self.defer(d, Deferred::Put { key: key.to_owned(), bytes });
                        self.log(
                            TraceLevel::Debug,
                            format!("{op} {key}: etcd transaction held {d} ms"),
                        );
                        return Ok(new_obj);
                    }
                    WireVerdict::Duplicate(d) => {
                        // Land now and echo an identical write later —
                        // the echo resurrects this revision over anything
                        // written in between.
                        self.defer(d, Deferred::Put { key: key.to_owned(), bytes: bytes.clone() });
                        self.log(
                            TraceLevel::Debug,
                            format!("{op} {key}: etcd transaction duplicated (+{d} ms)"),
                        );
                        bytes
                    }
                };
                self.commit_and_remember(key, store_bytes, encoded, &new_obj)?;
                Ok(new_obj)
            }
        }
    }

    fn intercept(
        &mut self,
        channel: ChannelId,
        kind: Kind,
        key: &str,
        op: Op,
        bytes: Option<&[u8]>,
    ) -> WireVerdict {
        let ctx = MsgCtx { channel, kind, key, op, bytes, now: self.now };
        let verdict = self.interceptor.borrow_mut().on_message(&ctx);
        mutiny_telemetry::counter_add(tele::wire_key(channel.class(), &verdict), 1);
        verdict
    }

    /// Commits bytes to the store and returns the committed revision. The
    /// value is already a shared `Arc<[u8]>` on the steady-state path, so
    /// the commit is refcount bumps for all replicas + the watch log.
    fn etcd_put(&mut self, key: &str, bytes: impl Into<etcd_sim::Bytes>) -> Result<u64, ApiError> {
        match self.etcd.put(key, bytes) {
            Ok(rev) => Ok(rev),
            Err(EtcdError::DiskFull) => {
                self.log(TraceLevel::Error, format!("etcd write for {key} failed: disk full"));
                Err(ApiError::StoreUnavailable)
            }
            Err(e) => {
                self.log(TraceLevel::Error, format!("etcd write for {key} failed: {e}"));
                Err(ApiError::StoreUnavailable)
            }
        }
    }

    /// Remembers the decoded object the write path just committed at
    /// `rev`, so the watch-cache drain can skip re-decoding when the
    /// event hands back the very same buffer (`Arc::ptr_eq`). No-op when
    /// `MUTINY_DECODE_CACHE=0`.
    fn remember_decoded(&mut self, rev: u64, bytes: Bytes, obj: Rc<Object>) {
        if self.decode_cache_on {
            self.decode_cache.insert(rev, (bytes, obj));
        }
    }

    /// Commits `store_bytes` for `key` and — iff they are still the
    /// object's own encoding (`encoded`, by `Arc::ptr_eq`) — remembers
    /// the decoded object for the watch-cache drain. A `Replace` verdict
    /// swapped in a fresh (tampered) buffer whose pointer can never
    /// match, so corrupt bytes always decode fresh when they come back
    /// through the watch.
    fn commit_and_remember(
        &mut self,
        key: &str,
        store_bytes: Bytes,
        encoded: Bytes,
        obj: &Rc<Object>,
    ) -> Result<(), ApiError> {
        let cacheable = std::sync::Arc::ptr_eq(&store_bytes, &encoded);
        let rev = self.etcd_put(key, store_bytes)?;
        if cacheable {
            self.remember_decoded(rev, encoded, obj.clone());
        }
        Ok(())
    }

    /// Overrides the `MUTINY_DECODE_CACHE` environment toggle for this
    /// instance (A/B tests and benches flip it without touching process
    /// environment).
    pub fn set_decode_cache(&mut self, on: bool) {
        self.decode_cache_on = on;
        if !on {
            self.decode_cache.clear();
        }
    }

    fn etcd_delete(&mut self, key: &str) -> Result<(), ApiError> {
        self.etcd.delete(key);
        Ok(())
    }

    /// The freshest decoded object for a key: the watch cache, falling back
    /// to a quorum read (cache-miss refresh). The result is a shared
    /// handle, not a deep clone.
    fn current_object(&mut self, key: &str) -> Option<Rc<Object>> {
        self.track_read(key);
        if let Some(o) = self.cache.get(key) {
            return Some(o.clone());
        }
        let (bytes, _) = self.etcd.get(key)?;
        let kind = kind_of_key(key)?;
        match Object::decode(kind, &bytes) {
            Ok(o) => self.check_integrity(key, Rc::new(o)),
            Err(_) => {
                self.drop_undecodable(key);
                None
            }
        }
    }

    fn drop_undecodable(&mut self, key: &str) {
        self.undecodable_deleted += 1;
        self.log(
            TraceLevel::Error,
            format!("stored object {key} is undecryptable; deleting it"),
        );
        self.etcd.delete(key);
    }

    // --- the read path -----------------------------------------------------

    /// Queues a pod for finalization at `deadline`, keeping the reap
    /// queue sorted by (deadline, insertion order) so the due check stays
    /// a front peek despite per-pod grace windows.
    fn schedule_reap(&mut self, deadline: u64, key: &str) {
        let seq = self.reap_seq;
        self.reap_seq += 1;
        let pos = self
            .reap_at
            .iter()
            .position(|(d, s, _)| (*d, *s) > (deadline, seq))
            .unwrap_or(self.reap_at.len());
        self.reap_at.insert(pos, (deadline, seq, key.to_owned()));
    }

    /// Finalizes terminating pods whose grace period has elapsed. Only
    /// pods whose stored state actually carries the terminating mark are
    /// finalized — a delayed or dropped mark must not turn the reaper
    /// into a force-delete.
    fn reap_terminated(&mut self) {
        while let Some((deadline, _, _)) = self.reap_at.front() {
            if *deadline > self.now {
                break;
            }
            let (_, _, key) = self.reap_at.pop_front().expect("front checked");
            let terminating = self
                .etcd
                .get(&key)
                .and_then(|(bytes, _)| Object::decode(Kind::Pod, &bytes).ok())
                .map(|obj| obj.meta().is_terminating())
                .unwrap_or(false);
            if terminating {
                self.etcd.delete(&key);
                self.log(TraceLevel::Info, format!("pod {key} finalized after grace period"));
            }
        }
    }

    /// Queues a deferred delivery `d` ms from now, keeping the queue
    /// sorted by (due, insertion order) so flushes are deterministic.
    fn defer(&mut self, d: u64, what: Deferred) {
        let entry = DeferredEntry { due: self.now + d, seq: self.delayed_seq, what };
        self.delayed_seq = self.delayed_seq.saturating_add(1);
        let pos = self
            .delayed
            .iter()
            .position(|e| (e.due, e.seq) > (entry.due, entry.seq))
            .unwrap_or(self.delayed.len());
        self.delayed.insert(pos, entry);
        mutiny_telemetry::gauge_max("apiserver.deferred.depth_hw", self.delayed.len() as u64);
    }

    /// Delivers every deferred message whose simulated time has come.
    /// Store writes land raw (they already passed validation); requests
    /// replay through the full pipeline without re-crossing the wire.
    fn flush_deferred(&mut self) {
        if self.delayed.is_empty() || self.delayed[0].due > self.now {
            return;
        }
        self.flushing = true;
        while !self.delayed.is_empty() && self.delayed[0].due <= self.now {
            let entry = self.delayed.remove(0);
            match entry.what {
                Deferred::Put { key, bytes } => {
                    self.log(
                        TraceLevel::Debug,
                        format!("delayed etcd transaction for {key} delivered"),
                    );
                    let _ = self.etcd_put(&key, bytes);
                }
                Deferred::Request { channel, op, kind, ns, name, bytes } => {
                    let obj = bytes.and_then(|b| Object::decode(kind, &b).ok());
                    if obj.is_none() && op != Op::Delete {
                        continue; // undecodable replay: nothing arrives
                    }
                    self.log(
                        TraceLevel::Debug,
                        format!("delayed {op} request for {ns}/{name} delivered on {channel}"),
                    );
                    let _ = self.request(channel, op, kind, &ns, &name, obj, true);
                }
            }
        }
        self.flushing = false;
    }

    /// Drains etcd's raw watch log into the decoded cache and event log,
    /// deleting undecryptable objects as they are discovered.
    pub fn sync_cache(&mut self) {
        // Deferred deliveries land before the reaper runs: a delayed
        // terminating mark whose flush time and reap deadline are due at
        // the same sync must be in the store when the reaper checks it,
        // or the reap entry would be consumed with the pod untouched.
        if !self.flushing {
            self.flush_deferred();
        }
        self.reap_terminated();
        loop {
            let (raw, next) = match self.etcd.events_after_revision(self.etcd_seen_rev) {
                Ok(pair) => pair,
                Err(_) => {
                    // Compacted: rebuild the cache from a full range scan.
                    self.etcd_seen_rev = self.etcd.revision();
                    self.rebuild_cache_from_store();
                    continue;
                }
            };
            if raw.is_empty() {
                return;
            }
            self.etcd_seen_rev = next;
            // Batch decode: when one drain carries several revisions of
            // the same key, only the newest is decoded and delivered —
            // the superseded ones could never be observed through the
            // level-triggered cache anyway. Most drains carry one event
            // (every request syncs), so the keep-mask is only built for
            // the multi-event catch-ups that can actually coalesce.
            let keep: Option<Vec<bool>> = (raw.len() > 1).then(|| {
                let mut last: std::collections::HashMap<&str, usize> =
                    std::collections::HashMap::with_capacity(raw.len());
                for (i, ev) in raw.iter().enumerate() {
                    last.insert(ev.key.as_str(), i);
                }
                raw.iter()
                    .enumerate()
                    .map(|(i, ev)| last.get(ev.key.as_str()) == Some(&i))
                    .collect()
            });
            let mut undecodable: Vec<String> = Vec::new();
            for (i, ev) in raw.into_iter().enumerate() {
                if keep.as_ref().is_some_and(|k| !k[i]) {
                    self.sync_events_coalesced = self.sync_events_coalesced.saturating_add(1);
                    mutiny_telemetry::counter_add("apiserver.watch.coalesced", 1);
                    continue;
                }
                mutiny_telemetry::counter_add("apiserver.watch.delivered", 1);
                let Some(kind) = kind_of_key(&ev.key) else { continue };
                match ev.value {
                    None => {
                        self.cache.remove(&ev.key);
                        self.push_event(ResourceEvent {
                            index: 0,
                            kind,
                            key: ev.key.into(),
                            object: None,
                        });
                    }
                    Some(bytes) => {
                        // Revision-keyed decode cache: the write path
                        // remembered the decoded object under this
                        // revision; reuse it iff the event carries the
                        // very same buffer. Fault-corrupted deliveries
                        // are fresh allocations, so `ptr_eq` fails and
                        // they decode from bytes like always.
                        let cached = if self.decode_cache_on {
                            match self.decode_cache.remove(&ev.revision) {
                                Some((cb, obj)) if std::sync::Arc::ptr_eq(&cb, &bytes) => {
                                    self.decode_cache_hits += 1;
                                    DECODE_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                                    Some(obj)
                                }
                                _ => None,
                            }
                        } else {
                            None
                        };
                        let obj = match cached {
                            Some(obj) => obj,
                            None => {
                                if self.decode_cache_on {
                                    self.decode_cache_misses += 1;
                                    DECODE_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
                                }
                                match Object::decode(kind, &bytes) {
                                    Ok(o) => Rc::new(o),
                                    Err(_) => {
                                        undecodable.push(ev.key.clone());
                                        continue;
                                    }
                                }
                            }
                        };
                        let Some(obj) = self.check_integrity(&ev.key, obj) else {
                            continue;
                        };
                        // Intern the key once; the cache takes the
                        // original allocation and the event log shares
                        // the interned copy with every watcher delivery.
                        let key: Rc<str> = ev.key.as_str().into();
                        self.cache.insert(ev.key, obj.clone());
                        self.push_event(ResourceEvent {
                            index: 0,
                            kind,
                            key,
                            object: Some(obj),
                        });
                    }
                }
            }
            // Drained revisions can never be replayed (the cursor only
            // moves forward), so any entry at or below the cursor —
            // e.g. for an event the keep-mask coalesced away — is dead.
            if !self.decode_cache.is_empty() {
                let cursor = self.etcd_seen_rev;
                self.decode_cache.retain(|rev, _| *rev > cursor);
            }
            for key in undecodable {
                // Only delete if the *current* stored bytes are still bad
                // (a later write may have fixed the object).
                let still_bad = self
                    .etcd
                    .get(&key)
                    .map(|(b, _)| {
                        kind_of_key(&key)
                            .map(|k| Object::decode(k, &b).is_err())
                            .unwrap_or(false)
                    })
                    .unwrap_or(false);
                if still_bad {
                    self.cache.remove(&key);
                    self.drop_undecodable(&key);
                }
            }
        }
    }

    fn rebuild_cache_from_store(&mut self) {
        self.cache.clear();
        // A rebuild abandons the watch cursor, so every remembered
        // revision is unreachable from now on.
        self.decode_cache.clear();
        let all = self.etcd.range("/registry/");
        let mut bad = Vec::new();
        for (key, bytes, _) in all {
            let Some(kind) = kind_of_key(&key) else { continue };
            match Object::decode(kind, &bytes) {
                Ok(obj) => {
                    let Some(obj) = self.check_integrity(&key, Rc::new(obj)) else { continue };
                    let shared: Rc<str> = key.as_str().into();
                    self.cache.insert(key, obj.clone());
                    self.push_event(ResourceEvent { index: 0, kind, key: shared, object: Some(obj) });
                }
                Err(_) => bad.push(key),
            }
        }
        for key in bad {
            self.drop_undecodable(&key);
        }
    }

    fn push_event(&mut self, mut ev: ResourceEvent) {
        if self.events.len() == EVENT_LOG_RETENTION {
            self.events.pop_front();
            self.first_event_index += 1;
        }
        ev.index = self.first_event_index + self.events.len() as u64;
        self.events.push_back(ev);
    }

    /// Initial cursor for a new watcher (only future events are seen).
    pub fn watch_head(&self) -> u64 {
        self.first_event_index + self.events.len() as u64
    }

    /// Returns decoded events at indices ≥ `cursor` and the next cursor.
    /// Watchers that fell behind the retention window receive a fresh
    /// cursor and should re-list.
    pub fn poll_events(&mut self, cursor: u64) -> (Vec<ResourceEvent>, u64) {
        self.sync_cache();
        if cursor < self.first_event_index {
            return (Vec::new(), self.watch_head());
        }
        let start = ((cursor - self.first_event_index) as usize).min(self.events.len());
        // Indexed tail view; cloning an event is an Rc bump per object.
        let out: Vec<ResourceEvent> = self.events.range(start..).cloned().collect();
        if self.read_tracking.is_some() {
            for ev in &out {
                let key = ev.key.clone();
                self.track_read(&key);
            }
        }
        (out, self.watch_head())
    }

    /// Reads one object through the watch cache (a shared handle — no
    /// deep clone). The registry key is formatted into per-thread
    /// scratch, so a steady-state cache hit performs no allocation.
    pub fn get(&mut self, kind: Kind, namespace: &str, name: &str) -> Option<Rc<Object>> {
        self.sync_cache();
        with_key_scratch(|key| {
            registry_key_into(key, kind, namespace, name);
            self.current_object(key)
        })
    }

    /// Reads one object bypassing the cache (quorum read from etcd) — used
    /// by the at-rest-corruption ablation and by component restarts.
    pub fn get_fresh(&mut self, kind: Kind, namespace: &str, name: &str) -> Option<Rc<Object>> {
        let key = registry_key(kind, namespace, name);
        let (bytes, _) = self.etcd.get(&key)?;
        match Object::decode(kind, &bytes) {
            Ok(o) => {
                let o = Rc::new(o);
                self.cache.insert(key, o.clone());
                Some(o)
            }
            Err(_) => {
                self.drop_undecodable(&key);
                None
            }
        }
    }

    /// Lists objects of `kind`, optionally scoped to a namespace, in key
    /// order (a range scan of the watch cache). Each element is a shared
    /// handle: listing N objects is N refcount bumps, not N deep clones.
    pub fn list(&mut self, kind: Kind, namespace: Option<&str>) -> Vec<Rc<Object>> {
        self.sync_cache();
        with_key_scratch(|prefix| {
            registry_prefix_into(prefix, kind, namespace);
            if let Some(seen) = self.read_tracking.as_mut() {
                for (k, _) in prefix_range(&self.cache, prefix) {
                    if !seen.contains(k) {
                        seen.insert(k.clone());
                    }
                }
            }
            prefix_range(&self.cache, prefix).map(|(_, o)| o.clone()).collect()
        })
    }

    /// Visits objects of `kind` (optionally namespace-scoped) in key order
    /// without cloning them — the cheap path for metrics sampling and the
    /// network fabric, which run even while a pod storm floods the cache.
    pub fn for_each(&mut self, kind: Kind, namespace: Option<&str>, mut f: impl FnMut(&Object)) {
        self.sync_cache();
        with_key_scratch(|prefix| {
            registry_prefix_into(prefix, kind, namespace);
            for (_, obj) in prefix_range(&self.cache, prefix) {
                f(obj);
            }
        });
    }

    /// Counts objects of `kind` (optionally namespace-scoped) without
    /// cloning: the length of the key range [`ApiServer::list`] returns.
    pub fn count(&mut self, kind: Kind, namespace: Option<&str>) -> usize {
        self.sync_cache();
        with_key_scratch(|prefix| {
            registry_prefix_into(prefix, kind, namespace);
            prefix_range(&self.cache, prefix).count()
        })
    }

    /// Simulates an apiserver restart: the watch cache is dropped and
    /// rebuilt from the store with quorum reads, which is when at-rest
    /// corruption finally gets picked up (§V-C1).
    pub fn restart(&mut self) {
        self.log(
            TraceLevel::Warn,
            "apiserver restarting: rebuilding watch cache from the store".to_owned(),
        );
        self.etcd_seen_rev = self.etcd.revision();
        self.rebuild_cache_from_store();
    }

    /// Number of objects currently in the watch cache.
    pub fn cached_objects(&self) -> usize {
        self.cache.len()
    }

}

/// Derives the kind from a registry key.
pub fn kind_of_key(key: &str) -> Option<Kind> {
    let rest = key.strip_prefix("/registry/")?;
    let plural = rest.split('/').next()?;
    Kind::ALL.iter().copied().find(|k| k.plural() == plural)
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_model::{NoopInterceptor, Pod};

    fn api() -> ApiServer {
        let etcd = Etcd::new(1, 10 * 1024 * 1024);
        let interceptor: InterceptorHandle = Rc::new(RefCell::new(NoopInterceptor));
        let trace: TraceHandle = Rc::new(RefCell::new(Trace::new(1024)));
        ApiServer::new(etcd, interceptor, trace)
    }

    fn pod(ns: &str, name: &str) -> Object {
        let mut p = Pod::default();
        p.metadata = k8s_model::ObjectMeta::named(ns, name);
        p.metadata.labels.insert("app".into(), "web".into());
        p.spec.containers.push(k8s_model::Container {
            name: "c".into(),
            image: "img:1".into(),
            cpu_milli: 100,
            memory_mb: 64,
            port: 8080,
            ..Default::default()
        });
        Object::Pod(p)
    }

    #[test]
    fn create_get_roundtrip_assigns_uid_and_rv() {
        let mut a = api();
        let created = a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        assert!(!created.meta().uid.is_empty());
        assert!(created.meta().resource_version > 0);
        let got = a.get(Kind::Pod, "default", "p1").unwrap();
        assert_eq!(got.meta().uid, created.meta().uid);
    }

    #[test]
    fn create_twice_conflicts() {
        let mut a = api();
        a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        assert_eq!(
            a.create(Channel::UserToApi, pod("default", "p1")),
            Err(ApiError::AlreadyExists)
        );
    }

    #[test]
    fn update_missing_is_not_found() {
        let mut a = api();
        assert_eq!(a.update(Channel::UserToApi, pod("default", "nope")), Err(ApiError::NotFound));
    }

    #[test]
    fn drain_coalesces_superseded_revisions() -> Result<(), EtcdError> {
        // Three revisions of one key land in the store between two
        // drains (a watcher catching up after idling): only the newest
        // is decoded, the superseded two are skipped.
        let mut a = api();
        let Object::Pod(mut p) = pod("default", "p1") else { unreachable!() };
        for i in 0..3 {
            p.status.restart_count = i;
            a.etcd_mut().put("/registry/pods/default/p1", Object::Pod(p.clone()).encode())?;
        }
        let got = a.get(Kind::Pod, "default", "p1").expect("pod visible");
        assert_eq!(got.as_pod().expect("pod").status.restart_count, 2, "newest revision wins");
        assert_eq!(a.sync_events_coalesced, 2, "two superseded revisions skipped");
        // A second drain with nothing new coalesces nothing.
        let _ = a.list(Kind::Pod, None);
        assert_eq!(a.sync_events_coalesced, 2);
        Ok(())
    }

    #[test]
    fn running_pod_delete_is_graceful_then_reaped() {
        let mut a = api();
        a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        // Mark it Running, as the kubelet would.
        let Object::Pod(mut p) = pod("default", "p1") else { unreachable!() };
        p.status.phase = "Running".into();
        p.status.ready = true;
        a.set_now(1_000);
        a.update(Channel::KubeletToApi, Object::Pod(p)).unwrap();
        // A controller delete leaves it serving, marked terminating.
        a.delete(Channel::KcmToApi, Kind::Pod, "default", "p1").unwrap();
        let still = a.get(Kind::Pod, "default", "p1").expect("graceful: pod still visible");
        assert!(still.meta().is_terminating());
        // After the grace period the reaper finalizes it.
        a.set_now(1_000 + POD_TERMINATION_GRACE_MS);
        assert!(a.get(Kind::Pod, "default", "p1").is_none(), "pod must be reaped after grace");
    }

    #[test]
    fn delete_then_get_none() {
        let mut a = api();
        a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        a.delete(Channel::UserToApi, Kind::Pod, "default", "p1").unwrap();
        assert!(a.get(Kind::Pod, "default", "p1").is_none());
        assert_eq!(
            a.delete(Channel::UserToApi, Kind::Pod, "default", "p1"),
            Err(ApiError::NotFound)
        );
    }

    #[test]
    fn list_scopes_by_namespace() {
        let mut a = api();
        a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        a.create(Channel::UserToApi, pod("default", "p2")).unwrap();
        a.create(Channel::UserToApi, pod("kube-system", "p3")).unwrap();
        assert_eq!(a.list(Kind::Pod, Some("default")).len(), 2);
        assert_eq!(a.list(Kind::Pod, None).len(), 3);
    }

    #[test]
    fn invalid_name_rejected_on_user_channel() {
        let mut a = api();
        let bad = pod("default", "Bad_Name");
        let res = a.create(Channel::UserToApi, bad);
        assert!(matches!(res, Err(ApiError::Invalid(_))));
        assert_eq!(a.audit().user_errors(), 1);
    }

    #[test]
    fn watch_stream_delivers_created_objects() {
        let mut a = api();
        let cursor = a.watch_head();
        a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        let (events, next) = a.poll_events(cursor);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, Kind::Pod);
        assert!(events[0].object.is_some());
        let (empty, _) = a.poll_events(next);
        assert!(empty.is_empty());
    }

    #[test]
    fn undecodable_store_bytes_delete_resource() -> Result<(), EtcdError> {
        let mut a = api();
        a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        // Corrupt the stored bytes into garbage via a raw etcd write,
        // emulating a serialization-byte injection that broke decoding.
        a.etcd_mut().put("/registry/pods/default/p1", vec![0xff, 0xff, 0xff])?;
        assert!(a.get(Kind::Pod, "default", "p1").is_none());
        assert_eq!(a.undecodable_deleted, 1);
        assert!(a.etcd().get("/registry/pods/default/p1").is_none());
        Ok(())
    }

    #[test]
    fn kind_of_key_parses() {
        assert_eq!(kind_of_key("/registry/pods/default/p"), Some(Kind::Pod));
        assert_eq!(kind_of_key("/registry/nodes/w1"), Some(Kind::Node));
        assert_eq!(kind_of_key("/registry/unknown/x"), None);
        assert_eq!(kind_of_key("/other/pods/x"), None);
    }

    #[test]
    fn generation_bumps_on_spec_change_only() {
        let mut a = api();
        let created = a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        assert_eq!(created.meta().generation, 1);

        // Status-only change: generation stays.
        let mut status_change = (*created).clone();
        if let Object::Pod(p) = &mut status_change {
            p.status.phase = "Running".into();
        }
        let updated = a.update(Channel::KubeletToApi, status_change).unwrap();
        assert_eq!(updated.meta().generation, 1);

        // Spec change: generation bumps.
        let mut spec_change = (*updated).clone();
        if let Object::Pod(p) = &mut spec_change {
            p.spec.priority = 10;
        }
        let updated2 = a.update(Channel::UserToApi, spec_change).unwrap();
        assert_eq!(updated2.meta().generation, 2);
    }

    #[test]
    fn kubelet_cannot_change_pod_spec() {
        // Server-side-apply field ownership: the kubelet owns status only.
        let mut a = api();
        let created = a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        let mut evil = (*created).clone();
        if let Object::Pod(p) = &mut evil {
            p.spec.priority = 999;
            p.status.phase = "Running".into();
        }
        let stored = a.update(Channel::KubeletToApi, evil).unwrap();
        if let Object::Pod(p) = &*stored {
            assert_eq!(p.spec.priority, 0, "kubelet-written spec must be discarded");
            assert_eq!(p.status.phase, "Running");
        } else {
            panic!("not a pod");
        }
    }

    /// Interceptor returning one canned verdict for the first message on
    /// a channel, passing everything else.
    struct OneShot {
        channel: Channel,
        verdict: Option<WireVerdict>,
    }

    impl Interceptor for OneShot {
        fn on_message(&mut self, ctx: &MsgCtx<'_>) -> WireVerdict {
            if ctx.channel == self.channel {
                self.verdict.take().unwrap_or(WireVerdict::Pass)
            } else {
                WireVerdict::Pass
            }
        }
    }

    fn api_with(channel: Channel, verdict: WireVerdict) -> ApiServer {
        let etcd = Etcd::new(1, 10 * 1024 * 1024);
        let interceptor: InterceptorHandle =
            Rc::new(RefCell::new(OneShot { channel, verdict: Some(verdict) }));
        let trace: TraceHandle = Rc::new(RefCell::new(Trace::new(1024)));
        ApiServer::new(etcd, interceptor, trace)
    }

    #[test]
    fn delayed_store_transaction_lands_late() {
        let mut a = api_with(Channel::ApiToEtcd, WireVerdict::Delay(1_000));
        let created = a.create(Channel::UserToApi, pod("default", "p1"));
        assert!(created.is_ok(), "the sender sees success immediately");
        // Nothing reached the store yet.
        assert!(a.get(Kind::Pod, "default", "p1").is_none());
        // After the hold the write lands through the deferred queue.
        a.set_now(1_000);
        assert!(a.get(Kind::Pod, "default", "p1").is_some());
    }

    #[test]
    fn delayed_incoming_request_arrives_late() {
        let mut a = api_with(Channel::UserToApi, WireVerdict::Delay(2_000));
        a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        assert!(a.get(Kind::Pod, "default", "p1").is_none(), "request still in flight");
        a.set_now(1_999);
        assert!(a.get(Kind::Pod, "default", "p1").is_none());
        a.set_now(2_000);
        let got = a.get(Kind::Pod, "default", "p1").expect("request delivered late");
        // The replay went through the full pipeline: admission ran.
        assert!(!got.meta().uid.is_empty());
        // The late arrival is audited as a real request.
        assert!(a.audit().records().iter().any(|r| r.at == 2_000));
    }

    #[test]
    fn duplicated_store_transaction_resurrects_old_state() {
        let mut a = api_with(Channel::ApiToEtcd, WireVerdict::Pass);
        let created = a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        // Arm a duplicate on the next store transaction.
        a.interceptor = Rc::new(RefCell::new(OneShot {
            channel: Channel::ApiToEtcd,
            verdict: Some(WireVerdict::Duplicate(500)),
        }));
        let Object::Pod(mut p) = (*created).clone() else { unreachable!() };
        p.metadata.resource_version = 0; // always write the latest
        p.status.restart_count = 1;
        a.set_now(100);
        a.update(Channel::KubeletToApi, Object::Pod(p.clone())).unwrap();
        // A newer revision supersedes it…
        p.status.restart_count = 2;
        a.set_now(200);
        a.update(Channel::KubeletToApi, Object::Pod(p)).unwrap();
        assert_eq!(
            a.get(Kind::Pod, "default", "p1").unwrap().as_pod().unwrap().status.restart_count,
            2
        );
        // …until the echo lands and resurrects the duplicated write.
        a.set_now(600);
        assert_eq!(
            a.get(Kind::Pod, "default", "p1").unwrap().as_pod().unwrap().status.restart_count,
            1,
            "the duplicated transaction must overwrite newer state"
        );
    }

    #[test]
    fn per_pod_grace_period_overrides_the_default() {
        let mut a = api();
        let Object::Pod(mut p) = pod("default", "p1") else { unreachable!() };
        p.spec.termination_grace_period_seconds = 5;
        a.create(Channel::UserToApi, Object::Pod(p.clone())).unwrap();
        p.status.phase = "Running".into();
        p.status.ready = true;
        a.set_now(1_000);
        a.update(Channel::KubeletToApi, Object::Pod(p)).unwrap();
        a.delete(Channel::KcmToApi, Kind::Pod, "default", "p1").unwrap();
        // Past the 2 s default, inside the pod's own 5 s window: serving.
        a.set_now(1_000 + POD_TERMINATION_GRACE_MS + 500);
        let still = a.get(Kind::Pod, "default", "p1").expect("pod keeps its own grace");
        assert!(still.meta().is_terminating());
        // After the pod's window: reaped.
        a.set_now(1_000 + 5_000);
        assert!(a.get(Kind::Pod, "default", "p1").is_none());
    }

    #[test]
    fn delayed_terminating_mark_still_reaps_on_a_late_sync() {
        // Flush-then-reap ordering: when the delayed mark's delivery time
        // and the reap deadline are both overdue at the same sync, the
        // mark must land first so the reaper still finalizes the pod.
        let mut a = api();
        let created = a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        let Object::Pod(mut p) = (*created).clone() else { unreachable!() };
        p.metadata.resource_version = 0;
        p.status.phase = "Running".into();
        a.set_now(1_000);
        a.update(Channel::KubeletToApi, Object::Pod(p)).unwrap();
        a.interceptor = Rc::new(RefCell::new(OneShot {
            channel: Channel::ApiToEtcd,
            verdict: Some(WireVerdict::Delay(500)),
        }));
        a.delete(Channel::KcmToApi, Kind::Pod, "default", "p1").unwrap();
        // No syncs happen until well past mark delivery (1 500) and the
        // reap deadline (1 500 + grace): one late sync must do both.
        a.set_now(1_000 + 500 + POD_TERMINATION_GRACE_MS + 2_500);
        assert!(
            a.get(Kind::Pod, "default", "p1").is_none(),
            "pod must be finalized once the late mark lands and grace passes"
        );
    }

    #[test]
    fn reaper_skips_pods_whose_terminating_mark_never_landed() {
        // A dropped terminating mark must not become a force-delete at
        // the (never-started) grace deadline.
        let mut a = api_with(Channel::ApiToEtcd, WireVerdict::Pass);
        a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        let Object::Pod(mut p) = pod("default", "p1") else { unreachable!() };
        p.status.phase = "Running".into();
        a.set_now(1_000);
        a.update(Channel::KubeletToApi, Object::Pod(p)).unwrap();
        a.interceptor = Rc::new(RefCell::new(OneShot {
            channel: Channel::ApiToEtcd,
            verdict: Some(WireVerdict::Drop),
        }));
        a.delete(Channel::KcmToApi, Kind::Pod, "default", "p1").unwrap();
        a.set_now(1_000 + POD_TERMINATION_GRACE_MS + 1);
        let survivor = a.get(Kind::Pod, "default", "p1").expect("pod must survive");
        assert!(!survivor.meta().is_terminating());
    }

    #[test]
    fn key_scratch_survives_reentrant_reads() {
        // The scratch buffer is thread-shared across apiserver instances:
        // a `for_each` callback that reads a *second* apiserver on the
        // same thread must not panic (the buffer is moved out for the
        // duration of the call, never borrow-locked).
        let mut a = api();
        let mut b = api();
        a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        b.create(Channel::UserToApi, pod("default", "q1")).unwrap();
        b.create(Channel::UserToApi, pod("default", "q2")).unwrap();
        let mut seen = 0usize;
        a.for_each(Kind::Pod, None, |_| {
            seen += b.count(Kind::Pod, Some("default"));
            assert!(b.get(Kind::Pod, "default", "q1").is_some());
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn prefix_reads_follow_key_order_and_stop_at_the_namespace_boundary() {
        let mut a = api();
        // `default-x` shares the text `default` but not `default/`: its
        // keys sort right before `default`'s ('-' < '/') and must stay
        // out of `default`'s range.
        for (ns, name) in [
            ("kube-system", "dns"),
            ("default-x", "a"),
            ("default", "web-2"),
            ("default", "web-10"),
            ("default-x", "z"),
            ("default", "db"),
        ] {
            a.create(Channel::UserToApi, pod(ns, name)).unwrap();
        }
        for (ns, name) in [("default", "web"), ("default-x", "web")] {
            let mut s = k8s_model::Service::default();
            s.metadata = k8s_model::ObjectMeta::named(ns, name);
            s.spec.port = 80;
            a.create(Channel::UserToApi, Object::Service(s)).unwrap();
        }
        let keys = |objs: &[Rc<Object>]| objs.iter().map(|o| o.key()).collect::<Vec<_>>();

        // The order contract: a sorted full-cache filter on the prefix.
        let mut expected: Vec<String> =
            a.cache.keys().filter(|k| k.starts_with("/registry/pods/default/")).cloned().collect();
        expected.sort();
        assert_eq!(keys(&a.list(Kind::Pod, Some("default"))), expected);
        let names: Vec<&str> =
            expected.iter().filter_map(|k| k.strip_prefix("/registry/pods/default/")).collect();
        assert_eq!(names, ["db", "web-10", "web-2"], "byte order, not numeric order");
        assert_eq!(a.count(Kind::Pod, Some("default")), expected.len());
        let mut visited = Vec::new();
        a.for_each(Kind::Pod, Some("default"), |o| visited.push(o.key()));
        assert_eq!(visited, expected);

        // Unscoped: every namespace, pods only, still in key order.
        let all = keys(&a.list(Kind::Pod, None));
        assert_eq!(all.len(), 6);
        assert!(all.iter().all(|k| k.starts_with("/registry/pods/")));
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a.count(Kind::Pod, None), 6);
        let services = keys(&a.list(Kind::Service, Some("default")));
        assert_eq!(services, ["/registry/services/default/web"]);
    }

    #[test]
    fn decode_cache_serves_writes_without_redecoding() {
        let mut a = api();
        let created = a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        // The trailing sync of the create drained exactly one event, and
        // its bytes were the very Arc the write path committed.
        assert_eq!(a.decode_cache_hits, 1, "steady-state write must hit the decode cache");
        assert_eq!(a.decode_cache_misses, 0);
        // The watch cache holds the *same* object the caller got back —
        // no decode ever ran, the whole pipeline shared one allocation.
        let got = a.get(Kind::Pod, "default", "p1").unwrap();
        assert!(Rc::ptr_eq(&created, &got), "cache must share the write-path decode");
        // An update flows the same way.
        let mut running = (*created).clone();
        if let Object::Pod(p) = &mut running {
            p.status.phase = "Running".into();
        }
        let updated = a.update(Channel::KubeletToApi, running).unwrap();
        assert_eq!(a.decode_cache_hits, 2);
        assert!(Rc::ptr_eq(&updated, &a.get(Kind::Pod, "default", "p1").unwrap()));
    }

    #[test]
    fn corrupted_transaction_bypasses_decode_cache() {
        // A fault Replaces the store transaction with tampered bytes: the
        // drain must decode those bytes fresh — never serve the pristine
        // admitted object from the decode cache.
        let mut evil = pod("default", "p1");
        if let Object::Pod(p) = &mut evil {
            p.spec.node_name = "ghost-node".into();
        }
        let mut a = api_with(Channel::ApiToEtcd, WireVerdict::Replace(evil.encode()));
        let created = a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        assert_eq!(a.decode_cache_hits, 0, "tampered bytes must never hit the cache");
        assert!(a.decode_cache_misses >= 1, "tampered bytes must decode fresh");
        let got = a.get(Kind::Pod, "default", "p1").unwrap();
        assert_eq!(
            got.as_pod().unwrap().spec.node_name,
            "ghost-node",
            "served state must reflect the corrupted store bytes"
        );
        assert!(!Rc::ptr_eq(&created, &got));
        assert_eq!(created.as_pod().unwrap().spec.node_name, "");
    }

    #[test]
    fn disabled_decode_cache_decodes_but_serves_equal_state() {
        let mut a = api();
        a.set_decode_cache(false);
        let created = a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        assert_eq!((a.decode_cache_hits, a.decode_cache_misses), (0, 0));
        let got = a.get(Kind::Pod, "default", "p1").unwrap();
        assert!(!Rc::ptr_eq(&created, &got), "disabled cache must decode a fresh object");
        assert_eq!(*got, *created, "decoded state must equal the admitted object exactly");
    }

    #[test]
    fn restart_rebuilds_cache_and_sees_at_rest_corruption() {
        let mut a = api();
        let created = a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        // At-rest corruption of a decodable-but-wrong flavour.
        let mut tampered = (*created).clone();
        if let Object::Pod(p) = &mut tampered {
            p.spec.node_name = "ghost-node".into();
        }
        a.etcd_mut().corrupt_at_rest(0, "/registry/pods/default/p1", tampered.encode());
        // Cache still serves the old (correct) value.
        let via_cache = a.get(Kind::Pod, "default", "p1").unwrap();
        assert_eq!(via_cache.as_pod().unwrap().spec.node_name, "");
        // After a restart, the corrupted value is picked up.
        a.restart();
        let fresh = a.get(Kind::Pod, "default", "p1").unwrap();
        assert_eq!(fresh.as_pod().unwrap().spec.node_name, "ghost-node");
    }

    #[test]
    fn at_rest_corruption_invisible_to_watch_pipeline_until_restart() {
        // Corruption families tamper below the wire: no revision bump, no
        // watch event. Watchers and the cache keep serving the clean
        // object until a restart's re-list from the store surfaces the
        // damage.
        let etcd = Etcd::new(1, 10 * 1024 * 1024);
        let interceptor: InterceptorHandle = Rc::new(RefCell::new(NoopInterceptor));
        let trace: TraceHandle = Rc::new(RefCell::new(Trace::new(1024)));
        let mut a = ApiServer::new(etcd, interceptor, trace);
        let created = a.create(Channel::UserToApi, pod("default", "p1")).unwrap();
        let cursor = a.watch_head();
        let mut tampered = (*created).clone();
        if let Object::Pod(p) = &mut tampered {
            p.spec.node_name = "ghost-node".into();
        }
        assert!(a
            .etcd_mut()
            .corrupt_at_rest(0, "/registry/pods/default/p1", tampered.encode()));
        let (events, _) = a.poll_events(cursor);
        assert!(events.is_empty(), "at-rest corruption must not emit watch events");
        assert_eq!(
            a.get(Kind::Pod, "default", "p1").unwrap().as_pod().unwrap().spec.node_name,
            "",
            "the watch cache keeps serving the clean object"
        );
        a.restart();
        assert_eq!(
            a.get(Kind::Pod, "default", "p1").unwrap().as_pod().unwrap().spec.node_name,
            "ghost-node",
            "restart must surface the corruption"
        );
    }
}
