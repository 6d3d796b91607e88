//! # etcd-sim — the simulated cluster data store
//!
//! Kubernetes confines all state to etcd, which the paper identifies as the
//! dependability bottleneck: "any corruption of the data in the data store
//! may propagate and cause failures in every system component" (§I). This
//! crate models the store at the fidelity the campaign needs:
//!
//! * **MVCC byte store** with a global revision counter and per-key
//!   create/mod revisions;
//! * **watch log** — an ordered event stream with compaction, from which
//!   the apiserver's watch cache feeds controllers;
//! * **quorum replication** — writes reach every replica (consensus runs
//!   *after* the injection point, so replicas agree on faulty values,
//!   exactly as §V-C1 observes); reads take a majority vote, which masks
//!   single-replica at-rest corruption;
//! * **disk-usage model** — uncontrolled object replication eventually
//!   fills the control-plane disk and stalls the store (the terminal state
//!   of the paper's uncontrolled-replication example).
//!
//! Values are stored as [`Bytes`] (`Arc<[u8]>`): committing a write to N
//! replicas is one allocation plus N reference-count bumps, and `get`,
//! `range` and watch replay hand out refcounted views instead of copying
//! payloads — the store is zero-copy on the campaign's hot path.
//!
//! ## Front-end and store
//!
//! [`Etcd`] is a *front-end*: the disk budget, write rejection, the
//! inconsistent-view fault overlay and telemetry live here, over one
//! in-memory replicated map store. Cloning an [`Etcd`] is a
//! copy-on-write snapshot (refcount bumps), which keeps `World::fork`
//! cheap.
//!
//! ```
//! use etcd_sim::Etcd;
//!
//! let mut etcd = Etcd::new(1, 64 * 1024);
//! let rev = etcd.put("/registry/pods/default/web-0", b"pod-bytes".to_vec()).unwrap();
//! let (bytes, mod_rev) = etcd.get("/registry/pods/default/web-0").unwrap();
//! assert_eq!(&bytes[..], b"pod-bytes");
//! assert_eq!(mod_rev, rev);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

mod mem;

use mem::MemStore;

/// A stored value: immutable, refcounted, shared between replicas, the
/// watch log, and readers without copying.
pub type Bytes = Arc<[u8]>;

/// Errors returned by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EtcdError {
    /// The store's disk budget is exhausted; writes are rejected and the
    /// cluster state can no longer evolve (a Stall condition).
    DiskFull,
    /// A watcher asked for events older than the compaction horizon and
    /// must re-list.
    Compacted,
}

impl fmt::Display for EtcdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtcdError::DiskFull => write!(f, "etcd disk full: write rejected"),
            EtcdError::Compacted => write!(f, "requested watch revision was compacted"),
        }
    }
}

impl std::error::Error for EtcdError {}

/// One change in the watch stream: `value: None` is a delete. Cloning an
/// event bumps the payload's refcount instead of copying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// Store revision at which the change committed.
    pub revision: u64,
    /// Registry key that changed.
    pub key: String,
    /// New value (`None` for deletions).
    pub value: Option<Bytes>,
}

/// How many watch events are retained before compaction.
pub const WATCH_LOG_RETENTION: usize = 200_000;

/// The storage engine behind the store. There is one; the enum stays
/// only because `perfbench/src/workloads.rs` names
/// `StorageKind::Mem` in its `ClusterConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// Per-replica in-memory maps.
    #[default]
    Mem,
}

/// A frozen per-replica view served while an inconsistent-view fault is
/// active: stale `(bytes, mod_rev)` per key, snapshotted from one
/// replica's disk at fault onset.
#[derive(Debug, Clone)]
struct StaleView {
    data: BTreeMap<String, (Bytes, u64)>,
}

/// The replicated data store front-end used by the apiserver: budget
/// policy and fault overlays over the replicated map store. `Clone` is
/// a copy-on-write snapshot — this is what keeps `World::fork` /
/// `ApiServer::fork` refcount-cheap.
#[derive(Debug, Clone)]
pub struct Etcd {
    store: MemStore,
    capacity_bytes: u64,
    /// The real budget while a disk-full fault window holds `capacity_bytes`
    /// clamped down ([`Etcd::clamp_disk_budget`]).
    saved_capacity: Option<u64>,
    writes_rejected: u64,
    /// While `Some`, quorum reads serve this stale snapshot instead of
    /// the store — different readers of the same revision see
    /// different bytes (arXiv:1904.06206).
    stale_view: Option<StaleView>,
}

impl Etcd {
    /// Creates a store with `replicas` replicas (≥ 1) and a per-replica
    /// disk budget of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(replicas: usize, capacity_bytes: u64) -> Etcd {
        Etcd {
            store: MemStore::new(replicas),
            capacity_bytes,
            saved_capacity: None,
            writes_rejected: 0,
            stale_view: None,
        }
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.store.replica_count()
    }

    /// Current global revision.
    pub fn revision(&self) -> u64 {
        self.store.revision()
    }

    /// Live bytes (`key.len() + value.len()`) stored on the leader
    /// replica — the disk-budget basis.
    pub fn disk_used(&self) -> u64 {
        self.store.disk_used()
    }

    /// True once the disk budget is exhausted (writes are being rejected).
    pub fn is_stalled(&self) -> bool {
        self.disk_used() >= self.capacity_bytes
    }

    /// Number of writes rejected because the disk was full.
    pub fn writes_rejected(&self) -> u64 {
        self.writes_rejected
    }

    /// True when the store is in a degraded state an operator would page
    /// on: the disk budget is exhausted *or* any write has already been
    /// rejected (rejections are permanent evidence — the state machine
    /// may have missed updates). The single stall predicate the health
    /// samplers (`cluster`) and the mitigation guard share.
    pub fn is_degraded(&self) -> bool {
        self.is_stalled() || self.writes_rejected() > 0
    }

    /// Number of keys stored.
    pub fn object_count(&self) -> usize {
        self.store.object_count()
    }

    /// Explicit compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.store.compactions()
    }

    /// Commits a write to every replica (post-consensus, so all replicas
    /// carry the same — possibly faulty — value). Returns the new revision.
    ///
    /// The value is shared: one allocation, refcount bumps per replica and
    /// per watch-log entry.
    ///
    /// # Errors
    ///
    /// [`EtcdError::DiskFull`] when the disk budget is exhausted.
    pub fn put(&mut self, key: &str, bytes: impl Into<Bytes>) -> Result<u64, EtcdError> {
        let bytes: Bytes = bytes.into();
        let grow = bytes.len() as u64 + key.len() as u64;
        let existing = self.store.live_size(key);
        if self.disk_used() + grow.saturating_sub(existing) > self.capacity_bytes {
            self.writes_rejected = self.writes_rejected.saturating_add(1);
            mutiny_telemetry::counter_add("etcd.writes_rejected", 1);
            return Err(EtcdError::DiskFull);
        }
        let rev = self.store.commit(key, bytes);
        mutiny_telemetry::gauge_set("etcd.revision", rev);
        mutiny_telemetry::gauge_max("etcd.store_bytes_hw", self.disk_used());
        Ok(rev)
    }

    /// Deletes a key from every replica. Returns the deletion revision, or
    /// `None` when the key did not exist.
    pub fn delete(&mut self, key: &str) -> Option<u64> {
        self.store.delete(key)
    }

    /// Quorum read: per-replica values are majority-voted, masking
    /// single-replica at-rest corruption. Returns `(bytes, mod_revision)`.
    ///
    /// The returned [`Bytes`] is a refcount bump, not a copy. Uncorrupted
    /// replicas share one allocation, so the vote is pointer comparisons
    /// until `corrupt_at_rest` has diverged a replica.
    ///
    /// While an inconsistent-view fault is active
    /// ([`Etcd::begin_inconsistent_view`]), the read serves the frozen
    /// snapshot instead.
    pub fn get(&self, key: &str) -> Option<(Bytes, u64)> {
        if let Some(sv) = &self.stale_view {
            return sv.data.get(key).map(|(b, rev)| (b.clone(), *rev));
        }
        self.store.get(key)
    }

    /// Quorum range read over a key prefix, in key order. Values are
    /// refcounted views, not copies. Serves the frozen snapshot while an
    /// inconsistent-view fault is active.
    pub fn range(&self, prefix: &str) -> Vec<(String, Bytes, u64)> {
        if let Some(sv) = &self.stale_view {
            return sv
                .data
                .range(prefix.to_owned()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, (b, rev))| (k.clone(), b.clone(), *rev))
                .collect();
        }
        self.store.range(prefix)
    }

    /// Returns watch events with log index ≥ `cursor` plus the next cursor.
    ///
    /// Replay is a tail view: the log is indexed directly (no walk over
    /// already-consumed events) and payload clones are refcount bumps.
    ///
    /// # Errors
    ///
    /// [`EtcdError::Compacted`] when `cursor` precedes the retention window.
    pub fn events_since(&self, cursor: u64) -> Result<(Vec<WatchEvent>, u64), EtcdError> {
        self.store.events_since(cursor)
    }

    /// Returns watch events that committed at a revision > `revision`,
    /// plus the new resume revision (the store's current revision). Every
    /// committed write bumps the revision by exactly one and appends one
    /// event, so the log is contiguous in revision and the tail is
    /// located by arithmetic, not a scan. This is the apiserver's watch
    /// drain: its cursor is a store revision, exactly like real etcd.
    ///
    /// # Errors
    ///
    /// [`EtcdError::Compacted`] when events after `revision` have already
    /// been compacted away (the watcher must re-list).
    pub fn events_after_revision(
        &self,
        revision: u64,
    ) -> Result<(Vec<WatchEvent>, u64), EtcdError> {
        self.store.events_after_revision(revision)
    }

    /// Log index one past the newest event (initial cursor for watchers).
    pub fn event_head(&self) -> u64 {
        self.store.event_head()
    }

    /// Explicit compaction: lagging watch cursors are invalidated
    /// (subsequent replays return [`EtcdError::Compacted`]). The
    /// compaction-pressure fault family drives this; store contents and
    /// revisions are untouched.
    pub fn compact(&mut self) {
        self.store.compact();
    }

    /// Clamps the disk budget down to the bytes already used, so any
    /// growing write starts rejecting — the reversible disk-full fault
    /// actuation. A later [`Etcd::restore_disk_budget`] lifts it; the
    /// original budget survives nested clamps.
    pub fn clamp_disk_budget(&mut self) {
        if self.saved_capacity.is_none() {
            self.saved_capacity = Some(self.capacity_bytes);
        }
        self.capacity_bytes = self.disk_used();
    }

    /// Restores the budget a [`Etcd::clamp_disk_budget`] clamped. No-op
    /// when no clamp is active.
    pub fn restore_disk_budget(&mut self) {
        if let Some(cap) = self.saved_capacity.take() {
            self.capacity_bytes = cap;
        }
    }

    /// Silently corrupts the bytes stored on one replica without bumping
    /// revisions or emitting watch events — at-rest corruption (§V-C1).
    ///
    /// Returns `false` when the replica or key does not exist.
    pub fn corrupt_at_rest(&mut self, replica: usize, key: &str, bytes: impl Into<Bytes>) -> bool {
        self.store.corrupt_at_rest(replica, key, bytes.into())
    }

    /// Corrupts the `nth` live key (modulo the key count) on `replica`
    /// (modulo the replica count) by inverting its bytes — the
    /// deterministic victim selection the etcd-corrupt-at-rest fault
    /// family uses. Returns `false` on an empty store.
    pub fn corrupt_nth_at_rest(&mut self, replica: usize, nth: usize) -> bool {
        let count = self.object_count();
        if count == 0 {
            return false;
        }
        let replica = replica % self.replica_count();
        let Some(key) = self.store.nth_key(nth % count) else {
            return false;
        };
        let Some((bytes, _)) = self.store.get_unquorum(replica, &key) else {
            return false;
        };
        let flipped: Vec<u8> = bytes.iter().map(|b| !b).collect();
        self.store.corrupt_at_rest(replica, &key, flipped.into())
    }

    /// Reads a single replica without quorum (models a client that talks
    /// to one replica directly, bypassing linearizable reads).
    pub fn get_unquorum(&self, replica: usize, key: &str) -> Option<(Bytes, u64)> {
        self.store.get_unquorum(replica, key)
    }

    /// Starts an inconsistent-view fault (arXiv:1904.06206): quorum
    /// reads ([`Etcd::get`] / [`Etcd::range`]) freeze on a snapshot of
    /// `replica`'s current disk state while writes, revisions and the
    /// watch stream move on — different readers of the same revision
    /// observe different bytes until [`Etcd::end_inconsistent_view`].
    pub fn begin_inconsistent_view(&mut self, replica: usize) {
        let replica = replica % self.replica_count();
        let mut data = BTreeMap::new();
        for (key, _, _) in self.store.range("") {
            if let Some((bytes, rev)) = self.store.get_unquorum(replica, &key) {
                data.insert(key, (bytes, rev));
            }
        }
        self.stale_view = Some(StaleView { data });
    }

    /// Ends an inconsistent-view fault; reads are linearizable again.
    pub fn end_inconsistent_view(&mut self) {
        self.stale_view = None;
    }

    /// True while an inconsistent-view fault is being served.
    pub fn inconsistent_view_active(&self) -> bool {
        self.stale_view.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_and_revisions() {
        let mut e = Etcd::new(1, 4096);
        let r1 = e.put("/a", vec![1]).unwrap();
        let r2 = e.put("/b", vec![2]).unwrap();
        assert!(r2 > r1);
        assert_eq!(e.get("/a").unwrap().0.to_vec(), vec![1]);
        let r3 = e.put("/a", vec![9]).unwrap();
        let (bytes, rev) = e.get("/a").unwrap();
        assert_eq!(bytes.to_vec(), vec![9]);
        assert_eq!(rev, r3);
        assert_eq!(e.revision(), 3);
    }

    #[test]
    fn delete_and_missing() {
        let mut e = Etcd::new(1, 4096);
        e.put("/a", vec![1]).unwrap();
        assert!(e.delete("/a").is_some());
        assert!(e.get("/a").is_none());
        assert!(e.delete("/a").is_none());
    }

    #[test]
    fn range_is_prefix_scoped_and_ordered() {
        let mut e = Etcd::new(1, 4096);
        e.put("/registry/pods/default/b", vec![2]).unwrap();
        e.put("/registry/pods/default/a", vec![1]).unwrap();
        e.put("/registry/pods/kube-system/c", vec![3]).unwrap();
        e.put("/registry/services/default/s", vec![4]).unwrap();
        let r = e.range("/registry/pods/default/");
        let keys: Vec<&str> = r.iter().map(|(k, _, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["/registry/pods/default/a", "/registry/pods/default/b"]);
    }

    #[test]
    fn watch_events_stream_in_order() {
        let mut e = Etcd::new(1, 4096);
        let c0 = e.event_head();
        e.put("/a", vec![1]).unwrap();
        e.delete("/a");
        let (evs, next) = e.events_since(c0).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].value.as_deref(), Some(&[1u8][..]));
        assert_eq!(evs[1].value, None);
        let (evs2, _) = e.events_since(next).unwrap();
        assert!(evs2.is_empty());
    }

    #[test]
    fn revision_indexed_replay_returns_only_the_tail() {
        let mut e = Etcd::new(1, 4096);
        e.put("/a", vec![1]).unwrap(); // rev 1
        e.put("/b", vec![2]).unwrap(); // rev 2
        e.delete("/a"); // rev 3
        let (evs, resume) = e.events_after_revision(1).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].revision, 2);
        assert_eq!(evs[1].revision, 3);
        assert_eq!(resume, e.revision());
        let (all, _) = e.events_after_revision(0).unwrap();
        assert_eq!(all.len(), 3);
        let (none, _) = e.events_after_revision(3).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn replay_and_reads_share_the_stored_allocation() {
        // The zero-copy property: quorum reads and watch replay hand out
        // the same Arc the committed write produced.
        let mut e = Etcd::new(3, 4096);
        e.put("/a", vec![9; 64]).unwrap();
        let (stored, _) = e.get("/a").unwrap();
        let (evs, _) = e.events_since(0).unwrap();
        let replayed = evs[0].value.clone().unwrap();
        assert!(Arc::ptr_eq(&stored, &replayed), "payload was copied, not shared");
        let (direct, _) = e.get_unquorum(2, "/a").unwrap();
        assert!(Arc::ptr_eq(&stored, &direct));
    }

    #[test]
    fn disk_fill_stalls_writes() {
        let mut e = Etcd::new(1, 64);
        let mut wrote = 0;
        loop {
            match e.put(&format!("/k{wrote}"), vec![0u8; 16]) {
                Ok(_) => wrote += 1,
                Err(EtcdError::DiskFull) => break,
                Err(other) => panic!("unexpected: {other}"),
            }
            assert!(wrote < 100, "disk never filled");
        }
        assert!(e.is_stalled() || e.writes_rejected() > 0);
        assert!(e.is_degraded());
        // Updating an existing key to a smaller value still works.
        assert!(e.put("/k0", vec![0u8; 1]).is_ok());
    }

    #[test]
    fn single_replica_fast_path_matches_quorum_semantics() {
        // The 1-replica fast path must behave exactly like the voting
        // path: same hit/miss results, shared (not copied) payloads, and
        // at-rest corruption visible (a 1-replica store has no quorum to
        // mask it — same answer the vote would give).
        let mut e = Etcd::new(1, 4096);
        assert!(e.get("/missing").is_none());
        let rev = e.put("/a", vec![5, 6]).unwrap();
        let (bytes, mod_rev) = e.get("/a").unwrap();
        assert_eq!((bytes.to_vec(), mod_rev), (vec![5, 6], rev));
        let (direct, _) = e.get_unquorum(0, "/a").unwrap();
        assert!(Arc::ptr_eq(&bytes, &direct), "fast path must not copy");
        e.corrupt_at_rest(0, "/a", vec![9]);
        assert_eq!(e.get("/a").unwrap().0.to_vec(), vec![9]);
    }

    #[test]
    fn quorum_masks_single_replica_at_rest_corruption() {
        let mut e = Etcd::new(3, 4096);
        e.put("/a", vec![7, 7, 7]).unwrap();
        assert!(e.corrupt_at_rest(1, "/a", vec![0, 0, 0]));
        // Quorum read returns the uncorrupted majority value.
        assert_eq!(e.get("/a").unwrap().0.to_vec(), vec![7, 7, 7]);
        // Direct unquorum read of the corrupted replica sees the bad value.
        assert_eq!(e.get_unquorum(1, "/a").unwrap().0.to_vec(), vec![0, 0, 0]);
    }

    #[test]
    fn in_flight_corruption_reaches_all_replicas() {
        // The §V-C1 result: injections before consensus are NOT masked.
        let mut e = Etcd::new(3, 4096);
        e.put("/a", vec![0xBA, 0xD0]).unwrap(); // already-faulty value
        for i in 0..3 {
            assert_eq!(e.get_unquorum(i, "/a").unwrap().0.to_vec(), vec![0xBA, 0xD0]);
        }
        assert_eq!(e.get("/a").unwrap().0.to_vec(), vec![0xBA, 0xD0]);
    }

    #[test]
    fn at_rest_corruption_emits_no_watch_event() {
        let mut e = Etcd::new(1, 4096);
        e.put("/a", vec![1]).unwrap();
        let head = e.event_head();
        e.corrupt_at_rest(0, "/a", vec![2]);
        assert_eq!(e.event_head(), head);
        assert_eq!(e.revision(), 1);
    }

    #[test]
    fn compaction_forces_relist() {
        // Retention-overflow compaction: filling the whole watch log
        // pushes the oldest events out.
        let mut e = Etcd::new(1, u64::MAX);
        for i in 0..(WATCH_LOG_RETENTION + 10) {
            e.put(&format!("/k{}", i % 7), vec![1]).unwrap();
        }
        assert!(matches!(e.events_since(0), Err(EtcdError::Compacted)));
        assert!(matches!(e.events_after_revision(0), Err(EtcdError::Compacted)));
        let head = e.event_head();
        assert!(e.events_since(head).is_ok());
        assert!(e.events_after_revision(e.revision()).is_ok());
    }

    #[test]
    fn explicit_compaction_invalidates_lagging_cursors() {
        let mut e = Etcd::new(1, 4096);
        e.put("/a", vec![1]).unwrap();
        e.put("/b", vec![2]).unwrap();
        let lagging = e.event_head() - 1;
        e.compact();
        // Lagging watchers must re-list…
        assert!(matches!(e.events_since(lagging - 1), Err(EtcdError::Compacted)));
        assert!(matches!(e.events_since(lagging), Err(EtcdError::Compacted)));
        assert!(matches!(e.events_after_revision(1), Err(EtcdError::Compacted)));
        // …caught-up watchers and fresh cursors are unaffected…
        assert!(e.events_since(e.event_head()).is_ok());
        assert!(e.events_after_revision(e.revision()).is_ok());
        // …and the store itself is untouched.
        assert_eq!(e.get("/a").unwrap().0.to_vec(), vec![1]);
        assert_eq!(e.revision(), 2);
        assert!(e.compactions() >= 1);
        // The stream resumes cleanly after the compaction.
        let cursor = e.event_head();
        e.put("/c", vec![3]).unwrap();
        let (evs, _) = e.events_since(cursor).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].key, "/c");
    }

    #[test]
    fn events_since_cursor_lag_is_typed_not_fatal() {
        // The watch-pipeline contract the compaction-pressure family
        // leans on: a lagging cursor is a typed error and the stream
        // recovers once the watcher re-lists from the head.
        let mut e = Etcd::new(1, 4096);
        for i in 0..4 {
            e.put(&format!("/k{i}"), vec![i as u8]).unwrap();
        }
        let (evs, next) = e.events_since(2).unwrap();
        assert_eq!(evs.len(), 2, "tail view from a mid-log cursor");
        assert_eq!(next, e.event_head());
        e.compact();
        assert_eq!(e.events_since(2), Err(EtcdError::Compacted));
        let (empty, resumed) = e.events_since(e.event_head()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(resumed, e.event_head());
    }

    #[test]
    fn corrupt_missing_key_or_replica_is_false() {
        let mut e = Etcd::new(1, 4096);
        assert!(!e.corrupt_at_rest(0, "/nope", vec![]));
        e.put("/a", vec![1]).unwrap();
        assert!(!e.corrupt_at_rest(5, "/a", vec![]));
    }

    #[test]
    fn corrupt_nth_flips_a_deterministic_victim() {
        let mut e = Etcd::new(1, 4096);
        assert!(!e.corrupt_nth_at_rest(0, 0), "empty store has no victim");
        e.put("/a", vec![0x0F]).unwrap();
        e.put("/b", vec![0xF0]).unwrap();
        // nth wraps modulo the key count: 3 % 2 == 1 → "/b".
        assert!(e.corrupt_nth_at_rest(0, 3));
        assert_eq!(e.get("/b").unwrap().0.to_vec(), vec![0x0F]);
        assert_eq!(e.get("/a").unwrap().0.to_vec(), vec![0x0F], "/a untouched");
    }

    #[test]
    fn clamp_and_restore_disk_budget() {
        let mut e = Etcd::new(1, 1 << 20);
        e.put("/a", vec![1; 32]).unwrap();
        assert!(!e.is_degraded());
        e.clamp_disk_budget();
        assert!(e.is_stalled(), "clamped budget equals usage");
        assert!(matches!(e.put("/grow", vec![1; 8]), Err(EtcdError::DiskFull)));
        // Same-size rewrites still fit (no growth).
        assert!(e.put("/a", vec![2; 32]).is_ok());
        // Nested clamps keep the original budget.
        e.clamp_disk_budget();
        e.restore_disk_budget();
        assert!(!e.is_stalled());
        assert!(e.put("/grow", vec![1; 8]).is_ok());
        // The rejection remains permanent degradation evidence.
        assert!(e.is_degraded());
    }

    #[test]
    fn inconsistent_view_serves_stale_reads_while_writes_advance() {
        let mut e = Etcd::new(1, 4096);
        e.put("/a", vec![1]).unwrap();
        e.begin_inconsistent_view(0);
        assert!(e.inconsistent_view_active());
        let rev = e.put("/a", vec![2]).unwrap();
        e.put("/new", vec![3]).unwrap();
        // Quorum readers are frozen at fault onset…
        assert_eq!(e.get("/a").unwrap().0.to_vec(), vec![1]);
        assert!(e.get("/new").is_none());
        assert_eq!(e.range("/").len(), 1);
        // …while the revision and the watch stream carry the truth:
        // different readers of the same revision see different bytes.
        assert_eq!(e.revision(), 3);
        let (evs, _) = e.events_after_revision(rev - 1).unwrap();
        assert_eq!(evs[0].value.as_deref(), Some(&[2u8][..]));
        e.end_inconsistent_view();
        assert_eq!(e.get("/a").unwrap().0.to_vec(), vec![2]);
        assert_eq!(e.range("/").len(), 2);
    }

    #[test]
    fn fork_is_copy_on_write() {
        let mut e = Etcd::new(1, 1 << 20);
        e.put("/a", vec![1]).unwrap();
        let mut fork = e.clone();
        fork.put("/a", vec![2]).unwrap();
        fork.put("/b", vec![3]).unwrap();
        fork.compact();
        // The original never sees the fork's writes (or vice versa).
        assert_eq!(e.get("/a").unwrap().0.to_vec(), vec![1]);
        assert!(e.get("/b").is_none());
        assert_eq!(e.revision(), 1);
        assert!(e.events_since(0).is_ok(), "fork's compaction leaked");
        e.put("/c", vec![4]).unwrap();
        assert!(fork.get("/c").is_none());
        // Untouched payloads stay shared (refcount, not copy).
        let (orig, _) = e.get("/a").unwrap();
        let (evs, _) = e.events_since(0).unwrap();
        assert!(Arc::ptr_eq(&orig, evs[0].value.as_ref().unwrap()));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        let _ = Etcd::new(0, 1);
    }
}
