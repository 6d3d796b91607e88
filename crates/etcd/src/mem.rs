//! The storage engine behind the [`Etcd`](crate::Etcd) front-end:
//! per-replica `BTreeMap`s behind copy-on-write `Arc`s plus a bounded
//! watch log. The front-end owns policy (disk budget, fault overlays,
//! telemetry); this module owns where bytes live.

use crate::{Bytes, EtcdError, WatchEvent, WATCH_LOG_RETENTION};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One stored version: refcounted bytes plus MVCC metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Versioned {
    bytes: Bytes,
    create_rev: u64,
    mod_rev: u64,
}

/// A bounded event deque behind an `Arc`, so a fork is one refcount
/// bump (the first post-fork append clones).
#[derive(Debug, Clone, Default)]
struct WatchLog {
    events: Arc<VecDeque<WatchEvent>>,
    /// Log index of `events[0]`.
    first_event_index: u64,
}

impl WatchLog {
    fn push(&mut self, ev: WatchEvent) {
        let events = Arc::make_mut(&mut self.events);
        if events.len() == WATCH_LOG_RETENTION {
            events.pop_front();
            self.first_event_index += 1;
        }
        events.push_back(ev);
    }

    /// Drops all retained events: any cursor short of the head now
    /// replays as [`EtcdError::Compacted`].
    fn compact(&mut self) {
        self.first_event_index = self.head();
        Arc::make_mut(&mut self.events).clear();
    }

    fn head(&self) -> u64 {
        self.first_event_index + self.events.len() as u64
    }

    fn events_since(&self, cursor: u64) -> Result<(Vec<WatchEvent>, u64), EtcdError> {
        if cursor < self.first_event_index {
            return Err(EtcdError::Compacted);
        }
        let start = ((cursor - self.first_event_index) as usize).min(self.events.len());
        let out: Vec<WatchEvent> = self.events.range(start..).cloned().collect();
        Ok((out, self.head()))
    }

    fn events_after_revision(
        &self,
        revision: u64,
        current: u64,
    ) -> Result<(Vec<WatchEvent>, u64), EtcdError> {
        let first_rev = match self.events.front() {
            Some(ev) => ev.revision,
            None => {
                // Empty log: fine unless history before `revision` is gone.
                return if revision >= current {
                    Ok((Vec::new(), current))
                } else {
                    Err(EtcdError::Compacted)
                };
            }
        };
        if revision + 1 < first_rev {
            return Err(EtcdError::Compacted);
        }
        let start = ((revision + 1 - first_rev) as usize).min(self.events.len());
        debug_assert!(
            self.events.get(start).map(|ev| ev.revision > revision).unwrap_or(true),
            "watch log not contiguous in revision"
        );
        let out: Vec<WatchEvent> = self.events.range(start..).cloned().collect();
        Ok((out, current))
    }
}

/// Majority vote over per-replica `(bytes, mod_rev)` views, with a
/// pointer-equality fast path and a first-seen tie-break. `None` unless
/// a strict majority of `replicas` holds the key.
fn quorum_vote(values: &[(&Bytes, u64)], replicas: usize) -> Option<(Bytes, u64)> {
    if values.is_empty() || values.len() * 2 < replicas {
        return None; // no majority holds the key
    }
    // Majority vote on the byte content (pointer-equality fast path:
    // replicas that share the committed Arc agree by construction).
    let mut counts: Vec<(usize, (&Bytes, u64))> = Vec::new();
    for v in values {
        match counts
            .iter_mut()
            .find(|(_, u)| Arc::ptr_eq(u.0, v.0) || u.0 == v.0)
        {
            Some((c, _)) => *c += 1,
            None => counts.push((1, *v)),
        }
    }
    counts.sort_by_key(|&(c, _)| std::cmp::Reverse(c));
    let (_, (bytes, mod_rev)) = counts[0];
    Some((bytes.clone(), mod_rev))
}

/// A single etcd replica: a byte map plus disk accounting. The map is
/// `Arc`-wrapped so cloning the store is a refcount bump; the first
/// post-clone write clones via [`Arc::make_mut`].
#[derive(Debug, Clone, Default)]
struct Replica {
    data: Arc<BTreeMap<String, Versioned>>,
    disk_used: u64,
}

impl Replica {
    fn put(&mut self, key: &str, bytes: Bytes, rev: u64) {
        let len = bytes.len() as u64 + key.len() as u64;
        let data = Arc::make_mut(&mut self.data);
        match data.get_mut(key) {
            Some(v) => {
                self.disk_used =
                    self.disk_used + len - (v.bytes.len() as u64 + key.len() as u64);
                v.bytes = bytes;
                v.mod_rev = rev;
            }
            None => {
                self.disk_used += len;
                data.insert(
                    key.to_owned(),
                    Versioned { bytes, create_rev: rev, mod_rev: rev },
                );
            }
        }
    }

    fn delete(&mut self, key: &str) -> bool {
        if !self.data.contains_key(key) {
            return false;
        }
        let data = Arc::make_mut(&mut self.data);
        if let Some(v) = data.remove(key) {
            self.disk_used -= v.bytes.len() as u64 + key.len() as u64;
            true
        } else {
            false
        }
    }
}

/// The replicated map store. `Clone` is a copy-on-write snapshot
/// (refcount bumps, no deep copy): `World::fork` clones the store once
/// per experiment.
#[derive(Debug, Clone)]
pub(crate) struct MemStore {
    replicas: Vec<Replica>,
    revision: u64,
    log: WatchLog,
    compactions: u64,
}

impl MemStore {
    /// An empty store with `replicas` replicas (≥ 1).
    pub(crate) fn new(replicas: usize) -> MemStore {
        assert!(replicas >= 1, "etcd needs at least one replica");
        MemStore {
            replicas: vec![Replica::default(); replicas],
            revision: 0,
            log: WatchLog::default(),
            compactions: 0,
        }
    }

    pub(crate) fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    pub(crate) fn revision(&self) -> u64 {
        self.revision
    }

    /// Live `key.len() + value.len()` on the leader replica.
    pub(crate) fn disk_used(&self) -> u64 {
        self.replicas[0].disk_used
    }

    pub(crate) fn object_count(&self) -> usize {
        self.replicas[0].data.len()
    }

    /// `key.len() + value.len()` of the leader's live version of `key`,
    /// `0` when absent.
    pub(crate) fn live_size(&self, key: &str) -> u64 {
        self.replicas[0]
            .data
            .get(key)
            .map(|v| v.bytes.len() as u64 + key.len() as u64)
            .unwrap_or(0)
    }

    /// The `nth` live key in key order.
    pub(crate) fn nth_key(&self, nth: usize) -> Option<String> {
        self.replicas[0].data.keys().nth(nth).cloned()
    }

    /// Commits a write to every replica and appends the watch event.
    /// Never rejects: capacity is the front-end's job.
    pub(crate) fn commit(&mut self, key: &str, bytes: Bytes) -> u64 {
        self.revision += 1;
        let rev = self.revision;
        for r in &mut self.replicas {
            r.put(key, bytes.clone(), rev);
        }
        self.log.push(WatchEvent { revision: rev, key: key.to_owned(), value: Some(bytes) });
        rev
    }

    pub(crate) fn delete(&mut self, key: &str) -> Option<u64> {
        let mut any = false;
        for r in &mut self.replicas {
            any |= r.delete(key);
        }
        if !any {
            return None;
        }
        self.revision += 1;
        let rev = self.revision;
        self.log.push(WatchEvent { revision: rev, key: key.to_owned(), value: None });
        Some(rev)
    }

    pub(crate) fn get(&self, key: &str) -> Option<(Bytes, u64)> {
        // Single-replica fast path: nothing to vote over, so the read is
        // a map probe plus one refcount bump — no scratch vectors. The
        // default campaign config runs one replica, which makes this the
        // store's hottest read shape.
        if self.replicas.len() == 1 {
            return self.replicas[0].data.get(key).map(|v| (v.bytes.clone(), v.mod_rev));
        }
        let values: Vec<(&Bytes, u64)> = self
            .replicas
            .iter()
            .filter_map(|r| r.data.get(key).map(|v| (&v.bytes, v.mod_rev)))
            .collect();
        quorum_vote(&values, self.replicas.len())
    }

    pub(crate) fn range(&self, prefix: &str) -> Vec<(String, Bytes, u64)> {
        let leader = &self.replicas[0];
        leader
            .data
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, _)| self.get(k).map(|(b, rev)| (k.clone(), b, rev)))
            .collect()
    }

    pub(crate) fn events_since(&self, cursor: u64) -> Result<(Vec<WatchEvent>, u64), EtcdError> {
        self.log.events_since(cursor)
    }

    pub(crate) fn events_after_revision(
        &self,
        revision: u64,
    ) -> Result<(Vec<WatchEvent>, u64), EtcdError> {
        self.log.events_after_revision(revision, self.revision)
    }

    pub(crate) fn event_head(&self) -> u64 {
        self.log.head()
    }

    pub(crate) fn compact(&mut self) {
        self.log.compact();
        self.compactions += 1;
        mutiny_telemetry::counter_add("etcd.compactions", 1);
    }

    pub(crate) fn corrupt_at_rest(&mut self, replica: usize, key: &str, bytes: Bytes) -> bool {
        match self.replicas.get_mut(replica) {
            Some(r) if r.data.contains_key(key) => {
                if let Some(v) = Arc::make_mut(&mut r.data).get_mut(key) {
                    v.bytes = bytes;
                }
                true
            }
            _ => false,
        }
    }

    pub(crate) fn get_unquorum(&self, replica: usize, key: &str) -> Option<(Bytes, u64)> {
        self.replicas.get(replica)?.data.get(key).map(|v| (v.bytes.clone(), v.mod_rev))
    }

    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }
}
