//! Storage-engine fault families: the etcd store itself misbehaves.
//!
//! The paper's fault matrix tampers with messages *between* components;
//! these four families instead attack the data store the whole control
//! plane trusts — the §II-D etcd dependency the paper's at-rest
//! corruption probe (§V-C1) only scratched. None of them touch a wire:
//! the [`StorageActuator`] passes every message and acts through
//! out-of-band [`WorldAction`]s the experiment driver applies to the
//! store between time slices.
//!
//! * **etcd-disk-full** — clamp the disk budget to current usage for a
//!   window: every growing write is rejected
//!   (`etcd.writes_rejected`), the degradation the §VI guard watches
//!   for. Heals by restoring the budget; the rejected-write latch
//!   stays, as on a real cluster that ran out of disk mid-rollout.
//! * **etcd-compaction-pressure** — force a store + watch-log
//!   compaction on every poll while the window is open: watch cursors
//!   that lag behind the head observe `EtcdError::Compacted` and must
//!   re-list, the real etcd watch-replay hazard.
//! * **etcd-corrupt-at-rest** — replace one stored value's bytes on
//!   one replica's disk (the §V-C1 threat): a quorum read masks it, an
//!   unquorum read serves garbage, and the watch cache serves the clean
//!   object until an apiserver restart re-lists the store.
//! * **etcd-inconsistent-view** — serve one replica's stale snapshot
//!   to every reader for a window while writes keep advancing the
//!   revision: the inconsistent-read anomaly of the multi-master BFT
//!   analysis (arXiv:1904.06206).
//!
//! Victims are planned deterministically from the recorded store wire
//! (`apiserver->etcd` traffic is the evidence the store is in use),
//! with a per-(scenario, family) RNG fork jittering each window — the
//! same filter-stability contract the node families keep.

use crate::injector::{FaultKind, InjectionPoint, InjectionRecord, InjectionSpec, StorageOp};
use crate::recorder::RecordedTraffic;
use crate::{Fault, FaultActuator, FaultDef, WorldAction};
use k8s_model::{ChannelClass, ChannelId, Interceptor, Kind, MsgCtx, Op, WireVerdict};
use simkit::Rng;

/// Disk-full window: (start offset, duration). Long enough that the
/// workload's steady writes hit the clamped budget repeatedly.
pub const ETCD_DISK_FULL_WINDOW: (u64, u64) = (2_000, 10_000);
/// Jitter added to the disk-full window start.
pub const ETCD_DISK_FULL_JITTER_MS: u64 = 1_000;
/// Compaction-pressure window: (start offset, duration). Every poll
/// inside the window forces a compaction.
pub const ETCD_COMPACTION_WINDOW: (u64, u64) = (2_000, 8_000);
/// Jitter added to the compaction-pressure window start.
pub const ETCD_COMPACTION_JITTER_MS: u64 = 1_000;
/// Replica indices corrupt-at-rest plans one spec for (applied modulo
/// the configured replica count at actuation, so the plan fits both
/// single- and multi-replica stores).
pub const ETCD_CORRUPT_REPLICAS: u32 = 2;
/// Offset at which at-rest corruption strikes.
pub const ETCD_CORRUPT_OFFSET_MS: u64 = 2_000;
/// Jitter added to the corruption strike time.
pub const ETCD_CORRUPT_JITTER_MS: u64 = 1_000;
/// Stored-key index space the corruption victim is drawn from (modulo
/// the object count at actuation).
pub const ETCD_CORRUPT_KEY_SPACE: u64 = 16;
/// Inconsistent-view window: (start offset, duration). Short enough
/// that reconciliation repairs the divergence after the heal.
pub const ETCD_INCONSISTENT_WINDOW: (u64, u64) = (2_000, 6_000);
/// Jitter added to the inconsistent-view window start.
pub const ETCD_INCONSISTENT_JITTER_MS: u64 = 1_000;

/// The recorded store wire, if the scenario produced any
/// apiserver→etcd traffic: the (channel, kind) evidence storage
/// families plan from. The first recorded kind is used (stable order),
/// since storage faults are store-wide — the kind is informational.
fn store_wire(traffic: &RecordedTraffic) -> Option<(ChannelId, Kind)> {
    traffic
        .kinds
        .iter()
        .find(|(channel, _, _)| channel.class() == ChannelClass::ApiToEtcd)
        .map(|(channel, kind, _)| (*channel, *kind))
}

/// The built-in family actuating [`StorageOp`] `op` — the storage
/// counterpart of `config::family_for_defect`.
pub fn family_for_op(op: StorageOp) -> Fault {
    match op {
        StorageOp::DiskFull => ETCD_DISK_FULL,
        StorageOp::CompactionPressure => ETCD_COMPACTION_PRESSURE,
        StorageOp::CorruptAtRest => ETCD_CORRUPT_AT_REST,
        StorageOp::InconsistentView => ETCD_INCONSISTENT_VIEW,
    }
}

/// The armed storage-fault actuator: passes every wire message and
/// drives its window through [`WorldAction`]s the experiment driver
/// applies to the store between time slices.
#[derive(Debug)]
pub struct StorageActuator {
    spec: InjectionSpec,
    armed_from: u64,
    record: Option<InjectionRecord>,
    opened: bool,
    closed: bool,
}

impl StorageActuator {
    /// Arms one storage spec, anchoring its window at `from`.
    pub fn armed_from(spec: InjectionSpec, from: u64) -> StorageActuator {
        StorageActuator { spec, armed_from: from, record: None, opened: false, closed: false }
    }

    fn mark_fired(&mut self, at: u64, op: StorageOp, replica: u32) {
        if self.record.is_none() {
            mutiny_telemetry::counter_add("fault.fired", 1);
            mutiny_telemetry::counter_add("storage.fault.fired", 1);
            self.record = Some(InjectionRecord {
                at,
                key: format!("<storage:{op}@r{replica}>"),
                op: Op::Update,
                before: None,
                after: None,
            });
        }
    }
}

impl Interceptor for StorageActuator {
    fn on_message(&mut self, _ctx: &MsgCtx<'_>) -> WireVerdict {
        // Storage faults never touch the wire.
        WireVerdict::Pass
    }
}

impl FaultActuator for StorageActuator {
    fn record(&self) -> Option<&InjectionRecord> {
        self.record.as_ref()
    }

    fn poll_actions(&mut self, now: u64) -> Vec<WorldAction> {
        let InjectionPoint::Storage { op, from_off, dur_ms, replica, param } = self.spec.point
        else {
            return Vec::new();
        };
        let start = self.armed_from + from_off;
        let mut actions = Vec::new();
        if now >= start && !self.opened {
            self.opened = true;
            self.mark_fired(start, op, replica);
            match op {
                StorageOp::DiskFull => actions.push(WorldAction::EtcdClampDiskBudget),
                // Compaction pressure is handled below: it fires on
                // every poll inside the window, the open poll included.
                StorageOp::CompactionPressure => {}
                StorageOp::CorruptAtRest => {
                    actions.push(WorldAction::EtcdCorruptReplica { replica, nth: param });
                }
                StorageOp::InconsistentView => {
                    actions.push(WorldAction::EtcdBeginInconsistentView { replica });
                }
            }
        }
        if op == StorageOp::CompactionPressure && now >= start && now < start + dur_ms {
            actions.push(WorldAction::EtcdForceCompaction);
        }
        if now >= start + dur_ms && self.opened && !self.closed {
            self.closed = true;
            match op {
                StorageOp::DiskFull => actions.push(WorldAction::EtcdRestoreDiskBudget),
                StorageOp::InconsistentView => actions.push(WorldAction::EtcdEndInconsistentView),
                // One-shot corruption and compaction pressure need no
                // heal action: the window closing is the heal.
                StorageOp::CompactionPressure | StorageOp::CorruptAtRest => {}
            }
        }
        actions
    }
}

/// Plans one windowed storage spec on the recorded store wire.
fn plan_window(
    traffic: &RecordedTraffic,
    rng: &mut Rng,
    op: StorageOp,
    (base_off, dur_ms): (u64, u64),
    jitter_ms: u64,
    replica: u32,
) -> Vec<InjectionSpec> {
    let Some((channel, kind)) = store_wire(traffic) else {
        return Vec::new();
    };
    // The fork label keeps the window independent of any other family's
    // draws (the same filter-stability contract node families keep).
    let mut wrng = rng.fork("window");
    vec![InjectionSpec {
        channel,
        kind,
        point: InjectionPoint::Storage {
            op,
            from_off: base_off + wrng.below(jitter_ms),
            dur_ms,
            replica,
            param: 0,
        },
        occurrence: 1,
    }]
}

// --- etcd-disk-full --------------------------------------------------------

struct EtcdDiskFull;

impl FaultDef for EtcdDiskFull {
    fn name(&self) -> &'static str {
        "etcd-disk-full"
    }

    fn label(&self) -> &'static str {
        "Etcd disk full"
    }

    fn fault_kind(&self) -> FaultKind {
        FaultKind::Storage
    }

    fn expectation(&self) -> &'static str {
        "writes rejected for the window; the guard sees etcd degraded and rolls back"
    }

    fn plan(&self, traffic: &RecordedTraffic, rng: &mut Rng) -> Vec<InjectionSpec> {
        plan_window(
            traffic,
            rng,
            StorageOp::DiskFull,
            ETCD_DISK_FULL_WINDOW,
            ETCD_DISK_FULL_JITTER_MS,
            0,
        )
    }

    fn arm(&self, spec: &InjectionSpec, from: u64) -> Box<dyn FaultActuator> {
        Box::new(StorageActuator::armed_from(spec.clone(), from))
    }
}

static ETCD_DISK_FULL_DEF: EtcdDiskFull = EtcdDiskFull;
/// Windowed disk-budget exhaustion: growing writes are rejected until
/// the window heals.
pub static ETCD_DISK_FULL: Fault = Fault::new(&ETCD_DISK_FULL_DEF);

// --- etcd-compaction-pressure ----------------------------------------------

struct EtcdCompactionPressure;

impl FaultDef for EtcdCompactionPressure {
    fn name(&self) -> &'static str {
        "etcd-compaction-pressure"
    }

    fn label(&self) -> &'static str {
        "Compaction pressure"
    }

    fn fault_kind(&self) -> FaultKind {
        FaultKind::Storage
    }

    fn expectation(&self) -> &'static str {
        "lagging watch cursors observe Compacted and re-list; state converges"
    }

    fn plan(&self, traffic: &RecordedTraffic, rng: &mut Rng) -> Vec<InjectionSpec> {
        plan_window(
            traffic,
            rng,
            StorageOp::CompactionPressure,
            ETCD_COMPACTION_WINDOW,
            ETCD_COMPACTION_JITTER_MS,
            0,
        )
    }

    fn arm(&self, spec: &InjectionSpec, from: u64) -> Box<dyn FaultActuator> {
        Box::new(StorageActuator::armed_from(spec.clone(), from))
    }
}

static ETCD_COMPACTION_PRESSURE_DEF: EtcdCompactionPressure = EtcdCompactionPressure;
/// Forced store + watch-log compactions for a window: watch replay
/// becomes impossible and cursors must re-list.
pub static ETCD_COMPACTION_PRESSURE: Fault = Fault::new(&ETCD_COMPACTION_PRESSURE_DEF);

// --- etcd-corrupt-at-rest --------------------------------------------------

struct EtcdCorruptAtRest;

impl FaultDef for EtcdCorruptAtRest {
    fn name(&self) -> &'static str {
        "etcd-corrupt-at-rest"
    }

    fn label(&self) -> &'static str {
        "Corrupt at rest"
    }

    fn fault_kind(&self) -> FaultKind {
        FaultKind::Storage
    }

    fn expectation(&self) -> &'static str {
        "quorum reads mask a single corrupted replica; a 1-replica store serves garbage"
    }

    fn plan(&self, traffic: &RecordedTraffic, rng: &mut Rng) -> Vec<InjectionSpec> {
        let Some((channel, kind)) = store_wire(traffic) else {
            return Vec::new();
        };
        // Per-replica fork: filtering one replica's spec out never
        // shifts another replica's strike time or victim key.
        (0..ETCD_CORRUPT_REPLICAS)
            .map(|replica| {
                let mut rrng = rng.fork(&format!("r{replica}"));
                InjectionSpec {
                    channel,
                    kind,
                    point: InjectionPoint::Storage {
                        op: StorageOp::CorruptAtRest,
                        from_off: ETCD_CORRUPT_OFFSET_MS + rrng.below(ETCD_CORRUPT_JITTER_MS),
                        dur_ms: 0,
                        replica,
                        param: rrng.below(ETCD_CORRUPT_KEY_SPACE) as u32,
                    },
                    occurrence: 1,
                }
            })
            .collect()
    }

    fn arm(&self, spec: &InjectionSpec, from: u64) -> Box<dyn FaultActuator> {
        Box::new(StorageActuator::armed_from(spec.clone(), from))
    }
}

static ETCD_CORRUPT_AT_REST_DEF: EtcdCorruptAtRest = EtcdCorruptAtRest;
/// One replica's stored bytes replaced on disk (§V-C1), observable
/// through quorum votes and an apiserver restart's re-list.
pub static ETCD_CORRUPT_AT_REST: Fault = Fault::new(&ETCD_CORRUPT_AT_REST_DEF);

// --- etcd-inconsistent-view ------------------------------------------------

struct EtcdInconsistentView;

impl FaultDef for EtcdInconsistentView {
    fn name(&self) -> &'static str {
        "etcd-inconsistent-view"
    }

    fn label(&self) -> &'static str {
        "Inconsistent view"
    }

    fn fault_kind(&self) -> FaultKind {
        FaultKind::Storage
    }

    fn expectation(&self) -> &'static str {
        "readers see a frozen snapshot while writes advance; reconciliation repairs on heal"
    }

    fn plan(&self, traffic: &RecordedTraffic, rng: &mut Rng) -> Vec<InjectionSpec> {
        // Replica 1 — a follower on multi-replica stores (modulo wraps
        // to the leader on a single-replica store).
        plan_window(
            traffic,
            rng,
            StorageOp::InconsistentView,
            ETCD_INCONSISTENT_WINDOW,
            ETCD_INCONSISTENT_JITTER_MS,
            1,
        )
    }

    fn arm(&self, spec: &InjectionSpec, from: u64) -> Box<dyn FaultActuator> {
        Box::new(StorageActuator::armed_from(spec.clone(), from))
    }
}

static ETCD_INCONSISTENT_VIEW_DEF: EtcdInconsistentView = EtcdInconsistentView;
/// One replica's stale snapshot served to every reader for a window
/// while writes keep advancing the revision (arXiv:1904.06206).
pub static ETCD_INCONSISTENT_VIEW: Fault = Fault::new(&ETCD_INCONSISTENT_VIEW_DEF);

/// The storage-engine families, in table order.
pub static STORAGE_BUILTIN: [Fault; 4] = [
    ETCD_DISK_FULL,
    ETCD_COMPACTION_PRESSURE,
    ETCD_CORRUPT_AT_REST,
    ETCD_INCONSISTENT_VIEW,
];

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_model::Channel;

    fn traffic() -> RecordedTraffic {
        RecordedTraffic {
            fields: Vec::new(),
            kinds: vec![
                (Channel::UserToApi.into(), Kind::Deployment, 3u64),
                (Channel::ApiToEtcd.into(), Kind::ReplicaSet, 40u64),
            ],
            node_kinds: Vec::new(),
            user_kinds: Vec::new(),
        }
    }

    fn storage_point(spec: &InjectionSpec) -> (StorageOp, u64, u64, u32, u32) {
        let InjectionPoint::Storage { op, from_off, dur_ms, replica, param } = spec.point else {
            panic!("expected storage point: {spec:?}");
        };
        (op, from_off, dur_ms, replica, param)
    }

    #[test]
    fn families_plan_only_from_store_traffic() {
        let rng = Rng::new(3);
        for fault in STORAGE_BUILTIN {
            let plan = fault.plan(&traffic(), &mut rng.fork(fault.name()));
            assert!(!plan.is_empty(), "{fault} planned nothing");
            for spec in &plan {
                assert_eq!(spec.channel.class(), ChannelClass::ApiToEtcd);
                assert_eq!(spec.kind, Kind::ReplicaSet);
            }
            // No store wire recorded → nothing to attack.
            let no_store = RecordedTraffic {
                kinds: vec![(Channel::UserToApi.into(), Kind::Deployment, 3u64)],
                ..RecordedTraffic::default()
            };
            assert!(fault.plan(&no_store, &mut rng.fork(fault.name())).is_empty());
        }
    }

    #[test]
    fn windows_respect_base_and_jitter() {
        let mut rng = Rng::new(3);
        let plan = ETCD_DISK_FULL.plan(&traffic(), &mut rng);
        let (op, from_off, dur_ms, replica, _) = storage_point(&plan[0]);
        assert_eq!(op, StorageOp::DiskFull);
        let (base, dur) = ETCD_DISK_FULL_WINDOW;
        assert!(from_off >= base && from_off < base + ETCD_DISK_FULL_JITTER_MS);
        assert_eq!(dur_ms, dur);
        assert_eq!(replica, 0);
    }

    #[test]
    fn corruption_plans_one_spec_per_replica_independently() {
        let mut rng = Rng::new(3);
        let plan = ETCD_CORRUPT_AT_REST.plan(&traffic(), &mut rng);
        assert_eq!(plan.len(), ETCD_CORRUPT_REPLICAS as usize);
        let replicas: Vec<u32> = plan.iter().map(|s| storage_point(s).3).collect();
        assert_eq!(replicas, vec![0, 1]);
        for spec in &plan {
            let (op, from_off, dur_ms, _, param) = storage_point(spec);
            assert_eq!(op, StorageOp::CorruptAtRest);
            assert!((ETCD_CORRUPT_OFFSET_MS..ETCD_CORRUPT_OFFSET_MS + ETCD_CORRUPT_JITTER_MS)
                .contains(&from_off));
            assert_eq!(dur_ms, 0);
            assert!((param as u64) < ETCD_CORRUPT_KEY_SPACE);
        }
        // The per-replica fork contract: replica 1's spec is the same
        // whether or not replica 0 is part of the draw order.
        let again = ETCD_CORRUPT_AT_REST.plan(&traffic(), &mut Rng::new(3));
        assert_eq!(plan, again);
    }

    #[test]
    fn planning_is_deterministic_per_seed() {
        let a = ETCD_COMPACTION_PRESSURE.plan(&traffic(), &mut Rng::new(9));
        let b = ETCD_COMPACTION_PRESSURE.plan(&traffic(), &mut Rng::new(9));
        assert_eq!(a, b);
        let c = ETCD_COMPACTION_PRESSURE.plan(&traffic(), &mut Rng::new(10));
        assert_ne!(a, c, "jitter must depend on the fork seed");
    }

    #[test]
    fn disk_full_lifecycle_brackets_the_window() {
        let mut rng = Rng::new(3);
        let spec = ETCD_DISK_FULL.plan(&traffic(), &mut rng).remove(0);
        let (_, from_off, dur_ms, _, _) = storage_point(&spec);
        let mut actuator = ETCD_DISK_FULL.arm(&spec, 1_000);
        let start = 1_000 + from_off;

        assert!(actuator.poll_actions(start - 100).is_empty());
        assert!(actuator.record().is_none());
        // Open: clamp, and the fault is recorded as fired.
        assert_eq!(actuator.poll_actions(start + 10), vec![WorldAction::EtcdClampDiskBudget]);
        assert!(actuator.record().is_some(), "storage faults fire when the window opens");
        // Inside: nothing more to do.
        assert!(actuator.poll_actions(start + dur_ms / 2).is_empty());
        // Heal: restore exactly once.
        assert_eq!(
            actuator.poll_actions(start + dur_ms),
            vec![WorldAction::EtcdRestoreDiskBudget]
        );
        assert!(actuator.poll_actions(start + dur_ms + 500).is_empty());
    }

    #[test]
    fn compaction_pressure_forces_compaction_every_poll_inside_the_window() {
        let mut rng = Rng::new(3);
        let spec = ETCD_COMPACTION_PRESSURE.plan(&traffic(), &mut rng).remove(0);
        let (_, from_off, dur_ms, _, _) = storage_point(&spec);
        let mut actuator = ETCD_COMPACTION_PRESSURE.arm(&spec, 0);
        let start = from_off;

        assert!(actuator.poll_actions(start - 1).is_empty());
        assert_eq!(actuator.poll_actions(start), vec![WorldAction::EtcdForceCompaction]);
        assert_eq!(actuator.poll_actions(start + 250), vec![WorldAction::EtcdForceCompaction]);
        assert_eq!(
            actuator.poll_actions(start + dur_ms - 1),
            vec![WorldAction::EtcdForceCompaction]
        );
        assert!(actuator.poll_actions(start + dur_ms).is_empty());
        assert!(actuator.record().is_some());
    }

    #[test]
    fn corruption_strikes_once() {
        let mut rng = Rng::new(3);
        let spec = ETCD_CORRUPT_AT_REST.plan(&traffic(), &mut rng).remove(0);
        let (_, from_off, _, replica, param) = storage_point(&spec);
        let mut actuator = ETCD_CORRUPT_AT_REST.arm(&spec, 500);
        let start = 500 + from_off;

        assert!(actuator.poll_actions(start - 10).is_empty());
        assert_eq!(
            actuator.poll_actions(start),
            vec![WorldAction::EtcdCorruptReplica { replica, nth: param }]
        );
        assert_eq!(actuator.record().unwrap().key, format!("<storage:corrupt-at-rest@r{replica}>"));
        assert!(actuator.poll_actions(start + 250).is_empty());
    }

    #[test]
    fn inconsistent_view_begins_and_ends() {
        let mut rng = Rng::new(3);
        let spec = ETCD_INCONSISTENT_VIEW.plan(&traffic(), &mut rng).remove(0);
        let (_, from_off, dur_ms, replica, _) = storage_point(&spec);
        let mut actuator = ETCD_INCONSISTENT_VIEW.arm(&spec, 0);
        let start = from_off;

        assert_eq!(
            actuator.poll_actions(start + 10),
            vec![WorldAction::EtcdBeginInconsistentView { replica }]
        );
        assert!(actuator.poll_actions(start + dur_ms / 2).is_empty());
        assert_eq!(actuator.poll_actions(start + dur_ms), vec![WorldAction::EtcdEndInconsistentView]);
        assert!(actuator.poll_actions(start + dur_ms + 250).is_empty());
    }

    #[test]
    fn storage_faults_never_touch_the_wire() {
        let mut rng = Rng::new(3);
        let spec = ETCD_DISK_FULL.plan(&traffic(), &mut rng).remove(0);
        let mut actuator = ETCD_DISK_FULL.arm(&spec, 0);
        let bytes = [1u8, 2, 3];
        let ctx = MsgCtx {
            channel: Channel::ApiToEtcd.into(),
            kind: Kind::ReplicaSet,
            key: "/registry/replicasets/default/web",
            op: Op::Update,
            bytes: Some(&bytes),
            now: 5_000,
        };
        assert_eq!(actuator.on_message(&ctx), WireVerdict::Pass);
    }

    #[test]
    fn family_for_op_maps_every_op() {
        assert_eq!(family_for_op(StorageOp::DiskFull), ETCD_DISK_FULL);
        assert_eq!(family_for_op(StorageOp::CompactionPressure), ETCD_COMPACTION_PRESSURE);
        assert_eq!(family_for_op(StorageOp::CorruptAtRest), ETCD_CORRUPT_AT_REST);
        assert_eq!(family_for_op(StorageOp::InconsistentView), ETCD_INCONSISTENT_VIEW);
        // And implied_by round-trips through the op.
        for (op, fault) in [
            (StorageOp::DiskFull, ETCD_DISK_FULL),
            (StorageOp::InconsistentView, ETCD_INCONSISTENT_VIEW),
        ] {
            let spec = InjectionSpec {
                channel: Channel::ApiToEtcd.into(),
                kind: Kind::Pod,
                point: InjectionPoint::Storage { op, from_off: 0, dur_ms: 1, replica: 0, param: 0 },
                occurrence: 1,
            };
            assert_eq!(Fault::implied_by(&spec), fault);
        }
    }
}
