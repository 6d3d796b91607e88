//! Registry growth must not move a pinned workload: after one extra fault
//! family and one extra scenario are registered, every workload plans the
//! same experiments as before, and as pinned.

use k8s_cluster::UserOp;
use mutiny_faults::{FaultDef, FaultKind, InjectionPoint, InjectionSpec, RecordedTraffic};
use mutiny_scenarios::ScenarioDef;
use perfbench::workloads::{cluster, plan, plan_digest, WORKLOADS};
use simkit::Rng;

/// A family that plans a drop on every recorded kind and draws from the
/// planner's RNG, so it would shift any plan that included it.
struct ExtraFamily;

impl FaultDef for ExtraFamily {
    fn name(&self) -> &'static str {
        "perfbench-extra-family"
    }

    fn fault_kind(&self) -> FaultKind {
        FaultKind::Drop
    }

    fn plan(&self, traffic: &RecordedTraffic, rng: &mut Rng) -> Vec<InjectionSpec> {
        traffic
            .kinds
            .iter()
            .map(|(channel, kind, _)| InjectionSpec {
                channel: *channel,
                kind: *kind,
                point: InjectionPoint::Drop,
                occurrence: 1 + rng.below(3) as u32,
            })
            .collect()
    }
}

/// A scenario with one preinstalled app and no operations.
struct ExtraScenario;

impl ScenarioDef for ExtraScenario {
    fn name(&self) -> &'static str {
        "perfbench-extra-scenario"
    }

    fn preinstalled_apps(&self) -> &'static [u32] {
        &[1]
    }

    fn ops(&self) -> Vec<(u64, UserOp)> {
        Vec::new()
    }
}

fn digests() -> Vec<(usize, u64)> {
    WORKLOADS
        .iter()
        .map(|w| {
            let (p, _, _) = plan(w, &cluster()).expect("pinned names are registered");
            (p.len(), plan_digest(&p))
        })
        .collect()
}

#[test]
fn registry_growth_leaves_every_plan_digest_unchanged() {
    let before = digests();
    let family = mutiny_faults::registry::register(Box::new(ExtraFamily)).expect("new family");
    let scenario =
        mutiny_scenarios::registry::register(Box::new(ExtraScenario)).expect("new scenario");
    assert!(mutiny_faults::registry::all().contains(&family));
    assert!(mutiny_scenarios::registry::all().contains(&scenario));

    let after = digests();
    assert_eq!(
        before, after,
        "registering a family and a scenario moved a plan"
    );
    for (w, (n, digest)) in WORKLOADS.iter().zip(after) {
        assert_eq!(
            (n, digest),
            (w.experiments, w.digest),
            "{} differs from its pin",
            w.name
        );
    }
}
