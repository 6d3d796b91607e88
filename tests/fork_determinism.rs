//! Fork-the-world determinism wall.
//!
//! Forked execution (snapshot the world at `t0`, fork per experiment)
//! must be a pure optimization: the campaign TSV has to be byte-identical
//! to replay execution (`MUTINY_FORK=0`, golden prefix re-run from `t=0`)
//! at any worker count. Likewise residue-class sharding: running the
//! shards of a plan separately and round-robin-merging their TSVs must
//! reproduce the unsharded TSV byte for byte. Both identities hold by
//! construction — per-experiment seeds derive from the (scenario, spec),
//! never from the plan index or execution mode — and this wall keeps
//! them held. Forking at `t0` is sound only because every fault family
//! is inert before its arm time; the registry-wide check of that claim
//! lives here too.

use k8s_apiserver::InterceptorHandle;
use k8s_cluster::{ClusterConfig, World, WORKLOAD_START_MS};
use k8s_model::{Channel, NoopInterceptor};
use mutiny_core::campaign::{
    plan_campaign, record_fields, run_campaign_with_threads_fork, scenario_world_seed,
    PlannedExperiment,
};
use mutiny_core::golden::{build_baseline_with_threads, Baseline};
use mutiny_core::{ArmedFault, FaultActuator, Scenario};
use mutiny_faults::SharedActuator;
use mutiny_scenarios::{DEPLOY, FAILOVER, HPA_AUTOSCALE, NODE_DRAIN, ROLLING_UPDATE, SCALE_UP};
use simkit::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

fn scenarios() -> [Scenario; 6] {
    [DEPLOY, SCALE_UP, FAILOVER, ROLLING_UPDATE, NODE_DRAIN, HPA_AUTOSCALE]
}

/// One spec per (scenario, family) over the full 6×18 cross-product.
fn cross_product_plan(cluster: &ClusterConfig) -> Vec<PlannedExperiment> {
    let families = mutiny_faults::registry::all();
    assert!(families.len() >= 18);
    let mut rng = Rng::new(11);
    let mut plan = Vec::new();
    for sc in scenarios() {
        let traffic = record_fields(cluster, sc, vec![Channel::ApiToEtcd], 42);
        let full = plan_campaign(&traffic, sc, &families, &mut rng);
        for family in &families {
            if let Some(p) = full.iter().find(|p| p.fault == *family) {
                plan.push(p.clone());
            }
        }
    }
    // 6 scenarios × ≥18 families minus the four unreachable
    // (workload-defect × preinstalled-scenario) combinations.
    assert!(plan.len() >= 6 * 18 - 4, "cross-product too small: {}", plan.len());
    plan
}

/// Golden baselines for every scenario of the cross-product.
fn cross_product_baselines(cluster: &ClusterConfig) -> HashMap<Scenario, Baseline> {
    scenarios()
        .into_iter()
        .map(|sc| (sc, build_baseline_with_threads(cluster, sc, 4, 0xBA5E, 1)))
        .collect()
}

#[test]
fn forked_tsv_byte_identical_to_replay_across_thread_counts() {
    let cluster = ClusterConfig::default();
    let plan = cross_product_plan(&cluster);
    let baselines = cross_product_baselines(&cluster);

    // The ground truth: replay execution, serial.
    let replay = run_campaign_with_threads_fork(&cluster, &plan, &baselines, 2024, 1, false);
    let replay_tsv = mutiny_bench::render_rows(&replay);
    assert_eq!(replay_tsv.lines().count(), plan.len());

    for threads in [1usize, 2, 5] {
        let forked =
            run_campaign_with_threads_fork(&cluster, &plan, &baselines, 2024, threads, true);
        assert_eq!(
            replay_tsv,
            mutiny_bench::render_rows(&forked),
            "forked TSV diverged from replay at {threads} thread(s)"
        );
    }
}

/// A scenario world built on the campaign's per-scenario seed behind
/// `interceptor`, with the scenario's ops scheduled.
fn scheduled_world(
    cluster: &ClusterConfig,
    scenario: Scenario,
    interceptor: InterceptorHandle,
) -> World {
    let cluster = ClusterConfig { seed: scenario_world_seed(2024, scenario), ..cluster.clone() };
    let mut world = scenario.build_world(&cluster, interceptor);
    scenario.schedule(&mut world);
    world
}

#[test]
fn every_family_is_inert_before_its_arm_time() {
    // `forked_prefix` simulates the prefix up to `t0` under a no-op
    // interceptor and hands it to the armed experiment. That is sound
    // only if no registered family acts before it is armed: it must
    // pass every message unchanged and schedule no world action. Run
    // each planned (scenario, family) to `t0` behind its armed actuator,
    // polling actions the way the experiment driver does, and compare
    // the store with the no-op prefix.
    let cluster = ClusterConfig::default();
    let plan = cross_product_plan(&cluster);

    let mut noop_digests = HashMap::new();
    for sc in scenarios() {
        let noop: InterceptorHandle = Rc::new(RefCell::new(NoopInterceptor));
        let mut world = scheduled_world(&cluster, sc, noop);
        let t0 = world.t0();
        world.run_until(t0);
        noop_digests.insert(sc, mutiny_trace::world_digest(&mut world));
    }

    for p in &plan {
        let actuator: Rc<RefCell<Box<dyn FaultActuator>>> = Rc::new(RefCell::new(
            ArmedFault::new(p.fault, p.spec.clone()).arm(WORKLOAD_START_MS),
        ));
        let handle: InterceptorHandle =
            Rc::new(RefCell::new(SharedActuator(Rc::clone(&actuator))));
        let mut world = scheduled_world(&cluster, p.scenario, handle);
        let t0 = world.t0();
        while world.now() < t0 {
            world.run_until((world.now() + 250).min(t0));
            let actions = actuator.borrow_mut().poll_actions(world.now());
            assert!(
                actions.is_empty(),
                "{} on {} scheduled {actions:?} at {} ms, not after t0 = {t0} ms",
                p.fault.name(),
                p.scenario.name(),
                world.now()
            );
        }
        assert!(
            mutiny_trace::world_digest(&mut world) == noop_digests[&p.scenario],
            "{} on {} changed the store before t0",
            p.fault.name(),
            p.scenario.name()
        );
    }
}

#[test]
fn two_shard_merge_byte_identical_to_unsharded() {
    let cluster = ClusterConfig::default();
    let plan = cross_product_plan(&cluster);
    let baselines = cross_product_baselines(&cluster);

    let unsharded = run_campaign_with_threads_fork(&cluster, &plan, &baselines, 2024, 2, true);
    let unsharded_tsv = mutiny_bench::render_rows(&unsharded);

    // Residue classes of the same plan: shard i runs indices ≡ i (mod 2).
    let mut shard_tsvs = Vec::new();
    for i in 0..2usize {
        let shard: Vec<PlannedExperiment> = plan
            .iter()
            .enumerate()
            .filter(|(idx, _)| idx % 2 == i)
            .map(|(_, p)| p.clone())
            .collect();
        let res = run_campaign_with_threads_fork(&cluster, &shard, &baselines, 2024, 2, true);
        shard_tsvs.push(mutiny_bench::render_rows(&res));
    }
    let refs: Vec<&str> = shard_tsvs.iter().map(String::as_str).collect();
    let merged = mutiny_bench::merge_shard_texts(&refs).expect("consistent shards");
    assert_eq!(unsharded_tsv, merged, "two-shard merge diverged from unsharded TSV");

    // Inconsistent shard sizes are detected, not silently mismerged.
    // (Dropping a row from shard 0 makes the sizes impossible for any
    // round-robin partition: shard 0 must hold ⌈total/n⌉ rows.)
    let truncated: String =
        shard_tsvs[0].lines().skip(1).map(|l| format!("{l}\n")).collect();
    assert!(mutiny_bench::merge_shard_texts(&[&truncated, &shard_tsvs[1]]).is_none());
}

#[test]
fn shard_plan_honors_the_env_residue_class() {
    // `shard_plan` is the only env-coupled piece; pin its filtering
    // against a manual residue-class split. Set/remove the variable
    // inside one test so parallel tests in this binary never see it.
    let cluster = ClusterConfig::default();
    let traffic = record_fields(&cluster, DEPLOY, vec![Channel::ApiToEtcd], 42);
    let mut rng = Rng::new(7);
    let full = plan_campaign(&traffic, DEPLOY, &mutiny_faults::WIRE_BUILTIN, &mut rng);
    assert!(full.len() >= 10);

    std::env::set_var("MUTINY_SHARD", "1/3");
    let sharded = mutiny_bench::shard_plan(full.clone());
    std::env::remove_var("MUTINY_SHARD");

    let manual: Vec<&PlannedExperiment> =
        full.iter().enumerate().filter(|(i, _)| i % 3 == 1).map(|(_, p)| p).collect();
    assert_eq!(sharded.len(), manual.len());
    for (s, m) in sharded.iter().zip(manual) {
        assert_eq!(format!("{:?}", s.spec), format!("{:?}", m.spec));
    }
}
