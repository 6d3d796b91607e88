//! Work-stealing must not change results: per-experiment seeds derive
//! from the planned (scenario, spec) — never from the plan index — so
//! the campaign rows (and the golden baselines) must be identical to a
//! serial run for any worker count. The same holds for every scenario
//! in the registry — the rolling-update and node-drain additions are
//! pinned here explicitly — and for every fault family, including the
//! node-level families routed on per-node channel identity.

use k8s_cluster::ClusterConfig;
use k8s_model::Channel;
use mutiny_core::campaign::{
    generate_plan, plan_campaign, record_fields, run_campaign_range, run_campaign_with_threads,
    PlannedExperiment,
};
use mutiny_core::golden::build_baseline_with_threads;
use mutiny_core::Scenario;
use mutiny_faults::{
    CRASH_RESTART, DELAY, DUPLICATE, KUBELET_CRASH_RESTART, NODE_PARTITION, PARTITION,
};
use mutiny_scenarios::{DEPLOY, FAILOVER, HPA_AUTOSCALE, NODE_DRAIN, ROLLING_UPDATE, SCALE_UP};
use simkit::Rng;
use std::collections::HashMap;

/// A small but fault-diverse slice of a scenario's real plan.
fn small_plan(cluster: &ClusterConfig, scenario: Scenario) -> Vec<PlannedExperiment> {
    let traffic = record_fields(cluster, scenario, vec![Channel::ApiToEtcd], 42);
    let mut rng = Rng::new(7);
    let full = generate_plan(&traffic, scenario, &mut rng);
    // Stride widely so the slice spans field mutations, proto-byte flips
    // and drops while staying cheap enough for CI.
    let stride = (full.len() / 6).max(1);
    let plan: Vec<PlannedExperiment> = full.into_iter().step_by(stride).take(6).collect();
    assert!(plan.len() >= 4, "plan too small to be meaningful");
    plan
}

#[test]
fn campaign_rows_identical_across_thread_counts() {
    let cluster = ClusterConfig::default();
    let plan = small_plan(&cluster, DEPLOY);
    let mut baselines = HashMap::new();
    baselines.insert(DEPLOY, build_baseline_with_threads(&cluster, DEPLOY, 4, 0xBA5E, 1));

    let serial = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, 1);
    assert_eq!(serial.len(), plan.len());

    for threads in [2usize, 5] {
        let parallel = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, threads);
        assert_eq!(serial.rows, parallel.rows, "work-stealing changed results at {threads} threads");
    }
}

#[test]
fn new_scenarios_deterministic_across_thread_counts() {
    // The engine's two additions run the same determinism gauntlet as the
    // paper scenarios: byte-identical rows at 1, 2 and 5 workers.
    let cluster = ClusterConfig::default();
    for scenario in [ROLLING_UPDATE, NODE_DRAIN] {
        let plan = small_plan(&cluster, scenario);
        let mut baselines = HashMap::new();
        baselines
            .insert(scenario, build_baseline_with_threads(&cluster, scenario, 4, 0xBA5E, 1));

        let serial = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, 1);
        assert_eq!(serial.len(), plan.len());
        // Rows carry the scenario they ran under (the tables key on it).
        assert!(serial.rows.iter().all(|r| r.scenario == scenario), "{scenario}");

        for threads in [2usize, 5] {
            let parallel =
                run_campaign_with_threads(&cluster, &plan, &baselines, 2024, threads);
            assert_eq!(
                serial.rows, parallel.rows,
                "{scenario}: rows changed at {threads} threads"
            );
        }
    }
}

#[test]
fn range_partitions_reassemble_the_full_campaign() {
    // The checkpointing contract: running [0..k) and [k..n) separately
    // must concatenate to exactly the uninterrupted run's rows.
    let cluster = ClusterConfig::default();
    let plan = small_plan(&cluster, ROLLING_UPDATE);
    let mut baselines = HashMap::new();
    baselines.insert(
        ROLLING_UPDATE,
        build_baseline_with_threads(&cluster, ROLLING_UPDATE, 4, 0xBA5E, 1),
    );

    let full = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, 2);
    let split = plan.len() / 2;
    let mut stitched = run_campaign_range(&cluster, &plan, &baselines, 2024, 0..split, 2);
    stitched.merge(run_campaign_range(&cluster, &plan, &baselines, 2024, split..plan.len(), 2));
    assert_eq!(full.rows, stitched.rows, "resumed campaign diverged from uninterrupted run");
}

#[test]
fn new_fault_families_deterministic_across_thread_counts() {
    // The temporal and infrastructure families run the same determinism
    // gauntlet as the wire triplet: byte-identical rows at 1, 2 and 5
    // workers. Crash-restart is the hardest case — its heal action
    // restarts the apiserver mid-run — so it is pinned here explicitly.
    let cluster = ClusterConfig::default();
    let traffic = record_fields(&cluster, DEPLOY, vec![Channel::ApiToEtcd], 42);
    let families = [DELAY, DUPLICATE, PARTITION, CRASH_RESTART];
    let mut rng = Rng::new(7);
    let full = plan_campaign(&traffic, DEPLOY, &families, &mut rng);
    // Two specs per family keeps the gauntlet cheap but window-diverse.
    let mut plan: Vec<PlannedExperiment> = Vec::new();
    for family in families {
        plan.extend(full.iter().filter(|p| p.fault == family).take(2).cloned());
    }
    assert!(plan.len() >= 7, "not every family planned specs: {}", plan.len());

    let mut baselines = HashMap::new();
    baselines.insert(DEPLOY, build_baseline_with_threads(&cluster, DEPLOY, 4, 0xBA5E, 1));
    let serial = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, 1);
    assert_eq!(serial.len(), plan.len());
    // Window faults always fire (the window opens with or without
    // traffic); temporal faults fire when their occurrence flows.
    assert!(
        serial.rows.iter().filter(|r| r.fault == PARTITION || r.fault == CRASH_RESTART).all(|r| r.fired),
        "window faults must fire"
    );
    for threads in [2usize, 5] {
        let parallel = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, threads);
        assert_eq!(serial.rows, parallel.rows, "new families changed results at {threads} threads");
    }
}

#[test]
fn node_level_families_tsv_byte_identical_across_thread_counts() {
    // The node-level families are the hardest determinism case yet: a
    // kubelet blackout silences and restarts one node's kubelet mid-run
    // through out-of-band world actions, and a node partition drops one
    // node's wire. Rows — and the rendered TSV, node-scoped channel
    // column included — must be byte-identical at 1, 2 and 5 workers.
    let cluster = ClusterConfig::default();
    let traffic = record_fields(&cluster, DEPLOY, vec![Channel::ApiToEtcd], 42);
    assert!(
        traffic.nodes().len() >= 5,
        "per-node wires missing from recorded traffic: {:?}",
        traffic.nodes()
    );
    let families = [KUBELET_CRASH_RESTART, NODE_PARTITION];
    let mut rng = Rng::new(7);
    let full = plan_campaign(&traffic, DEPLOY, &families, &mut rng);
    // Two specs per family: one blackout and one partition window each,
    // on different victim nodes.
    let mut plan: Vec<PlannedExperiment> = Vec::new();
    for family in families {
        let of_family: Vec<&PlannedExperiment> =
            full.iter().filter(|p| p.fault == family).collect();
        assert!(of_family.len() >= 2, "{family} planned too few specs");
        plan.push(of_family[0].clone());
        plan.push(of_family[of_family.len() - 1].clone());
    }
    assert!(plan.iter().all(|p| p.spec.channel.node().is_some()), "{plan:?}");

    let mut baselines = HashMap::new();
    baselines.insert(DEPLOY, build_baseline_with_threads(&cluster, DEPLOY, 4, 0xBA5E, 1));
    let serial = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, 1);
    let serial_tsv = mutiny_bench::render_rows(&serial);
    assert_eq!(serial_tsv.lines().count(), plan.len());
    // Node-scoped wires reach the TSV channel column as `class@node`.
    assert!(
        serial_tsv.contains("kubelet->apiserver@"),
        "node column missing from TSV: {serial_tsv}"
    );
    // Window faults fire with or without traffic.
    assert!(serial.rows.iter().all(|r| r.fired), "node-level window faults must fire");
    for threads in [2usize, 5] {
        let parallel = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, threads);
        assert_eq!(
            serial_tsv,
            mutiny_bench::render_rows(&parallel),
            "node-level families diverged at {threads} threads"
        );
    }
}

#[test]
fn cross_product_tsv_byte_identical_across_thread_counts() {
    // The acceptance gate: a campaign over {6 scenarios} × {≥14 fault
    // families, config-defect families included} produces byte-identical
    // TSV rows at 1, 2 and 5 workers. One spec per (scenario, family)
    // keeps it tractable for CI.
    let cluster = ClusterConfig::default();
    let scenarios = [DEPLOY, SCALE_UP, FAILOVER, ROLLING_UPDATE, NODE_DRAIN, HPA_AUTOSCALE];
    let families = mutiny_faults::registry::all();
    assert!(families.len() >= 14);

    let mut rng = Rng::new(11);
    let mut plan: Vec<PlannedExperiment> = Vec::new();
    let mut baselines = HashMap::new();
    for sc in scenarios {
        let traffic = record_fields(&cluster, sc, vec![Channel::ApiToEtcd], 42);
        let full = plan_campaign(&traffic, sc, &families, &mut rng);
        for family in &families {
            if let Some(p) = full.iter().find(|p| p.fault == *family) {
                plan.push(p.clone());
            }
        }
        // Pod-targeting config defects must find victims in every
        // scenario's admission catalogue (the controllers always create
        // pods after the workload starts); workload-targeting defects
        // (selector, replicas) only plan where ReplicaSets/Deployments
        // are actually admitted post-arming — failover and node-drain
        // preinstall their apps, so those two plan nothing there.
        let workload_only = sc == FAILOVER || sc == NODE_DRAIN;
        for cfg_family in mutiny_faults::CONFIG_BUILTIN {
            let workload_family =
                cfg_family == mutiny_faults::CFG_SELECTOR || cfg_family == mutiny_faults::CFG_REPLICAS;
            if workload_only && workload_family {
                assert!(
                    !full.iter().any(|p| p.fault == cfg_family),
                    "{cfg_family} planned unreachable victims for {sc}"
                );
            } else {
                assert!(
                    full.iter().any(|p| p.fault == cfg_family),
                    "{cfg_family} planned nothing for {sc}"
                );
            }
        }
        baselines.insert(sc, build_baseline_with_threads(&cluster, sc, 4, 0xBA5E, 1));
    }
    // 6 scenarios × 14 families, minus the four unreachable
    // (workload-defect, preinstalled-scenario) combinations above.
    assert!(plan.len() >= 6 * 14 - 4, "cross-product too small: {}", plan.len());

    let serial = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, 1);
    let serial_tsv = mutiny_bench::render_rows(&serial);
    assert_eq!(serial_tsv.lines().count(), plan.len());
    for threads in [2usize, 5] {
        let parallel = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, threads);
        assert_eq!(
            serial_tsv,
            mutiny_bench::render_rows(&parallel),
            "TSV rows diverged at {threads} threads"
        );
    }
}

#[test]
fn generated_scenarios_tsv_byte_identical_across_thread_counts() {
    // Synthesized scenarios run the same determinism gauntlet as the
    // built-ins: generation is pure planning (same seed ⇒ same program),
    // so a generated scenario's campaign TSV must be byte-identical at
    // 1, 2 and 5 workers.
    let cluster = ClusterConfig::default();
    let generated = mutiny_trace::register_generated(2, 0xD15C).expect("register generated");
    assert_eq!(generated.len(), 2);
    assert!(generated.iter().all(|s| s.name().starts_with("gen-")));

    let mut plan: Vec<PlannedExperiment> = Vec::new();
    let mut baselines = HashMap::new();
    for sc in generated {
        // The program itself must be stable call over call — ops() feeds
        // both the plan's traffic recording and every experiment run.
        assert_eq!(sc.ops(), sc.ops(), "{sc}: non-deterministic program");
        plan.extend(small_plan(&cluster, sc));
        baselines.insert(sc, build_baseline_with_threads(&cluster, sc, 4, 0xBA5E, 1));
    }

    let serial = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, 1);
    let serial_tsv = mutiny_bench::render_rows(&serial);
    assert_eq!(serial_tsv.lines().count(), plan.len());
    for threads in [2usize, 5] {
        let parallel = run_campaign_with_threads(&cluster, &plan, &baselines, 2024, threads);
        assert_eq!(
            serial_tsv,
            mutiny_bench::render_rows(&parallel),
            "generated scenarios diverged at {threads} threads"
        );
    }
}

#[test]
fn baseline_identical_across_thread_counts() {
    let cluster = ClusterConfig::default();
    let one = build_baseline_with_threads(&cluster, DEPLOY, 5, 77, 1);
    let many = build_baseline_with_threads(&cluster, DEPLOY, 5, 77, 4);
    assert_eq!(one.avg_response, many.avg_response);
    assert_eq!(one.golden_maes, many.golden_maes);
    assert_eq!(one.golden_worst_startup, many.golden_worst_startup);
    assert_eq!(one.expected_ready, many.expected_ready);
    assert_eq!(one.expected_endpoints, many.expected_endpoints);
    assert_eq!(one.expected_pods_created, many.expected_pods_created);
}
