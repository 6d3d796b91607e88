//! Criterion micro-benchmarks of the substrates: wire codec, store, and a
//! full golden experiment (the unit of campaign cost).
use criterion::{criterion_group, criterion_main, Criterion};
use k8s_cluster::ClusterConfig;
use protowire::Message;
use std::hint::black_box;

fn sample_pod() -> k8s_model::Pod {
    let mut p = k8s_model::Pod::default();
    p.metadata = k8s_model::ObjectMeta::named("default", "web-1-abcde");
    p.metadata.labels.insert("app".into(), "web-1".into());
    p.spec.node_name = "w3".into();
    p.spec.containers.push(k8s_model::Container {
        name: "web".into(),
        image: "registry.local/web:1.0".into(),
        command: vec!["serve".into()],
        cpu_milli: 500,
        memory_mb: 256,
        port: 8080,
        ..Default::default()
    });
    p.status.phase = "Running".into();
    p.status.pod_ip = "10.244.3.7".into();
    p.status.ready = true;
    p
}

fn wire(c: &mut Criterion) {
    let pod = sample_pod();
    let bytes = pod.encode();
    c.bench_function("protowire/encode_pod", |b| b.iter(|| black_box(&pod).encode()));
    // The store-commit encode shape: staged in pooled scratch, one
    // exactly-sized `Arc<[u8]>` allocation, no `Vec` on the way.
    c.bench_function("protowire/encode_pod_shared", |b| {
        b.iter(|| protowire::Message::encode_shared(black_box(&pod)))
    });
    c.bench_function("protowire/decode_pod", |b| {
        b.iter(|| k8s_model::Pod::decode(black_box(&bytes)).unwrap())
    });
}

fn store(c: &mut Criterion) {
    let bytes = sample_pod().encode();
    c.bench_function("etcd/put_get", |b| {
        let mut etcd = etcd_sim::Etcd::new(1, 1 << 30);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("/registry/pods/default/p{}", i % 512);
            etcd.put(&key, bytes.clone()).unwrap();
            black_box(etcd.get(&key));
        })
    });
    c.bench_function("etcd/quorum3_get", |b| {
        let mut etcd = etcd_sim::Etcd::new(3, 1 << 30);
        etcd.put("/k", bytes.clone()).unwrap();
        b.iter(|| black_box(etcd.get("/k")))
    });
}

fn api() -> k8s_apiserver::ApiServer {
    use std::cell::RefCell;
    use std::rc::Rc;
    k8s_apiserver::ApiServer::new(
        etcd_sim::Etcd::new(1, 1 << 30),
        Rc::new(RefCell::new(k8s_model::NoopInterceptor)),
        Rc::new(RefCell::new(simkit::Trace::new(64))),
    )
}

fn apiserver_write_path(c: &mut Criterion) {
    // The end-to-end write hot path: admit → encode (pooled scratch →
    // shared Arc) → store commit (refcount moves) → watch-cache sync
    // (decode-cache hit vs full re-decode). The A/B pair quantifies what
    // the revision-keyed decode cache saves per update.
    use k8s_model::{Channel, Object};
    for (name, cache_on) in
        [("apiserver/update_sync_decode_cache", true), ("apiserver/update_sync_full_decode", false)]
    {
        c.bench_function(name, |b| {
            let mut a = api();
            a.set_decode_cache(cache_on);
            a.create(Channel::UserToApi, Object::Pod(sample_pod())).unwrap();
            let mut pod = sample_pod();
            pod.metadata.resource_version = 0; // always write the latest
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(1);
                pod.status.restart_count = i64::from(i % 7);
                let stored =
                    a.update(Channel::KubeletToApi, Object::Pod(pod.clone())).unwrap();
                black_box(stored);
            })
        });
    }
}

fn apiserver_list(c: &mut Criterion) {
    // The main call of the `kcm.step_us` ledger row: the kcm watch router
    // lists a namespace's Services on every pod event, and the ReplicaSet
    // reconcile lists its namespace's pods. The cache holds a replication
    // storm's worth of pods (2,000 over two namespaces) plus 3 Services;
    // a list costs its key range, not the whole cache.
    use k8s_model::{Channel, Kind, Object};
    let mut a = api();
    for i in 0..2_000 {
        let mut pod = sample_pod();
        let ns = if i % 2 == 0 { "default" } else { "kube-system" };
        pod.metadata = k8s_model::ObjectMeta::named(ns, &format!("web-1-{i:05}"));
        a.create(Channel::KcmToApi, Object::Pod(pod)).unwrap();
    }
    for i in 0..3 {
        let svc = k8s_cluster::app_service(i);
        a.create(Channel::UserToApi, Object::Service(svc)).unwrap();
    }
    c.bench_function("apiserver/list_pods_ns_2k", |b| {
        b.iter(|| black_box(a.list(Kind::Pod, Some(black_box("default")))))
    });
    c.bench_function("apiserver/list_services_ns_2k", |b| {
        b.iter(|| black_box(a.list(Kind::Service, Some(black_box("default")))))
    });
}

fn experiment(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiment");
    group.sample_size(10);
    group.bench_function("golden_deploy_run", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(mutiny_core::golden::run_golden(
                &ClusterConfig { seed, ..Default::default() },
                mutiny_scenarios::DEPLOY,
                seed,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, wire, store, apiserver_write_path, apiserver_list, experiment);
criterion_main!(benches);
