//! Plan-cache integration tests: parity, warm starts, and the
//! elastic-chaos counters.
//!
//! (a) **Parity**: every replan — cold, warm-started from its own key,
//!     or warm-started from a neighbor — is bit-identical to a cold
//!     `PartitionSolver::solve` of the same instance (same oracle style
//!     as `tests/planner_parity.rs`), across a model × schedule × `Nm`
//!     grid.
//! (b) **Warm-start policy**: a miss that differs from a cached family
//!     member only in derates or `Nm` is answered as a `WarmMiss` —
//!     and still matches the cold oracle exactly.
//! (c) **Chaos pin**: the cache counters of ED-built ResNet-152 under
//!     eight seeded chaos scripts, with every cached plan checked
//!     against the cold oracle.

use hetpipe::cluster::{Cluster, DeviceId, GpuKind};
use hetpipe::core::plankey::{cluster_fingerprint, graph_fingerprint};
use hetpipe::core::{RecomputePolicy, Schedule, VirtualWorker};
use hetpipe::model::ModelGraph;
use hetpipe::partition::{PartitionPlan, PartitionProblem, PartitionSolver};
use hetpipe::plansvc::{Catalog, PlanRequest, PlanService, Provenance};

/// The cold oracle: a from-scratch solve of exactly the instance the
/// cache builds from a request (derated specs, same link derivation).
fn cold_oracle(
    cluster: &Cluster,
    graph: &ModelGraph,
    devices: &[DeviceId],
    derates: &[f64],
    nm: usize,
    schedule: Schedule,
    recompute: RecomputePolicy,
) -> PartitionPlan {
    let gpus = devices
        .iter()
        .zip(derates)
        .map(|(&d, &r)| cluster.spec_of(d).derated(r.max(1.0)))
        .collect();
    let links = VirtualWorker::links(cluster, devices);
    PartitionSolver::solve(
        &PartitionProblem::with_schedule(graph, gpus, links, nm, schedule)
            .with_recompute(recompute),
    )
    .expect("oracle instance must be feasible")
}

fn assert_plan_eq(a: &PartitionPlan, b: &PartitionPlan, what: &str) {
    assert_eq!(a.ranges, b.ranges, "{what}: ranges");
    // Bit-identical, not approximately equal.
    assert_eq!(a.stage_secs, b.stage_secs, "{what}: stage_secs");
    assert_eq!(a.bottleneck_secs, b.bottleneck_secs, "{what}: bottleneck");
}

/// One GPU of each kind across the paper testbed's four nodes (the
/// VRGQ heterogeneous pipeline the planner benches use).
fn vrgq_devices() -> Vec<DeviceId> {
    vec![DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)]
}

#[test]
fn every_reply_matches_the_cold_oracle_across_the_grid() {
    let cluster = Cluster::paper_testbed();
    let mut catalog = Catalog::new();
    let cluster_fp = catalog.register_cluster(cluster.clone());
    let models = [hetpipe::model::vgg19(32), hetpipe::model::resnet152(32)];
    let fps: Vec<u64> = models
        .iter()
        .map(|m| catalog.register_model(m.clone()))
        .collect();
    let svc = PlanService::start(catalog, 1);
    let client = svc.client();
    for (graph, &model_fp) in models.iter().zip(&fps) {
        for schedule in [Schedule::HetPipeWave, Schedule::OneFOneB] {
            for nm in [1, 2, 4] {
                let req = PlanRequest::nominal(
                    model_fp,
                    cluster_fp,
                    vrgq_devices(),
                    nm,
                    schedule,
                    RecomputePolicy::None,
                );
                let what = format!("{} {schedule:?} nm={nm}", graph.name);
                let oracle = cold_oracle(
                    &cluster,
                    graph,
                    &vrgq_devices(),
                    &[1.0; 4],
                    nm,
                    schedule,
                    RecomputePolicy::None,
                );
                // First replan solves (cold, or warm off a same-family
                // lower-Nm sibling from an earlier grid step — either
                // way the answer must be the oracle's, bit for bit).
                let (_, misses, _) = svc.cache_stats();
                let first = client.replan(&req).expect(&what);
                assert_eq!(
                    svc.cache_stats().1,
                    misses + 1,
                    "{what}: first replan misses"
                );
                assert_plan_eq(&first.plan, &oracle, &what);
                // The second finds its own key and is bit-identical.
                let (hits, ..) = svc.cache_stats();
                let second = client.replan(&req).expect(&what);
                assert_eq!(second.provenance, Provenance::WarmMiss, "{what}: own key");
                assert_eq!(svc.cache_stats().0, hits + 1, "{what}: own-key hit");
                assert_plan_eq(&second.plan, &oracle, &what);
            }
        }
    }
    drop(client);
    svc.shutdown();
}

#[test]
fn derate_and_nm_misses_warm_start_and_still_match_oracle() {
    let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
    let graph = hetpipe::model::resnet152(32);
    let mut catalog = Catalog::new();
    let cluster_fp = catalog.register_cluster(cluster.clone());
    let model_fp = catalog.register_model(graph.clone());
    let svc = PlanService::start(catalog, 1);
    let client = svc.client();
    let devices: Vec<DeviceId> = (0..4).map(DeviceId).collect();
    let nominal = PlanRequest::nominal(
        model_fp,
        cluster_fp,
        devices.clone(),
        4,
        Schedule::HetPipeWave,
        RecomputePolicy::BoundaryOnly,
    );
    assert_eq!(
        client.replan(&nominal).unwrap().provenance,
        Provenance::Cold,
        "fresh cache must solve cold"
    );
    // A straggler-style derate on stage 0: same family, new key.
    let mut derated = nominal.clone();
    derated.observed_derates = vec![1.3, 1.0, 1.0, 1.0];
    let reply = client.replan(&derated).unwrap();
    assert_eq!(reply.provenance, Provenance::WarmMiss, "derate neighbor");
    let oracle = cold_oracle(
        &cluster,
        &graph,
        &devices,
        &derated.observed_derates,
        4,
        Schedule::HetPipeWave,
        RecomputePolicy::BoundaryOnly,
    );
    assert_plan_eq(&reply.plan, &oracle, "derated warm miss");
    // An Nm backoff: higher-Nm incumbent stays feasible at lower Nm.
    let mut backoff = nominal.clone();
    backoff.nm = 3;
    let reply = client.replan(&backoff).unwrap();
    assert_eq!(reply.provenance, Provenance::WarmMiss, "nm neighbor");
    let oracle = cold_oracle(
        &cluster,
        &graph,
        &devices,
        &[1.0; 4],
        3,
        Schedule::HetPipeWave,
        RecomputePolicy::BoundaryOnly,
    );
    assert_plan_eq(&reply.plan, &oracle, "nm-backoff warm miss");
    drop(client);
    svc.shutdown();
}

#[test]
fn catalog_fingerprints_are_the_plankey_fingerprints() {
    // Requests are addressed by the same process-stable fingerprints
    // `hetpipe_core::plankey` exposes — no cache-private identity.
    let cluster = Cluster::paper_testbed();
    let graph = hetpipe::model::vgg19(32);
    let mut catalog = Catalog::new();
    assert_eq!(
        catalog.register_model(graph.clone()),
        graph_fingerprint(&graph)
    );
    assert_eq!(
        catalog.register_cluster(cluster.clone()),
        cluster_fingerprint(&cluster)
    );
}

/// Elastic-chaos pin: four ED-built virtual workers (ResNet-152,
/// boundary-only recompute, 16 RTX 2060s) replan through one shared
/// client over eight seeded chaos scripts. The cache counters are
/// pinned, so a change to the lookups, their order or the warm-start
/// policy fails here; and every plan the cache holds, each one a
/// replanned virtual worker, equals a cold solve of its derated
/// instance.
#[test]
fn chaos_replans_pin_the_cache_counters_and_match_the_cold_oracle() {
    use hetpipe::core::{AllocationPolicy, HetPipeSystem, SystemConfig, WspParams};
    use hetpipe::des::SimTime;
    use hetpipe::runtime::{self, MonitorConfig, Policy, RuntimeParams, ScenarioScript};
    let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
    let graph = hetpipe::model::resnet152(32);
    let config = SystemConfig {
        policy: AllocationPolicy::EqualDistribution,
        recompute: RecomputePolicy::BoundaryOnly,
        ..SystemConfig::default()
    };
    let sys = HetPipeSystem::build(&cluster, &graph, &config).expect("builds");
    assert_eq!(sys.virtual_workers().len(), 4);
    let mut catalog = Catalog::new();
    catalog.register_model(graph.clone());
    catalog.register_cluster(cluster.clone());
    let svc = PlanService::start(catalog, 1);
    let client = svc.client();
    let horizon_secs = 90.0;
    let mut epochs = 0;
    for seed in 0..8u64 {
        let script = ScenarioScript::chaos(seed, horizon_secs, 16, 4, 8);
        let report = runtime::run(
            RuntimeParams {
                cluster: &cluster,
                graph: &graph,
                vws: sys.virtual_workers().to_vec(),
                wsp: WspParams::new(sys.nm(), config.staleness_bound),
                placement: config.placement,
                sync_transfers: config.sync_transfers,
                schedule: config.schedule,
                recompute: config.recompute,
                script,
                policy: Policy::Replan,
                monitor: MonitorConfig::default(),
                max_reactions: 8,
                planner: Some(client.clone()),
            },
            SimTime::from_secs(horizon_secs),
        );
        assert!(report.audits_sound(), "seed {seed}: occupancy audits");
        epochs += report.epochs.len();
    }
    assert!(epochs > 8, "the scripts must make the controller splice");
    assert_eq!(
        svc.cache_stats(),
        (112, 16, 128),
        "(hits, misses, publishes)"
    );
    let plans = svc.cached_plans();
    assert!(!plans.is_empty());
    for (key, plan) in &plans {
        let derates: Vec<f64> = key.derate_bits.iter().map(|&b| f64::from_bits(b)).collect();
        let oracle = cold_oracle(
            &cluster,
            &graph,
            &key.devices,
            &derates,
            key.nm,
            key.schedule,
            key.recompute,
        );
        let what = format!("{:?} nm={} derates={derates:?}", key.devices, key.nm);
        assert_plan_eq(plan, &oracle, &what);
    }
    drop(client);
    svc.shutdown();
}
