//! Elastic scenario integration tests: lease-driven scale-down *and*
//! scale-up, the plan cache's in-process fallback, and the frozen
//! zero-scenario golden.
//!
//! (a) **Elastic scale-up**: on the whimpy 4×RTX 2060 ResNet-152
//!     configuration under the canonical lease trace (grant at 0,
//!     preempt at 8 s, re-grant at 30 s), `Replan` recovers ≥ 15%
//!     throughput over `Static` measured past the preemption onset,
//!     ends back on the full 4-GPU pipeline at the original `Nm`, and
//!     the grown plan passes the exact joint per-GPU memory check.
//! (b) **Zero-scenario identity**: an empty scenario commits exactly
//!     the one-shot executor's trace, bit for bit, under every policy
//!     — and the trace matches a frozen golden fingerprint, so silent
//!     cross-version drift of the baseline fails loudly.
//! (c) **Flap suppression**: a grant/preempt flap shorter than the
//!     lease hysteresis window produces zero splices.
//! (d) **Fallback**: a plan cache whose catalog lacks the run's
//!     cluster sends every reaction to the in-process solver, with
//!     plans, epochs, and completions bit-identical to a run without
//!     a cache.

use hetpipe::cluster::{Cluster, DeviceId, GpuKind};
use hetpipe::core::exec::{self, ExecParams};
use hetpipe::core::pserver::{Placement, ShardMap};
use hetpipe::core::{Fnv, RecomputePolicy, Schedule, VirtualWorker, WspParams};
use hetpipe::des::SimTime;
use hetpipe::model::ModelGraph;
use hetpipe::partition::{max_feasible_nm_with, PartitionProblem, PartitionSolver};
use hetpipe::runtime::{self, MonitorConfig, Policy, RuntimeParams, ScenarioScript};
use hetpipe::schedule::PipelineSchedule;

/// One standalone virtual worker over `devices`, plan solved at `nm`.
fn standalone_vw(
    cluster: &Cluster,
    graph: &ModelGraph,
    devices: Vec<DeviceId>,
    nm: usize,
    schedule: Schedule,
    recompute: RecomputePolicy,
) -> VirtualWorker {
    let k = schedule.virtual_stages(devices.len());
    let expanded: Vec<DeviceId> = (0..k).map(|s| devices[s % devices.len()]).collect();
    let gpus = expanded.iter().map(|&d| cluster.spec_of(d)).collect();
    let links = VirtualWorker::links(cluster, &expanded);
    let plan = PartitionSolver::solve(
        &PartitionProblem::with_schedule(graph, gpus, links, nm, schedule)
            .with_recompute(recompute),
    )
    .expect("feasible");
    VirtualWorker {
        index: 0,
        devices: expanded,
        plan,
        nm,
    }
}

/// The acceptance configuration: one whimpy 4×RTX 2060 node running
/// ResNet-152.
fn whimpy_resnet() -> (Cluster, ModelGraph, usize) {
    let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
    let graph = hetpipe::model::resnet152(32);
    let devices: Vec<_> = (0..4).map(DeviceId).collect();
    let gpus: Vec<_> = devices.iter().map(|&d| cluster.spec_of(d)).collect();
    let links = VirtualWorker::links(&cluster, &devices);
    let limit = hetpipe::model::memory::nm_saturation_limit(4);
    let (nm, _) = max_feasible_nm_with(
        &graph,
        &gpus,
        &links,
        limit,
        Schedule::HetPipeWave,
        RecomputePolicy::None,
    )
    .expect("feasible");
    (cluster, graph, nm)
}

#[allow(clippy::too_many_arguments)]
fn runtime_params<'a>(
    cluster: &'a Cluster,
    graph: &'a ModelGraph,
    vws: Vec<VirtualWorker>,
    nm: usize,
    schedule: Schedule,
    recompute: RecomputePolicy,
    script: ScenarioScript,
    policy: Policy,
) -> RuntimeParams<'a> {
    RuntimeParams {
        cluster,
        graph,
        vws,
        wsp: WspParams::new(nm, 0),
        placement: Placement::Default,
        sync_transfers: false,
        schedule,
        recompute,
        script,
        policy,
        monitor: MonitorConfig::default(),
        max_reactions: 8,
        planner: None,
    }
}

// ------------------------------------------------------------------
// (a) Elastic scale-up on the canonical lease trace.
// ------------------------------------------------------------------

#[test]
fn canonical_lease_scale_up_recovers_throughput_and_recertifies() {
    let (cluster, graph, _) = whimpy_resnet();
    // Boundary-only recomputation: the configuration where the 6 GB
    // GPUs hold a balanced partition and pipeline quality matters
    // (same as the straggler acceptance test).
    let recompute = RecomputePolicy::BoundaryOnly;
    let nm = 4;
    let horizon = SimTime::from_secs(75.0);
    // GPU 2's spot lease: granted up front, preempted at 8 s,
    // re-granted at 30 s.
    let script = ScenarioScript::canonical_lease(2, 8.0, 30.0);
    let run_policy = |policy: Policy| {
        let vw = standalone_vw(
            &cluster,
            &graph,
            (0..4).map(DeviceId).collect(),
            nm,
            Schedule::HetPipeWave,
            recompute,
        );
        runtime::run(
            runtime_params(
                &cluster,
                &graph,
                vec![vw],
                nm,
                Schedule::HetPipeWave,
                recompute,
                script.clone(),
                policy,
            ),
            horizon,
        )
    };
    let st = run_policy(Policy::Static);
    let re = run_policy(Policy::Replan);
    assert!(st.audits_sound() && re.audits_sound(), "occupancy audits");
    assert_eq!(st.epochs.len(), 1, "static never splices");
    // Replan must have spliced at least twice: the eviction (shrink to
    // 3 GPUs) and the re-admission (grow back to 4).
    assert!(
        re.epochs.len() >= 3,
        "lease trace needs shrink + grow splices: {:?}",
        re.epochs.iter().map(|e| &e.action).collect::<Vec<_>>()
    );
    // Scale-up end state: the full roster is back, at the original Nm.
    let grown = &re.final_vws[0];
    assert_eq!(grown.devices.len(), 4, "re-admitted to 4 GPUs");
    assert!(
        grown.devices.contains(&DeviceId(2)),
        "the preempted GPU is back"
    );
    assert_eq!(re.final_nm, nm, "Nm re-raised on the widened pipeline");
    // The grown plan is certified by the exact joint per-GPU check.
    let gpus: Vec<_> = grown.devices.iter().map(|&d| cluster.spec_of(d)).collect();
    let links = VirtualWorker::links(&cluster, &grown.devices);
    let problem =
        PartitionProblem::with_schedule(&graph, gpus, links, re.final_nm, Schedule::HetPipeWave)
            .with_recompute(recompute);
    assert!(
        hetpipe::partition::StageCostModel::new(&problem).plan_fits_per_gpu(&grown.plan.ranges),
        "grown plan must pass plan_fits_per_gpu"
    );
    // The acceptance bar: Replan ≥ 15% over Static past the onset.
    // Static rides the outage out (the preempted GPU's work resumes at
    // re-grant); Replan runs 3-wide through the gap and 4-wide after.
    let cutoff = SimTime::from_secs(8.0);
    let count =
        |r: &runtime::RuntimeReport| r.completions[0].iter().filter(|&&t| t >= cutoff).count();
    let (static_n, replan_n) = (count(&st), count(&re));
    let recovery = replan_n as f64 / static_n as f64;
    assert!(
        recovery >= 1.15,
        "Replan must recover >= 15% over Static on the canonical lease: \
         {replan_n} vs {static_n} completions ({recovery:.3}x)"
    );
    // Completions keep flowing on the grown pipeline well after the
    // re-admission splice (detected at ~32 s with lease hysteresis).
    let post_grow = re.completions[0]
        .iter()
        .filter(|&&t| t >= SimTime::from_secs(40.0))
        .count();
    assert!(
        post_grow > 10,
        "the grown pipeline must keep completing ({post_grow})"
    );
}

// ------------------------------------------------------------------
// (b) Zero-scenario identity + frozen golden.
// ------------------------------------------------------------------

/// The frozen fingerprint of the zero-scenario baseline trace on the
/// whimpy ResNet-152 configuration (HetPipeWave, 15 s horizon). This
/// pins the baseline *across versions*: any change to the executor,
/// DES core, or schedule streams that silently moves the zero-fault
/// trace fails here and must update the constant deliberately.
const GOLDEN_ZERO_SCENARIO_FP: u64 = 0x194fc5a5787b8742;

#[test]
fn zero_scenario_is_bit_identical_and_matches_golden() {
    let (cluster, graph, nm) = whimpy_resnet();
    let horizon = SimTime::from_secs(15.0);
    let schedule = Schedule::HetPipeWave;
    let vw = standalone_vw(
        &cluster,
        &graph,
        (0..4).map(DeviceId).collect(),
        nm,
        schedule,
        RecomputePolicy::None,
    );
    let shards = ShardMap::build(Placement::Default, &graph, &cluster, &vw);
    let vws = vec![vw];
    let plain = exec::run(
        ExecParams {
            cluster: &cluster,
            graph: &graph,
            vws: &vws,
            wsp: WspParams::new(nm, 0),
            shards: &shards,
            sync_transfers: false,
            schedule,
            recompute: RecomputePolicy::None,
        },
        horizon,
    );
    // Frozen golden: fingerprint the full span list and the completion
    // instants (exact nanosecond ticks).
    let mut h = Fnv::default();
    for span in plain.trace.spans() {
        h.mix_bytes(format!("{span:?}").as_bytes());
    }
    for &t in &plain.vws[0].completions {
        h.mix_bytes(&t.as_nanos().to_le_bytes());
    }
    let fp = h.0;
    assert_eq!(
        fp, GOLDEN_ZERO_SCENARIO_FP,
        "zero-scenario baseline drifted from the frozen golden \
         (got {fp:#018x}; update the constant only for deliberate \
         executor/schedule changes)"
    );
    for policy in [
        Policy::Static,
        Policy::SkipStraggler { window: 8 },
        Policy::Replan,
    ] {
        let report = runtime::run(
            runtime_params(
                &cluster,
                &graph,
                vws.clone(),
                nm,
                schedule,
                RecomputePolicy::None,
                ScenarioScript::none(),
                policy,
            ),
            horizon,
        );
        assert_eq!(report.epochs.len(), 1, "{policy:?}: one epoch");
        assert_eq!(plain.trace.len(), report.trace.len(), "{policy:?}: spans");
        for (i, (a, b)) in plain
            .trace
            .spans()
            .iter()
            .zip(report.trace.spans())
            .enumerate()
        {
            assert_eq!(a, b, "{policy:?}: span {i}");
        }
        assert_eq!(
            plain.vws[0].completions, report.completions[0],
            "{policy:?}: completions"
        );
        assert!(report.signals.is_empty(), "{policy:?}: signals");
    }
}

// ------------------------------------------------------------------
// (c) Flap suppression.
// ------------------------------------------------------------------

#[test]
fn flapping_lease_produces_zero_splices() {
    let (cluster, graph, _) = whimpy_resnet();
    let recompute = RecomputePolicy::BoundaryOnly;
    let nm = 4;
    let horizon = SimTime::from_secs(40.0);
    // Preempt and re-grant within 0.4 s — far inside the default 2 s
    // lease hysteresis window. Neither transition is stable, so the
    // controller must not splice; the monitor's ratios stay below the
    // loss and straggler thresholds too (a 0.4 s delay on crossing
    // tasks is a blip, not a fault).
    let script = ScenarioScript::canonical_lease(2, 10.0, 10.4);
    let vw = standalone_vw(
        &cluster,
        &graph,
        (0..4).map(DeviceId).collect(),
        nm,
        Schedule::HetPipeWave,
        recompute,
    );
    let report = runtime::run(
        runtime_params(
            &cluster,
            &graph,
            vec![vw],
            nm,
            Schedule::HetPipeWave,
            recompute,
            script,
            Policy::Replan,
        ),
        horizon,
    );
    assert!(report.audits_sound(), "occupancy audits");
    assert_eq!(
        report.epochs.len(),
        1,
        "a sub-hysteresis flap must not splice: {:?}",
        report.epochs.iter().map(|e| &e.action).collect::<Vec<_>>()
    );
    assert_eq!(report.final_vws[0].devices.len(), 4, "pipeline unchanged");
    // Training continues straight through the flap.
    let after = report.completions[0]
        .iter()
        .filter(|&&t| t >= SimTime::from_secs(15.0))
        .count();
    assert!(
        after > 10,
        "completions must continue past the flap ({after})"
    );
}

// ------------------------------------------------------------------
// (d) Fallback: a cache that cannot plan the run's cluster.
// ------------------------------------------------------------------

#[test]
fn plan_cache_without_the_run_cluster_falls_back_in_process() {
    use hetpipe::plansvc::{Catalog, PlanService};
    let (cluster, graph, _) = whimpy_resnet();
    let recompute = RecomputePolicy::BoundaryOnly;
    let nm = 4;
    let horizon = SimTime::from_secs(50.0);
    let script = ScenarioScript::canonical_lease(2, 8.0, 30.0);
    let params = || {
        let vw = standalone_vw(
            &cluster,
            &graph,
            (0..4).map(DeviceId).collect(),
            nm,
            Schedule::HetPipeWave,
            recompute,
        );
        runtime_params(
            &cluster,
            &graph,
            vec![vw],
            nm,
            Schedule::HetPipeWave,
            recompute,
            script.clone(),
            Policy::Replan,
        )
    };
    let in_process = runtime::run(params(), horizon);
    // The catalog knows the model but not the cluster: every replan
    // request fails with `UnknownCluster` before any cache lookup.
    let mut catalog = Catalog::new();
    catalog.register_model(graph.clone());
    let svc = PlanService::start(catalog, 1);
    let mut cached = params();
    cached.planner = Some(svc.client());
    let fallback = runtime::run(cached, horizon);
    assert!(in_process.epochs.len() > 1, "the lease trace must splice");
    assert_eq!(
        svc.cache_stats(),
        (0, 0, 0),
        "no reaction may reach the cache"
    );
    assert_eq!(fallback.final_nm, in_process.final_nm, "spliced Nm");
    assert_eq!(fallback.epochs.len(), in_process.epochs.len(), "epochs");
    assert_eq!(fallback.final_vws.len(), in_process.final_vws.len());
    for (a, b) in fallback.final_vws.iter().zip(&in_process.final_vws) {
        assert_eq!(a.devices, b.devices, "spliced devices");
        assert_eq!(a.plan.ranges, b.plan.ranges, "spliced ranges");
        assert_eq!(a.plan.stage_secs, b.plan.stage_secs, "spliced stage costs");
    }
    assert_eq!(
        fallback.completions, in_process.completions,
        "completion instants"
    );
    assert!(fallback.audits_sound(), "occupancy audits");
}
