//! Fidelity properties of the composite per-GPU interleaved stream
//! (Megatron-style ordered chunk groups) against the depth-expanded
//! variant it replaces as the default:
//!
//! 1. **Warmup no longer serializes chunk 0** — the regression the
//!    composite stream exists to fix: with `Nm > GPUs`, the
//!    depth-expanded executor reserves chunk 0's whole 1F1B window on
//!    the GPU timeline before chunk 1's first microbatch runs, while
//!    the composite stream hands the GPU over after one chunk group.
//! 2. **The composite stream strictly improves simulated throughput**
//!    on the paper configuration the interleaved schedule exists for
//!    (ResNet-152 on a whimpy 4 × RTX 2060 virtual worker, chunks = 2).
//! 3. **Measured ≤ declared occupancy holds per stage and per GPU**
//!    for the composite stream, with recomputation off and on — the
//!    memory contract is schedule-independent.

use hetpipe::cluster::{Cluster, DeviceId, GpuKind};
use hetpipe::core::exec::SpanTag;
use hetpipe::core::{
    AllocationPolicy, HetPipeSystem, OccupancyAudit, Placement, RecomputePolicy, Schedule,
    SystemConfig,
};
use hetpipe::des::{BoundEntity, SimTime, Trace};

const CHUNKS: usize = 2;

fn interleaved(composite: bool) -> Schedule {
    Schedule::Interleaved1F1B {
        chunks: CHUNKS,
        composite,
    }
}

/// One standalone 4-GPU virtual worker on the paper testbed, Nm
/// forced above the GPU count so warmup behaviour is distinguishable.
fn single_vw_config(composite: bool, nm: usize) -> SystemConfig {
    SystemConfig {
        policy: AllocationPolicy::Custom(vec![(0..4).map(DeviceId).collect()]),
        placement: Placement::Default,
        staleness_bound: 0,
        nm_override: Some(nm),
        sync_transfers: false,
        order_search: false,
        schedule: interleaved(composite),
        recompute: RecomputePolicy::None,
        ..SystemConfig::default()
    }
}

/// How many stage-0 (chunk 0) forwards start on GPU 0 before chunk
/// 1's first forward (virtual stage `gpus`) starts.
fn chunk0_forwards_before_chunk1(composite: bool, nm: usize) -> usize {
    let cluster = Cluster::paper_testbed();
    let graph = hetpipe::model::vgg19(32);
    let sys =
        HetPipeSystem::build(&cluster, &graph, &single_vw_config(composite, nm)).expect("builds");
    let (_, _, trace) = sys.run_into(SimTime::from_secs(5.0), Trace::new());
    assert!(trace.len() > 100, "trivial trace proves nothing");
    let gpus = 4u16;
    let first_chunk1 = trace
        .spans()
        .iter()
        .filter(|s| matches!(s.tag, SpanTag::Forward { stage, .. } if stage == gpus))
        .map(|s| s.start)
        .min()
        .expect("chunk 1 ran forwards");
    trace
        .spans()
        .iter()
        .filter(|s| {
            matches!(s.tag, SpanTag::Forward { stage, .. } if stage == 0) && s.start < first_chunk1
        })
        .count()
}

#[test]
fn composite_warmup_does_not_serialize_chunk0_ahead_of_chunk1() {
    let nm = 6; // > GPUs, so the two variants warm up differently.
    let depth = chunk0_forwards_before_chunk1(false, nm);
    let composite = chunk0_forwards_before_chunk1(true, nm);
    // Depth-expanded: stage 0's whole 1F1B window (min(Nm, 2·4) = 6
    // forwards) is reserved on GPU 0's FIFO timeline before chunk 1's
    // first arrival gets a slot.
    assert_eq!(
        depth, nm,
        "depth-expanded warmup must show the serialization bug"
    );
    // Composite: the idealized timetable hands GPU 0 over to chunk 1
    // after one chunk group of `GPUs` forwards.
    assert_eq!(
        composite, 4,
        "composite warmup must hand over after one chunk group"
    );
    assert!(composite < depth);
}

/// The acceptance configuration: ResNet-152 on all-whimpy 4 × RTX 2060
/// virtual workers (ED over a 4-node RTX 2060 testbed), chunks = 2.
fn whimpy_config(composite: bool, recompute: RecomputePolicy) -> SystemConfig {
    SystemConfig {
        policy: AllocationPolicy::EqualDistribution,
        placement: Placement::Local,
        staleness_bound: 0,
        order_search: false,
        schedule: interleaved(composite),
        recompute,
        ..SystemConfig::default()
    }
}

#[test]
fn composite_strictly_beats_depth_expanded_on_whimpy_resnet() {
    let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
    let graph = hetpipe::model::resnet152(32);
    let horizon = SimTime::from_secs(20.0);
    let run = |composite: bool| {
        let sys = HetPipeSystem::build(
            &cluster,
            &graph,
            &whimpy_config(composite, RecomputePolicy::None),
        )
        .expect("builds");
        let (report, stats) = sys.run_with_stats(horizon);
        // The throughput claim only counts if the run stayed inside
        // its memory certification.
        let audit = OccupancyAudit::measure(
            &stats,
            sys.virtual_workers(),
            &interleaved(composite),
            sys.nm(),
        );
        audit.assert_sound(if composite { "composite" } else { "depth" });
        report.throughput_images_per_sec()
    };
    let depth = run(false);
    let composite = run(true);
    assert!(
        composite > depth,
        "the composite per-GPU stream must strictly improve simulated \
         throughput: composite {composite:.0} vs depth-expanded {depth:.0} img/s"
    );
}

#[test]
fn composite_occupancy_measured_within_declared_per_stage_and_gpu() {
    // The memory contract for the new stream form, on the whimpy
    // acceptance cluster, recompute off and on: measured peak
    // activation occupancy never exceeds the declared accounting —
    // per virtual stage and summed per physical GPU — and the run
    // does real pipelined work.
    let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
    let graph = hetpipe::model::resnet152(32);
    for recompute in RecomputePolicy::ALL {
        let sys = HetPipeSystem::build(&cluster, &graph, &whimpy_config(true, recompute))
            .expect("builds");
        let (_, stats) = sys.run_with_stats(SimTime::from_secs(10.0));
        let audit =
            OccupancyAudit::measure(&stats, sys.virtual_workers(), &interleaved(true), sys.nm());
        audit.assert_sound(&format!("composite (recompute {recompute})"));
        let gpus: Vec<_> = audit
            .bounds
            .iter()
            .filter(|b| matches!(b.entity, BoundEntity::Gpu { .. }))
            .collect();
        assert_eq!(gpus.len(), 4 * sys.virtual_workers().len());
        for g in gpus {
            assert!(
                g.measured >= Some(2),
                "recompute {recompute}: {g} never overlapped minibatches"
            );
        }
        assert!(
            stats.vws.iter().all(|v| v.completions.len() > 10),
            "recompute {recompute}: no steady progress"
        );
    }
}

#[test]
fn composite_and_depth_certify_identical_memory() {
    // The two interleaved forms differ only in GPU timeline order;
    // their declared per-stage windows, weight versions, and per-GPU
    // peaks are identical, so plans certify identically and the
    // throughput comparison is apples-to-apples.
    use hetpipe::schedule::PipelineSchedule;
    let (k, nm) = (8usize, 5usize);
    for stage in 0..k {
        assert_eq!(
            interleaved(true).max_in_flight(stage, k, nm),
            interleaved(false).max_in_flight(stage, k, nm)
        );
        assert_eq!(
            interleaved(true).extra_weight_versions(stage, k, nm),
            interleaved(false).extra_weight_versions(stage, k, nm)
        );
    }
}
