//! The three scheduling conditions of Section 4, verified on the
//! simulated trace rather than assumed — for *every* pipeline
//! schedule, not just the paper's wave schedule:
//!
//! 1. forward of minibatch `p` at a stage runs only after forwards of
//!    all `p' < p` at that stage;
//! 2. likewise for backwards;
//! 3. tasks on one GPU never overlap (serial FIFO service);
//!
//! plus schedule-specific structure: the fused forward+backward at the
//! wave schedule's last stage, per-stage occupancy bounds matching the
//! declared memory accounting, and the cross-stage causality property
//! that no activation (or gradient) is consumed before it is produced.

use hetpipe::cluster::{Cluster, DeviceId};
use hetpipe::core::exec::{RunStats, SpanTag};
use hetpipe::core::{
    AllocationPolicy, HetPipeSystem, OccupancyAudit, Placement, RecomputePolicy, Schedule,
    SystemConfig, VirtualWorker,
};
use hetpipe::des::SimTime;
use hetpipe::schedule::PipelineSchedule;
use std::collections::HashMap;

const NM: usize = 4;

/// Every schedule form (incl. both interleaved variants) with the
/// stage count their single-VW pipeline runs (interleaved expands
/// 4 GPUs into 8 virtual stages).
fn all_schedules() -> Vec<Schedule> {
    Schedule::ALL.to_vec()
}

fn single_vw_run(
    schedule: Schedule,
    recompute: RecomputePolicy,
) -> (RunStats, usize, Vec<VirtualWorker>) {
    let cluster = Cluster::paper_testbed();
    let graph = hetpipe::model::vgg19(32);
    let config = SystemConfig {
        policy: AllocationPolicy::Custom(vec![(0..4).map(DeviceId).collect()]),
        placement: Placement::Default,
        staleness_bound: 0,
        nm_override: Some(NM),
        sync_transfers: false,
        order_search: false,
        schedule,
        recompute,
        ..SystemConfig::default()
    };
    let sys = HetPipeSystem::build(&cluster, &graph, &config).expect("builds");
    let stages = schedule.virtual_stages(4);
    assert_eq!(sys.virtual_workers()[0].stages(), stages);
    let vws = sys.virtual_workers().to_vec();
    let (_, stats) = sys.run_with_stats(SimTime::from_secs(10.0));
    (stats, stages, vws)
}

fn single_vw_stats(schedule: Schedule) -> (RunStats, usize) {
    let (stats, stages, _) = single_vw_run(schedule, RecomputePolicy::None);
    (stats, stages)
}

/// The number of spans whose tag satisfies `pred`.
fn count_spans(stats: &RunStats, pred: impl Fn(&SpanTag) -> bool) -> usize {
    stats.trace.spans().iter().filter(|s| pred(&s.tag)).count()
}

/// `(stage, mb)` → the `(start, end)` of the span carrying that pass.
type PassSpans = HashMap<(u32, u64), (SimTime, SimTime)>;

/// (start, end) of the span carrying mb's forward/backward at a stage.
/// The wave schedule's fused last-stage task carries both.
fn collect_passes(stats: &RunStats, stages: usize, fused_last: bool) -> (PassSpans, PassSpans) {
    let mut fwd = HashMap::new();
    let mut bwd = HashMap::new();
    for s in stats.trace.spans() {
        match s.tag {
            SpanTag::Forward { stage, mb, .. } => {
                fwd.insert((stage, mb), (s.start, s.end));
            }
            SpanTag::Backward { stage, mb, .. } => {
                bwd.insert((stage, mb), (s.start, s.end));
                if fused_last && stage as usize == stages - 1 {
                    fwd.insert((stage, mb), (s.start, s.end));
                }
            }
            _ => {}
        }
    }
    (fwd, bwd)
}

#[test]
fn forwards_and_backwards_in_minibatch_order_for_every_schedule() {
    for schedule in all_schedules() {
        let (stats, stages) = single_vw_stats(schedule);
        for stage in 0..stages as u32 {
            let mut fwd_starts = Vec::new();
            let mut bwd_starts = Vec::new();
            for s in stats.trace.spans() {
                match s.tag {
                    SpanTag::Forward { stage: q, mb, .. } if q == stage => {
                        fwd_starts.push((s.start, mb))
                    }
                    SpanTag::Backward { stage: q, mb, .. } if q == stage => {
                        bwd_starts.push((s.start, mb))
                    }
                    _ => {}
                }
            }
            fwd_starts.sort();
            bwd_starts.sort();
            assert!(
                !bwd_starts.is_empty(),
                "{schedule}: stage {stage} ran no backwards"
            );
            // Condition 1: forward start order == minibatch order.
            for w in fwd_starts.windows(2) {
                assert!(
                    w[0].1 < w[1].1,
                    "{schedule} stage {stage}: forward of mb {} started before mb {}",
                    w[1].1,
                    w[0].1
                );
            }
            // Condition 2: same for backwards.
            for w in bwd_starts.windows(2) {
                assert!(
                    w[0].1 < w[1].1,
                    "{schedule} stage {stage}: backward order violated"
                );
            }
        }
    }
}

#[test]
fn gpu_tasks_never_overlap_for_every_schedule() {
    for schedule in all_schedules() {
        let (stats, _) = single_vw_stats(schedule);
        // Condition 3 is per physical GPU (an interleaved GPU serves
        // two virtual stages on one timeline).
        for &rid in &stats.gpu_resources {
            let mut spans: Vec<(SimTime, SimTime)> = stats
                .trace
                .spans()
                .iter()
                .filter(|s| s.resource == rid)
                .map(|s| (s.start, s.end))
                .collect();
            spans.sort();
            for w in spans.windows(2) {
                assert!(
                    w[1].0 >= w[0].1,
                    "{schedule}: overlapping tasks {:?} and {:?} on {rid:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

#[test]
fn nothing_consumed_before_it_is_produced() {
    for schedule in all_schedules() {
        let (stats, stages) = single_vw_stats(schedule);
        let fused = schedule.fused_last_stage();
        let (fwd, bwd) = collect_passes(&stats, stages, fused);
        for (&(stage, mb), &(start, _)) in &fwd {
            // A forward consumes the previous stage's activations.
            if stage > 0 {
                if let Some(&(_, prev_end)) = fwd.get(&(stage - 1, mb)) {
                    assert!(
                        start >= prev_end,
                        "{schedule}: fwd mb {mb} at stage {stage} started {start} before \
                         stage {} produced it at {prev_end}",
                        stage - 1
                    );
                }
            }
        }
        for (&(stage, mb), &(start, _)) in &bwd {
            // A backward consumes the next stage's gradients...
            if (stage as usize) < stages - 1 {
                if let Some(&(_, next_end)) = bwd.get(&(stage + 1, mb)) {
                    assert!(
                        start >= next_end,
                        "{schedule}: bwd mb {mb} at stage {stage} started before \
                         stage {} finished",
                        stage + 1
                    );
                }
            }
            // ... and its own stage's forward activations.
            if let Some(&(fwd_start, _)) = fwd.get(&(stage, mb)) {
                assert!(
                    start >= fwd_start,
                    "{schedule}: bwd mb {mb} at stage {stage} before its forward"
                );
            }
        }
    }
}

#[test]
fn per_stage_occupancy_matches_declared_memory_accounting() {
    // The measured ≤ declared memory invariant, asserted for *every*
    // schedule × recompute policy: a run must never hold more
    // concurrent minibatches at a stage (or summed across a GPU's
    // co-located stages) than the memory model charged when the plan
    // was certified. Lanes hold it by executing their streams in order;
    // on the wave schedule the Nm injection cap bounds every stage and
    // its honest Nm charge matches that bound — the idealized Figure-1
    // window was exceeded by arrival-order timing skew at middle
    // stages. The executor's completion books check it as the run
    // goes; this audit checks it from the trace.
    for schedule in all_schedules() {
        for recompute in RecomputePolicy::ALL {
            let (stats, stages, vws) = single_vw_run(schedule, recompute);
            let audit = OccupancyAudit::measure(&stats, &vws, &schedule, NM);
            audit.assert_sound(&format!("{schedule} (recompute {recompute})"));
            // The audit must have measured real work, not an empty
            // trace: every non-last stage saw at least 1 in flight,
            // and stage 0 actually pipelined.
            assert_eq!(audit.stages.len(), stages, "{schedule}");
            for s in &audit.stages {
                if s.stage + 1 < stages {
                    assert!(s.measured >= 1, "{schedule}: {s} measured no work");
                }
            }
            assert!(
                audit.stages[0].measured >= 2,
                "{schedule}: stage 0 never overlapped minibatches"
            );
            assert!(!audit.gpus.is_empty(), "{schedule}");
        }
    }
}

#[test]
fn recompute_rematerializes_before_every_backward() {
    for schedule in all_schedules() {
        // Off: no recompute spans anywhere.
        let (stats, _, _) = single_vw_run(schedule, RecomputePolicy::None);
        assert_eq!(
            count_spans(&stats, |t| matches!(t, SpanTag::Recompute { .. })),
            0,
            "{schedule}: recompute spans with the policy off"
        );
        // On: every backward at a stage that checkpoints
        // (`recomputes_at`: the policy is on and the stage's window
        // exceeds 1) is preceded by a same-stage recompute of the same
        // minibatch, back-to-back on the GPU timeline. Fused tasks and
        // window-1 stages (e.g. the last stage of stream-order
        // schedules) never recompute — there is no stash to reclaim,
        // so the forward re-run is skipped for free throughput.
        let (stats, stages, _) = single_vw_run(schedule, RecomputePolicy::BoundaryOnly);
        let recomputes: HashMap<(u32, u64), (SimTime, SimTime)> = stats
            .trace
            .spans()
            .iter()
            .filter_map(|s| match s.tag {
                SpanTag::Recompute { stage, mb, .. } => Some(((stage, mb), (s.start, s.end))),
                _ => None,
            })
            .collect();
        let mut checkpointed_backwards = 0;
        let mut skipped_stages = 0;
        for s in stats.trace.spans() {
            if let SpanTag::Backward { stage, mb, .. } = s.tag {
                if !schedule.recomputes_at(
                    stage as usize,
                    stages,
                    NM,
                    RecomputePolicy::BoundaryOnly,
                ) {
                    assert!(
                        !recomputes.contains_key(&(stage, mb)),
                        "{schedule}: mb {mb} at non-checkpointing stage {stage} must not recompute"
                    );
                    skipped_stages += 1;
                    continue;
                }
                checkpointed_backwards += 1;
                let (_, re_end) = recomputes.get(&(stage, mb)).unwrap_or_else(|| {
                    panic!("{schedule}: backward mb {mb} stage {stage} missing its recompute")
                });
                assert_eq!(
                    *re_end, s.start,
                    "{schedule}: recompute of mb {mb} not back-to-back with its backward"
                );
            }
        }
        assert!(
            checkpointed_backwards > 10,
            "{schedule}: ran only {checkpointed_backwards} checkpointed backwards"
        );
        // Schedules with a non-checkpointing stage (the wave
        // schedule's fused last stage; the window-1 last stage of the
        // 1F1B-family schedules) must actually have exercised the
        // skip. Fill-drain holds the whole wave at every stage, so it
        // checkpoints everywhere.
        let has_skip_stage = (0..stages)
            .any(|s| !schedule.recomputes_at(s, stages, NM, RecomputePolicy::BoundaryOnly));
        assert_eq!(
            skipped_stages > 0,
            has_skip_stage,
            "{schedule}: recompute skip coverage mismatch"
        );
        // Recomputation trades compute for memory: the run must still
        // make progress.
        assert!(
            stats.vws[0].completions.len() > 5,
            "{schedule}: no progress under recompute"
        );
    }
}

#[test]
fn last_stage_is_fused_only_for_the_wave_schedule() {
    for schedule in all_schedules() {
        let (stats, stages) = single_vw_stats(schedule);
        let standalone_fwd = count_spans(
            &stats,
            |t| matches!(t, SpanTag::Forward { stage, .. } if *stage as usize == stages - 1),
        );
        if schedule.fused_last_stage() {
            assert_eq!(
                standalone_fwd, 0,
                "{schedule}: last stage must fuse forward+backward"
            );
        } else {
            assert!(
                standalone_fwd > 0,
                "{schedule}: last stage runs standalone forwards"
            );
        }
        let last_stage_tasks = count_spans(
            &stats,
            |t| matches!(t, SpanTag::Backward { stage, .. } if *stage as usize == stages - 1),
        );
        assert!(last_stage_tasks > 0, "{schedule}: last stage ran tasks");
    }
}

#[test]
fn first_stage_holds_up_to_nm_in_flight() {
    // The wave schedule's Section-4 memory asymmetry: stage 0 overlaps
    // minibatches up to min(Nm, 2k-1) = 4 here.
    let (stats, _) = single_vw_stats(Schedule::HetPipeWave);
    let rid = stats.gpu_resources[0];
    let mut events: Vec<(SimTime, i64)> = Vec::new();
    for s in stats.trace.spans() {
        if s.resource != rid {
            continue;
        }
        match s.tag {
            SpanTag::Forward { .. } => events.push((s.end, 1)),
            SpanTag::Backward { .. } => events.push((s.end, -1)),
            _ => {}
        }
    }
    events.sort();
    let mut live = 0i64;
    let mut peak = 0i64;
    for (_, d) in events {
        live += d;
        peak = peak.max(live);
    }
    assert!(
        peak >= 3,
        "pipelining should overlap minibatches, peak {peak}"
    );
    assert!(peak <= 4, "occupancy must respect Nm, peak {peak}");
}

#[test]
fn static_streams_satisfy_their_own_invariants() {
    // The schedule-level counterpart of the trace checks above, over a
    // wider (k, Nm, D) grid than a simulation can cover.
    use hetpipe::core::WspParams;
    use hetpipe::schedule::validate_stream_with;
    for schedule in all_schedules() {
        for k_gpus in [1usize, 2, 4, 6] {
            let k = schedule.virtual_stages(k_gpus);
            for nm in [1usize, 3, 4, 8] {
                for d in [0usize, 1, 4] {
                    let wsp = WspParams::new(nm, d);
                    for stage in 0..k {
                        validate_stream_with(schedule, stage, k, wsp, RecomputePolicy::None, 400)
                            .unwrap_or_else(|e| panic!("{e} (k_gpus={k_gpus} nm={nm} d={d})"));
                    }
                }
            }
        }
    }
}
