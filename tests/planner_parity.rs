//! The planner-optimization parity suite.
//!
//! The plan→simulate pipeline is fast *without changing any answer*:
//! prefix-sum O(1) cost/memory probes, a frontier-pruned DP bounded by
//! a greedy incumbent, an answer-preserving `Nm`-sweep reuse step (per
//! memory mode, on interleaved schedules as on flat ones) whose walk to
//! the first infeasible `Nm` is the one `Max_m` search, and one joint
//! timetable per virtual worker. This suite is the "without changing
//! any answer" half of that claim:
//!
//! (a) prefix-sum `stage_secs` / stage-memory bytes match the naive
//!     per-range re-summation (to 1e-12 relative for times, exactly
//!     for bytes) over random ranges of **every zoo model**;
//! (b) the optimized solver returns the same plan as the naive
//!     reference solver, every `NmSweep` cell the fresh solve's plan,
//!     and `max_feasible_nm_with` the sweep's prefix end with the
//!     fresh solve's plan there;
//! (c) the optimized and reference solvers' plans simulate to
//!     bit-identical wave-schedule traces — the planner refactor may
//!     not leak into runtime behaviour (`tests/trace_pins.rs` pins
//!     that run's digest).
//! (d) a runtime replan (the run's `Planner` prefix up to a ceiling,
//!     `Nm` by `planner::replan_nm`) picks the `Nm` of the descending
//!     cold-solve walk it replaced, with the cold solver's plan bit for
//!     bit.

use hetpipe::cluster::{Cluster, DeviceId, GpuKind, LinkKind};
use hetpipe::core::exec::{self, ExecParams};
use hetpipe::core::planner::replan_nm;
use hetpipe::core::pserver::{Placement, ShardMap};
use hetpipe::core::{Planner, RecomputePolicy, Schedule, VirtualWorker, WspParams};
use hetpipe::des::SimTime;
use hetpipe::model::memory::nm_saturation_limit;
use hetpipe::model::{ModelGraph, StageMemoryTerms, TrainingMemoryModel};
use hetpipe::partition::{
    max_feasible_nm_with, NmSweep, PartitionError, PartitionPlan, PartitionProblem,
    PartitionSolver, StageCostModel,
};
use hetpipe::schedule::PipelineSchedule;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn zoo() -> Vec<ModelGraph> {
    vec![
        hetpipe::model::vgg19(32),
        hetpipe::model::resnet152(32),
        hetpipe::model::resnet50(32),
        hetpipe::model::mlp(32, &[512, 400, 300, 200, 100, 50, 10]),
        hetpipe::model::transformer_encoder(12, 768, 12, 256, 8),
    ]
}

fn vrgq() -> Vec<hetpipe::cluster::gpu::GpuSpec> {
    vec![
        GpuKind::TitanV.spec(),
        GpuKind::TitanRtx.spec(),
        GpuKind::QuadroP4000.spec(),
        GpuKind::Rtx2060.spec(),
    ]
}

/// (a) Prefix-sum range queries vs naive re-summation, random ranges
/// over every zoo model, every schedule, recompute on and off.
#[test]
fn prefix_sums_match_naive_summation() {
    let mut rng = SmallRng::seed_from_u64(0x9e3779b97f4a7c15);
    for graph in zoo() {
        let n = graph.len();
        for schedule in [Schedule::HetPipeWave, Schedule::OneFOneB] {
            let k = schedule.virtual_stages(4);
            for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
                let problem = PartitionProblem::with_schedule(
                    &graph,
                    (0..k).map(|s| vrgq()[s % 4].clone()).collect(),
                    vec![LinkKind::Pcie; k - 1],
                    3,
                    schedule,
                )
                .with_recompute(recompute);
                let model = StageCostModel::new(&problem);
                for _ in 0..200 {
                    let start = rng.gen_range(0..n);
                    let end = rng.gen_range(start + 1..n + 1);
                    let stage = rng.gen_range(0..k);
                    let fast = model.stage_secs(stage, start..end);
                    let slow = model.stage_secs_naive(stage, start..end);
                    assert!(
                        (fast - slow).abs() <= 1e-12 * slow.abs(),
                        "{} {schedule} {recompute} stage {stage} {start}..{end}: \
                         prefix {fast} vs naive {slow}",
                        graph.name
                    );
                    // Byte totals are integer arithmetic: exact.
                    let terms = StageMemoryTerms::new(stage, k, 3, schedule, recompute);
                    assert_eq!(
                        terms.stage_bytes(&graph, start..end),
                        TrainingMemoryModel::stage_bytes_with_naive(
                            &graph,
                            start..end,
                            stage,
                            k,
                            3,
                            schedule,
                            recompute
                        ),
                        "{} {schedule} {recompute} stage {stage} {start}..{end}",
                        graph.name
                    );
                }
            }
        }
    }
}

/// (b) The optimized solver (O(1) probes + frontier prune +
/// incumbent bound) returns the same plan as the naive reference DP
/// on the wave schedule. Over every zoo model on the heterogeneous VW
/// × every schedule × recompute {none, boundary-only} × all-PCIe or
/// all-InfiniBand links, the incremental `Nm` sweep returns `solve`'s plan bit for
/// bit (`HetPipeSystem::build` takes its final plans from the sweep),
/// and `max_feasible_nm_with` returns the end of the sweep's feasible
/// prefix with a fresh `solve`'s plan there, bit for bit.
#[test]
fn optimized_solver_matches_reference() {
    for graph in zoo() {
        let k = 4.min(graph.len());
        for schedule in Schedule::ALL {
            let vk = schedule.virtual_stages(k);
            let gpus: Vec<_> = (0..vk).map(|s| vrgq()[s % k].clone()).collect();
            let limit = nm_saturation_limit(vk);
            for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
                for link in [LinkKind::Pcie, LinkKind::Infiniband] {
                    let cell = format!("{} {schedule} {recompute} {link:?}", graph.name);
                    let links = vec![link; vk - 1];
                    let reference = schedule == Schedule::HetPipeWave
                        && recompute == RecomputePolicy::None
                        && link == LinkKind::Pcie;
                    let mut sweep = NmSweep::new(&graph, &gpus, &links, schedule, recompute);
                    // Length of the sweep's feasible prefix 1..=prefix,
                    // and the fresh solve's plan at its end.
                    let (mut prefix, mut cold_at_prefix) = (0, None);
                    for nm in 1..=limit {
                        let problem = PartitionProblem::with_schedule(
                            &graph,
                            gpus.clone(),
                            links.clone(),
                            nm,
                            schedule,
                        )
                        .with_recompute(recompute);
                        let fast = PartitionSolver::solve(&problem);
                        let swept = sweep.solve(nm);
                        match (&fast, &swept) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!(a.ranges, b.ranges, "{cell} nm={nm} sweep");
                                assert_eq!(
                                    a.stage_secs.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                                    b.stage_secs.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                                    "{cell} nm={nm} sweep stage_secs"
                                );
                                assert_eq!(
                                    a.bottleneck_secs.to_bits(),
                                    b.bottleneck_secs.to_bits(),
                                    "{cell} nm={nm} sweep bottleneck"
                                );
                            }
                            (Err(a), Err(b)) => assert_eq!(a, b, "{cell} nm={nm}"),
                            _ => panic!("{cell} nm={nm}: solve {fast:?} vs sweep {swept:?}"),
                        }
                        if swept.is_ok() && prefix == nm - 1 {
                            prefix = nm;
                            cold_at_prefix = fast.clone().ok();
                        }
                        if !reference {
                            continue;
                        }
                        let slow = PartitionSolver::solve_reference(&problem);
                        match (&fast, &slow) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!(a.ranges, b.ranges, "{cell} nm={nm}");
                                assert!(
                                    (a.bottleneck_secs - b.bottleneck_secs).abs()
                                        <= 1e-12 * b.bottleneck_secs.abs(),
                                    "{cell} nm={nm}: bottleneck {} vs {}",
                                    a.bottleneck_secs,
                                    b.bottleneck_secs
                                );
                            }
                            (Err(a), Err(b)) => assert_eq!(a, b, "{cell} nm={nm}"),
                            _ => panic!("{cell} nm={nm}: {fast:?} vs {slow:?}"),
                        }
                    }
                    let max_m =
                        max_feasible_nm_with(&graph, &gpus, &links, limit, schedule, recompute);
                    assert_eq!(
                        max_m.as_ref().map_or(0, |(m, _)| *m),
                        prefix,
                        "{cell}: Max_m vs sweep prefix"
                    );
                    if let (Some((_, plan)), Some(cold)) = (&max_m, &cold_at_prefix) {
                        let bits = |p: &PartitionPlan| {
                            let mut v: Vec<u64> =
                                p.stage_secs.iter().map(|s| s.to_bits()).collect();
                            v.push(p.bottleneck_secs.to_bits());
                            v
                        };
                        assert_eq!(plan.ranges, cold.ranges, "{cell}: Max_m plan");
                        assert_eq!(bits(plan), bits(cold), "{cell}: Max_m plan times");
                    }
                }
            }
        }
    }
}

/// (c) The wave schedule simulated from the optimized solver's plans
/// and from the reference solver's plans gives bit-identical traces:
/// nothing in the planner optimizations leaks into runtime traces.
#[test]
fn golden_wave_still_bit_identical() {
    let cluster = Cluster::paper_testbed();
    let graph = hetpipe::model::vgg19(32);
    let groups: Vec<Vec<DeviceId>> = (0..4)
        .map(|j| (0..4).map(|n| DeviceId(n * 4 + j)).collect())
        .collect();
    let nm = 4;
    type Solve = fn(&PartitionProblem) -> Result<PartitionPlan, PartitionError>;
    let run = |solve: Solve| {
        let vws: Vec<VirtualWorker> = groups
            .iter()
            .enumerate()
            .map(|(i, devices)| {
                let gpus = devices.iter().map(|&d| cluster.spec_of(d)).collect();
                let links = VirtualWorker::links(&cluster, devices);
                let plan =
                    solve(&PartitionProblem::new(&graph, gpus, links, nm)).expect("feasible");
                VirtualWorker {
                    index: i,
                    devices: devices.clone(),
                    plan,
                    nm,
                }
            })
            .collect();
        let shards = ShardMap::build(Placement::Local, &graph, &cluster, &vws[0]);
        exec::run(
            ExecParams {
                cluster: &cluster,
                graph: &graph,
                vws: &vws,
                wsp: WspParams::new(nm, 0),
                shards: &shards,
                sync_transfers: true,
                schedule: Schedule::HetPipeWave,
                recompute: RecomputePolicy::None,
            },
            SimTime::from_secs(10.0),
        )
    };
    let fast = run(PartitionSolver::solve);
    let slow = run(PartitionSolver::solve_reference);
    assert!(fast.trace.len() > 100, "trivial trace proves nothing");
    assert_eq!(fast.trace.spans(), slow.trace.spans());
    for (x, y) in fast.vws.iter().zip(&slow.vws) {
        assert_eq!(x.completions, y.completions);
        assert_eq!(x.waves_pushed, y.waves_pushed);
    }
}

/// (d) Runtime replans keep the rule of the walk they replaced. Each
/// cell replans two VWs at a ceiling, VW 0 nominal and VW 1 with its
/// first GPU ×1.5 slower: both on one GPU of each kind at ceilings
/// {2, 4, 7}; at ceiling 7, that pair with VW 1 shrunk to three GPUs
/// (above their saturation limit of 5), and with VW 1 on four RTX
/// 2060s, and four and three RTX 2060s (where memory stops some VWs
/// below the ceiling). Over {VGG-19, ResNet-152} × {wave, 1F1B,
/// interleaved 1F1B with 2 chunks}, every replan must choose the `Nm`
/// of the reference walk, which lowers `Nm` from the ceiling until a
/// cold `PartitionSolver::solve` of every VW's derated problem
/// succeeds, and every plan must equal that solve bit for bit. One
/// planner serves each model and schedule, as one serves a whole run.
/// Tier: dynamically audited.
#[test]
fn warm_replans_match_the_cold_solve_across_the_grid() {
    let cluster = Cluster::paper_testbed();
    let recompute = RecomputePolicy::None;
    let (vrgq, gggg) = ([0, 4, 8, 12].map(DeviceId), [8, 9, 10, 11].map(DeviceId));
    let cells: [(usize, [&[DeviceId]; 2]); 6] = [
        (2, [&vrgq, &vrgq]),
        (4, [&vrgq, &vrgq]),
        (7, [&vrgq, &vrgq]),
        (7, [&vrgq, &vrgq[..3]]),
        (7, [&vrgq, &gggg]),
        (7, [&gggg, &gggg[..3]]),
    ];
    let (mut shrunk, mut split) = (0, 0);
    for graph in [hetpipe::model::vgg19(32), hetpipe::model::resnet152(32)] {
        for schedule in [
            Schedule::HetPipeWave,
            Schedule::OneFOneB,
            Schedule::Interleaved1F1B {
                chunks: 2,
                composite: true,
            },
        ] {
            let mut planner = Planner::new(&cluster, &graph, schedule, recompute);
            for (ceiling, phys) in cells {
                let what = format!("{} {schedule} {phys:?} ceiling={ceiling}", graph.name);
                let vws: Vec<(Vec<DeviceId>, Vec<f64>)> = (phys.iter().zip([1.0, 1.5]))
                    .map(|(gpus, slowed)| {
                        let devices = planner.stages(gpus);
                        let derate = |&d| if d == gpus[0] { slowed } else { 1.0 };
                        let derate = devices.iter().map(derate).collect();
                        (devices, derate)
                    })
                    .collect();
                let cold = |nm, (devices, derate): &(Vec<DeviceId>, Vec<f64>)| {
                    let gpus = (devices.iter().zip(derate))
                        .map(|(&d, &r)| cluster.spec_of(d).derated(r))
                        .collect();
                    let links = VirtualWorker::links(&cluster, devices);
                    let problem =
                        PartitionProblem::with_schedule(&graph, gpus, links, nm, schedule);
                    PartitionSolver::solve(&problem.with_recompute(recompute)).ok()
                };
                // The deleted walk: the highest Nm at or below the
                // ceiling at which every VW's cold solve succeeds.
                let every = |nm| {
                    vws.iter()
                        .map(|vw| cold(nm, vw))
                        .collect::<Option<Vec<_>>>()
                };
                let walk = (1..=ceiling).rev().find_map(|nm| Some((nm, every(nm)?)));
                let (walk_nm, walk) = walk.expect(&what);
                let prefixes: Vec<Vec<PartitionPlan>> = (vws.iter())
                    .map(|(devices, derate)| planner.prefix(devices, derate, ceiling).to_vec())
                    .collect();
                let nm = replan_nm(&prefixes);
                assert_eq!(nm, walk_nm, "{what}: Nm");
                for (prefix, cold) in prefixes.iter().zip(&walk) {
                    // Bit-identical, not approximately equal.
                    assert_eq!(&prefix[nm - 1], cold, "{what}");
                }
                shrunk += (nm < ceiling) as usize;
                split += (prefixes[0].len() != prefixes[1].len()) as usize;
            }
        }
    }
    // Memory must stop some replans below their ceiling, and some below
    // one VW's own prefix, or the rule is not exercised.
    assert!(
        shrunk > 0 && split > 0,
        "{shrunk} below the ceiling, {split} split"
    );
}
