//! The planner-optimization parity suite.
//!
//! PR 4 made the plan→simulate pipeline fast *without changing any
//! answer*: prefix-sum O(1) cost/memory probes, a frontier-pruned DP,
//! a binary-searched `Max_m`, a thread-fanned order search, an
//! answer-preserving `Nm`-sweep reuse step, and one shared joint
//! timetable per virtual worker. This suite is the "without changing
//! any answer" half of that claim:
//!
//! (a) prefix-sum `stage_secs` / stage-memory bytes match the naive
//!     per-range re-summation (to 1e-12 relative for times, exactly
//!     for bytes) over random ranges of **every zoo model**;
//! (b) the parallel order search returns the same winning order as the
//!     serial search, and the optimized solver the same plan as the naive
//!     reference solver;
//! (c) the optimized and reference solvers' plans simulate to
//!     bit-identical wave-schedule traces — the planner refactor may
//!     not leak into runtime behaviour (`tests/trace_pins.rs` pins
//!     that run's digest).
//! (d) a runtime replan (`replan_vw_from_observed`) returns the cold
//!     solver's plan bit for bit, whichever incumbent warm-starts it.

use hetpipe::cluster::{Cluster, DeviceId, GpuKind, LinkKind};
use hetpipe::core::exec::{self, ExecParams};
use hetpipe::core::pserver::{Placement, ShardMap};
use hetpipe::core::{replan_vw_from_observed, RecomputePolicy, Schedule, VirtualWorker, WspParams};
use hetpipe::des::SimTime;
use hetpipe::model::memory::nm_saturation_limit;
use hetpipe::model::{ModelGraph, StageMemoryTerms, TrainingMemoryModel};
use hetpipe::partition::order::{search_orders, search_orders_par};
use hetpipe::partition::{
    max_feasible_nm_linear, max_feasible_nm_with, NmSweep, PartitionError, PartitionPlan,
    PartitionProblem, PartitionSolver, StageCostModel,
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

/// (b) The optimized solver (O(1) probes + frontier prune) returns
/// the same plan as the naive reference DP on the wave schedule. Over
/// every zoo model on the heterogeneous VW × every schedule ×
/// recompute {none, boundary-only} × all-PCIe or all-InfiniBand
/// links, the incremental `Nm` sweep returns `solve`'s plan bit for
/// bit (`HetPipeSystem::build` takes its final plans from the sweep),
/// the sweep's feasible prefix is the linear `Max_m`, and the
/// binary-searched `Max_m` agrees with the linear rescan.
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
                    // Length of the sweep's feasible prefix 1..=prefix.
                    let mut prefix = 0;
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
                    let fast =
                        max_feasible_nm_with(&graph, &gpus, &links, limit, schedule, recompute);
                    let slow =
                        max_feasible_nm_linear(&graph, &gpus, &links, limit, schedule, recompute);
                    assert_eq!(
                        slow.as_ref().map_or(0, |(m, _)| *m),
                        prefix,
                        "{cell}: sweep prefix vs linear Max_m"
                    );
                    match (fast, slow) {
                        (None, None) => {}
                        (Some((a, pa)), Some((b, pb))) => {
                            assert_eq!(a, b, "{cell}: Max_m binary vs linear");
                            assert_eq!(pa.ranges, pb.ranges, "{cell}");
                        }
                        (a, b) => panic!(
                            "{cell}: Max_m binary {:?} vs linear {:?}",
                            a.map(|x| x.0),
                            b.map(|x| x.0)
                        ),
                    }
                }
            }
        }
    }
}

/// (b) The thread-fanned order search is bit-identical to the serial
/// fold.
#[test]
fn parallel_order_search_matches_serial() {
    for graph in [hetpipe::model::vgg19(32), hetpipe::model::resnet152(32)] {
        let gpus = vrgq();
        let eval = |order: &[usize]| {
            let ordered: Vec<_> = order.iter().map(|&i| gpus[i].clone()).collect();
            let problem = PartitionProblem::new(&graph, ordered, vec![LinkKind::Pcie; 3], 4);
            PartitionSolver::solve(&problem)
                .ok()
                .map(|plan| -plan.bottleneck_secs)
        };
        let serial = search_orders(&gpus, eval);
        let parallel = search_orders_par(&gpus, eval);
        match (serial, parallel) {
            (None, None) => {}
            (Some((so, ss, se)), Some((po, ps, pe))) => {
                assert_eq!(so, po, "{}: winning order", graph.name);
                assert_eq!(ss.to_bits(), ps.to_bits(), "{}: score", graph.name);
                assert_eq!(se, pe, "{}: evaluated count", graph.name);
            }
            (a, b) => panic!("{}: serial {a:?} vs parallel {b:?}", graph.name),
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

/// (d) Warm-started replans are answer-preserving. Over {VGG-19,
/// ResNet-152} × {wave, 1F1B} × `Nm` {4, 2, 1} × {nominal, one GPU
/// ×1.5} on one GPU of each kind, every cell replans with no
/// incumbent, with its own plan, and with the previous cell's plan (a
/// derate neighbour, an `Nm` backoff, or another model's cover), and
/// each must equal a cold `PartitionSolver::solve`.
#[test]
fn warm_replans_match_the_cold_solve_across_the_grid() {
    let cluster = Cluster::paper_testbed();
    let devices = [DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)];
    let recompute = RecomputePolicy::None;
    let mut previous: Option<PartitionPlan> = None;
    for graph in [hetpipe::model::vgg19(32), hetpipe::model::resnet152(32)] {
        for schedule in [Schedule::HetPipeWave, Schedule::OneFOneB] {
            for nm in [4, 2, 1] {
                for derate in [[1.0; 4], [1.5, 1.0, 1.0, 1.0]] {
                    let what = format!("{} {schedule:?} nm={nm} derate={derate:?}", graph.name);
                    let gpus = devices
                        .iter()
                        .zip(&derate)
                        .map(|(&d, &r)| cluster.spec_of(d).derated(r))
                        .collect();
                    let links = VirtualWorker::links(&cluster, &devices);
                    let cold = PartitionSolver::solve(
                        &PartitionProblem::with_schedule(&graph, gpus, links, nm, schedule)
                            .with_recompute(recompute),
                    )
                    .expect(&what);
                    let replan = |incumbent: Option<&PartitionPlan>| {
                        replan_vw_from_observed(
                            &cluster,
                            &graph,
                            &devices,
                            &derate,
                            nm,
                            schedule,
                            recompute,
                            incumbent.map(|p| p.ranges.as_slice()),
                        )
                        .expect(&what)
                    };
                    for (plan, from) in [
                        (replan(None), "no incumbent"),
                        (replan(Some(&cold)), "own plan"),
                        (replan(previous.as_ref()), "previous cell's plan"),
                    ] {
                        // Bit-identical, not approximately equal.
                        assert_eq!(plan.ranges, cold.ranges, "{what}, {from}: ranges");
                        assert_eq!(
                            plan.stage_secs, cold.stage_secs,
                            "{what}, {from}: stage_secs"
                        );
                        assert_eq!(
                            plan.bottleneck_secs, cold.bottleneck_secs,
                            "{what}, {from}: bottleneck"
                        );
                    }
                    previous = Some(cold);
                }
            }
        }
    }
}
