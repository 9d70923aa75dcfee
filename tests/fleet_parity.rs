//! Fleet ↔ legacy executor parity: the per-VW parallel decomposition
//! must be *bit-identical* to the single-engine executor, not merely
//! statistically close.
//!
//! Oracle: a fleet of node-disjoint replicated cells is, by the
//! VW-isolation certificate, equivalent to one flat cluster whose
//! nodes concatenate the cells ([`FleetTopology::expanded`]) driven by
//! the legacy single-engine `exec::run`. The tests compare canonical
//! span-multiset fingerprints and per-VW statistics:
//!
//! 1. a 1-thread fleet reproduces the legacy trace exactly, for every
//!    schedule × recompute policy (on a two-node cell, so activation
//!    transfers exercise the NIC timelines too);
//! 2. an N-thread fleet produces the same partials and fingerprint as
//!    the 1-thread fleet;
//! 3. two 8-thread runs are identical to each other (no wall-clock
//!    interleaving leaks into the simulation);
//! 4. at scale — 64 VWs for 5 s, wave D = 0 and 1F1B D = 1, under a
//!    GPU slowdown edge and a NIC rate edge replicated onto every cell
//!    of the legacy cluster — the 1-thread fleet matches legacy
//!    `run_segment` and the 2-thread fleet matches the 1-thread one.
//!
//! All of these are *dynamically audited* invariants: evidence for
//! the configs that ran, not proofs. In fleets of identical cells the
//! bus's `NotBefore` and quiescent-rule verdicts never fire (every VW
//! reaches each gate in lockstep), so only the bus unit tests in
//! `crates/fleet/src/bus.rs` cover those two paths; the at-scale case
//! asserts through the bus counters that `Ready` and `Wait` did fire.

use hetpipe::cluster::{Cluster, DeviceId, GpuKind, Node};
use hetpipe::core::exec::{run_segment, ExecParams, RateEvent, RateTarget, SegmentOpts};
use hetpipe::core::pserver::ShardMap;
use hetpipe::core::{VirtualWorker, WspParams};
use hetpipe::des::SimTime;
use hetpipe::fleet::{
    merged_spans, run_fleet, trace_fingerprint, FleetConfig, FleetReport, FleetTopology,
};
use hetpipe::model::{resnet50, ModelGraph};
use hetpipe::partition::{PartitionProblem, PartitionSolver};
use hetpipe::schedule::{PipelineSchedule, RecomputePolicy, Schedule};

const NM: usize = 4;

/// A cell of `nodes` single-GPU nodes (inter-node pipeline links, so
/// activation/gradient transfers occupy NICs) replicated `n_vws`
/// times. The cell VW's stage devices follow the schedule's virtual
/// stage expansion, exactly as the system builder lays them out.
fn topology(graph: &ModelGraph, schedule: Schedule, nodes: usize, n_vws: usize) -> FleetTopology {
    let mut cell = Cluster::new();
    for _ in 0..nodes {
        cell.add_node(Node::new(GpuKind::Rtx2060, 1));
    }
    let base: Vec<DeviceId> = cell.devices().collect();
    let vk = schedule.virtual_stages(base.len());
    let devices: Vec<DeviceId> = (0..vk).map(|s| base[s % base.len()]).collect();
    let gpus = devices.iter().map(|&d| cell.spec_of(d)).collect();
    let links = VirtualWorker::links(&cell, &devices);
    let plan = PartitionSolver::solve(&PartitionProblem::new(graph, gpus, links, NM))
        .expect("feasible cell");
    let vw = VirtualWorker {
        index: 0,
        devices,
        plan,
        nm: NM,
    };
    FleetTopology::new(cell, vw, n_vws)
}

/// One parity case: the schedule shape both executors run.
#[derive(Clone, Copy)]
struct Case {
    schedule: Schedule,
    recompute: RecomputePolicy,
    wsp: WspParams,
}

fn fleet(
    topo: &FleetTopology,
    graph: &ModelGraph,
    shards: &ShardMap,
    case: Case,
    opts: &SegmentOpts,
    threads: usize,
    horizon: SimTime,
) -> FleetReport {
    let vws = topo.cell_vws();
    let cfg = FleetConfig {
        cluster: topo.cell(),
        graph,
        vws: &vws,
        wsp: case.wsp,
        shards,
        sync_transfers: true,
        schedule: case.schedule,
        recompute: case.recompute,
        opts: opts.clone(),
        threads,
        keep_traces: true,
    };
    run_fleet(&cfg, horizon)
}

/// The legacy oracle: the expanded flat cluster on the single-engine
/// executor, same VW-local shard map. `opts` must already address the
/// expanded cluster (see [`replicate`]).
fn legacy(
    topo: &FleetTopology,
    graph: &ModelGraph,
    shards: &ShardMap,
    case: Case,
    opts: SegmentOpts,
    horizon: SimTime,
) -> (u64, hetpipe::core::exec::RunStats) {
    let (cluster, vws) = topo.expanded();
    let stats = run_segment(
        ExecParams {
            cluster: &cluster,
            graph,
            vws: &vws,
            wsp: case.wsp,
            shards,
            sync_transfers: true,
            schedule: case.schedule,
            recompute: case.recompute,
        },
        opts,
        horizon,
    );
    (trace_fingerprint(stats.trace.spans()), stats)
}

/// Cell-local rate edges: cell GPU 0 runs at half speed from 1 s to
/// 3 s, and cell NIC 1 speeds up ×1.5 at 2 s — a rate above nominal,
/// so the fleet's lookahead (`min_push_step`) must shrink by it.
fn cell_edges() -> SegmentOpts {
    let edge = |secs, target, rate| RateEvent {
        at: SimTime::from_secs(secs),
        target,
        rate,
    };
    SegmentOpts {
        rate_events: vec![
            edge(1.0, RateTarget::Gpu(0), 0.5),
            edge(2.0, RateTarget::Nic(1), 1.5),
            edge(3.0, RateTarget::Gpu(0), 1.0),
        ],
        ..SegmentOpts::default()
    }
}

/// `cell`'s rate edges replicated onto every cell of the expanded
/// cluster (cell `e`'s GPU `d` is global GPU `e·devs + d`, its NIC `j`
/// global NIC `e·nodes + j`).
fn replicate(topo: &FleetTopology, cell: &SegmentOpts) -> SegmentOpts {
    assert!(
        cell.initial_rates.is_empty(),
        "only scheduled rate events are replicated"
    );
    let (devs, nodes) = (topo.devices_per_cell(), topo.nodes_per_cell());
    let rate_events = (0..topo.n_vws())
        .flat_map(|e| {
            cell.rate_events.iter().map(move |ev| RateEvent {
                target: match ev.target {
                    RateTarget::Gpu(d) => RateTarget::Gpu(e * devs + d),
                    RateTarget::Nic(j) => RateTarget::Nic(e * nodes + j),
                },
                ..*ev
            })
        })
        .collect();
    SegmentOpts {
        rate_events,
        ..cell.clone()
    }
}

#[test]
fn single_thread_fleet_is_bit_identical_to_the_legacy_executor() {
    let graph = resnet50(32);
    let shards = ShardMap::build_vw_local(&graph);
    // D = 0 is the tightest coupling: every pull blocks on every VW's
    // push of the target wave — the hardest case for the bus.
    let wsp = WspParams::new(NM, 0);
    let horizon = SimTime::from_secs(3.0);
    for schedule in Schedule::ALL {
        for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
            let case = Case {
                schedule,
                recompute,
                wsp,
            };
            let topo = topology(&graph, schedule, 2, 2);
            let none = SegmentOpts::default();
            let report = fleet(&topo, &graph, &shards, case, &none, 1, horizon);
            let merged = merged_spans(&topo, &report);
            let (legacy_fp, stats) = legacy(&topo, &graph, &shards, case, none, horizon);
            assert!(!merged.is_empty(), "{schedule}: fleet recorded no spans");
            assert_eq!(
                trace_fingerprint(&merged),
                legacy_fp,
                "{schedule} (recompute {recompute}): fleet trace diverged from legacy"
            );
            for (p, v) in report.partials.iter().zip(&stats.vws) {
                assert_eq!(
                    p.completions,
                    v.completions.len() as u64,
                    "{schedule}: vw {} completions",
                    p.vw
                );
                assert_eq!(
                    p.waves_pushed, v.waves_pushed,
                    "{schedule}: vw {} waves",
                    p.vw
                );
                assert_eq!(
                    p.pull_wait, v.pull_wait,
                    "{schedule}: vw {} pull wait",
                    p.vw
                );
                assert!(
                    p.completions > 0,
                    "{schedule}: vw {} made no progress",
                    p.vw
                );
            }
            assert_eq!(report.end, stats.end, "{schedule}: end instant");
        }
    }
}

#[test]
fn multi_thread_fleet_matches_single_thread() {
    let graph = resnet50(32);
    let shards = ShardMap::build_vw_local(&graph);
    let wsp = WspParams::new(NM, 1);
    let horizon = SimTime::from_secs(3.0);
    for schedule in [Schedule::HetPipeWave, Schedule::OneFOneB] {
        let case = Case {
            schedule,
            recompute: RecomputePolicy::None,
            wsp,
        };
        let topo = topology(&graph, schedule, 2, 4);
        let none = SegmentOpts::default();
        let one = fleet(&topo, &graph, &shards, case, &none, 1, horizon);
        let four = fleet(&topo, &graph, &shards, case, &none, 4, horizon);
        assert_eq!(one.partials, four.partials, "{schedule}: partials diverged");
        assert_eq!(
            trace_fingerprint(&merged_spans(&topo, &one)),
            trace_fingerprint(&merged_spans(&topo, &four)),
            "{schedule}: traces diverged across thread counts"
        );
        assert_eq!(four.threads, 4);
    }
}

#[test]
fn eight_thread_runs_are_deterministic() {
    let graph = resnet50(32);
    let shards = ShardMap::build_vw_local(&graph);
    let wsp = WspParams::new(NM, 0);
    let horizon = SimTime::from_secs(2.0);
    let schedule = Schedule::HetPipeWave;
    let case = Case {
        schedule,
        recompute: RecomputePolicy::None,
        wsp,
    };
    let topo = topology(&graph, schedule, 1, 8);
    let runs: Vec<FleetReport> = (0..2)
        .map(|_| {
            fleet(
                &topo,
                &graph,
                &shards,
                case,
                &SegmentOpts::default(),
                8,
                horizon,
            )
        })
        .collect();
    assert_eq!(runs[0].partials, runs[1].partials);
    assert_eq!(
        trace_fingerprint(&merged_spans(&topo, &runs[0])),
        trace_fingerprint(&merged_spans(&topo, &runs[1])),
    );
    assert_eq!(runs[0].events, runs[1].events);
    assert!(runs[0].partials.iter().all(|p| p.completions > 0));
}

#[test]
fn sixty_four_vw_fleet_matches_legacy_under_rate_edges() {
    let graph = resnet50(32);
    let shards = ShardMap::build_vw_local(&graph);
    let horizon = SimTime::from_secs(5.0);
    let edges = cell_edges();
    for (schedule, d) in [(Schedule::HetPipeWave, 0), (Schedule::OneFOneB, 1)] {
        let case = Case {
            schedule,
            recompute: RecomputePolicy::None,
            wsp: WspParams::new(NM, d),
        };
        let topo = topology(&graph, schedule, 2, 64);
        let one = fleet(&topo, &graph, &shards, case, &edges, 1, horizon);
        let (legacy_fp, stats) = legacy(
            &topo,
            &graph,
            &shards,
            case,
            replicate(&topo, &edges),
            horizon,
        );
        assert_eq!(
            trace_fingerprint(&merged_spans(&topo, &one)),
            legacy_fp,
            "{schedule}: fleet trace diverged from legacy"
        );
        assert_eq!(one.partials.len(), stats.vws.len());
        for (p, v) in one.partials.iter().zip(&stats.vws) {
            let last = v.completions.last().copied().unwrap_or(SimTime::ZERO);
            assert_eq!(
                (
                    p.completions,
                    p.last_completion,
                    p.waves_pushed,
                    p.pull_wait,
                    p.inject_blocked
                ),
                (
                    v.completions.len() as u64,
                    last,
                    v.waves_pushed,
                    v.pull_wait,
                    v.inject_blocked
                ),
                "{schedule}: vw {} stats diverged from legacy",
                p.vw
            );
            assert!(p.waves_pushed > 0, "{schedule}: vw {} pushed no wave", p.vw);
        }
        assert_eq!(one.end, stats.end, "{schedule}: end instant");

        let two = fleet(&topo, &graph, &shards, case, &edges, 2, horizon);
        assert_eq!(one.partials, two.partials, "{schedule}: 2 threads diverged");
        // `Ready` and announces are thread-invariant; the other
        // counters depend on how engine steps interleave.
        assert_eq!(one.bus.ready, two.bus.ready, "{schedule}: ready verdicts");
        assert_eq!(one.bus.announces, two.bus.announces);
        assert!(
            one.bus.ready > 0 && one.bus.wait > 0,
            "{schedule}: Ready and Wait must both fire: {:?}",
            one.bus
        );
    }
}
