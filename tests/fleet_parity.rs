//! Fleet ↔ executor parity: `run_fleet` must equal the kept-trace
//! executor (`exec::run_into` with a `Trace` sink) on the fleet's
//! expanded topology, VW by VW and bit for bit.
//!
//! `run_fleet` expands the fleet to one flat cluster, repeats the
//! cell's rate targets on every cell, runs it keeping no span (so it
//! fast-forwards) and folds the stats per VW. The oracle runs the
//! expansion ([`FleetTopology::expanded`]) with every span kept and
//! the rate targets replicated by hand ([`replicate`]). Compared per
//! VW: completions, waves, pull wait, injection-blocked time, GPU and
//! NIC busy time; and the run's end instant and event count.
//!
//! 1. 16 VWs, every schedule × recompute policy, `D = 0` (every pull
//!    waits on every VW's push of the target wave);
//! 2. 64 VWs on cells of 2 nodes × 2 GPUs (so GPU and NIC ids map
//!    differently), wave `D = 0` and 1F1B `D = 1`, under a GPU
//!    slowdown edge and a NIC rate edge on every cell.
//!
//! A dynamically audited invariant: evidence for these configs, not a
//! proof.

use hetpipe::cluster::{Cluster, DeviceId, GpuKind, Node};
use hetpipe::core::exec::{run_into, ExecParams, RateEvent, RateTarget, RunStats, SegmentOpts};
use hetpipe::core::pserver::ShardMap;
use hetpipe::core::{VirtualWorker, WspParams};
use hetpipe::des::{SimTime, Trace};
use hetpipe::fleet::{run_fleet, FleetConfig, FleetTopology, VwPartial};
use hetpipe::model::{resnet50, ModelGraph};
use hetpipe::partition::{PartitionProblem, PartitionSolver};
use hetpipe::schedule::{PipelineSchedule, RecomputePolicy, Schedule};

const NM: usize = 4;

/// A cell of `nodes` nodes with `gpus` GPUs each (inter-node pipeline
/// links, so activation/gradient transfers occupy NICs) replicated
/// `n_vws` times. The cell VW's stage devices follow the schedule's virtual
/// stage expansion, exactly as the system builder lays them out.
fn topology(
    graph: &ModelGraph,
    schedule: Schedule,
    (nodes, per_node): (usize, usize),
    n_vws: usize,
) -> FleetTopology {
    let mut cell = Cluster::new();
    for _ in 0..nodes {
        cell.add_node(Node::new(GpuKind::Rtx2060, per_node));
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

/// One parity case: the schedule shape both runs use.
#[derive(Clone, Copy)]
struct Case {
    schedule: Schedule,
    recompute: RecomputePolicy,
    wsp: WspParams,
}

/// Runs the fleet and the kept-trace oracle on `topo` and requires
/// equal per-VW results.
fn check(topo: &FleetTopology, case: Case, cell_opts: &SegmentOpts, horizon: SimTime) {
    let label = format!(
        "{} (recompute {}, D = {})",
        case.schedule, case.recompute, case.wsp.d
    );
    let graph = resnet50(32);
    let shards = ShardMap::build_vw_local(&graph);
    let cell_vws = topo.cell_vws();
    let report = run_fleet(
        &FleetConfig {
            cluster: topo.cell(),
            graph: &graph,
            vws: &cell_vws,
            wsp: case.wsp,
            shards: &shards,
            sync_transfers: true,
            schedule: case.schedule,
            recompute: case.recompute,
            opts: cell_opts.clone(),
            threads: 1,
            keep_traces: false,
        },
        horizon,
    );
    let (cluster, vws) = topo.expanded();
    let (stats, trace, _) = run_into(
        ExecParams {
            cluster: &cluster,
            graph: &graph,
            vws: &vws,
            wsp: case.wsp,
            shards: &shards,
            sync_transfers: true,
            schedule: case.schedule,
            recompute: case.recompute,
        },
        replicate(topo, cell_opts),
        horizon,
        Trace::new(),
        None,
    );
    assert!(trace.len() > 100, "{label}: trivial trace");
    assert_eq!(report.partials.len(), topo.n_vws(), "{label}");
    for (p, want) in report.partials.iter().zip(expected(topo, &stats)) {
        assert_eq!(*p, want, "{label}: vw {} diverged from the executor", p.vw);
        assert!(p.waves_pushed > 0, "{label}: vw {} pushed no wave", p.vw);
    }
    assert_eq!(report.end, stats.end, "{label}: end instant");
    assert_eq!(report.events, stats.events, "{label}: events");
}

/// The per-VW partials `run_fleet` must report, read off the oracle's
/// stats: cell `e`'s GPUs and NICs are the expansion's `e`-th blocks.
fn expected(topo: &FleetTopology, stats: &RunStats) -> Vec<VwPartial> {
    let (devs, nodes) = (topo.devices_per_cell(), topo.nodes_per_cell());
    let busy = |ids: &[hetpipe::des::ResourceId]| -> Vec<SimTime> {
        ids.iter().map(|&r| stats.pool.get(r).busy_time()).collect()
    };
    stats
        .vws
        .iter()
        .enumerate()
        .map(|(e, v)| VwPartial {
            vw: e,
            completions: v.completions.len() as u64,
            waves_pushed: v.waves_pushed,
            pull_wait: v.pull_wait,
            inject_blocked: v.inject_blocked,
            gpu_busy: busy(&stats.gpu_resources[e * devs..(e + 1) * devs]),
            nic_busy: busy(&stats.nic_resources[e * nodes..(e + 1) * nodes]),
        })
        .collect()
}

/// Cell-local rate edges: cell GPU 0 runs at half speed from 1 s to
/// 3 s, and cell NIC 1 speeds up ×1.5 at 2 s.
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
fn sixteen_vw_fleet_matches_the_executor() {
    let graph = resnet50(32);
    for schedule in Schedule::ALL {
        for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
            let case = Case {
                schedule,
                recompute,
                wsp: WspParams::new(NM, 0),
            };
            let topo = topology(&graph, schedule, (2, 1), 16);
            check(
                &topo,
                case,
                &SegmentOpts::default(),
                SimTime::from_secs(30.0),
            );
        }
    }
}

#[test]
fn sixty_four_vw_fleet_matches_the_executor_under_rate_edges() {
    let graph = resnet50(32);
    for (schedule, d) in [(Schedule::HetPipeWave, 0), (Schedule::OneFOneB, 1)] {
        let case = Case {
            schedule,
            recompute: RecomputePolicy::None,
            wsp: WspParams::new(NM, d),
        };
        let topo = topology(&graph, schedule, (2, 2), 64);
        check(&topo, case, &cell_edges(), SimTime::from_secs(20.0));
    }
}
