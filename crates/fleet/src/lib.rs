//! Fleets of identical virtual workers on node-disjoint cells.
//!
//! A fleet replicates one blueprint cell cluster, each copy hosting one
//! virtual worker ([`FleetTopology`]). Cells share no GPU, NIC or
//! shard, so the parameter server's WSP gate is the only thing that
//! couples their VWs. [`run_fleet`] expands the fleet to one flat
//! cluster and runs it once through the in-process executor
//! (`hetpipe_core::exec`), which models that gate as `min_clock` over
//! every VW's push clock. The run keeps no span, so it fast-forwards
//! through the fleet's steady state, and its stats fold into one
//! [`VwPartial`] per VW.

pub mod topo;

pub use topo::FleetTopology;

use hetpipe_cluster::Cluster;
use hetpipe_core::exec::{self, ExecParams, RateEvent, RateTarget, SegmentOpts};
use hetpipe_core::pserver::ShardMap;
use hetpipe_core::{VirtualWorker, WspParams};
use hetpipe_des::{Discard, SimTime};
use hetpipe_model::ModelGraph;
use hetpipe_schedule::{RecomputePolicy, Schedule};

/// A fleet run: one cell-local virtual worker per copy of the cell.
pub struct FleetConfig<'a> {
    /// The *cell* cluster, copied once per VW.
    pub cluster: &'a Cluster,
    /// The model being trained.
    pub graph: &'a ModelGraph,
    /// One cell-local VW per cell (device ids index the cell).
    pub vws: &'a [VirtualWorker],
    /// WSP parameters (`Nm`, `D`).
    pub wsp: WspParams,
    /// Shard placement — must be VW-local so parameter traffic stays
    /// on each cell's own nodes.
    pub shards: &'a ShardMap,
    /// Whether push/pull transfers cost time.
    pub sync_transfers: bool,
    /// The pipeline schedule every VW runs.
    pub schedule: Schedule,
    /// Activation recomputation policy.
    pub recompute: RecomputePolicy,
    /// Segment options of one cell: its rate targets are cell-local
    /// and apply to every cell alike.
    pub opts: SegmentOpts,
    /// Ignored: the fleet runs on the calling thread.
    pub threads: usize,
    /// Must be false: a fleet run keeps no span, and [`run_fleet`]
    /// asserts it.
    pub keep_traces: bool,
}

/// One virtual worker's share of a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VwPartial {
    /// Global VW index (= cell index).
    pub vw: usize,
    /// Minibatches completed.
    pub completions: u64,
    /// Waves pushed (final local WSP clock).
    pub waves_pushed: u64,
    /// Total pull wait (straggler time).
    pub pull_wait: SimTime,
    /// Injection-gate blocked time.
    pub inject_blocked: SimTime,
    /// Busy time per cell GPU (device order).
    pub gpu_busy: Vec<SimTime>,
    /// Busy time per cell NIC (node order).
    pub nic_busy: Vec<SimTime>,
}

/// The result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-VW partials, by VW index.
    pub partials: Vec<VwPartial>,
    /// Instant of the run's last event.
    pub end: SimTime,
    /// DES events of the run, skipped periods included.
    pub events: u64,
}

/// Runs the fleet to `horizon`: every cell's copy of `cfg.vws`, with
/// `cfg.opts`'s rate targets repeated on each cell, in one in-process
/// run of the expanded cluster.
pub fn run_fleet(cfg: &FleetConfig<'_>, horizon: SimTime) -> FleetReport {
    assert!(!cfg.keep_traces, "a fleet run keeps no span trace");
    let (cluster, vws) = topo::expand(cfg.cluster, cfg.vws);
    let (devs, nodes) = (cfg.cluster.device_count(), cfg.cluster.node_count());
    let params = ExecParams {
        cluster: &cluster,
        graph: cfg.graph,
        vws: &vws,
        wsp: cfg.wsp,
        shards: cfg.shards,
        sync_transfers: cfg.sync_transfers,
        schedule: cfg.schedule,
        recompute: cfg.recompute,
    };
    let opts = replicate(&cfg.opts, vws.len(), devs, nodes);
    let (stats, ..) = exec::run_into(params, opts, horizon, Discard, None);
    let busy = |ids: &[hetpipe_des::ResourceId]| -> Vec<SimTime> {
        ids.iter().map(|&r| stats.pool.get(r).busy_time()).collect()
    };
    let partials = stats
        .vws
        .iter()
        .enumerate()
        .map(|(e, s)| VwPartial {
            vw: e,
            completions: s.completions.len() as u64,
            waves_pushed: s.waves_pushed,
            pull_wait: s.pull_wait,
            inject_blocked: s.inject_blocked,
            gpu_busy: busy(&stats.gpu_resources[e * devs..(e + 1) * devs]),
            nic_busy: busy(&stats.nic_resources[e * nodes..(e + 1) * nodes]),
        })
        .collect();
    FleetReport {
        partials,
        end: stats.end,
        events: stats.events,
    }
}

/// `cell`'s rate targets repeated on each of `n` cells: cell `e`'s
/// GPU `d` is global GPU `e·devs + d`, its NIC `j` global NIC
/// `e·nodes + j`.
fn replicate(cell: &SegmentOpts, n: usize, devs: usize, nodes: usize) -> SegmentOpts {
    let global = |e: usize, target| match target {
        RateTarget::Gpu(d) => RateTarget::Gpu(e * devs + d),
        RateTarget::Nic(j) => RateTarget::Nic(e * nodes + j),
    };
    let mut opts = SegmentOpts {
        initial_rates: Vec::new(),
        rate_events: Vec::new(),
        ..cell.clone()
    };
    for e in 0..n {
        let rates = cell.initial_rates.iter().map(|&(t, r)| (global(e, t), r));
        opts.initial_rates.extend(rates);
        opts.rate_events
            .extend(cell.rate_events.iter().map(|ev| RateEvent {
                target: global(e, ev.target),
                ..*ev
            }));
    }
    opts
}
