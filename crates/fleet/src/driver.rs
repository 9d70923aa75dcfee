//! The fleet driver: scoped worker threads stepping per-VW engines.
//!
//! [`run_fleet`] builds one [`VwEngine`] per virtual worker, shares a
//! single [`FleetBus`] between them, and steps the engines on a
//! scoped thread pool (thread `t` owns engines `t, t+T, …`). Engines
//! run in bursts until they block on the bus or finish; a thread with
//! no runnable engine sleeps on the bus generation counter. The
//! moment an engine finishes, its stats fold into a compact
//! [`VwPartial`] and the engine (queue, pool) is dropped. Unless the
//! caller asked to keep traces, engines send their spans to
//! [`Discard`] and keep none, so fleet memory is O(VWs).
//!
//! Determinism: the bus serves every poll with a verdict that is a
//! pure function of announced simulation data, never of wall-clock
//! interleaving, so any thread count — including 1 — produces the
//! same per-VW event streams, traces, and stats.

use crate::bus::{BusCounters, FleetBus};
use hetpipe_cluster::network::LinkKind;
use hetpipe_cluster::Cluster;
use hetpipe_core::exec::{
    ExecParams, RateTarget, RunStats, SegmentOpts, SpanTag, StepOutcome, VwEngine,
};
use hetpipe_core::pserver::ShardMap;
use hetpipe_core::{VirtualWorker, WspParams};
use hetpipe_des::{Discard, SimTime, SpanSink, Trace};
use hetpipe_model::ModelGraph;
use hetpipe_schedule::{RecomputePolicy, Schedule};
use std::time::Duration;

/// A fleet run: `vws` identical cell-local virtual workers, one
/// engine each, synchronized through a WSP gate bus.
pub struct FleetConfig<'a> {
    /// The *cell* cluster every engine privately instantiates.
    pub cluster: &'a Cluster,
    /// The model being trained.
    pub graph: &'a ModelGraph,
    /// One cell-local VW per engine (device ids index the cell).
    pub vws: &'a [VirtualWorker],
    /// WSP parameters (`Nm`, `D`).
    pub wsp: WspParams,
    /// Shard placement — must be VW-local so parameter traffic stays
    /// on each cell's own nodes.
    pub shards: &'a ShardMap,
    /// Whether push/pull transfers cost time (see the zero-delay
    /// restriction on [`run_fleet`]).
    pub sync_transfers: bool,
    /// The pipeline schedule every VW runs.
    pub schedule: Schedule,
    /// Activation recomputation policy.
    pub recompute: RecomputePolicy,
    /// Segment options applied identically to every engine.
    pub opts: SegmentOpts,
    /// Worker threads (clamped to `[1, vws]`).
    pub threads: usize,
    /// Keep each engine's span trace in the report (parity tooling);
    /// when false engines record no spans at all.
    pub keep_traces: bool,
}

/// One finished engine, folded to O(1)-ish summary form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VwPartial {
    /// Global VW index (= engine index = cell index).
    pub vw: usize,
    /// Minibatches completed.
    pub completions: u64,
    /// Completion instant of the last finished minibatch.
    pub last_completion: SimTime,
    /// Waves pushed (final local WSP clock).
    pub waves_pushed: u64,
    /// Total pull wait (straggler time).
    pub pull_wait: SimTime,
    /// Injection-gate blocked time.
    pub inject_blocked: SimTime,
    /// DES events the engine processed.
    pub events: u64,
    /// Instant of the engine's last event.
    pub end: SimTime,
    /// Busy time per cell GPU (device order).
    pub gpu_busy: Vec<SimTime>,
    /// Busy time per cell NIC (node order).
    pub nic_busy: Vec<SimTime>,
}

impl VwPartial {
    fn fold(vw: usize, stats: &RunStats) -> VwPartial {
        let s = &stats.vws[0];
        VwPartial {
            vw,
            completions: s.completions.len() as u64,
            last_completion: s.completions.last().copied().unwrap_or(SimTime::ZERO),
            waves_pushed: s.waves_pushed,
            pull_wait: s.pull_wait,
            inject_blocked: s.inject_blocked,
            events: stats.events,
            end: stats.end,
            gpu_busy: stats
                .gpu_resources
                .iter()
                .map(|&r| stats.pool.get(r).busy_time())
                .collect(),
            nic_busy: stats
                .nic_resources
                .iter()
                .map(|&r| stats.pool.get(r).busy_time())
                .collect(),
        }
    }
}

/// The merged result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-VW partials, sorted by VW index.
    pub partials: Vec<VwPartial>,
    /// Per-engine span traces (cell-local resource ids, `vw` tag 0),
    /// sorted by engine index. Empty unless `keep_traces` was set.
    pub traces: Vec<(usize, Trace<SpanTag>)>,
    /// Latest engine end instant.
    pub end: SimTime,
    /// Total DES events processed across all engines.
    pub events: u64,
    /// Worker threads actually used.
    pub threads: usize,
    /// The gate bus's verdict and announce counts (see
    /// [`BusCounters`] for which are thread-invariant).
    pub bus: BusCounters,
}

/// What one worker thread returns: folded partials plus the kept
/// traces of the engines it drove.
type LaneResult = (Vec<VwPartial>, Vec<(usize, Trace<SpanTag>)>);

/// How many engines a thread steps before re-checking its siblings.
const STEP_BURST: usize = 256;

/// Safety-net poll interval: action frontier stores don't bump the
/// bus generation, so a quiescent-rule verdict that becomes decidable
/// purely by a frontier advance is picked up on this cadence.
const WAIT_SLICE: Duration = Duration::from_millis(2);

/// Runs the fleet to `horizon` and merges the per-engine results.
///
/// The conservative protocol is sound only when every wave push takes
/// positive time (a landing strictly after its announce instant keeps
/// decided serves final); with more than one VW this requires
/// `sync_transfers` and a non-empty chunk set for every VW, which
/// this function asserts. A single-VW fleet has no cross-engine
/// coupling and is exempt.
pub fn run_fleet(cfg: &FleetConfig<'_>, horizon: SimTime) -> FleetReport {
    let n = cfg.vws.len();
    assert!(n > 0, "fleet needs at least one VW");
    if n > 1 {
        assert!(
            cfg.sync_transfers,
            "multi-VW fleets need timed sync transfers (zero-delay \
             pushes would let a landing tie its announce instant)"
        );
        for vw in cfg.vws {
            assert!(
                !cfg.shards.chunks_for(cfg.graph, cfg.cluster, vw).is_empty(),
                "multi-VW fleets need a non-empty push chunk set per VW"
            );
        }
    }
    let threads = cfg.threads.clamp(1, n);
    let bus = {
        let mut bus = FleetBus::new(n);
        bus.set_min_steps(cfg.vws.iter().map(|vw| min_push_step(cfg, vw)).collect());
        bus
    };

    let mut lanes: Vec<LaneResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let bus = &bus;
                scope.spawn(move || {
                    if cfg.keep_traces {
                        drive_lane::<Trace<SpanTag>>(cfg, horizon, bus, t, threads)
                    } else {
                        drive_lane::<Discard>(cfg, horizon, bus, t, threads)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });

    let mut partials = Vec::with_capacity(n);
    let mut traces = Vec::new();
    for (p, tr) in lanes.drain(..) {
        partials.extend(p);
        traces.extend(tr);
    }
    partials.sort_by_key(|p| p.vw);
    traces.sort_by_key(|(e, _)| *e);
    FleetReport {
        end: partials
            .iter()
            .map(|p| p.end)
            .max()
            .unwrap_or(SimTime::ZERO),
        events: partials.iter().map(|p| p.events).sum(),
        partials,
        traces,
        threads,
        bus: bus.counters(),
    }
}

/// A certified lower bound on the duration of any of `vw`'s wave
/// pushes (announce → landing), the bus's conservative lookahead. A
/// push lands at the latest chunk arrival, and each chunk arrival is
/// at least its transfer duration past the push start: intra-node
/// chunks take exactly the PCIe time (dedicated lanes carry no
/// timeline resource, so rate events never touch them), inter-node
/// chunks at least the InfiniBand time shrunk by the fastest NIC rate
/// the segment can reach (minus 1 ns against rounding-mode mismatch
/// with the resource timeline integration). Zero — e.g. with sync
/// transfers off — degrades the bus to its exact zero-lookahead
/// behavior.
fn min_push_step(cfg: &FleetConfig<'_>, vw: &VirtualWorker) -> SimTime {
    if !cfg.sync_transfers {
        return SimTime::ZERO;
    }
    let mut max_nic_rate = 1.0f64;
    for &(target, rate) in &cfg.opts.initial_rates {
        if matches!(target, RateTarget::Nic(_)) {
            max_nic_rate = max_nic_rate.max(rate);
        }
    }
    for ev in &cfg.opts.rate_events {
        if matches!(ev.target, RateTarget::Nic(_)) {
            max_nic_rate = max_nic_rate.max(ev.rate);
        }
    }
    let mut step = SimTime::ZERO;
    for ch in cfg.shards.chunks_for(cfg.graph, cfg.cluster, vw) {
        let dur = if ch.crosses_nodes() {
            let nominal = SimTime::from_secs(LinkKind::Infiniband.transfer_secs(ch.bytes));
            SimTime::from_nanos((nominal.as_nanos() as f64 / max_nic_rate) as u64)
                .saturating_sub(SimTime::from_nanos(1))
        } else {
            SimTime::from_secs(LinkKind::Pcie.transfer_secs(ch.bytes))
        };
        step = step.max(dur);
    }
    step
}

/// One worker thread's loop: step owned engines, whose spans go to
/// sinks of type `S`, until all finish.
fn drive_lane<'a, S: SpanSink<SpanTag>>(
    cfg: &'a FleetConfig<'a>,
    horizon: SimTime,
    bus: &'a FleetBus,
    lane: usize,
    stride: usize,
) -> LaneResult {
    let mut engines: Vec<(usize, VwEngine<'a, S>)> = (lane..cfg.vws.len())
        .step_by(stride)
        .map(|e| {
            let params = ExecParams {
                cluster: cfg.cluster,
                graph: cfg.graph,
                vws: std::slice::from_ref(&cfg.vws[e]),
                wsp: cfg.wsp,
                shards: cfg.shards,
                sync_transfers: cfg.sync_transfers,
                schedule: cfg.schedule,
                recompute: cfg.recompute,
            };
            (e, VwEngine::new(params, cfg.opts.clone(), horizon, bus, e))
        })
        .collect();
    let mut partials = Vec::with_capacity(engines.len());
    let mut traces = Vec::new();

    while !engines.is_empty() {
        let seen = bus.generation();
        let mut progressed = false;
        let mut i = 0;
        while i < engines.len() {
            let eng = &mut engines[i].1;
            for _ in 0..STEP_BURST {
                match eng.step() {
                    StepOutcome::Progressed => progressed = true,
                    StepOutcome::Blocked | StepOutcome::Done => break,
                }
            }
            if eng.is_done() {
                let (e, eng) = engines.swap_remove(i);
                let stats = eng.into_stats();
                partials.push(VwPartial::fold(e, &stats));
                if cfg.keep_traces {
                    traces.push((e, stats.trace));
                }
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed && !engines.is_empty() {
            // Nothing runnable: sleep until the bus state changes.
            // The timeout is the safety net for frontier-only
            // progress (frontier stores are lock-free and don't
            // notify).
            bus.wait_change(seen, WAIT_SLICE);
        }
    }
    (partials, traces)
}
