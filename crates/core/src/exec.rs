//! The schedule-generic discrete-event pipeline executor.
//!
//! Simulates `N` virtual workers, each running a pluggable
//! [`Schedule`] over its stage GPUs, synchronized through sharded
//! parameter servers under WSP:
//!
//! - **Scheduling conditions (Section 4)**: forward tasks execute in
//!   minibatch order, backward tasks execute in minibatch order, and
//!   tasks are served FIFO per GPU. How forwards and backwards
//!   interleave on a GPU is the schedule's decision, under one of two
//!   disciplines that share one event handler and one GPU-reservation
//!   primitive, and differ only in *when* an op is reserved:
//!   - **arrival-FIFO**: the paper's wave schedule
//!     ([`Schedule::HetPipeWave`]) reserves each task the moment its
//!     input arrives, so a GPU serves ready tasks in dependency-arrival
//!     order; the last stage is fused;
//!   - **lanes**: every other schedule executes its [`Lane`]s — ordered
//!     op queues, each bound to one GPU — in strict order. Fill-drain,
//!     1F1B and depth-expanded interleaved get one lane per virtual
//!     stage; composite interleaved gets one lane per physical GPU, so
//!     the *schedule* — not arrival order — decides how co-located
//!     chunks share the GPU timeline, exactly as Megatron-LM orders
//!     its interleaved chunk groups.
//! - **Wave pushes (Section 5)**: when the last minibatch of wave `c`
//!   completes, the VW pushes one *aggregated* update (its full
//!   parameter footprint, once — not per minibatch) to the shards. On
//!   lanes this is the explicit [`ScheduleOp::Push`] op; the wave
//!   schedule triggers it on completion count.
//! - **D-bounded pulls**: after pushing wave `c`, the VW requests global
//!   weights covering wave `c − D` and waits (while continuing to run
//!   already-admissible minibatches) until every VW has pushed that
//!   wave. The injection gate is [`WspParams::required_wave`] for the
//!   wave schedule and the explicit [`ScheduleOp::PullGate`] op on
//!   lanes. Consecutive waves' push transfers run
//!   concurrently (per-wave chunk counters), contending on the NIC
//!   timelines rather than being serialized behind one another.
//! - **Bounded activation windows**: each stage's declared peak
//!   activation occupancy ([`PipelineSchedule::max_in_flight`] — the
//!   same number the memory model charges and the partitioner
//!   certifies against) holds without a dispatch-time gate. Lanes
//!   respect it structurally; on arrival-FIFO the `Nm` injection cap
//!   bounds every stage, so each non-fused stage must declare at least
//!   `Nm` (checked at construction). Both disciplines keep
//!   completion-based occupancy books that are asserted against the
//!   declaration, and `crate::audit` measures the realized peaks from
//!   the span trace as the first-class measured ≤ declared invariant.
//! - **Activation recomputation**: under
//!   [`RecomputePolicy::BoundaryOnly`], every non-fused backward is
//!   preceded by a stage-local forward re-run (an explicit
//!   [`SpanTag::Recompute`] task) that rematerializes activations from
//!   the stashed boundary input, matching the memory model's smaller
//!   per-minibatch stash.
//!
//! Hardware modelling: GPUs and per-node NICs are FIFO timeline
//! resources; an inter-node transfer occupies both endpoint NICs for its
//! duration (InfiniBand), while intra-node transfers use dedicated PCIe
//! lanes (latency + bandwidth, no contention). Parameter-server apply
//! time is not modelled (the paper does not model it either).
//!
//! `tests/trace_pins.rs` pins digests of whole runs of every schedule,
//! including draining and reordering segments.

use crate::pserver::{ShardMap, SyncChunk};
use crate::sync::{GateBus, ServePoll, WspParams};
use crate::vw::VirtualWorker;
use hetpipe_cluster::network::LinkKind;
use hetpipe_cluster::{Cluster, NodeId};
use hetpipe_des::{Engine, Resource, ResourceId, ResourcePool, SimTime, Trace};
use hetpipe_model::profile::{pass_time_secs, Pass, STAGE_TASK_OVERHEAD_SECS};
use hetpipe_model::ModelGraph;
use hetpipe_schedule::{
    lanes, Dispatch, GpuOp, Lane, PipelineSchedule, RecomputePolicy, Schedule, ScheduleOp,
};
use std::collections::{BTreeMap, VecDeque};

/// What a recorded span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanTag {
    /// A forward pass of `mb` on `(vw, stage)`.
    Forward { vw: u32, stage: u32, mb: u64 },
    /// A backward pass (or the fused forward+backward at the last
    /// stage).
    Backward { vw: u32, stage: u32, mb: u64 },
    /// A stage-local re-run of `mb`'s forward to rematerialize its
    /// activations directly before the backward
    /// ([`RecomputePolicy::BoundaryOnly`]).
    Recompute { vw: u32, stage: u32, mb: u64 },
    /// An activation (forward) or gradient (backward) transfer on a NIC.
    ActTransfer { vw: u32, stage: u32, backward: bool },
    /// A parameter push/pull chunk on a NIC.
    SyncTransfer { vw: u32, wave: u64, pull: bool },
}

impl SpanTag {
    /// A short label for trace exports (e.g. Chrome traces).
    pub fn label(&self) -> String {
        match self {
            SpanTag::Forward { vw, mb, .. } => format!("fwd vw{vw} mb{mb}"),
            SpanTag::Backward { vw, mb, .. } => format!("bwd vw{vw} mb{mb}"),
            SpanTag::Recompute { vw, mb, .. } => format!("recompute vw{vw} mb{mb}"),
            SpanTag::ActTransfer { vw, backward, .. } => {
                format!(
                    "{} vw{vw}",
                    if *backward { "grad xfer" } else { "act xfer" }
                )
            }
            SpanTag::SyncTransfer { vw, wave, pull } => {
                format!("{} vw{vw} w{wave}", if *pull { "pull" } else { "push" })
            }
        }
    }

    /// A category name for trace exports.
    pub fn category(&self) -> &'static str {
        match self {
            SpanTag::Forward { .. } => "forward",
            SpanTag::Backward { .. } => "backward",
            SpanTag::Recompute { .. } => "recompute",
            SpanTag::ActTransfer { .. } => "activation",
            SpanTag::SyncTransfer { .. } => "sync",
        }
    }
}

/// Executor inputs.
#[derive(Debug, Clone)]
pub struct ExecParams<'a> {
    /// The cluster the VWs live on.
    pub cluster: &'a Cluster,
    /// The model being trained.
    pub graph: &'a ModelGraph,
    /// The virtual workers (plans and stage devices resolved; for
    /// interleaved schedules these are *virtual* stages and `devices`
    /// repeats physical GPUs round-robin).
    pub vws: &'a [VirtualWorker],
    /// WSP parameters (`Nm`, `D`).
    pub wsp: WspParams,
    /// Parameter-server shard placement.
    pub shards: &'a ShardMap,
    /// When false, the WSP clock protocol still runs but push/pull
    /// *transfers* cost nothing — models a standalone virtual worker
    /// measured without data parallelism, as in the paper's Figure 3.
    pub sync_transfers: bool,
    /// The pipeline schedule every VW runs.
    pub schedule: Schedule,
    /// Activation recomputation: with
    /// [`RecomputePolicy::BoundaryOnly`] every non-fused backward is
    /// preceded by a stage-local forward re-run on the same GPU.
    pub recompute: RecomputePolicy,
}

/// Which timeline resource a fault (rate change) targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateTarget {
    /// A GPU, by cluster device index.
    Gpu(usize),
    /// A node's NIC, by node index.
    Nic(usize),
}

/// A scheduled service-rate change: at `at` (segment-local simulated
/// time) the target resource's rate becomes `rate` (1.0 = nominal,
/// `1/k` = a ×k slowdown, ≤ 0 = lost). Fired as a first-class DES
/// event; reservations made after it fires are scaled by the new rate
/// (work already on the timeline keeps its granted duration).
#[derive(Debug, Clone, Copy)]
pub struct RateEvent {
    /// Segment-local fire time.
    pub at: SimTime,
    /// The resource whose rate changes.
    pub target: RateTarget,
    /// The new service-rate multiplier.
    pub rate: f64,
}

/// Options for one executor *segment* — the unit the fault-aware
/// runtime (`hetpipe-runtime`) splices: a bounded run that may start
/// under pre-existing fault rates, experience scheduled rate changes,
/// stop injecting work at a wave boundary (and drain), and optionally
/// relax strict lane order within a bounded window.
///
/// The default options reproduce [`run`] exactly: no faults, no stop,
/// strict order — the zero-fault invariance the tier-1 tests pin.
#[derive(Debug, Clone, Default)]
pub struct SegmentOpts {
    /// Stop *injecting* minibatches after this one (1-indexed,
    /// segment-local) and drain: ops of later minibatches are
    /// discarded unexecuted, so the segment ends — at the splice
    /// point — once every in-flight minibatch and the boundary wave's
    /// push/pull traffic completes. Must be a wave boundary
    /// (a multiple of `Nm`) so the WSP clock is whole at the splice;
    /// [`run_segment`] and [`VwEngine::new`] panic otherwise.
    pub stop_after_mb: Option<u64>,
    /// Rates already in effect when the segment starts (fault windows
    /// opened in an earlier segment).
    pub initial_rates: Vec<(RateTarget, f64)>,
    /// Rate changes that fire during the segment.
    pub rate_events: Vec<RateEvent>,
    /// `SkipStraggler` support: when > 0, a lane whose head op is
    /// blocked on a data dependency may execute a *ready backward*
    /// (with its recompute prefix) from up to this many ops ahead in
    /// the lane. Backwards only — they release activations, never
    /// acquire them — and never past a closed [`ScheduleOp::PullGate`]
    /// or an earlier op of the same stage, so the declared occupancy
    /// and staleness bounds hold unchanged. This applies to every lane;
    /// on a one-stage lane every op shares the head's stage, so it is a
    /// no-op there (as it is under arrival-FIFO dispatch). 0 (the
    /// default) is strict lane order.
    pub reorder_window: usize,
}

/// One virtual worker's synchronization statistics.
#[derive(Debug, Clone, Default)]
pub struct VwStats {
    /// Completion times of every finished minibatch.
    pub completions: Vec<SimTime>,
    /// Waves pushed (final local clock).
    pub waves_pushed: u64,
    /// Total time spent between requesting a pull and the straggler
    /// condition being satisfied (Section 8.4's "waiting time").
    pub pull_wait: SimTime,
    /// The individual waiting windows, for idle-time analysis.
    pub wait_windows: Vec<(SimTime, SimTime)>,
    /// Time the injection gate was closed by the staleness bound while
    /// a pipeline slot was free.
    pub inject_blocked: SimTime,
}

/// Raw results of a simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Simulated horizon actually reached.
    pub horizon: SimTime,
    /// Per-VW statistics.
    pub vws: Vec<VwStats>,
    /// Span trace (GPU and NIC occupancy).
    pub trace: Trace<SpanTag>,
    /// GPU resource IDs by device index.
    pub gpu_resources: Vec<ResourceId>,
    /// NIC resource IDs by node index.
    pub nic_resources: Vec<ResourceId>,
    /// Final resource pool (busy-time accounting).
    pub pool: ResourcePool,
    /// Cross-node bytes moved for parameter synchronization.
    pub sync_bytes_inter: u64,
    /// Intra-node bytes moved for parameter synchronization.
    pub sync_bytes_intra: u64,
    /// Cross-node bytes moved for activations/gradients.
    pub act_bytes_inter: u64,
    /// Intra-node bytes moved for activations/gradients.
    pub act_bytes_intra: u64,
    /// The *planned* (nominal, fault-free) per-VW per-stage forward
    /// compute times the run dispatched with — the denominator of the
    /// runtime monitor's observed/planned straggler ratio.
    pub planned_fwd: Vec<Vec<SimTime>>,
    /// Planned per-VW per-stage backward compute times.
    pub planned_bwd: Vec<Vec<SimTime>>,
    /// Instant of the last processed event — for a draining segment
    /// (`SegmentOpts::stop_after_mb`) this is the splice point where
    /// the boundary wave's last work finished.
    pub end: SimTime,
    /// DES events processed (the fleet bench's work unit).
    pub events: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    FwdArrive {
        vw: u32,
        stage: u32,
        mb: u64,
    },
    FwdDone {
        vw: u32,
        stage: u32,
        mb: u64,
    },
    BwdArrive {
        vw: u32,
        stage: u32,
        mb: u64,
    },
    BwdDone {
        vw: u32,
        stage: u32,
        mb: u64,
    },
    PushChunkDone {
        vw: u32,
        wave: u64,
    },
    PullChunkDone {
        vw: u32,
    },
    TryInject {
        vw: u32,
    },
    /// A scheduled service-rate change fires
    /// (`SegmentOpts::rate_events[idx]`).
    Fault {
        idx: u32,
    },
}

struct VwState {
    next_mb: u64,
    completed: u64,
    clock: u64,
    /// Newest global wave reflected in the local weights (−1 = none).
    pulled: i64,
    /// Outstanding pull request: (target wave, request time).
    pull_request: Option<(u64, SimTime)>,
    /// Remaining chunks of an in-flight pull and the version it carries.
    pull_remaining: usize,
    pull_serving_version: i64,
    /// Remaining transfer chunks of each in-flight wave push, keyed by
    /// wave. Pushes of consecutive waves proceed *concurrently* (their
    /// transfers contend on the NIC timelines like any other traffic);
    /// per-wave counters keep their completions independent, so a
    /// sync-bound regime is not serialized artificially.
    push_remaining: BTreeMap<u64, usize>,
    block_start: Option<SimTime>,
    stats: VwStats,
}

/// One lane's position (lane dispatch only). Stage `s` of a VW with
/// `n` lanes runs on lane `s % n`.
struct LaneCursor {
    lane: Lane,
    /// Ops pulled from the lane but not yet executed. `buf[0]` is the
    /// head (strict-order) op; under a non-zero
    /// [`SegmentOpts::reorder_window`] the executor may serve a ready
    /// backward from deeper in the buffer while the head is blocked.
    buf: VecDeque<GpuOp>,
}

/// One virtual stage's executor state: its occupancy books (both
/// disciplines) and its inputs (lane dispatch only).
struct StageState {
    /// The declared occupancy bound ([`PipelineSchedule::max_in_flight`]).
    window: u64,
    /// Minibatches holding an activation set here: forward completed,
    /// backward not yet completed — the span-trace definition
    /// `crate::audit` measures. A fused last stage holds nothing
    /// between tasks and is not booked.
    held: u64,
    /// Newest minibatch whose forward activations have arrived
    /// (arrivals are FIFO, so a high-water mark suffices).
    fwd_arrived: u64,
    /// Newest minibatch whose output gradients have arrived.
    bwd_arrived: u64,
    /// Drain mode only: the stage has reached its first backward past
    /// the stop point.
    drained: bool,
}

/// How the executor learns about *other* virtual workers' push
/// clocks — the only cross-VW coupling in the whole simulation.
#[derive(Clone, Copy)]
enum Coupling<'a> {
    /// All VWs live in this `Exec`: pulls are served by scanning
    /// `min_clock` over the in-process states (the legacy path,
    /// bit-identical to the seed executor).
    InProcess,
    /// This `Exec` simulates exactly one VW (`id` on the bus); push
    /// landings are announced to the [`GateBus`] and pull serves are
    /// decided by it (`hetpipe-fleet`).
    Bus { bus: &'a dyn GateBus, id: usize },
}

struct Exec<'a> {
    p: ExecParams<'a>,
    coupling: Coupling<'a>,
    engine: Engine<Ev>,
    pool: ResourcePool,
    trace: Trace<SpanTag>,
    gpu_res: Vec<ResourceId>,
    nic_res: Vec<ResourceId>,
    states: Vec<VwState>,
    /// Per-VW per-stage forward/backward compute times.
    fwd: Vec<Vec<SimTime>>,
    bwd: Vec<Vec<SimTime>>,
    /// Per-VW sync chunk lists (same for every wave; empty without
    /// sync transfers).
    chunks: Vec<Vec<SyncChunk>>,
    /// Per-VW lane cursors (lane dispatch only).
    lanes: Vec<Vec<LaneCursor>>,
    /// Per-VW per-stage books and inputs.
    stages: Vec<Vec<StageState>>,
    dispatch: Dispatch,
    opts: SegmentOpts,
    horizon: SimTime,
    sync_inter: u64,
    sync_intra: u64,
    act_inter: u64,
    act_intra: u64,
}

impl<'a> Exec<'a> {
    fn new(p: ExecParams<'a>, opts: SegmentOpts, horizon: SimTime, coupling: Coupling<'a>) -> Self {
        if let Some(stop) = opts.stop_after_mb {
            assert!(
                stop.is_multiple_of(p.wsp.nm as u64),
                "segments splice at wave boundaries (stop {} vs Nm {})",
                stop,
                p.wsp.nm
            );
        }
        let cluster = p.cluster;
        let mut pool = ResourcePool::new();
        let gpu_res: Vec<ResourceId> = cluster
            .devices()
            .map(|d| pool.add(Resource::new(format!("gpu{}", d.0))))
            .collect();
        let nic_res: Vec<ResourceId> = (0..cluster.node_count())
            .map(|n| pool.add(Resource::new(format!("nic{n}"))))
            .collect();

        let mut fwd = Vec::new();
        let mut bwd = Vec::new();
        let mut chunks = Vec::new();
        for vw in p.vws {
            let mut f = Vec::new();
            let mut b = Vec::new();
            for (q, range) in vw.plan.ranges.iter().enumerate() {
                let spec = cluster.spec_of(vw.devices[q]);
                let layers = &p.graph.layers()[range.clone()];
                let fs: f64 = layers
                    .iter()
                    .map(|l| pass_time_secs(l, &spec, Pass::Forward))
                    .sum();
                let bs: f64 = layers
                    .iter()
                    .map(|l| pass_time_secs(l, &spec, Pass::Backward))
                    .sum();
                // Each dispatched stage task pays the framework cost.
                f.push(SimTime::from_secs(fs + STAGE_TASK_OVERHEAD_SECS));
                b.push(SimTime::from_secs(bs + STAGE_TASK_OVERHEAD_SECS));
            }
            fwd.push(f);
            bwd.push(b);
            chunks.push(if p.sync_transfers {
                p.shards.chunks_for(p.graph, cluster, vw)
            } else {
                Vec::new()
            });
        }

        let states = (0..p.vws.len())
            .map(|_| VwState {
                next_mb: 1,
                completed: 0,
                clock: 0,
                pulled: -1,
                pull_request: None,
                pull_remaining: 0,
                pull_serving_version: -1,
                push_remaining: BTreeMap::new(),
                block_start: None,
                stats: VwStats::default(),
            })
            .collect();

        let dispatch = p.schedule.dispatch();
        let lanes = match dispatch {
            Dispatch::ArrivalFifo => Vec::new(),
            Dispatch::StreamOrder | Dispatch::GpuStreamOrder => p
                .vws
                .iter()
                .map(|vw| {
                    let k_gpus = vw.stages() / p.schedule.colocated_stages();
                    lanes(p.schedule, k_gpus, p.wsp, p.recompute)
                        .into_iter()
                        .map(|lane| LaneCursor {
                            lane,
                            buf: VecDeque::new(),
                        })
                        .collect()
                })
                .collect(),
        };
        // The occupancy books hold each stage to exactly what the
        // memory model charges (PipelineSchedule is the contract
        // between the partitioner's certification and the runtime).
        // Arrival-FIFO has no dispatch-time gate: the `Nm` injection
        // cap bounds its stages, so each non-fused one must declare at
        // least `Nm`.
        let nm = p.wsp.nm as u64;
        let stages = p
            .vws
            .iter()
            .map(|vw| {
                let k = vw.stages();
                (0..k)
                    .map(|stage| {
                        let window = p.schedule.max_in_flight(stage, k, p.wsp.nm) as u64;
                        let fused = p.schedule.fused_last_stage() && stage + 1 == k;
                        assert!(
                            dispatch != Dispatch::ArrivalFifo || fused || window >= nm,
                            "{}: arrival-FIFO stage {stage} declares a window of {window} \
                             below the Nm = {nm} injection cap",
                            p.schedule
                        );
                        StageState {
                            window,
                            held: 0,
                            fwd_arrived: 0,
                            bwd_arrived: 0,
                            drained: false,
                        }
                    })
                    .collect()
            })
            .collect();

        Exec {
            p,
            coupling,
            engine: Engine::new(),
            pool,
            trace: Trace::new(),
            gpu_res,
            nic_res,
            states,
            fwd,
            bwd,
            chunks,
            lanes,
            stages,
            dispatch,
            opts,
            horizon,
            sync_inter: 0,
            sync_intra: 0,
            act_inter: 0,
            act_intra: 0,
        }
    }

    fn gpu_of(&self, vw: usize, stage: usize) -> ResourceId {
        self.gpu_res[self.p.vws[vw].devices[stage].0]
    }

    fn node_of(&self, vw: usize, stage: usize) -> NodeId {
        self.p.cluster.node_of(self.p.vws[vw].devices[stage])
    }

    fn in_flight(&self, vw: usize) -> u64 {
        let s = &self.states[vw];
        s.next_mb - 1 - s.completed
    }

    fn min_clock(&self) -> u64 {
        self.states.iter().map(|s| s.clock).min().unwrap_or(0)
    }

    /// The pool resource a fault target maps to.
    fn fault_resource(&self, target: RateTarget) -> ResourceId {
        match target {
            RateTarget::Gpu(device) => self.gpu_res[device],
            RateTarget::Nic(node) => self.nic_res[node],
        }
    }

    /// Applies the rate change of `rate_events[idx]` to the resource's
    /// current-rate knob (the full timeline was installed up front, so
    /// reservations already integrate across this edge; the knob keeps
    /// `Resource::rate` — and the slower-endpoint choice in
    /// [`Exec::transfer`] — in step with the fired edges).
    fn apply_fault(&mut self, idx: usize) {
        let ev = self.opts.rate_events[idx];
        let res = self.fault_resource(ev.target);
        self.pool.get_mut(res).set_rate(ev.rate);
    }

    /// True when injection (or op execution) of `mb` is past the
    /// segment's stop point.
    fn past_stop(&self, mb: u64) -> bool {
        self.opts.stop_after_mb.is_some_and(|m| mb > m)
    }

    /// Moves `bytes` between two nodes, returning the arrival time.
    /// Inter-node transfers reserve both endpoint NICs; intra-node
    /// transfers use dedicated PCIe lanes.
    fn transfer(&mut self, from: NodeId, to: NodeId, bytes: u64, tag: SpanTag) -> SimTime {
        let now = self.engine.now();
        if from == to {
            // Dedicated PCIe lanes carry no timeline resource, so link
            // degradation targets NICs (inter-node traffic) only.
            now + SimTime::from_secs(LinkKind::Pcie.transfer_secs(bytes))
        } else {
            let dur = SimTime::from_secs(LinkKind::Infiniband.transfer_secs(bytes));
            let a = self.nic_res[from.0];
            let b = self.nic_res[to.0];
            // A degraded link runs at the slower endpoint's rate.
            let slower = if self.pool.get(a).rate() <= self.pool.get(b).rate() {
                a
            } else {
                b
            };
            let start = now
                .max(self.pool.get(a).free_at())
                .max(self.pool.get(b).free_at());
            let dur = self.pool.get(slower).duration_from(start, dur);
            let (s1, e1) = self.pool.get_mut(a).reserve(start, dur);
            let (s2, e2) = self.pool.get_mut(b).reserve(start, dur);
            debug_assert_eq!((s1, e1), (s2, e2), "paired NIC slots must align");
            self.trace.record(a, s1, e1, tag);
            self.trace.record(b, s2, e2, tag);
            e1
        }
    }

    fn account_act(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        if from == to {
            self.act_intra += bytes;
        } else {
            self.act_inter += bytes;
        }
    }

    fn account_sync(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        if from == to {
            self.sync_intra += bytes;
        } else {
            self.sync_inter += bytes;
        }
    }

    /// The one event handler. Both disciplines share every arm but
    /// three, which differ only in *when* an op is reserved:
    ///
    /// - `TryInject`: arrival-FIFO admits minibatches through
    ///   [`Exec::try_inject`]; lanes advance lane 0.
    /// - `FwdArrive` / `BwdArrive`: arrival-FIFO reserves the op the
    ///   moment its input arrives (the paper's condition 3: a GPU
    ///   serves ready tasks in arrival order, the wave schedule's last
    ///   stage fused); lanes record the arrival and advance the lane
    ///   that owns the stage.
    /// - stage-0 `BwdDone`: arrival-FIFO re-tries injection and pushes
    ///   on wave completion count; lanes advance lane 0, whose
    ///   explicit [`ScheduleOp::Push`] may be waiting on it.
    fn handle(&mut self, ev: Ev) {
        let fifo = self.dispatch == Dispatch::ArrivalFifo;
        match ev {
            Ev::TryInject { vw } if fifo => self.try_inject(vw as usize),
            Ev::TryInject { vw } => self.advance_lane(vw as usize, 0),
            Ev::FwdArrive { vw, stage, mb } if fifo => {
                let (vw, stage) = (vw as usize, stage as usize);
                let op = if self.fused_at(vw, stage) {
                    ScheduleOp::FusedFwdBwd { mb }
                } else {
                    ScheduleOp::Forward { mb }
                };
                self.reserve_compute(vw, stage, op);
            }
            Ev::BwdArrive { vw, stage, mb } if fifo => {
                let (vw, stage) = (vw as usize, stage as usize);
                let k = self.p.vws[vw].stages();
                if self
                    .p
                    .schedule
                    .recomputes_at(stage, k, self.p.wsp.nm, self.p.recompute)
                {
                    self.reserve_compute(vw, stage, ScheduleOp::Recompute { mb });
                }
                self.reserve_compute(vw, stage, ScheduleOp::Backward { mb });
            }
            Ev::FwdArrive { vw, stage, mb } | Ev::BwdArrive { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                let st = &mut self.stages[vw][stage];
                let arrived = if matches!(ev, Ev::FwdArrive { .. }) {
                    &mut st.fwd_arrived
                } else {
                    &mut st.bwd_arrived
                };
                debug_assert!(mb > *arrived, "activations and gradients arrive in order");
                *arrived = mb;
                self.advance_lane(vw, stage % self.lanes[vw].len());
            }
            Ev::FwdDone { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                // Neither discipline gates on the books: lanes keep
                // every stage within its declared window structurally
                // (the streams interleave forwards with the backwards
                // that release them), arrival-FIFO through the `Nm`
                // injection cap. The books check that invariant rather
                // than assume it.
                let st = &mut self.stages[vw][stage];
                st.held += 1;
                debug_assert!(
                    st.held <= st.window,
                    "execution exceeded the declared activation window \
                     ({} > {}) at vw{vw} stage {stage}",
                    st.held,
                    st.window
                );
                if stage + 1 < self.p.vws[vw].stages() {
                    self.send_activation_right(vw, stage, mb);
                }
            }
            Ev::BwdDone { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                if !self.fused_at(vw, stage) {
                    let st = &mut self.stages[vw][stage];
                    debug_assert!(st.held >= 1, "window release without a holder");
                    st.held -= 1;
                }
                if stage > 0 {
                    self.send_gradient_left(vw, stage, mb);
                    return;
                }
                // Minibatch complete.
                let now = self.engine.now();
                let st = &mut self.states[vw];
                st.completed += 1;
                st.stats.completions.push(now);
                let completed = st.completed;
                debug_assert_eq!(completed, mb, "backwards complete in minibatch order");
                if fifo {
                    self.engine
                        .schedule_in(SimTime::ZERO, Ev::TryInject { vw: vw as u32 });
                    let nm = self.p.wsp.nm as u64;
                    if completed.is_multiple_of(nm) {
                        self.start_push(vw, completed / nm - 1);
                    }
                } else {
                    self.advance_lane(vw, 0);
                }
            }
            Ev::PushChunkDone { vw, wave } => self.push_chunk_done(vw as usize, wave),
            Ev::PullChunkDone { vw } => self.pull_chunk_done(vw as usize),
            Ev::Fault { idx } => self.apply_fault(idx as usize),
        }
    }

    /// Whether `stage` is the schedule's fused last stage, which runs
    /// each minibatch's forward and backward as one task and so holds
    /// no activation set between tasks.
    fn fused_at(&self, vw: usize, stage: usize) -> bool {
        self.p.schedule.fused_last_stage() && stage + 1 == self.p.vws[vw].stages()
    }

    /// Arrival-FIFO injection: admits minibatches into stage 0 while
    /// fewer than `Nm` are in flight, the segment has not reached its
    /// stop point, and the WSP pull gate of the next minibatch is open.
    /// The admitted minibatch arrives at stage 0 as its own event.
    fn try_inject(&mut self, vw: usize) {
        let now = self.engine.now();
        while self.in_flight(vw) < self.p.wsp.nm as u64 {
            let p = self.states[vw].next_mb;
            if self.past_stop(p) {
                break;
            }
            if let Some(wave) = self.p.wsp.required_wave(p) {
                if !self.pull_gate_open(vw, wave, now) {
                    return;
                }
            }
            self.states[vw].next_mb += 1;
            self.engine.schedule_in(
                SimTime::ZERO,
                Ev::FwdArrive {
                    vw: vw as u32,
                    stage: 0,
                    mb: p,
                },
            );
        }
    }

    /// The WSP pull gate: true (with blocked-time bookkeeping closed
    /// out) when the local weights reflect `wave`, false (with the
    /// blocked window opened) when injection must wait.
    fn pull_gate_open(&mut self, vw: usize, wave: u64, now: SimTime) -> bool {
        let st = &mut self.states[vw];
        if st.pulled >= wave as i64 {
            if let Some(b) = st.block_start.take() {
                st.stats.inject_blocked += now - b;
            }
            true
        } else {
            if st.block_start.is_none() {
                st.block_start = Some(now);
            }
            false
        }
    }

    // ------------------------------------------------------------------
    // Lane dispatch: fill-drain, 1F1B and both interleaved forms. Each
    // lane is one ordered op queue bound to one GPU — a virtual stage's
    // stream, or a physical GPU's composite stream over its co-located
    // chunks — executed in strict order, so the schedule (not
    // dependency-arrival order) decides how work shares the GPU.
    // ------------------------------------------------------------------

    /// Whether `wave`'s last backward has completed, so its explicit
    /// [`ScheduleOp::Push`] may fire.
    fn wave_push_ready(&self, vw: usize, wave: u64) -> bool {
        self.states[vw].completed >= self.p.wsp.last_of_wave(wave)
    }

    /// Ensures `lane`'s op buffer holds at least `len` ops, pulling
    /// from the lane as needed.
    fn fill_lane_buf(&mut self, vw: usize, lane: usize, len: usize) {
        let cur = &mut self.lanes[vw][lane];
        while cur.buf.len() < len {
            let gop = cur.lane.next().expect("lanes are infinite");
            cur.buf.push_back(gop);
        }
    }

    /// Executes `lane` in order for as long as op dependencies are
    /// satisfied, reserving GPU time slots eagerly (the FIFO timeline
    /// serializes them in lane order). Two segment-mode extensions,
    /// both off by default:
    ///
    /// - **drain** ([`SegmentOpts::stop_after_mb`]): past-boundary ops
    ///   are discarded unexecuted. A composite lane interleaves
    ///   stages, and a deep stage's backward of `mb + 1` can
    ///   legitimately precede a shallow stage's backward of `mb` — so
    ///   a stage's first past-boundary backward (backwards are
    ///   per-stage in order) only marks that stage drained, and the
    ///   lane parks for good at that backward once all of its stages
    ///   are drained. Gates and pushes ahead of it still run.
    /// - **bounded reorder** ([`SegmentOpts::reorder_window`]): when
    ///   the head op is blocked on a data dependency, a *ready
    ///   backward* (with its recompute prefix) from up to `window`
    ///   ops ahead may run instead — the `SkipStraggler` policy's
    ///   lever against head-of-line blocking when a straggler's
    ///   gradient is late. Backwards only (they release activation
    ///   windows, never acquire), never past a closed pull gate, and
    ///   never past an earlier op of their own stage, so declared
    ///   occupancy, per-stage order, and staleness all hold. On a
    ///   one-stage lane every op behind the head shares its stage, so
    ///   reorder is a no-op there.
    fn advance_lane(&mut self, vw: usize, lane: usize) {
        let now = self.engine.now();
        loop {
            self.fill_lane_buf(vw, lane, 1);
            let GpuOp { stage, op } = self.lanes[vw][lane].buf[0];
            if op.minibatch().is_some_and(|mb| self.past_stop(mb)) {
                if op.has_backward() {
                    let stages = &mut self.stages[vw];
                    stages[stage].drained = true;
                    let n = self.lanes[vw].len();
                    if (lane..stages.len()).step_by(n).all(|s| stages[s].drained) {
                        return;
                    }
                }
                self.lanes[vw][lane].buf.pop_front();
                continue;
            }
            let ready = match op {
                ScheduleOp::PullGate { wave } => {
                    if self.pull_gate_open(vw, wave, now) {
                        self.lanes[vw][lane].buf.pop_front();
                        continue;
                    }
                    // Nothing may run past a closed gate (staleness).
                    return;
                }
                ScheduleOp::Push { wave } => {
                    if self.wave_push_ready(vw, wave) {
                        self.lanes[vw][lane].buf.pop_front();
                        self.start_push(vw, wave);
                        continue;
                    }
                    false
                }
                ScheduleOp::FusedFwdBwd { .. } => unreachable!("lane schedules never fuse"),
                _ => self.input_ready(vw, stage, op),
            };
            if ready {
                if !self.reserve_fenced(vw, stage, op) {
                    return;
                }
                self.lanes[vw][lane].buf.pop_front();
                continue;
            }
            // Head blocked on a data dependency (or an unready push):
            // bounded out-of-order service of a ready backward.
            if self.opts.reorder_window == 0 || !self.reorder_backward(vw, lane) {
                return;
            }
        }
    }

    /// Scans up to `reorder_window` ops past the blocked head of
    /// `lane`'s buffer for a ready backward (with its recompute prefix)
    /// and executes it out of line. Returns whether anything ran. See
    /// [`Exec::advance_lane`] for the soundness constraints.
    fn reorder_backward(&mut self, vw: usize, lane: usize) -> bool {
        let window = self.opts.reorder_window;
        for j in 1..=window {
            self.fill_lane_buf(vw, lane, j + 1);
            let gop = self.lanes[vw][lane].buf[j];
            let stage = gop.stage;
            // Preserve per-stage order: never overtake an earlier op
            // of the same stage (covers "backward before its own
            // forward" too, since the forward precedes it in-stage).
            let overtakes_same_stage = self.lanes[vw][lane]
                .buf
                .iter()
                .take(j)
                .any(|g| g.stage == stage);
            if overtakes_same_stage {
                continue;
            }
            match gop.op {
                ScheduleOp::Backward { mb } | ScheduleOp::Recompute { mb } => {
                    if self.past_stop(mb) || !self.input_ready(vw, stage, gop.op) {
                        continue;
                    }
                    // A checkpointing stage's backward rides directly
                    // behind its recompute; serve them as a unit.
                    let backward = GpuOp {
                        stage,
                        op: ScheduleOp::Backward { mb },
                    };
                    let recompute = gop != backward;
                    if recompute {
                        self.fill_lane_buf(vw, lane, j + 2);
                        debug_assert_eq!(
                            self.lanes[vw][lane].buf[j + 1],
                            backward,
                            "recompute must precede its own backward"
                        );
                    }
                    if !self.reserve_fenced(vw, stage, gop.op) {
                        return false;
                    }
                    self.lanes[vw][lane].buf.remove(j);
                    // The backward now sits at index j. Reserving it
                    // can only fail at the horizon edge — then it stays
                    // buffered, exactly like a strict-order lane parked
                    // after its recompute.
                    if recompute {
                        if !self.reserve_fenced(vw, stage, backward.op) {
                            return false;
                        }
                        self.lanes[vw][lane].buf.remove(j);
                    }
                    return true;
                }
                // Forwards acquire activation slots — not reordered.
                // Pushes are wave bookkeeping a backward may pass.
                ScheduleOp::Forward { .. } | ScheduleOp::Push { .. } => continue,
                // A gate fences everything behind it: stop the scan.
                ScheduleOp::PullGate { .. } => return false,
                ScheduleOp::FusedFwdBwd { .. } => unreachable!("lane schedules never fuse"),
            }
        }
        false
    }

    /// Whether lane compute `op` of `stage` has its input: a forward
    /// waits for activations from the left (stage 0 reads its own
    /// data); a backward, and the recompute ahead of it, for the
    /// gradient from the right — at the pipeline's last virtual stage
    /// its input is its own forward, which precedes it on this GPU's
    /// timeline.
    fn input_ready(&self, vw: usize, stage: usize, op: ScheduleOp) -> bool {
        let stages = &self.stages[vw];
        match op {
            ScheduleOp::Forward { mb } => stage == 0 || stages[stage].fwd_arrived >= mb,
            ScheduleOp::Backward { mb } | ScheduleOp::Recompute { mb } => {
                stage + 1 == stages.len() || stages[stage].bwd_arrived >= mb
            }
            _ => unreachable!("{op:?} is not a lane compute op"),
        }
    }

    /// [`Exec::reserve_compute`] behind the lanes' horizon fence:
    /// returns false, reserving nothing, once the stage's GPU is booked
    /// past the horizon. That stops eager lane reservation; the caller
    /// then leaves the op at its lane's head, and pops it on success.
    /// Arrival-FIFO reserves unfenced: it reserves one op (or a
    /// recompute and its backward) per arrival event, and no event past
    /// the horizon is handled, so its spans ending past the horizon are
    /// part of the pinned wave traces.
    fn reserve_fenced(&mut self, vw: usize, stage: usize, op: ScheduleOp) -> bool {
        if self.pool.get(self.gpu_of(vw, stage)).free_at() >= self.horizon {
            return false;
        }
        self.reserve_compute(vw, stage, op);
        true
    }

    /// Reserves compute `op` (forward, backward, recompute or fused
    /// forward+backward) on the stage's GPU, records its span, and
    /// schedules its completion event — every GPU reservation of both
    /// disciplines. The work starts no earlier than now and is
    /// integrated over the GPU's installed rate timeline (exact
    /// identity on the nominal-rate path); work that spans a rate edge
    /// is split across the windows it covers, so an outage with a
    /// later recovery delays the task instead of wedging it.
    fn reserve_compute(&mut self, vw: usize, stage: usize, op: ScheduleOp) {
        let (vw32, stage32) = (vw as u32, stage as u32);
        let (dur, tag, done) = match op {
            ScheduleOp::Forward { mb } => (
                self.fwd[vw][stage],
                SpanTag::Forward {
                    vw: vw32,
                    stage: stage32,
                    mb,
                },
                Some(Ev::FwdDone {
                    vw: vw32,
                    stage: stage32,
                    mb,
                }),
            ),
            // A stage-local forward re-run: nothing waits on it, since
            // its backward is reserved right behind it on the same
            // FIFO timeline.
            ScheduleOp::Recompute { mb } => (
                self.fwd[vw][stage],
                SpanTag::Recompute {
                    vw: vw32,
                    stage: stage32,
                    mb,
                },
                None,
            ),
            // The wave schedule's fused last stage (Section 4) runs
            // forward and backward as one task, recorded as the
            // backward.
            ScheduleOp::Backward { mb } | ScheduleOp::FusedFwdBwd { mb } => (
                match op {
                    ScheduleOp::FusedFwdBwd { .. } => self.fwd[vw][stage] + self.bwd[vw][stage],
                    _ => self.bwd[vw][stage],
                },
                SpanTag::Backward {
                    vw: vw32,
                    stage: stage32,
                    mb,
                },
                Some(Ev::BwdDone {
                    vw: vw32,
                    stage: stage32,
                    mb,
                }),
            ),
            _ => unreachable!("{op:?} is not a compute op"),
        };
        let gpu = self.gpu_of(vw, stage);
        let now = self.engine.now();
        let (s, e) = self.pool.get_mut(gpu).reserve_work(now, dur);
        self.trace.record(gpu, s, e, tag);
        if let Some(done) = done {
            self.engine.schedule_at(e, done);
        }
    }

    /// Sends a stage's boundary activations to the next stage.
    fn send_activation_right(&mut self, vw: usize, stage: usize, mb: u64) {
        let range_end = self.p.vws[vw].plan.ranges[stage].end;
        let bytes = self.p.graph.boundary_bytes(range_end - 1);
        let from = self.node_of(vw, stage);
        let to = self.node_of(vw, stage + 1);
        self.account_act(from, to, bytes);
        let arrive = self.transfer(
            from,
            to,
            bytes,
            SpanTag::ActTransfer {
                vw: vw as u32,
                stage: stage as u32,
                backward: false,
            },
        );
        self.engine.schedule_at(
            arrive,
            Ev::FwdArrive {
                vw: vw as u32,
                stage: (stage + 1) as u32,
                mb,
            },
        );
    }
    /// Sends the gradient w.r.t. a stage's inputs to the previous
    /// stage (shared by both disciplines).
    fn send_gradient_left(&mut self, vw: usize, stage: usize, mb: u64) {
        let range_start = self.p.vws[vw].plan.ranges[stage].start;
        let bytes = self.p.graph.input_bytes_of(range_start);
        let from = self.node_of(vw, stage);
        let to = self.node_of(vw, stage - 1);
        self.account_act(from, to, bytes);
        let arrive = self.transfer(
            from,
            to,
            bytes,
            SpanTag::ActTransfer {
                vw: vw as u32,
                stage: stage as u32,
                backward: true,
            },
        );
        self.engine.schedule_at(
            arrive,
            Ev::BwdArrive {
                vw: vw as u32,
                stage: (stage - 1) as u32,
                mb,
            },
        );
    }

    // ------------------------------------------------------------------
    // WSP push/pull protocol (shared by both disciplines).
    // ------------------------------------------------------------------

    fn start_push(&mut self, vw: usize, wave: u64) {
        // Consecutive waves' pushes run *concurrently*: each wave
        // tracks its own chunk counter, and its transfers contend on
        // the NIC timelines like any other traffic instead of being
        // serialized FIFO behind the previous wave's completion.
        let n = self.chunks[vw].len();
        if n == 0 {
            // Zero-transfer pushes land instantly; announce before
            // completing so the bus learns the landing first.
            if let Coupling::Bus { bus, id } = self.coupling {
                bus.announce_push(id, wave, self.engine.now());
            }
            self.push_completed(vw, wave);
            return;
        }
        let prev = self.states[vw].push_remaining.insert(wave, n);
        debug_assert!(prev.is_none(), "wave {wave} pushed twice");
        let mut lands = SimTime::ZERO;
        for i in 0..n {
            let ch = self.chunks[vw][i];
            self.account_sync(ch.gpu_node, ch.shard_node, ch.bytes);
            let arrive = self.transfer(
                ch.gpu_node,
                ch.shard_node,
                ch.bytes,
                SpanTag::SyncTransfer {
                    vw: vw as u32,
                    wave,
                    pull: false,
                },
            );
            lands = lands.max(arrive);
            self.engine.schedule_at(
                arrive,
                Ev::PushChunkDone {
                    vw: vw as u32,
                    wave,
                },
            );
        }
        // The landing instant is fully decided at push *start* (chunk
        // arrivals were just reserved on the NIC timelines) — this is
        // the lookahead the conservative fleet protocol runs on.
        if let Coupling::Bus { bus, id } = self.coupling {
            bus.announce_push(id, wave, lands);
        }
    }

    fn push_chunk_done(&mut self, vw: usize, wave: u64) {
        let st = &mut self.states[vw];
        let remaining = st
            .push_remaining
            .get_mut(&wave)
            .expect("chunk completion for a wave that is not in flight");
        *remaining -= 1;
        if *remaining == 0 {
            st.push_remaining.remove(&wave);
            self.push_completed(vw, wave);
        }
    }

    fn push_completed(&mut self, vw: usize, wave: u64) {
        let now = self.engine.now();
        {
            let st = &mut self.states[vw];
            // Concurrent waves can complete out of order (their chunks
            // take different NIC paths); the local clock is monotone.
            st.clock = st.clock.max(wave + 1);
            st.stats.waves_pushed = st.clock;
        }
        // Request this VW's own pull (Section 5: at the end of clock c,
        // pull weights that cover wave c − D).
        if let Some(target) = self.p.wsp.pull_target_after_push(wave) {
            let st = &mut self.states[vw];
            match &mut st.pull_request {
                Some((t, _since)) => *t = (*t).max(target),
                None => st.pull_request = Some((target, now)),
            }
        }
        // A new push may unblock any VW's pending pull. Under bus
        // coupling this is the bus's job: the owning `VwEngine` polls
        // before its next local event instead.
        if matches!(self.coupling, Coupling::InProcess) {
            for v in 0..self.states.len() {
                self.try_serve_pull(v);
            }
        }
    }

    fn try_serve_pull(&mut self, vw: usize) {
        debug_assert!(
            matches!(self.coupling, Coupling::InProcess),
            "bus-coupled serves are decided by the bus"
        );
        if self.states[vw].pull_remaining > 0 {
            return; // A pull transfer is already in flight.
        }
        let Some((target, _since)) = self.states[vw].pull_request else {
            return;
        };
        let min_clock = self.min_clock();
        if min_clock < target + 1 {
            return; // Straggler has not pushed wave `target` yet.
        }
        self.serve_pull(vw, min_clock as i64 - 1);
    }

    /// Applies a decided pull serve for `vw` at the current instant,
    /// installing the global `version` — the shared tail of the
    /// in-process `try_serve_pull` scan and the fleet bus verdict
    /// ([`VwEngine`] calls this when the bus returns
    /// [`ServePoll::Ready`]).
    fn serve_pull(&mut self, vw: usize, version: i64) {
        let now = self.engine.now();
        let (_, since) = self.states[vw]
            .pull_request
            .expect("serve_pull requires a pending request");
        debug_assert_eq!(self.states[vw].pull_remaining, 0);
        {
            let st = &mut self.states[vw];
            st.stats.pull_wait += now - since;
            st.stats.wait_windows.push((since, now));
            st.pull_request = None;
            st.pull_serving_version = version;
        }
        let n = self.chunks[vw].len();
        if n == 0 {
            let st = &mut self.states[vw];
            st.pulled = st.pulled.max(st.pull_serving_version);
            self.engine
                .schedule_in(SimTime::ZERO, Ev::TryInject { vw: vw as u32 });
            return;
        }
        self.states[vw].pull_remaining = n;
        for i in 0..n {
            let ch = self.chunks[vw][i];
            // Pull direction: shard -> GPU.
            self.account_sync(ch.shard_node, ch.gpu_node, ch.bytes);
            let wave = self.states[vw].pull_serving_version.max(0) as u64;
            let arrive = self.transfer(
                ch.shard_node,
                ch.gpu_node,
                ch.bytes,
                SpanTag::SyncTransfer {
                    vw: vw as u32,
                    wave,
                    pull: true,
                },
            );
            self.engine
                .schedule_at(arrive, Ev::PullChunkDone { vw: vw as u32 });
        }
    }

    fn pull_chunk_done(&mut self, vw: usize) {
        let st = &mut self.states[vw];
        st.pull_remaining -= 1;
        if st.pull_remaining == 0 {
            st.pulled = st.pulled.max(st.pull_serving_version);
            self.engine
                .schedule_in(SimTime::ZERO, Ev::TryInject { vw: vw as u32 });
            // A newer request may have queued while transferring. The
            // bus-coupled engine re-polls instead (`refresh_pending`
            // sees the request become serveable at this instant).
            if matches!(self.coupling, Coupling::InProcess) {
                self.try_serve_pull(vw);
            }
        }
    }

    fn run(mut self) -> RunStats {
        self.prologue();
        let horizon = self.horizon;
        while let Some(ev) = self.engine.next_event_until(horizon) {
            self.handle(ev);
        }
        self.finish_stats()
    }

    /// Installs rate timelines and schedules the initial events — the
    /// setup both [`Exec::run`] and an externally-driven [`VwEngine`]
    /// perform before the first pop.
    fn prologue(&mut self) {
        // Rates carried over from earlier segments (fault windows that
        // opened before this segment started).
        for i in 0..self.opts.initial_rates.len() {
            let (target, rate) = self.opts.initial_rates[i];
            let res = self.fault_resource(target);
            self.pool.get_mut(res).set_rate(rate);
        }
        // Scheduled rate changes are first-class DES events.
        for (i, ev) in self.opts.rate_events.iter().enumerate() {
            self.engine.schedule_at(ev.at, Ev::Fault { idx: i as u32 });
        }
        // Install each resource's full piecewise rate timeline up
        // front so reservations integrate across windows: a task that
        // spans an outage with a later recovery is delayed, not wedged
        // at the outage rate forever. Fault-free resources keep an
        // empty timeline and take the exact legacy scaling path.
        let mut timelines: std::collections::BTreeMap<ResourceId, Vec<(SimTime, f64)>> =
            std::collections::BTreeMap::new();
        for &(target, rate) in self.opts.initial_rates.iter() {
            let res = self.fault_resource(target);
            timelines
                .entry(res)
                .or_default()
                .push((SimTime::ZERO, rate));
        }
        for ev in self.opts.rate_events.iter() {
            let res = self.fault_resource(ev.target);
            timelines.entry(res).or_default().push((ev.at, ev.rate));
        }
        for (res, edges) in timelines {
            self.pool.get_mut(res).set_rate_schedule(edges);
        }
        for vw in 0..self.p.vws.len() {
            self.engine
                .schedule_at(SimTime::ZERO, Ev::TryInject { vw: vw as u32 });
        }
    }

    /// Folds the finished simulation into [`RunStats`].
    fn finish_stats(self) -> RunStats {
        let horizon = self.horizon;
        // A drained segment ends when its last span of work does, not
        // at engine quiescence: scheduled rate edges are first-class
        // events, so a recovery edge far past the splice boundary
        // would otherwise inflate the epoch and ride out the whole
        // outage the splice was meant to dodge.
        let end = if self.opts.stop_after_mb.is_some() {
            self.trace
                .spans()
                .iter()
                .map(|s| s.end)
                .max()
                .unwrap_or(SimTime::ZERO)
                .min(self.engine.now())
        } else {
            self.engine.now()
        };
        RunStats {
            horizon,
            end,
            events: self.engine.processed(),
            vws: self.states.into_iter().map(|s| s.stats).collect(),
            trace: self.trace,
            gpu_resources: self.gpu_res,
            nic_resources: self.nic_res,
            pool: self.pool,
            sync_bytes_inter: self.sync_inter,
            sync_bytes_intra: self.sync_intra,
            act_bytes_inter: self.act_inter,
            act_bytes_intra: self.act_intra,
            planned_fwd: self.fwd,
            planned_bwd: self.bwd,
        }
    }
}

/// Runs the pipeline simulation until `horizon`.
pub fn run(params: ExecParams<'_>, horizon: SimTime) -> RunStats {
    Exec::new(params, SegmentOpts::default(), horizon, Coupling::InProcess).run()
}

/// Runs one *segment* of a fault-aware simulation: [`run`] extended
/// with [`SegmentOpts`] — pre-existing and scheduled resource-rate
/// changes (fault injection), an optional stop-and-drain point at a
/// wave boundary (the splice the reactive runtime re-plans at), and a
/// bounded lane reorder window. Default options make this identical
/// to [`run`] — the zero-fault invariance.
pub fn run_segment(params: ExecParams<'_>, opts: SegmentOpts, horizon: SimTime) -> RunStats {
    Exec::new(params, opts, horizon, Coupling::InProcess).run()
}

/// Result of one [`VwEngine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An event was processed or a decided serve applied; step again.
    Progressed,
    /// Blocked on the bus (an undecidable pull poll); re-step after
    /// the bus state changes.
    Blocked,
    /// Nothing left at or below the horizon; the engine reported
    /// [`GateBus::finish`] and every further step is a no-op.
    Done,
}

/// One virtual worker's simulation as an externally-drivable engine:
/// a single-VW `Exec` coupled to a [`GateBus`] instead of the
/// in-process `min_clock` scan. The fleet driver (`hetpipe-fleet`)
/// owns many of these — one [`hetpipe_des::EngineCore`] each — and
/// steps them on a thread pool; the bus is the *only* channel between
/// them, mirroring the PS push→gate edges certified as the sole
/// cross-VW dependency class by `hetpipe-verify`'s isolation pass.
///
/// Stepping discipline (conservative synchronization):
///
/// - Before popping the next local event at `t`, a pending pull is
///   polled with bound `t`; the bus either decides the serve
///   ([`ServePoll::Ready`], always at `≤ t`), proves it is not at or
///   before `t` ([`ServePoll::NotBefore`]), or blocks
///   ([`ServePoll::Wait`]).
/// - A decided serve is applied *before* the local event at the same
///   instant (the in-process executor serves inside the push handler,
///   i.e. ahead of any later-queued event at that instant).
/// - A `NotBefore` carries a certified lower bound on the serve
///   instant; it is cached and suppresses re-polls while the bound
///   stays strictly below it — the engine pops whole stretches of
///   local events with no bus traffic. The cache is invalidated when
///   the request's target changes (a wave push can upgrade a pending
///   request in place).
///
/// The induction this keeps sound: the engine never pops a local
/// event without first proving the pending serve lies strictly after
/// it, so no serve ever lands in the engine's local past.
pub struct VwEngine<'a> {
    ex: Exec<'a>,
    bus: &'a dyn GateBus,
    id: usize,
    /// Instant the current pull request became locally serveable
    /// (request present *and* no pull transfer in flight) — the
    /// `ready_since` of polls, and the earliest the serve can happen.
    poll_floor: SimTime,
    /// Target wave of the currently-serveable request, if any.
    pending_target: Option<u64>,
    /// The serve provably happens no earlier than this instant
    /// (cached `NotBefore` lower bound).
    not_before: Option<SimTime>,
    finished: bool,
}

impl<'a> VwEngine<'a> {
    /// Builds the engine for the single VW in `params`, registered as
    /// `id` on `bus`. The prologue (rate timelines, initial inject
    /// events) runs immediately; no event is popped yet.
    pub fn new(
        params: ExecParams<'a>,
        opts: SegmentOpts,
        horizon: SimTime,
        bus: &'a dyn GateBus,
        id: usize,
    ) -> VwEngine<'a> {
        assert_eq!(
            params.vws.len(),
            1,
            "a fleet engine simulates exactly one VW"
        );
        let mut ex = Exec::new(params, opts, horizon, Coupling::Bus { bus, id });
        ex.prologue();
        let mut eng = VwEngine {
            ex,
            bus,
            id,
            poll_floor: SimTime::ZERO,
            pending_target: None,
            not_before: None,
            finished: false,
        };
        eng.refresh_pending();
        eng
    }

    /// Re-derives the serveable-request view after local state may
    /// have changed (an event was handled or a serve applied).
    fn refresh_pending(&mut self) {
        let st = &self.ex.states[0];
        let req = if st.pull_remaining == 0 {
            st.pull_request.map(|(t, _)| t)
        } else {
            None // In-flight pull; a queued request is not yet serveable.
        };
        if req != self.pending_target {
            // New request, upgraded target, or served/obscured: any
            // cached verdict was computed for a different question.
            self.not_before = None;
            if req.is_some() && self.pending_target.is_none() {
                // The request just became serveable: the serve cannot
                // predate this instant (matches the in-process serve
                // points — request creation and pull-transfer drain).
                self.poll_floor = self.ex.engine.now();
            }
            self.pending_target = req;
        }
    }

    /// Advances the simulation by one action. See the type-level doc
    /// for the discipline; [`StepOutcome::Blocked`] callers must wait
    /// for a bus change before re-stepping.
    pub fn step(&mut self) -> StepOutcome {
        if self.finished {
            return StepOutcome::Done;
        }
        let horizon = self.ex.horizon;
        let bound = match self.ex.engine.peek_time() {
            Some(t) if t <= horizon => t,
            _ => horizon,
        };
        if let Some(target) = self.pending_target {
            let serve = if self.not_before.is_some_and(|b| bound < b) {
                None // Provably not before the bound; pop freely.
            } else {
                match self.bus.poll_serve(self.id, target, self.poll_floor, bound) {
                    ServePoll::Ready { at, version } => {
                        debug_assert!(at >= self.poll_floor && at <= bound);
                        Some((at, version))
                    }
                    ServePoll::NotBefore { at_least } => {
                        debug_assert!(at_least > bound);
                        self.not_before = Some(at_least);
                        None
                    }
                    ServePoll::Wait => return StepOutcome::Blocked,
                }
            };
            if let Some((at, version)) = serve {
                // Serve-first at ties: the in-process executor serves
                // inside the handler of the crossing push, ahead of
                // local events queued at the same instant.
                self.ex.engine.advance_to(at);
                self.bus.publish_frontier(self.id, at);
                self.ex.serve_pull(0, version);
                self.refresh_pending();
                return StepOutcome::Progressed;
            }
        }
        match self.ex.engine.next_event_until(horizon) {
            Some(ev) => {
                self.bus.publish_frontier(self.id, self.ex.engine.now());
                self.ex.handle(ev);
                self.refresh_pending();
                StepOutcome::Progressed
            }
            None => {
                // Horizon reached (or queue drained) with no pending
                // serve at or before it: this VW is done. An unserved
                // request past the horizon matches the in-process
                // executor, which simply stops popping.
                self.finished = true;
                self.bus.publish_frontier(self.id, horizon);
                self.bus.finish(self.id);
                StepOutcome::Done
            }
        }
    }

    /// Events processed so far on this engine's core.
    pub fn processed(&self) -> u64 {
        self.ex.engine.processed()
    }

    /// Current simulated time of this engine.
    pub fn now(&self) -> SimTime {
        self.ex.engine.now()
    }

    /// Whether [`StepOutcome::Done`] has been reached.
    pub fn is_done(&self) -> bool {
        self.finished
    }

    /// Folds the finished engine into its single-VW [`RunStats`]
    /// (trace spans carry local ids: `vw` is always 0 and resources
    /// index this engine's private pool).
    pub fn into_stats(self) -> RunStats {
        self.ex.finish_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pserver::Placement;
    use hetpipe_cluster::DeviceId;
    use hetpipe_partition::{PartitionProblem, PartitionSolver};

    fn build_vws(
        cluster: &Cluster,
        graph: &ModelGraph,
        groups: &[Vec<DeviceId>],
        nm: usize,
    ) -> Vec<VirtualWorker> {
        groups
            .iter()
            .enumerate()
            .map(|(i, devices)| {
                let gpus = devices.iter().map(|&d| cluster.spec_of(d)).collect();
                let links = VirtualWorker::links(cluster, devices);
                let plan = PartitionSolver::solve(&PartitionProblem::new(graph, gpus, links, nm))
                    .expect("feasible");
                VirtualWorker {
                    index: i,
                    devices: devices.clone(),
                    plan,
                    nm,
                }
            })
            .collect()
    }

    fn ed_groups() -> Vec<Vec<DeviceId>> {
        (0..4)
            .map(|j| (0..4).map(|n| DeviceId(n * 4 + j)).collect())
            .collect()
    }

    fn run_ed_sched(nm: usize, d: usize, secs: f64, schedule: Schedule) -> RunStats {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let vws = build_vws(&cluster, &graph, &ed_groups(), nm);
        let shards = ShardMap::build(Placement::Local, &graph, &cluster, &vws[0]);
        run(
            ExecParams {
                cluster: &cluster,
                graph: &graph,
                vws: &vws,
                wsp: WspParams::new(nm, d),
                shards: &shards,
                sync_transfers: true,
                schedule,
                recompute: RecomputePolicy::None,
            },
            SimTime::from_secs(secs),
        )
    }

    fn run_ed(nm: usize, d: usize, secs: f64) -> RunStats {
        run_ed_sched(nm, d, secs, Schedule::HetPipeWave)
    }

    #[test]
    fn pipeline_makes_progress() {
        let stats = run_ed(4, 0, 30.0);
        for (i, vw) in stats.vws.iter().enumerate() {
            assert!(
                vw.completions.len() > 20,
                "vw{} completed only {}",
                i,
                vw.completions.len()
            );
            assert!(
                vw.waves_pushed > 4,
                "vw{} pushed {} waves",
                i,
                vw.waves_pushed
            );
        }
    }

    #[test]
    fn completions_are_monotone_and_fifo() {
        let stats = run_ed(4, 0, 10.0);
        for vw in &stats.vws {
            for w in vw.completions.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn deeper_pipelining_increases_throughput() {
        let t1 = run_ed(1, 0, 30.0).vws[0].completions.len();
        let t4 = run_ed(4, 0, 30.0).vws[0].completions.len();
        assert!(
            t4 as f64 > t1 as f64 * 1.5,
            "Nm=4 ({t4}) should clearly beat Nm=1 ({t1})"
        );
    }

    #[test]
    fn d0_keeps_vws_in_lockstep() {
        // With D = 0 every VW's clock stays within 1 of the others
        // (BSP-like behaviour, Section 5).
        let stats = run_ed(4, 0, 20.0);
        let clocks: Vec<u64> = stats.vws.iter().map(|v| v.waves_pushed).collect();
        let max = *clocks.iter().max().unwrap();
        let min = *clocks.iter().min().unwrap();
        assert!(max - min <= 1, "clocks diverged: {clocks:?}");
    }

    #[test]
    fn larger_d_reduces_waiting() {
        // ED VWs are identical so waits are small either way, but D = 4
        // must never wait longer than D = 0 (Section 8.4).
        let w0: SimTime = run_ed(4, 0, 30.0)
            .vws
            .iter()
            .map(|v| v.pull_wait)
            .fold(SimTime::ZERO, |a, b| a + b);
        let w4: SimTime = run_ed(4, 4, 30.0)
            .vws
            .iter()
            .map(|v| v.pull_wait)
            .fold(SimTime::ZERO, |a, b| a + b);
        assert!(w4 <= w0, "D=4 wait {w4} should not exceed D=0 wait {w0}");
    }

    #[test]
    fn determinism() {
        for schedule in Schedule::ALL {
            if matches!(schedule, Schedule::Interleaved1F1B { .. }) {
                // Interleaved VWs need expanded plans; covered by the
                // system-level tests.
                continue;
            }
            let a = run_ed_sched(4, 0, 10.0, schedule);
            let b = run_ed_sched(4, 0, 10.0, schedule);
            assert_eq!(a.vws.len(), b.vws.len());
            for (x, y) in a.vws.iter().zip(&b.vws) {
                assert_eq!(x.completions, y.completions, "{schedule}");
                assert_eq!(x.waves_pushed, y.waves_pushed, "{schedule}");
            }
            assert_eq!(a.trace.len(), b.trace.len(), "{schedule}");
        }
    }

    #[test]
    fn local_placement_no_cross_node_sync() {
        let stats = run_ed(4, 0, 10.0);
        assert_eq!(stats.sync_bytes_inter, 0, "ED-local sync must stay on-node");
        assert!(stats.sync_bytes_intra > 0);
        // ED activations cross nodes by construction.
        assert!(stats.act_bytes_inter > 0);
    }

    #[test]
    fn single_gpu_vw_works() {
        // A VW of one GPU degenerates to plain (non-pipelined) training.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let groups = vec![vec![DeviceId(0)], vec![DeviceId(1)]];
        let vws = build_vws(&cluster, &graph, &groups, 1);
        let shards = ShardMap::build(Placement::Default, &graph, &cluster, &vws[0]);
        let stats = run(
            ExecParams {
                cluster: &cluster,
                graph: &graph,
                vws: &vws,
                wsp: WspParams::new(1, 0),
                shards: &shards,
                sync_transfers: true,
                schedule: Schedule::HetPipeWave,
                recompute: RecomputePolicy::None,
            },
            SimTime::from_secs(20.0),
        );
        assert!(stats.vws[0].completions.len() > 10);
    }

    #[test]
    fn straggler_vws_forced_to_wait_under_d0() {
        // NP-style allocation: one fast VVVV VW and one slow QQQQ VW.
        // With D = 0 the fast VW must accumulate pull waiting time.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let groups = vec![
            (0..4).map(DeviceId).collect::<Vec<_>>(),
            (12..16).map(DeviceId).collect::<Vec<_>>(),
        ];
        let vws = build_vws(&cluster, &graph, &groups, 2);
        let shards = ShardMap::build(Placement::Default, &graph, &cluster, &vws[0]);
        let stats = run(
            ExecParams {
                cluster: &cluster,
                graph: &graph,
                vws: &vws,
                wsp: WspParams::new(2, 0),
                shards: &shards,
                sync_transfers: true,
                schedule: Schedule::HetPipeWave,
                recompute: RecomputePolicy::None,
            },
            SimTime::from_secs(30.0),
        );
        let fast = &stats.vws[0];
        let slow = &stats.vws[1];
        assert!(
            fast.pull_wait > slow.pull_wait,
            "fast VW should wait more: {} vs {}",
            fast.pull_wait,
            slow.pull_wait
        );
        // Lockstep: completed waves within 1.
        assert!(fast.waves_pushed.abs_diff(slow.waves_pushed) <= 1);
    }

    // --------------------------------------------------------------
    // Stream-order schedules through the same executor.
    // --------------------------------------------------------------

    #[test]
    fn stream_schedules_make_progress_and_push_waves() {
        for schedule in [Schedule::FillDrain, Schedule::OneFOneB] {
            let stats = run_ed_sched(4, 0, 30.0, schedule);
            for (i, vw) in stats.vws.iter().enumerate() {
                assert!(
                    vw.completions.len() > 20,
                    "{schedule} vw{i} completed only {}",
                    vw.completions.len()
                );
                assert!(
                    vw.waves_pushed > 4,
                    "{schedule} vw{i} pushed {} waves",
                    vw.waves_pushed
                );
            }
        }
    }

    #[test]
    fn one_f_one_b_beats_fill_drain() {
        // 1F1B overlaps the drain with the next fill; with Nm = 4 its
        // steady state strictly dominates GPipe's fill-drain bubbles.
        let gpipe = run_ed_sched(4, 0, 30.0, Schedule::FillDrain).vws[0]
            .completions
            .len();
        let ofob = run_ed_sched(4, 0, 30.0, Schedule::OneFOneB).vws[0]
            .completions
            .len();
        assert!(
            ofob > gpipe,
            "1F1B ({ofob}) must strictly beat fill-drain ({gpipe})"
        );
    }

    #[test]
    fn stream_schedules_respect_d0_lockstep() {
        for schedule in [Schedule::FillDrain, Schedule::OneFOneB] {
            let stats = run_ed_sched(4, 0, 20.0, schedule);
            let clocks: Vec<u64> = stats.vws.iter().map(|v| v.waves_pushed).collect();
            let max = *clocks.iter().max().unwrap();
            let min = *clocks.iter().min().unwrap();
            assert!(max - min <= 1, "{schedule} clocks diverged: {clocks:?}");
        }
    }

    // --------------------------------------------------------------
    // Segment machinery: faults, drains, zero-fault invariance.
    // --------------------------------------------------------------

    fn run_ed_segment(nm: usize, secs: f64, schedule: Schedule, opts: SegmentOpts) -> RunStats {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let vws = build_vws(&cluster, &graph, &ed_groups(), nm);
        let shards = ShardMap::build(Placement::Local, &graph, &cluster, &vws[0]);
        run_segment(
            ExecParams {
                cluster: &cluster,
                graph: &graph,
                vws: &vws,
                wsp: WspParams::new(nm, 0),
                shards: &shards,
                sync_transfers: true,
                schedule,
                recompute: RecomputePolicy::None,
            },
            opts,
            SimTime::from_secs(secs),
        )
    }

    #[test]
    fn zero_fault_segment_is_bit_identical_to_run() {
        for schedule in [
            Schedule::HetPipeWave,
            Schedule::FillDrain,
            Schedule::OneFOneB,
        ] {
            let plain = run_ed_sched(4, 0, 10.0, schedule);
            let seg = run_ed_segment(4, 10.0, schedule, SegmentOpts::default());
            assert_eq!(plain.trace.len(), seg.trace.len(), "{schedule}");
            for (a, b) in plain.trace.spans().iter().zip(seg.trace.spans()) {
                assert_eq!(a, b, "{schedule}");
            }
            for (a, b) in plain.vws.iter().zip(&seg.vws) {
                assert_eq!(a.completions, b.completions, "{schedule}");
            }
        }
    }

    #[test]
    fn fault_event_slows_the_pipeline() {
        for schedule in [Schedule::HetPipeWave, Schedule::OneFOneB] {
            let clean = run_ed_segment(4, 20.0, schedule, SegmentOpts::default());
            let faulted = run_ed_segment(
                4,
                20.0,
                schedule,
                SegmentOpts {
                    rate_events: vec![RateEvent {
                        at: SimTime::from_secs(2.0),
                        // Slow VW 0's stage-1 GPU (device 4 hosts ED
                        // group 0's second stage) by x4 — far past the
                        // pipeline bottleneck, so it must bind.
                        target: RateTarget::Gpu(4),
                        rate: 0.25,
                    }],
                    ..SegmentOpts::default()
                },
            );
            let c = clean.vws[0].completions.len();
            let f = faulted.vws[0].completions.len();
            assert!(
                (f as f64) < c as f64 * 0.9,
                "{schedule}: x4 slowdown must cost throughput ({f} vs {c})"
            );
            // Spans on the slowed GPU after the fault are stretched.
            let gpu = faulted.gpu_resources[4];
            let stretched = faulted.trace.spans().iter().any(|s| {
                s.resource == gpu
                    && s.start >= SimTime::from_secs(2.0)
                    && s.duration() > faulted.planned_fwd[0][1]
            });
            assert!(stretched, "{schedule}: no stretched span on the slowed GPU");
        }
    }

    #[test]
    fn lost_gpu_stalls_but_terminates() {
        let faulted = run_ed_segment(
            4,
            15.0,
            Schedule::HetPipeWave,
            SegmentOpts {
                rate_events: vec![RateEvent {
                    at: SimTime::from_secs(3.0),
                    target: RateTarget::Gpu(4),
                    rate: 0.0,
                }],
                ..SegmentOpts::default()
            },
        );
        // VW 0 stops completing shortly after the loss; the run still
        // terminates (no live-lock) and other VWs are eventually
        // throttled by the WSP distance bound, not deadlocked.
        let last = faulted.vws[0].completions.last().copied().unwrap();
        assert!(
            last < SimTime::from_secs(5.0),
            "vw0 kept completing: {last}"
        );
        assert!(faulted.end <= SimTime::from_secs(15.0));
    }

    #[test]
    fn segment_drain_stops_at_wave_boundary() {
        for schedule in [
            Schedule::HetPipeWave,
            Schedule::FillDrain,
            Schedule::OneFOneB,
        ] {
            let seg = run_ed_segment(
                4,
                30.0,
                schedule,
                SegmentOpts {
                    stop_after_mb: Some(8),
                    ..SegmentOpts::default()
                },
            );
            for (i, vw) in seg.vws.iter().enumerate() {
                assert_eq!(
                    vw.completions.len(),
                    8,
                    "{schedule} vw{i}: drain must complete exactly the boundary wave"
                );
                assert_eq!(vw.waves_pushed, 2, "{schedule} vw{i}");
            }
            // The drain ends well before the horizon: that end is the
            // splice point.
            assert!(
                seg.end < SimTime::from_secs(29.0),
                "{schedule}: drain should end early, got {}",
                seg.end
            );
            // No compute span belongs to a past-boundary minibatch.
            for span in seg.trace.spans() {
                if let SpanTag::Forward { mb, .. }
                | SpanTag::Backward { mb, .. }
                | SpanTag::Recompute { mb, .. } = span.tag
                {
                    assert!(mb <= 8, "{schedule}: span for mb {mb} past the boundary");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "segments splice at wave boundaries")]
    fn run_segment_rejects_a_mid_wave_stop() {
        run_ed_segment(
            4,
            5.0,
            Schedule::HetPipeWave,
            SegmentOpts {
                stop_after_mb: Some(6),
                ..SegmentOpts::default()
            },
        );
    }

    /// A bus no call may reach: the engine must panic while building.
    struct UnreachableBus;

    impl GateBus for UnreachableBus {
        fn vws(&self) -> usize {
            1
        }
        fn announce_push(&self, _: usize, _: u64, _: SimTime) {
            unreachable!()
        }
        fn publish_frontier(&self, _: usize, _: SimTime) {
            unreachable!()
        }
        fn poll_serve(&self, _: usize, _: u64, _: SimTime, _: SimTime) -> ServePoll {
            unreachable!()
        }
        fn finish(&self, _: usize) {
            unreachable!()
        }
    }

    #[test]
    #[should_panic(expected = "segments splice at wave boundaries")]
    fn vw_engine_rejects_a_mid_wave_stop() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let vws = build_vws(&cluster, &graph, &ed_groups()[..1], 4);
        let shards = ShardMap::build(Placement::Local, &graph, &cluster, &vws[0]);
        VwEngine::new(
            ExecParams {
                cluster: &cluster,
                graph: &graph,
                vws: &vws,
                wsp: WspParams::new(4, 0),
                shards: &shards,
                sync_transfers: true,
                schedule: Schedule::HetPipeWave,
                recompute: RecomputePolicy::None,
            },
            SegmentOpts {
                stop_after_mb: Some(2),
                ..SegmentOpts::default()
            },
            SimTime::from_secs(5.0),
            &UnreachableBus,
            0,
        );
    }

    #[test]
    fn stream_single_gpu_vw_works() {
        // k = 1 exercises the "backward depends on own forward" path.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let groups = vec![vec![DeviceId(0)], vec![DeviceId(1)]];
        let vws = build_vws(&cluster, &graph, &groups, 1);
        let shards = ShardMap::build(Placement::Default, &graph, &cluster, &vws[0]);
        for schedule in [Schedule::FillDrain, Schedule::OneFOneB] {
            let stats = run(
                ExecParams {
                    cluster: &cluster,
                    graph: &graph,
                    vws: &vws,
                    wsp: WspParams::new(1, 0),
                    shards: &shards,
                    sync_transfers: true,
                    schedule,
                    recompute: RecomputePolicy::None,
                },
                SimTime::from_secs(20.0),
            );
            assert!(
                stats.vws[0].completions.len() > 10,
                "{schedule} made no progress on k=1"
            );
        }
    }
}
