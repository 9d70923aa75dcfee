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
//!   - **lanes**: every other schedule executes each VW's [`Lanes`]
//!     — ordered op queues, each bound to one GPU — in strict order.
//!     Fill-drain, 1F1B and depth-expanded interleaved get one lane
//!     per virtual stage; composite interleaved gets one lane per
//!     physical GPU, all fed by one timetable the VW's `Lanes` own, so
//!     the *schedule* — not arrival order — decides how co-located
//!     chunks share the GPU timeline, exactly as Megatron-LM orders
//!     its interleaved chunk groups.
//! - **Wave pushes (Section 5)**: when the last minibatch of wave `c`
//!   completes, the VW pushes one *aggregated* update (its full
//!   parameter footprint, once — not per minibatch) to the shards, one
//!   chunk per (stage, shard) pair. On lanes this is the explicit
//!   [`ScheduleOp::Push`] op; the wave schedule triggers it on
//!   completion count. Each chunk reserves its NICs, but the push is
//!   one completion event, at its last chunk's arrival; so is a pull.
//! - **D-bounded pulls**: after pushing wave `c`, the VW requests global
//!   weights covering wave `c − D` and waits (while continuing to run
//!   already-admissible minibatches) until every VW has pushed that
//!   wave. The injection gate is [`WspParams::required_wave`] for the
//!   wave schedule and the explicit [`ScheduleOp::PullGate`] op on
//!   lanes. Consecutive waves' pushes run concurrently, contending on
//!   the NIC timelines rather than being serialized behind one another.
//!   The executor evaluates this gate itself: each push completion
//!   advances the VW's clock in the run's [`PushClocks`] and serves
//!   the pulls it opens. It is the only coupling between VWs.
//! - **Bounded activation windows**: each stage's declared peak
//!   activation occupancy ([`PipelineSchedule::max_in_flight`] — the
//!   same number the memory model charges and the partitioner
//!   certifies against) holds without a dispatch-time gate. Lanes
//!   respect it structurally; on arrival-FIFO the `Nm` injection cap
//!   bounds every stage, so each non-fused stage must declare at least
//!   `Nm` (checked at construction). Both disciplines keep
//!   completion-based occupancy books that are asserted against the
//!   declaration, and the run folds the realized peaks as it executes
//!   ([`RunStats::peaks`]) for `crate::audit`'s first-class
//!   measured ≤ declared invariant.
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
//! Spans go to a [`SpanSink`], a type parameter of the executor. The
//! one general entry point, [`run_into`], takes segment options and
//! the sink by value, hands the sink back with the [`RunStats`] and,
//! given a warm-up, folds the run's report. A [`Trace`] sink keeps
//! every span, [`hetpipe_des::Discard`] none, and a caller's own sink
//! sees every span as it is recorded: the elastic runtime's hands
//! each segment's spans, rebased, to its caller's sink and folds its
//! monitor there. [`run`] is the one shorthand: default options, every span
//! kept in [`RunStats::trace`]. The occupancy peaks and the report's
//! integer partials fold while the run executes, so they cost no kept
//! trace.
//!
//! A run that keeps no span fast-forwards (the `fastforward`
//! module): once its executor state repeats exactly, shifted in time,
//! it skips whole periods of that steady state and simulates only the
//! rest. The result is bit for bit the fully simulated one
//! (`tests/fast_forward.rs`); [`RunStats::fast_forward`] records the
//! period. Runs that keep spans simulate every event.
//!
//! A probe that runs through [`run_into_checkpointed`] also saves wave
//! checkpoints (the `checkpoint` module), and [`resume_into`] commits a
//! drain of the same segment from one of them, given only its stop
//! point, bit for bit the drain run from the start
//! (`tests/drain_checkpoints.rs`). The probe's judge may halt it, and
//! the state it halts in is its last checkpoint: a drain at a wave
//! boundary no stop query has passed resumes there and re-runs nothing.
//!
//! The executor is a plan, fixed when the run starts, and one owned
//! state the handler mutates. A checkpoint clones the state;
//! fast-forward normalizes it, shifts it and grows its running totals.
//! Each of those three walks destructures the whole state, so a new
//! field compiles only once each walk says what it does with it.
//!
//! `tests/trace_pins.rs` pins digests of whole runs of every schedule,
//! including draining segments.

use crate::audit::{MeasuredPeaks, OccupancyFold};
use crate::metrics::{ReportFold, SystemReport};
use crate::pserver::{ShardMap, SyncChunk};
use crate::sync::WspParams;
use crate::vw::VirtualWorker;
use hetpipe_cluster::network::LinkKind;
use hetpipe_cluster::{Cluster, DeviceId, NodeId};
use hetpipe_des::{
    Engine, RateTimeline, Resource, ResourceId, ResourcePool, SimTime, SpanSink, Trace,
};
use hetpipe_model::profile::{pass_time_secs, Pass, STAGE_TASK_OVERHEAD_SECS};
use hetpipe_model::ModelGraph;
use hetpipe_schedule::PushClocks;
use hetpipe_schedule::{
    Dispatch, GpuOp, Lanes, PipelineSchedule, RecomputePolicy, Schedule, ScheduleOp,
};

mod checkpoint;
pub(crate) mod fastforward;
pub use checkpoint::{resume_into, run_into_checkpointed, Checkpoint, Checkpoints, Progress};
pub use fastforward::FastForward;

/// What a recorded span represents. Virtual worker and stage indices
/// are `u16` (every run asserts that its virtual workers and their
/// stages fit), and minibatch and wave numbers `u32`, narrowed by
/// [`SpanTag::index`] wherever a tag is built, so a tag takes 12 bytes
/// and a kept span 32. The executor's own counters stay `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanTag {
    /// A forward pass of `mb` on `(vw, stage)`.
    Forward { vw: u16, stage: u16, mb: u32 },
    /// A backward pass (or the fused forward+backward at the last
    /// stage).
    Backward { vw: u16, stage: u16, mb: u32 },
    /// A stage-local re-run of `mb`'s forward to rematerialize its
    /// activations directly before the backward
    /// ([`RecomputePolicy::BoundaryOnly`]).
    Recompute { vw: u16, stage: u16, mb: u32 },
    /// An activation (forward) or gradient (backward) transfer on a NIC.
    ActTransfer { vw: u16, stage: u16, backward: bool },
    /// A parameter push/pull chunk on a NIC.
    SyncTransfer { vw: u16, wave: u32, pull: bool },
}

impl SpanTag {
    /// A minibatch or wave number as a tag holds it.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    pub fn index(n: u64) -> u32 {
        u32::try_from(n).expect("span tags number minibatches and waves below 2^32")
    }

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
#[derive(Debug, Clone, Copy, PartialEq)]
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
/// and stop injecting work at a wave boundary (and drain). Lanes always
/// run in strict order.
///
/// The default options reproduce [`run`] exactly: no faults, no stop —
/// the zero-fault invariance the tier-1 tests pin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentOpts {
    /// Stop *injecting* minibatches after this one (1-indexed,
    /// segment-local) and drain: ops of later minibatches are
    /// discarded unexecuted, so the segment ends — at the splice
    /// point — once every in-flight minibatch and the boundary wave's
    /// push/pull traffic completes. Must be a wave boundary
    /// (a multiple of `Nm`) so the WSP clock is whole at the splice;
    /// the executor's constructor asserts it, so [`run_into`] and
    /// [`resume_into`] panic otherwise. Fixed for the whole run: a
    /// probe ([`run_into_checkpointed`]) has none, and a drain of it
    /// resumes from one of its checkpoints under its stop point.
    pub stop_after_mb: Option<u64>,
    /// Rates already in effect when the segment starts (fault windows
    /// opened in an earlier segment).
    pub initial_rates: Vec<(RateTarget, f64)>,
    /// Rate changes that fire during the segment.
    pub rate_events: Vec<RateEvent>,
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
    /// Span trace (GPU and NIC occupancy): every span from [`run`];
    /// empty from every other entry point, which hands its spans to the
    /// caller's sink.
    pub trace: Trace<SpanTag>,
    /// Peak activation occupancy per stage and per physical GPU,
    /// folded while the run executed (see `crate::audit`).
    pub peaks: MeasuredPeaks,
    /// GPU resource IDs by device index.
    pub gpu_resources: Vec<ResourceId>,
    /// NIC resource IDs by node index.
    pub nic_resources: Vec<ResourceId>,
    /// Final resource pool: each GPU's and NIC's busy time,
    /// reservations and free instant, addressed by
    /// [`RunStats::gpu_resources`] and [`RunStats::nic_resources`]
    /// ([`RunStats::resource_names`] names them).
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
    /// Instant of the last processed event or, when later, of the last
    /// sync-chunk arrival inside the horizon — for a draining segment
    /// (`SegmentOpts::stop_after_mb`) the end of its last span, capped
    /// at that instant: the splice point where the boundary wave's last
    /// work finished.
    pub end: SimTime,
    /// DES events processed. Counts logical events: a fast-forwarded
    /// run counts its skipped periods' events too, so it reads exactly
    /// as a fully simulated one.
    pub events: u64,
    /// How the run skipped whole periods of its steady state, or
    /// `None` when fast-forward declined or found no period to skip
    /// (see the `fastforward` module).
    pub fast_forward: Option<FastForward>,
}

impl RunStats {
    /// Each resource's name by [`ResourceId`] index: `gpu{d}` for
    /// device `d`'s GPU and `nic{n}` for node `n`'s NIC (trace tracks).
    pub fn resource_names(&self) -> Vec<String> {
        let mut names = vec![String::new(); self.pool.len()];
        for (d, id) in self.gpu_resources.iter().enumerate() {
            names[id.index()] = format!("gpu{d}");
        }
        for (n, id) in self.nic_resources.iter().enumerate() {
            names[id.index()] = format!("nic{n}");
        }
        names
    }
}

/// An executor event. VW and stage ids are `u16`, as in span tags
/// (`Plan::new` asserts that they fit), so an event takes 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    FwdArrive {
        vw: u16,
        stage: u16,
        mb: u64,
    },
    FwdDone {
        vw: u16,
        stage: u16,
        mb: u64,
    },
    BwdArrive {
        vw: u16,
        stage: u16,
        mb: u64,
    },
    BwdDone {
        vw: u16,
        stage: u16,
        mb: u64,
    },
    /// The last chunk of `vw`'s push of `wave` has arrived.
    PushDone {
        vw: u16,
        wave: u64,
    },
    /// The last chunk of `vw`'s pull has arrived.
    PullDone {
        vw: u16,
    },
    TryInject {
        vw: u16,
    },
    /// A scheduled service-rate change's instant. The rates live in the
    /// plan's timelines, so handling it changes nothing; it stays an
    /// event so that a probe's judge sees the instant and the run's
    /// `end` and event count include it.
    Fault,
}

/// One virtual worker's executor state.
#[derive(Clone, Default)]
struct VwState {
    next_mb: u64,
    completed: u64,
    /// Newest global wave reflected in the local weights (−1 = none).
    pulled: i64,
    /// Outstanding pull request: (target wave, request time).
    pull_request: Option<(u64, SimTime)>,
    /// Whether a pull transfer is in flight, and the version it
    /// carries. A push or pull in flight is one queued event
    /// ([`Ev::PushDone`], [`Ev::PullDone`]) at its last chunk's arrival.
    pulling: bool,
    pull_serving_version: i64,
    block_start: Option<SimTime>,
    /// [`VwStats::pull_wait`] so far.
    pull_wait: SimTime,
    /// [`VwStats::inject_blocked`] so far.
    inject_blocked: SimTime,
}

/// One virtual stage's executor state: its occupancy book (both
/// disciplines) and its inputs (lane dispatch only).
#[derive(Clone, Default)]
struct StageState {
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

/// What a run fixes when it starts and only reads after.
struct Plan<'a> {
    p: ExecParams<'a>,
    /// GPU resources by device index, NIC resources by node index.
    gpu_res: Vec<ResourceId>,
    nic_res: Vec<ResourceId>,
    /// Per-VW per-stage forward/backward compute times.
    fwd: Vec<Vec<SimTime>>,
    bwd: Vec<Vec<SimTime>>,
    /// Per-VW sync chunk lists (same for every wave; empty without
    /// sync transfers).
    chunks: Vec<Vec<SyncChunk>>,
    /// Per-VW per-stage declared occupancy bound
    /// ([`PipelineSchedule::max_in_flight`]).
    windows: Vec<Vec<u64>>,
    /// Each resource's rate timeline, by [`ResourceId`] index.
    rates: Vec<RateTimeline>,
    dispatch: Dispatch,
    opts: SegmentOpts,
    horizon: SimTime,
}

/// Everything the event handler mutates, as one owned value: a wave
/// checkpoint clones it, and fast-forward normalizes it
/// (`State::write_normal`), shifts it (`State::shift`) and grows its
/// running totals (`State::totals`). Each of those walks destructures
/// it whole, so a new field does not compile until each says what it
/// does with it.
#[derive(Clone)]
struct State {
    engine: Engine<Ev>,
    /// The resources' timelines, addressed by the plan's resource IDs.
    pool: ResourcePool,
    /// The audit's occupancy peaks, folded as spans are reserved.
    occupancy: OccupancyFold,
    /// The report's integer partials, folded as spans are reserved and
    /// wait windows open and close; `None` for runs that build no
    /// report.
    report: Option<ReportFold>,
    /// Every VW's push clock: the parameter server's side of the gate.
    clocks: PushClocks,
    states: Vec<VwState>,
    /// Per-VW per-stage books and inputs.
    stages: Vec<Vec<StageState>>,
    /// Per-VW lanes (lane dispatch only). Stage `s` of a VW with `n`
    /// lanes runs on lane `s % n`.
    lanes: Vec<Lanes>,
    /// Per VW, per lane: the head op, pulled from the lane but not yet
    /// executed (lane dispatch only).
    heads: Vec<Vec<Option<GpuOp>>>,
    sync_inter: u64,
    sync_intra: u64,
    act_inter: u64,
    act_intra: u64,
    /// The latest end of any span recorded so far.
    last_span_end: SimTime,
    /// The latest sync-chunk arrival at or before the horizon. A
    /// transfer's chunks are no events of their own, so a run the
    /// horizon cuts mid-transfer ends at this instant, not at its last
    /// event's.
    last_arrival: SimTime,
    /// The newest minibatch any stop query ([`Exec::past_stop`]) has
    /// tested: until it passes a stop point, a run drained there is
    /// this run (see the `checkpoint` module).
    queried: u64,
    /// Spans handed to the sink so far.
    spans: usize,
}

/// One VW's append-only lists, kept beside the [`State`] so that a
/// clone of it does not grow with the horizon.
#[derive(Default)]
struct VwLists {
    completions: Vec<SimTime>,
    wait_windows: Vec<(SimTime, SimTime)>,
}

struct Exec<'a, S> {
    plan: Plan<'a>,
    st: State,
    lists: Vec<VwLists>,
    sink: S,
}

impl<'a> Plan<'a> {
    fn new(p: ExecParams<'a>, opts: SegmentOpts, horizon: SimTime) -> Self {
        if let Some(stop) = opts.stop_after_mb {
            assert!(
                stop.is_multiple_of(p.wsp.nm as u64),
                "segments splice at wave boundaries (stop {} vs Nm {})",
                stop,
                p.wsp.nm
            );
        }
        // Span tags hold VW and stage indices as `u16`.
        assert!(
            p.vws.len() <= 1 << 16 && p.vws.iter().all(|vw| vw.stages() <= 1 << 16),
            "span tags index at most 2^16 virtual workers and stages per worker"
        );
        let cluster = p.cluster;
        let devices = cluster.device_count();
        let gpu_res = (0..devices).map(ResourceId::new).collect();
        let nic_res = (devices..devices + cluster.node_count())
            .map(ResourceId::new)
            .collect();
        let (fwd, bwd) = planned_stage_times(cluster, p.graph, p.vws);
        let chunks: Vec<Vec<SyncChunk>> = (p.vws.iter())
            .map(|vw| {
                if p.sync_transfers {
                    p.shards.chunks_for(p.graph, cluster, vw)
                } else {
                    Vec::new()
                }
            })
            .collect();
        // The occupancy books hold each stage to exactly what the
        // memory model charges (PipelineSchedule is the contract
        // between the partitioner's certification and the runtime).
        // Arrival-FIFO has no dispatch-time gate: the `Nm` injection
        // cap bounds its stages, so each non-fused one must declare at
        // least `Nm`.
        let dispatch = p.schedule.dispatch();
        let nm = p.wsp.nm as u64;
        let windows = p
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
                        window
                    })
                    .collect()
            })
            .collect();
        let mut plan = Plan {
            p,
            gpu_res,
            nic_res,
            fwd,
            bwd,
            chunks,
            windows,
            rates: Vec::new(),
            dispatch,
            opts,
            horizon,
        };
        // Each resource's full piecewise rate timeline, so reservations
        // integrate across windows: a task that spans an outage with a
        // later recovery is delayed, not wedged at the outage rate
        // forever. Rates carried over from earlier segments are edges
        // at the segment start.
        let mut edges = vec![Vec::new(); devices + cluster.node_count()];
        for &(target, rate) in &plan.opts.initial_rates {
            edges[plan.fault_resource(target).index()].push((SimTime::ZERO, rate));
        }
        for ev in &plan.opts.rate_events {
            edges[plan.fault_resource(ev.target).index()].push((ev.at, ev.rate));
        }
        plan.rates = edges.into_iter().map(RateTimeline::new).collect();
        plan
    }

    /// The pool resource a fault target maps to.
    fn fault_resource(&self, target: RateTarget) -> ResourceId {
        match target {
            RateTarget::Gpu(device) => self.gpu_res[device],
            RateTarget::Nic(node) => self.nic_res[node],
        }
    }
}

impl State {
    /// The state at the segment start: every resource idle, the rate
    /// edges and each VW's first injection queued. With a `warmup`, the
    /// run folds its report, measuring busy time within
    /// `[warmup, horizon)`.
    fn new(plan: &Plan<'_>, warmup: Option<SimTime>) -> State {
        let p = &plan.p;
        let mut pool = ResourcePool::new();
        for _ in 0..plan.rates.len() {
            pool.add(Resource::default());
        }
        let mut engine = Engine::new();
        // Scheduled rate changes are first-class DES events, queued
        // before any other, so at their instant they pop first.
        for ev in &plan.opts.rate_events {
            engine.schedule_at(ev.at, Ev::Fault);
        }
        for vw in 0..p.vws.len() {
            engine.schedule_at(SimTime::ZERO, Ev::TryInject { vw: vw as u16 });
        }
        let lanes: Vec<Lanes> = match plan.dispatch {
            Dispatch::ArrivalFifo => Vec::new(),
            Dispatch::StreamOrder | Dispatch::GpuStreamOrder => p
                .vws
                .iter()
                .map(|vw| {
                    let k_gpus = vw.stages() / p.schedule.colocated_stages();
                    Lanes::new(p.schedule, k_gpus, p.wsp, p.recompute)
                })
                .collect(),
        };
        let stages = p
            .vws
            .iter()
            .map(|vw| vec![StageState::default(); vw.stages()]);
        State {
            engine,
            pool,
            occupancy: OccupancyFold::new(p.vws, &p.schedule),
            report: warmup.map(|warmup| {
                let devices = p.vws.iter().map(|v| v.devices.as_slice());
                ReportFold::new(p.cluster.device_count(), devices, warmup, plan.horizon)
            }),
            clocks: PushClocks::new(vec![0; p.vws.len()]),
            states: vec![
                VwState {
                    next_mb: 1,
                    pulled: -1,
                    pull_serving_version: -1,
                    ..VwState::default()
                };
                p.vws.len()
            ],
            stages: stages.collect(),
            heads: lanes.iter().map(|l| vec![None; l.len()]).collect(),
            lanes,
            sync_inter: 0,
            sync_intra: 0,
            act_inter: 0,
            act_intra: 0,
            last_span_end: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            queried: 0,
            spans: 0,
        }
    }
}

impl<'a, S: SpanSink<SpanTag>> Exec<'a, S> {
    /// Builds the executor at the segment start. With a `warmup`, the
    /// run folds its report, measuring busy time within
    /// `[warmup, horizon)`.
    fn new(plan: Plan<'a>, warmup: Option<SimTime>, sink: S) -> Self {
        let st = State::new(&plan, warmup);
        let lists = plan.p.vws.iter().map(|_| VwLists::default()).collect();
        Exec {
            plan,
            st,
            lists,
            sink,
        }
    }

    /// Per VW, the lengths of its completion and wait-window lists.
    fn lens(&self) -> Vec<(usize, usize)> {
        let lists = self.lists.iter();
        lists
            .map(|l| (l.completions.len(), l.wait_windows.len()))
            .collect()
    }

    fn gpu_of(&self, vw: usize, stage: usize) -> ResourceId {
        self.plan.gpu_res[self.plan.p.vws[vw].devices[stage].0]
    }

    fn node_of(&self, vw: usize, stage: usize) -> NodeId {
        let p = &self.plan.p;
        p.cluster.node_of(p.vws[vw].devices[stage])
    }

    fn in_flight(&self, vw: usize) -> u64 {
        let s = &self.st.states[vw];
        s.next_mb - 1 - s.completed
    }

    /// True when injection (or op execution) of `mb` is past the
    /// segment's stop point. Every drain decision asks here, and the
    /// query is recorded (`State::queried`).
    fn past_stop(&mut self, mb: u64) -> bool {
        self.st.queried = self.st.queried.max(mb);
        self.plan.opts.stop_after_mb.is_some_and(|m| mb > m)
    }

    /// Moves `bytes` between two nodes, counting them by kind, and
    /// returns the arrival time. Inter-node transfers reserve both
    /// endpoint NICs; intra-node transfers use dedicated PCIe lanes.
    fn transfer(&mut self, from: NodeId, to: NodeId, bytes: u64, tag: SpanTag) -> SimTime {
        let moved = match (tag, from == to) {
            (SpanTag::SyncTransfer { .. }, true) => &mut self.st.sync_intra,
            (SpanTag::SyncTransfer { .. }, false) => &mut self.st.sync_inter,
            (_, true) => &mut self.st.act_intra,
            (_, false) => &mut self.st.act_inter,
        };
        *moved += bytes;
        let now = self.st.engine.now();
        let dur = SimTime::from_secs(link_between(from, to).transfer_secs(bytes));
        if from == to {
            // Dedicated PCIe lanes carry no timeline resource, so link
            // degradation targets NICs (inter-node traffic) only.
            now + dur
        } else {
            let a = self.plan.nic_res[from.0];
            let b = self.plan.nic_res[to.0];
            // A degraded link runs at the slower endpoint's rate now.
            let rate = |r: ResourceId| self.plan.rates[r.index()].rate_at(now);
            let slower = if rate(a) <= rate(b) { a } else { b };
            let start = now
                .max(self.st.pool.get(a).free_at())
                .max(self.st.pool.get(b).free_at());
            let dur = self.plan.rates[slower.index()].duration_from(start, dur);
            let (s1, e1) = self.st.pool.get_mut(a).reserve(start, dur);
            let (s2, e2) = self.st.pool.get_mut(b).reserve(start, dur);
            debug_assert_eq!((s1, e1), (s2, e2), "paired NIC slots must align");
            self.record(a, s1, e1, tag);
            self.record(b, s2, e2, tag);
            e1
        }
    }

    /// Hands a reserved span to the sink.
    fn record(&mut self, resource: ResourceId, start: SimTime, end: SimTime, tag: SpanTag) {
        self.st.last_span_end = self.st.last_span_end.max(end);
        self.st.spans += 1;
        self.sink.record(resource, start, end, tag);
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
        let fifo = self.plan.dispatch == Dispatch::ArrivalFifo;
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
                let p = &self.plan.p;
                let k = p.vws[vw].stages();
                if p.schedule.recomputes_at(stage, k, p.wsp.nm, p.recompute) {
                    self.reserve_compute(vw, stage, ScheduleOp::Recompute { mb });
                }
                self.reserve_compute(vw, stage, ScheduleOp::Backward { mb });
            }
            Ev::FwdArrive { vw, stage, mb } | Ev::BwdArrive { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                let st = &mut self.st.stages[vw][stage];
                let arrived = if matches!(ev, Ev::FwdArrive { .. }) {
                    &mut st.fwd_arrived
                } else {
                    &mut st.bwd_arrived
                };
                debug_assert!(mb > *arrived, "activations and gradients arrive in order");
                *arrived = mb;
                self.advance_lane(vw, stage % self.st.lanes[vw].len());
            }
            Ev::FwdDone { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                // Neither discipline gates on the books: lanes keep
                // every stage within its declared window structurally
                // (the streams interleave forwards with the backwards
                // that release them), arrival-FIFO through the `Nm`
                // injection cap. The books check that invariant rather
                // than assume it.
                let st = &mut self.st.stages[vw][stage];
                st.held += 1;
                debug_assert!(
                    st.held <= self.plan.windows[vw][stage],
                    "execution exceeded the declared activation window \
                     ({} > {}) at vw{vw} stage {stage}",
                    st.held,
                    self.plan.windows[vw][stage]
                );
                if stage + 1 < self.plan.p.vws[vw].stages() {
                    self.send(vw, stage, mb, false);
                }
            }
            Ev::BwdDone { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                if !self.fused_at(vw, stage) {
                    let st = &mut self.st.stages[vw][stage];
                    debug_assert!(st.held >= 1, "window release without a holder");
                    st.held -= 1;
                }
                if stage > 0 {
                    self.send(vw, stage, mb, true);
                    return;
                }
                // Minibatch complete.
                let st = &mut self.st.states[vw];
                st.completed += 1;
                let completed = st.completed;
                self.lists[vw].completions.push(self.st.engine.now());
                debug_assert_eq!(completed, mb, "backwards complete in minibatch order");
                if fifo {
                    self.wake(vw);
                    let nm = self.plan.p.wsp.nm as u64;
                    if completed.is_multiple_of(nm) {
                        self.start_push(vw, completed / nm - 1);
                    }
                } else {
                    self.advance_lane(vw, 0);
                }
            }
            Ev::PushDone { vw, wave } => self.push_completed(vw as usize, wave),
            Ev::PullDone { vw } => self.pull_done(vw as usize),
            Ev::Fault => {}
        }
    }

    /// Whether `stage` is the schedule's fused last stage, which runs
    /// each minibatch's forward and backward as one task and so holds
    /// no activation set between tasks.
    fn fused_at(&self, vw: usize, stage: usize) -> bool {
        self.plan.p.schedule.fused_last_stage() && stage + 1 == self.plan.p.vws[vw].stages()
    }

    /// Arrival-FIFO injection: admits minibatches into stage 0 while
    /// fewer than `Nm` are in flight, the segment has not reached its
    /// stop point, and the WSP pull gate of the next minibatch is open.
    /// The admitted minibatch arrives at stage 0 as its own event.
    fn try_inject(&mut self, vw: usize) {
        let now = self.st.engine.now();
        while self.in_flight(vw) < self.plan.p.wsp.nm as u64 {
            let p = self.st.states[vw].next_mb;
            if self.past_stop(p) {
                break;
            }
            if let Some(wave) = self.plan.p.wsp.required_wave(p) {
                if !self.pull_gate_open(vw, wave, now) {
                    return;
                }
            }
            self.st.states[vw].next_mb += 1;
            let (engine, vw, stage) = (&mut self.st.engine, vw as u16, 0);
            engine.schedule_in(SimTime::ZERO, Ev::FwdArrive { vw, stage, mb: p });
        }
    }

    /// The WSP pull gate: true (with blocked-time bookkeeping closed
    /// out) when the local weights reflect `wave`, false (with the
    /// blocked window opened) when injection must wait.
    fn pull_gate_open(&mut self, vw: usize, wave: u64, now: SimTime) -> bool {
        let st = &mut self.st.states[vw];
        if st.pulled >= wave as i64 {
            if let Some(b) = st.block_start.take() {
                st.inject_blocked += now - b;
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
        self.st.states[vw].completed >= self.plan.p.wsp.last_of_wave(wave)
    }

    /// `lane`'s head op, pulled from the lane if its slot is empty.
    fn lane_head(&mut self, vw: usize, lane: usize) -> GpuOp {
        let st = &mut self.st;
        *st.heads[vw][lane].get_or_insert_with(|| st.lanes[vw].next(lane))
    }

    /// Executes `lane` in order for as long as op dependencies are
    /// satisfied, reserving GPU time slots eagerly (the FIFO timeline
    /// serializes them in lane order). Under a drain
    /// ([`SegmentOpts::stop_after_mb`]) past-boundary ops are discarded
    /// unexecuted. A composite lane interleaves stages, and a deep
    /// stage's backward of `mb + 1` can legitimately precede a shallow
    /// stage's backward of `mb` — so a stage's first past-boundary
    /// backward (backwards are per-stage in order) only marks that
    /// stage drained, and the lane parks for good at that backward once
    /// all of its stages are drained. Gates and pushes ahead of it
    /// still run.
    fn advance_lane(&mut self, vw: usize, lane: usize) {
        let now = self.st.engine.now();
        loop {
            let GpuOp { stage, op } = self.lane_head(vw, lane);
            if op.minibatch().is_some_and(|mb| self.past_stop(mb)) {
                if op.has_backward() {
                    let stages = &mut self.st.stages[vw];
                    stages[stage].drained = true;
                    let n = self.st.lanes[vw].len();
                    if (lane..stages.len()).step_by(n).all(|s| stages[s].drained) {
                        return;
                    }
                }
                self.st.heads[vw][lane] = None;
                continue;
            }
            let done = match op {
                // Nothing may run past a closed gate (staleness).
                ScheduleOp::PullGate { wave } => self.pull_gate_open(vw, wave, now),
                ScheduleOp::Push { wave } => {
                    let ready = self.wave_push_ready(vw, wave);
                    if ready {
                        self.start_push(vw, wave);
                    }
                    ready
                }
                ScheduleOp::FusedFwdBwd { .. } => unreachable!("lane schedules never fuse"),
                _ => self.input_ready(vw, stage, op) && self.reserve_fenced(vw, stage, op),
            };
            if !done {
                return;
            }
            self.st.heads[vw][lane] = None;
        }
    }

    /// Whether lane compute `op` of `stage` has its input: a forward
    /// waits for activations from the left (stage 0 reads its own
    /// data); a backward, and the recompute ahead of it, for the
    /// gradient from the right — at the pipeline's last virtual stage
    /// its input is its own forward, which precedes it on this GPU's
    /// timeline.
    fn input_ready(&self, vw: usize, stage: usize, op: ScheduleOp) -> bool {
        let stages = &self.st.stages[vw];
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
        if self.st.pool.get(self.gpu_of(vw, stage)).free_at() >= self.plan.horizon {
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
        let (fwd, bwd) = (self.plan.fwd[vw][stage], self.plan.bwd[vw][stage]);
        let (dur, tag) = {
            let (vw, stage) = (vw as u16, stage as u16);
            let mb = op.minibatch().map_or(0, SpanTag::index);
            match op {
                ScheduleOp::Forward { .. } => (fwd, SpanTag::Forward { vw, stage, mb }),
                ScheduleOp::Recompute { .. } => (fwd, SpanTag::Recompute { vw, stage, mb }),
                ScheduleOp::Backward { .. } => (bwd, SpanTag::Backward { vw, stage, mb }),
                // The wave schedule's fused last stage (Section 4) runs
                // forward and backward as one task, recorded as the
                // backward.
                ScheduleOp::FusedFwdBwd { .. } => (fwd + bwd, SpanTag::Backward { vw, stage, mb }),
                _ => unreachable!("{op:?} is not a compute op"),
            }
        };
        let device = self.plan.p.vws[vw].devices[stage].0;
        let gpu = self.plan.gpu_res[device];
        let now = self.st.engine.now();
        let rates = &self.plan.rates[gpu.index()];
        let (s, e) = self.st.pool.get_mut(gpu).reserve_work(now, dur, rates);
        self.record(gpu, s, e, tag);
        if let Some(report) = &mut self.st.report {
            report.record(device, now, s, e);
        }
        // Occupancy: a forward's end materializes an activation set, a
        // backward's end releases it; the fused task does both.
        match op {
            ScheduleOp::Forward { .. } => self.st.occupancy.record(vw, stage, now, e, 1),
            ScheduleOp::Backward { .. } | ScheduleOp::FusedFwdBwd { .. } => {
                self.st.occupancy.record(vw, stage, now, e, -1);
                if self.fused_at(vw, stage) {
                    self.st.occupancy.record(vw, stage, now, e, 1);
                }
            }
            _ => {}
        }
        // A recompute is a stage-local forward re-run: nothing waits on
        // it, since its backward is reserved right behind it on the
        // same FIFO timeline.
        let (vw, stage) = (vw as u16, stage as u16);
        let done = match op {
            ScheduleOp::Forward { mb } => Ev::FwdDone { vw, stage, mb },
            ScheduleOp::Backward { mb } | ScheduleOp::FusedFwdBwd { mb } => {
                Ev::BwdDone { vw, stage, mb }
            }
            _ => return,
        };
        self.st.engine.schedule_at(e, done);
    }

    /// Sends a stage's boundary activations to the next stage or, when
    /// `backward`, the gradient w.r.t. its inputs to the previous one
    /// (shared by both disciplines).
    fn send(&mut self, vw: usize, stage: usize, mb: u64, backward: bool) {
        let (next, bytes) = send_target(self.plan.p.graph, &self.plan.p.vws[vw], stage, backward);
        let (from, to) = (self.node_of(vw, stage), self.node_of(vw, next));
        let tag = SpanTag::ActTransfer {
            vw: vw as u16,
            stage: stage as u16,
            backward,
        };
        let arrive = self.transfer(from, to, bytes, tag);
        let (vw, stage) = (vw as u16, next as u16);
        let ev = if backward {
            Ev::BwdArrive { vw, stage, mb }
        } else {
            Ev::FwdArrive { vw, stage, mb }
        };
        self.st.engine.schedule_at(arrive, ev);
    }

    // ------------------------------------------------------------------
    // WSP push/pull protocol (shared by both disciplines).
    // ------------------------------------------------------------------

    fn start_push(&mut self, vw: usize, wave: u64) {
        // Consecutive waves' pushes run *concurrently*: each wave's
        // transfers contend on the NIC timelines like any other traffic
        // instead of being serialized FIFO behind the previous wave's
        // completion.
        if self.plan.chunks[vw].is_empty() {
            self.push_completed(vw, wave);
        } else {
            self.sync_chunks(vw, wave, false);
        }
    }

    /// Moves each of `vw`'s sync chunks to its shard (a push of
    /// `wave`) or, for a `pull`, back. Every chunk reserves its NICs
    /// and records its spans; the transfer is one event, its
    /// completion at the last chunk's arrival.
    fn sync_chunks(&mut self, vw: usize, wave: u64, pull: bool) {
        let mut last = SimTime::ZERO;
        for i in 0..self.plan.chunks[vw].len() {
            let ch = self.plan.chunks[vw][i];
            let (from, to) = if pull {
                (ch.shard_node, ch.gpu_node)
            } else {
                (ch.gpu_node, ch.shard_node)
            };
            let tag = SpanTag::SyncTransfer {
                vw: vw as u16,
                wave: SpanTag::index(wave),
                pull,
            };
            let arrive = self.transfer(from, to, ch.bytes, tag);
            if arrive <= self.plan.horizon {
                self.st.last_arrival = self.st.last_arrival.max(arrive);
            }
            last = last.max(arrive);
        }
        let vw = vw as u16;
        let done = if pull {
            Ev::PullDone { vw }
        } else {
            Ev::PushDone { vw, wave }
        };
        self.st.engine.schedule_at(last, done);
    }

    fn push_completed(&mut self, vw: usize, wave: u64) {
        let now = self.st.engine.now();
        // Concurrent waves can complete out of order (their chunks take
        // different NIC paths); the clock is monotone.
        let slowest = self.st.clocks.min();
        self.st.clocks.advance(vw, wave + 1);
        // Request this VW's own pull (Section 5: at the end of clock c,
        // pull weights that cover wave c − D).
        if let Some(target) = self.plan.p.wsp.pull_target_after_push(wave) {
            let st = &mut self.st.states[vw];
            match &mut st.pull_request {
                Some((t, _since)) => *t = (*t).max(target),
                None => {
                    st.pull_request = Some((target, now));
                    if let Some(report) = &mut self.st.report {
                        report.open_wait(vw, now);
                    }
                }
            }
        }
        // The gate reads only the slowest clock. A push that raised it
        // may unblock any VW's pending pull. Any other push can make
        // only the pushing VW's pull serviceable, by requesting it. No
        // pull is left serviceable after an event (fast-forward shifts
        // the clocks and the pull targets alike), so either branch
        // serves what a scan of every VW would, in the same order.
        if self.st.clocks.min() > slowest {
            for v in 0..self.st.states.len() {
                self.try_serve_pull(v);
            }
        } else {
            debug_assert!(
                (0..self.st.states.len()).all(|v| v == vw || !self.pull_serviceable(v)),
                "a pull is serviceable although the slowest push clock did not rise"
            );
            self.try_serve_pull(vw);
        }
    }

    /// Whether `vw` has a pending pull, no pull transfer in flight, and
    /// every VW has pushed the pull's target wave.
    fn pull_serviceable(&self, vw: usize) -> bool {
        let st = &self.st.states[vw];
        match st.pull_request {
            Some((target, _)) => !st.pulling && self.st.clocks.is_open(target),
            None => false,
        }
    }

    /// Serves `vw`'s pending pull if it is serviceable.
    fn try_serve_pull(&mut self, vw: usize) {
        if self.pull_serviceable(vw) {
            self.serve_pull(vw, self.st.clocks.min() as i64 - 1);
        }
    }

    /// Applies a decided pull serve for `vw` at the current instant,
    /// installing the global `version`.
    fn serve_pull(&mut self, vw: usize, version: i64) {
        let now = self.st.engine.now();
        let st = &mut self.st.states[vw];
        let (_, since) = (st.pull_request.take()).expect("serve_pull requires a pending request");
        debug_assert!(!st.pulling);
        st.pull_wait += now - since;
        st.pull_serving_version = version;
        self.lists[vw].wait_windows.push((since, now));
        if let Some(report) = &mut self.st.report {
            report.close_wait(vw, since, now);
        }
        if self.plan.chunks[vw].is_empty() {
            self.pull_landed(vw);
            return;
        }
        self.st.states[vw].pulling = true;
        self.sync_chunks(vw, version.max(0) as u64, true);
    }

    /// `vw`'s pull transfer has landed.
    fn pull_done(&mut self, vw: usize) {
        self.st.states[vw].pulling = false;
        self.pull_landed(vw);
        // A newer request may have queued while transferring.
        self.try_serve_pull(vw);
    }

    /// `vw`'s pull has landed: its weights reflect the served version,
    /// and injection may resume.
    fn pull_landed(&mut self, vw: usize) {
        let st = &mut self.st.states[vw];
        st.pulled = st.pulled.max(st.pull_serving_version);
        self.wake(vw);
    }

    /// Tries `vw`'s injection again, as its own event now.
    fn wake(&mut self, vw: usize) {
        let (engine, vw) = (&mut self.st.engine, vw as u16);
        engine.schedule_in(SimTime::ZERO, Ev::TryInject { vw });
    }

    /// Simulates on from the current state to the horizon, skipping
    /// whole periods of a steady state when the sink keeps no spans
    /// (the `fastforward` module).
    fn simulate(self) -> (RunStats, S, Option<SystemReport>) {
        self.simulate_with_store(fastforward::STORE_WORDS)
    }

    /// [`Exec::simulate`] with a fast-forward store of `store_words`
    /// words.
    fn simulate_with_store(mut self, store_words: usize) -> (RunStats, S, Option<SystemReport>) {
        let horizon = self.plan.horizon;
        let mut ff = fastforward::Forward::new(&self, store_words);
        while let Some(ev) = self.st.engine.next_event_until(horizon) {
            self.handle(ev);
            if !S::KEEPS_SPANS {
                ff.after_event(&mut self);
            }
        }
        let (mut stats, sink, report) = self.finish();
        stats.fast_forward = ff.finish(stats.events);
        (stats, sink, report)
    }

    /// Folds the finished simulation into [`RunStats`] (with an empty
    /// trace) and hands back the sink and, when the run folds one, its
    /// report.
    fn finish(self) -> (RunStats, S, Option<SystemReport>) {
        let Exec {
            plan,
            st,
            lists,
            sink,
        } = self;
        // A run ends at its last event, or at a sync chunk's later
        // arrival inside the horizon. A drained segment ends when its
        // last span of work does, not at engine quiescence: scheduled
        // rate edges are first-class events, so a recovery edge far
        // past the splice boundary would otherwise inflate the epoch
        // and ride out the whole outage the splice was meant to dodge.
        let now = st.engine.now().max(st.last_arrival);
        let end = if plan.opts.stop_after_mb.is_some() {
            st.last_span_end.min(now)
        } else {
            now
        };
        let vws = (st.states.iter().zip(lists).enumerate())
            .map(|(vw, (s, l))| VwStats {
                completions: l.completions,
                waves_pushed: st.clocks.get(vw),
                pull_wait: s.pull_wait,
                wait_windows: l.wait_windows,
                inject_blocked: s.inject_blocked,
            })
            .collect();
        let stats = RunStats {
            horizon: plan.horizon,
            end,
            events: st.engine.processed(),
            vws,
            trace: Trace::new(),
            peaks: st.occupancy.finish(),
            gpu_resources: plan.gpu_res,
            nic_resources: plan.nic_res,
            pool: st.pool,
            sync_bytes_inter: st.sync_inter,
            sync_bytes_intra: st.sync_intra,
            act_bytes_inter: st.act_inter,
            act_bytes_intra: st.act_intra,
            planned_fwd: plan.fwd,
            planned_bwd: plan.bwd,
            fast_forward: None,
        };
        let report = st.report.map(|fold| {
            let p = &plan.p;
            let devices: Vec<Vec<DeviceId>> = p.vws.iter().map(|v| v.devices.clone()).collect();
            SystemReport::from_fold(&stats, p.cluster, p.graph.batch_size, fold, &devices)
        });
        (stats, sink, report)
    }
}

/// The link a transfer between two nodes crosses: dedicated PCIe lanes
/// within a node, InfiniBand between nodes.
fn link_between(from: NodeId, to: NodeId) -> LinkKind {
    if from == to {
        LinkKind::Pcie
    } else {
        LinkKind::Infiniband
    }
}

/// The stage a send of `vw`'s stage `stage` goes to and its bytes: the
/// boundary activations to the next stage or, when `backward`, the
/// gradient w.r.t. the stage's inputs to the previous one.
fn send_target(
    graph: &ModelGraph,
    vw: &VirtualWorker,
    stage: usize,
    backward: bool,
) -> (usize, u64) {
    let range = &vw.plan.ranges[stage];
    if backward {
        (stage - 1, graph.input_bytes_of(range.start))
    } else {
        (stage + 1, graph.boundary_bytes(range.end - 1))
    }
}

/// The nominal seconds of one activation send of `vw`'s stage `stage`
/// (its gradient send when `backward`), before the executor rounds them
/// to a [`SimTime`]: the `transfer_secs` of its bytes over the link
/// between the two stages' nodes, as the executor's send computes them.
pub fn send_secs(
    cluster: &Cluster,
    graph: &ModelGraph,
    vw: &VirtualWorker,
    stage: usize,
    backward: bool,
) -> f64 {
    let (next, bytes) = send_target(graph, vw, stage, backward);
    let node = |s: usize| cluster.node_of(vw.devices[s]);
    link_between(node(stage), node(next)).transfer_secs(bytes)
}

/// The planned (nominal, fault-free) per-VW per-stage forward and
/// backward compute times, each including the per-task framework
/// overhead: what the executor dispatches with and returns as
/// [`RunStats::planned_fwd`] / [`RunStats::planned_bwd`]. A caller
/// that folds spans while the run executes (the runtime monitor)
/// reads them before the run. Each is [`planned_stage_secs`]' entry
/// rounded to a [`SimTime`].
pub fn planned_stage_times(
    cluster: &Cluster,
    graph: &ModelGraph,
    vws: &[VirtualWorker],
) -> (Vec<Vec<SimTime>>, Vec<Vec<SimTime>>) {
    let (fwd, bwd) = planned_stage_secs(cluster, graph, vws);
    let round = |rows: Vec<Vec<f64>>| -> Vec<Vec<SimTime>> {
        let row = |r: Vec<f64>| r.into_iter().map(SimTime::from_secs).collect();
        rows.into_iter().map(row).collect()
    };
    (round(fwd), round(bwd))
}

/// [`planned_stage_times`] before rounding: per VW and stage, the
/// forward and the backward seconds of the stage's layers on its GPU,
/// each plus one task's overhead.
pub fn planned_stage_secs(
    cluster: &Cluster,
    graph: &ModelGraph,
    vws: &[VirtualWorker],
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut fwd = Vec::with_capacity(vws.len());
    let mut bwd = Vec::with_capacity(vws.len());
    for vw in vws {
        let mut f = Vec::with_capacity(vw.plan.ranges.len());
        let mut b = Vec::with_capacity(vw.plan.ranges.len());
        for (q, range) in vw.plan.ranges.iter().enumerate() {
            let spec = cluster.spec_of(vw.devices[q]);
            let layers = &graph.layers()[range.clone()];
            let fs: f64 = layers
                .iter()
                .map(|l| pass_time_secs(l, &spec, Pass::Forward))
                .sum();
            let bs: f64 = layers
                .iter()
                .map(|l| pass_time_secs(l, &spec, Pass::Backward))
                .sum();
            // Each dispatched stage task pays the framework cost.
            f.push(fs + STAGE_TASK_OVERHEAD_SECS);
            b.push(bs + STAGE_TASK_OVERHEAD_SECS);
        }
        fwd.push(f);
        bwd.push(b);
    }
    (fwd, bwd)
}

/// Runs the pipeline simulation until `horizon` under default segment
/// options, keeping every span in [`RunStats::trace`].
pub fn run(params: ExecParams<'_>, horizon: SimTime) -> RunStats {
    let (mut stats, trace, _) =
        run_into(params, SegmentOpts::default(), horizon, Trace::new(), None);
    stats.trace = trace;
    stats
}

/// The executor's general entry point: simulates one *segment* to
/// `horizon` under `opts` — pre-existing and scheduled resource-rate
/// changes (fault injection), an optional stop-and-drain point at a
/// wave boundary (the splice the reactive runtime re-plans at); default
/// options are [`run`]'s, the zero-fault invariance. It hands every
/// span to `sink` as it is reserved and returns the [`RunStats`] (whose
/// trace is empty: the spans went to the sink), the sink, and — given a
/// `warmup` — the run's report, folded while it executed with its
/// measurement window starting at `warmup`. That report equals
/// [`SystemReport::from_stats`] over the kept trace bit for bit.
///
/// With a sink that keeps no span, the run fast-forwards through its
/// steady state: it finds the exact period its executor state repeats
/// with and skips whole periods, stopping short of the warm-up, the
/// horizon, rate edges and the stop point. The report and every
/// [`RunStats`] field equal a fully simulated run's bit for bit;
/// [`RunStats::events`] counts the skipped events too, and
/// [`RunStats::fast_forward`] says what was skipped. A sink that keeps
/// spans sees every span, in recording order.
pub fn run_into<S: SpanSink<SpanTag>>(
    params: ExecParams<'_>,
    opts: SegmentOpts,
    horizon: SimTime,
    sink: S,
    warmup: Option<SimTime>,
) -> (RunStats, S, Option<SystemReport>) {
    Exec::new(Plan::new(params, opts, horizon), warmup, sink).simulate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pserver::Placement;
    use hetpipe_cluster::DeviceId;
    use hetpipe_des::Discard;
    use hetpipe_schedule::Schedule::{FillDrain, HetPipeWave, OneFOneB};

    /// VWs over `groups` of the paper testbed for VGG-19 (batch 32),
    /// each partitioned for `schedule` under `recompute`; an
    /// interleaved schedule's virtual stages repeat the group's GPUs
    /// round-robin.
    pub(super) fn build_vws(
        groups: &[Vec<DeviceId>],
        nm: usize,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> Vec<VirtualWorker> {
        let (cluster, graph) = (Cluster::paper_testbed(), hetpipe_model::vgg19(32));
        let mut planner = crate::Planner::new(&cluster, &graph, schedule, recompute);
        let vw = |(index, group): (usize, &Vec<DeviceId>)| planner.worker(index, group, nm);
        groups
            .iter()
            .enumerate()
            .map(vw)
            .map(|vw| vw.expect("feasible"))
            .collect()
    }

    /// Hands `f` the executor inputs that run `vws` (from
    /// [`build_vws`]) under `schedule` and `recompute`, with sync
    /// transfers and shards placed by `placement`.
    pub(super) fn with_params<R>(
        vws: &[VirtualWorker],
        wsp: WspParams,
        placement: Placement,
        schedule: Schedule,
        recompute: RecomputePolicy,
        f: impl FnOnce(ExecParams<'_>) -> R,
    ) -> R {
        let (cluster, graph) = (Cluster::paper_testbed(), hetpipe_model::vgg19(32));
        let shards = ShardMap::build(placement, &graph, &cluster, &vws[0]);
        f(ExecParams {
            cluster: &cluster,
            graph: &graph,
            vws,
            wsp,
            shards: &shards,
            sync_transfers: true,
            schedule,
            recompute,
        })
    }

    /// The paper testbed's ED groups: VW `j` holds GPU `j` of each node.
    pub(super) fn ed_groups() -> Vec<Vec<DeviceId>> {
        (0..4)
            .map(|j| (0..4).map(|n| DeviceId(n * 4 + j)).collect())
            .collect()
    }

    /// Runs `groups` (partitioned for the wave schedule) under
    /// `schedule` for `secs`, keeping every span.
    fn run_groups(
        groups: &[Vec<DeviceId>],
        wsp: WspParams,
        placement: Placement,
        schedule: Schedule,
        opts: SegmentOpts,
        secs: f64,
    ) -> RunStats {
        let vws = build_vws(groups, wsp.nm, Schedule::HetPipeWave, RecomputePolicy::None);
        let horizon = SimTime::from_secs(secs);
        with_params(&vws, wsp, placement, schedule, RecomputePolicy::None, |p| {
            let (mut stats, trace, _) = run_into(p, opts, horizon, Trace::new(), None);
            stats.trace = trace;
            stats
        })
    }

    /// [`run`]s the ED groups at `(Nm, D)`, shards local, for `secs`.
    fn run_ed_sched(nm: usize, d: usize, secs: f64, schedule: Schedule) -> RunStats {
        let (wave, none) = (Schedule::HetPipeWave, RecomputePolicy::None);
        let vws = build_vws(&ed_groups(), nm, wave, none);
        let (wsp, horizon) = (WspParams::new(nm, d), SimTime::from_secs(secs));
        with_params(&vws, wsp, Placement::Local, schedule, none, |p| {
            run(p, horizon)
        })
    }

    fn run_ed(nm: usize, d: usize, secs: f64) -> RunStats {
        run_ed_sched(nm, d, secs, Schedule::HetPipeWave)
    }

    /// Runs `groups` at `D = 0`, shards placed by default, for `secs`.
    fn run_default(groups: &[Vec<DeviceId>], nm: usize, schedule: Schedule, secs: f64) -> RunStats {
        let (wsp, opts) = (WspParams::new(nm, 0), SegmentOpts::default());
        run_groups(groups, wsp, Placement::Default, schedule, opts, secs)
    }

    /// A kept span is 32 bytes: its tag's `u16` indices pack beside
    /// the `u32` minibatch or wave number into 12, aligned to 4, and
    /// its resource id is a `u32`.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn kept_spans_are_thirty_two_bytes() {
        assert_eq!(std::mem::size_of::<SpanTag>(), 12);
        assert_eq!(std::mem::align_of::<SpanTag>(), 4);
        assert_eq!(std::mem::size_of::<ResourceId>(), 4);
        assert_eq!(std::mem::size_of::<hetpipe_des::Span<SpanTag>>(), 32);
    }

    /// Tags narrow minibatch and wave numbers to `u32` through one
    /// checked helper: the largest `u32` passes, one more panics.
    #[test]
    fn tag_indices_narrow_with_a_check() {
        assert_eq!(SpanTag::index(u64::from(u32::MAX)), u32::MAX);
        let err = std::panic::catch_unwind(|| SpanTag::index(u64::from(u32::MAX) + 1))
            .expect_err("2^32 does not fit a tag");
        let msg = err.downcast_ref::<String>().map(String::as_str);
        assert!(
            msg.is_some_and(|m| m.contains("span tags number minibatches and waves below 2^32")),
            "{msg:?}"
        );
    }

    /// An event is 16 bytes: its `u16` ids pack beside the minibatch
    /// or wave number, so a queued event with its `u128` key is 32.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn events_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Ev>(), 16);
    }

    #[test]
    fn pipeline_makes_progress() {
        let stats = run_ed(4, 0, 30.0);
        for (i, vw) in stats.vws.iter().enumerate() {
            let (done, waves) = (vw.completions.len(), vw.waves_pushed);
            assert!(done > 20 && waves > 4, "vw{i}: {done}, {waves} waves");
        }
    }

    #[test]
    fn completions_are_monotone_and_fifo() {
        let stats = run_ed(4, 0, 10.0);
        for vw in &stats.vws {
            assert!(vw.completions.is_sorted());
        }
    }

    #[test]
    fn deeper_pipelining_increases_throughput() {
        let t1 = run_ed(1, 0, 30.0).vws[0].completions.len();
        let t4 = run_ed(4, 0, 30.0).vws[0].completions.len();
        assert!(t4 as f64 > t1 as f64 * 1.5, "Nm=4 {t4} vs Nm=1 {t1}");
    }

    #[test]
    fn d0_keeps_vws_in_lockstep() {
        // With D = 0 every VW's clock stays within 1 of the others
        // (BSP-like behaviour, Section 5).
        let stats = run_ed(4, 0, 20.0);
        let clocks = PushClocks::new(stats.vws.iter().map(|v| v.waves_pushed).collect());
        assert!(clocks.within(1), "clocks diverged: {clocks:?}");
    }

    #[test]
    fn larger_d_reduces_waiting() {
        // ED VWs are identical so waits are small either way, but D = 4
        // must never wait longer than D = 0 (Section 8.4).
        let wait = |d| {
            run_ed(4, d, 30.0)
                .vws
                .iter()
                .fold(SimTime::ZERO, |a, v| a + v.pull_wait)
        };
        let (w0, w4) = (wait(0), wait(4));
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
        let groups = vec![vec![DeviceId(0)], vec![DeviceId(1)]];
        let stats = run_default(&groups, 1, Schedule::HetPipeWave, 20.0);
        assert!(stats.vws[0].completions.len() > 10);
    }

    #[test]
    fn straggler_vws_forced_to_wait_under_d0() {
        // NP-style allocation: one fast VVVV VW and one slow QQQQ VW.
        // With D = 0 the fast VW must accumulate pull waiting time.
        let groups = vec![
            (0..4).map(DeviceId).collect(),
            (12..16).map(DeviceId).collect(),
        ];
        let stats = run_default(&groups, 2, Schedule::HetPipeWave, 30.0);
        let (fast, slow) = (&stats.vws[0], &stats.vws[1]);
        let (f, s) = (fast.pull_wait, slow.pull_wait);
        assert!(f > s, "fast VW should wait more: {f} vs {s}");
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
                let (done, waves) = (vw.completions.len(), vw.waves_pushed);
                assert!(done > 20 && waves > 4, "{schedule} vw{i}: {done}, {waves}");
            }
        }
    }

    #[test]
    fn one_f_one_b_beats_fill_drain() {
        // 1F1B overlaps the drain with the next fill; with Nm = 4 its
        // steady state strictly dominates GPipe's fill-drain bubbles.
        let done = |s| run_ed_sched(4, 0, 30.0, s).vws[0].completions.len();
        let (gpipe, ofob) = (done(Schedule::FillDrain), done(Schedule::OneFOneB));
        assert!(ofob > gpipe, "1F1B {ofob} vs fill-drain {gpipe}");
    }

    #[test]
    fn stream_schedules_respect_d0_lockstep() {
        for schedule in [Schedule::FillDrain, Schedule::OneFOneB] {
            let stats = run_ed_sched(4, 0, 20.0, schedule);
            let clocks = PushClocks::new(stats.vws.iter().map(|v| v.waves_pushed).collect());
            assert!(clocks.within(1), "{schedule} clocks diverged: {clocks:?}");
        }
    }

    // --------------------------------------------------------------
    // Segment machinery: faults, drains, zero-fault invariance.
    // --------------------------------------------------------------

    fn run_ed_segment(nm: usize, secs: f64, schedule: Schedule, opts: SegmentOpts) -> RunStats {
        let wsp = WspParams::new(nm, 0);
        run_groups(&ed_groups(), wsp, Placement::Local, schedule, opts, secs)
    }

    #[test]
    fn zero_fault_segment_is_bit_identical_to_run() {
        for schedule in [HetPipeWave, FillDrain, OneFOneB] {
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
            let slow = SegmentOpts {
                rate_events: vec![RateEvent {
                    at: SimTime::from_secs(2.0),
                    // Slow VW 0's stage-1 GPU (device 4 hosts ED group
                    // 0's second stage) by x4 — far past the pipeline
                    // bottleneck, so it must bind.
                    target: RateTarget::Gpu(4),
                    rate: 0.25,
                }],
                ..SegmentOpts::default()
            };
            let faulted = run_ed_segment(4, 20.0, schedule, slow);
            let (c, f) = (
                clean.vws[0].completions.len(),
                faulted.vws[0].completions.len(),
            );
            assert!((f as f64) < c as f64 * 0.9, "{schedule}: {f} vs {c}");
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
        let loss = SegmentOpts {
            rate_events: vec![RateEvent {
                at: SimTime::from_secs(3.0),
                target: RateTarget::Gpu(4),
                rate: 0.0,
            }],
            ..SegmentOpts::default()
        };
        let faulted = run_ed_segment(4, 15.0, Schedule::HetPipeWave, loss);
        // VW 0 stops completing shortly after the loss; the run still
        // terminates (no live-lock) and other VWs are eventually
        // throttled by the WSP distance bound, not deadlocked.
        let last = faulted.vws[0].completions.last().copied().unwrap();
        assert!(last < SimTime::from_secs(5.0), "vw0 completed at {last}");
        assert!(faulted.end <= SimTime::from_secs(15.0));
    }

    #[test]
    fn segment_drain_stops_at_wave_boundary() {
        for schedule in [HetPipeWave, FillDrain, OneFOneB] {
            let drain = SegmentOpts {
                stop_after_mb: Some(8),
                ..SegmentOpts::default()
            };
            let seg = run_ed_segment(4, 30.0, schedule, drain);
            // Exactly the boundary wave completes.
            for (i, vw) in seg.vws.iter().enumerate() {
                let (done, waves) = (vw.completions.len(), vw.waves_pushed);
                assert_eq!((done, waves), (8, 2), "{schedule} vw{i}");
            }
            // The drain ends well before the horizon: that end is the
            // splice point.
            let end = seg.end;
            assert!(end < SimTime::from_secs(29.0), "{schedule}: ends at {end}");
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
    fn run_into_rejects_a_mid_wave_stop() {
        let mid_wave = SegmentOpts {
            stop_after_mb: Some(6),
            ..SegmentOpts::default()
        };
        run_ed_segment(4, 5.0, Schedule::HetPipeWave, mid_wave);
    }

    /// A push or a pull is one completion event, at its last chunk's
    /// arrival, and a run the horizon cuts mid-transfer ends at the
    /// latest chunk arrival inside the horizon. Cell: the paper
    /// testbed's NP groups with default shard placement, every VW
    /// pushing to several shards. A dynamically audited invariant:
    /// evidence for this cell, not a proof.
    #[test]
    fn transfers_complete_once_at_their_last_chunk() {
        let (wsp, placement) = (WspParams::new(2, 1), Placement::Default);
        let (schedule, recompute) = (Schedule::HetPipeWave, RecomputePolicy::None);
        let np = (0..4).map(|n| (n * 4..n * 4 + 4).map(DeviceId).collect());
        let vws = build_vws(&np.collect::<Vec<_>>(), wsp.nm, schedule, recompute);
        with_params(&vws, wsp, placement, schedule, recompute, |params| {
            let run = |secs| Plan::new(params.clone(), SegmentOpts::default(), secs);
            let mut ex = Exec::new(run(SimTime::from_secs(6.0)), None, Trace::new());
            assert!(ex.plan.chunks.iter().all(|c| c.len() > 1));
            while let Some(ev) = ex.st.engine.next_event_until(ex.plan.horizon) {
                ex.handle(ev);
                // Each queued completion as (vw, wave), a pull's wave `None`.
                let mut done: Vec<(u16, Option<u64>)> = (ex.st.engine.pending_events())
                    .filter_map(|(_, _, ev)| match *ev {
                        Ev::PushDone { vw, wave } => Some((vw, Some(wave))),
                        Ev::PullDone { vw } => Some((vw, None)),
                        _ => None,
                    })
                    .collect();
                done.sort_unstable();
                assert!(done.windows(2).all(|w| w[0] != w[1]), "{done:?}");
                for (vw, st) in ex.st.states.iter().enumerate() {
                    let pull = done.contains(&(vw as u16, None));
                    assert_eq!(pull, st.pulling, "vw{vw}: a pull in flight is one event");
                }
            }
            // Every chunk arrival of a push but its last, as a horizon.
            let (mut cuts, trace) = (Vec::new(), ex.finish().1);
            for (vw, wave) in (0..4).flat_map(|vw| (2..5).map(move |wave| (vw, wave))) {
                let push = SpanTag::SyncTransfer {
                    vw,
                    wave,
                    pull: false,
                };
                let ends = trace
                    .spans()
                    .iter()
                    .filter(|s| s.tag == push)
                    .map(|s| s.end);
                let last = ends.clone().max().expect("a pushed wave");
                cuts.extend(ends.filter(|&end| end < last));
            }
            assert!(cuts.len() > 8, "{} cuts", cuts.len());
            let mut between_events = 0;
            for horizon in cuts {
                let mut ex = Exec::new(run(horizon), None, Discard);
                while let Some(ev) = ex.st.engine.next_event_until(horizon) {
                    ex.handle(ev);
                }
                between_events += (ex.st.engine.now() < horizon) as usize;
                assert_eq!(ex.finish().0.end, horizon, "a chunk arrives at {horizon}");
            }
            assert!(between_events > 0, "every cut fell on an event");
        });
    }

    /// A transfer that starts while both endpoint NICs run at the same
    /// degraded rate integrates over the sender's timeline, also where
    /// the receiver recovers first: a tie picks the sender. Both NIC
    /// spans take the sender's duration. Tier: unit.
    #[test]
    fn a_tied_nic_rate_integrates_over_the_senders_timeline() {
        let (wsp, recompute) = (WspParams::new(4, 0), RecomputePolicy::None);
        let vws = build_vws(&ed_groups(), wsp.nm, HetPipeWave, recompute);
        let bytes = 1 << 28;
        let nominal = SimTime::from_secs(LinkKind::Infiniband.transfer_secs(bytes));
        // Both NICs at half rate; the receiver's recovers after one
        // nominal duration, the sender's after four.
        let recover = |node, k| RateEvent {
            at: SimTime::from_nanos(k * nominal.as_nanos()),
            target: RateTarget::Nic(node),
            rate: 1.0,
        };
        let opts = SegmentOpts {
            initial_rates: vec![(RateTarget::Nic(0), 0.5), (RateTarget::Nic(1), 0.5)],
            rate_events: vec![recover(1, 1), recover(0, 4)],
            ..SegmentOpts::default()
        };
        with_params(
            &vws,
            wsp,
            Placement::Local,
            HetPipeWave,
            recompute,
            |params| {
                let plan = Plan::new(params, opts, SimTime::from_secs(60.0));
                let mut ex = Exec::new(plan, None, Trace::new());
                let tag = SpanTag::ActTransfer {
                    vw: 0,
                    stage: 0,
                    backward: false,
                };
                let arrive = ex.transfer(NodeId(0), NodeId(1), bytes, tag);
                let (sender, receiver) = (ex.plan.nic_res[0], ex.plan.nic_res[1]);
                let along =
                    |r: ResourceId| ex.plan.rates[r.index()].duration_from(SimTime::ZERO, nominal);
                let dur = along(sender);
                assert!(along(receiver) < dur, "the receiver recovers first");
                assert_eq!(arrive, dur);
                let spans: Vec<_> = (ex.sink.spans().iter())
                    .map(|s| (s.resource, s.start, s.end))
                    .collect();
                assert_eq!(
                    spans,
                    [(sender, SimTime::ZERO, dur), (receiver, SimTime::ZERO, dur)]
                );
            },
        );
    }

    #[test]
    fn stream_single_gpu_vw_works() {
        // k = 1 exercises the "backward depends on own forward" path.
        let groups = vec![vec![DeviceId(0)], vec![DeviceId(1)]];
        for schedule in [Schedule::FillDrain, Schedule::OneFOneB] {
            let stats = run_default(&groups, 1, schedule, 20.0);
            assert!(
                stats.vws[0].completions.len() > 10,
                "{schedule} made no progress on k=1"
            );
        }
    }
}
