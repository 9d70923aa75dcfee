//! Pluggable pipeline schedules.
//!
//! HetPipe (Park et al., USENIX ATC 2020) fixes one pipeline schedule —
//! the Figure-1 wave schedule with `Nm` minibatches in flight — but the
//! design space it competes in is defined by *schedules*: GPipe's
//! fill-drain, PipeDream's one-forward-one-backward (1F1B), and
//! interleaved virtual-stage variants. This crate reifies a static
//! pipeline schedule as data so the executor, the memory model, and the
//! partitioner can all be generic over it:
//!
//! - [`ScheduleOp`] — the alphabet: forward / backward / fused tasks
//!   plus the WSP wave bookkeeping ops (`Push`, `PullGate`).
//! - [`ScheduleStream`] — a deterministic, infinite, per-stage op
//!   stream (the schedule *as data*).
//! - [`GpuStream`] / [`GpuOp`] — the *composite per-GPU* stream form:
//!   one ordered timeline per physical GPU, merging the co-located
//!   virtual-stage chunks in Megatron-style chunk groups, each op
//!   tagged with its stage. Schedules whose
//!   [`PipelineSchedule::dispatch`] is `GpuStreamOrder` are executed
//!   from these streams; the per-stage streams remain as projections
//!   for stage-local analyses.
//! - [`Lane`] / [`lanes`] — the ordered op queues a virtual worker
//!   executes, one per virtual stage or, for composite schedules, one
//!   per physical GPU. The executor and [`committed_queues`] both
//!   build them here.
//! - [`PipelineSchedule`] — the trait: op streams (per stage and,
//!   for composite schedules, per GPU), the dispatch discipline, and
//!   per-stage peak-memory accounting (in-flight activations and
//!   pinned weight versions).
//! - [`Schedule`] — the trait's one implementor, a `Copy` enum with
//!   one variant per schedule: the paper's wave schedule
//!   ([`Schedule::HetPipeWave`]), GPipe fill-drain
//!   ([`Schedule::FillDrain`]), PipeDream 1F1B
//!   ([`Schedule::OneFOneB`]) and Megatron interleaving
//!   ([`Schedule::Interleaved1F1B`], in both its composite per-GPU and
//!   depth-expanded forms).
//! - [`WspParams`] — the Wave Synchronous Parallel clock / staleness
//!   algebra (Sections 4–5 of the paper), which every schedule's wave
//!   bookkeeping is expressed in.
//! - [`RecomputePolicy`] — activation recomputation
//!   (GPipe/PipeDream-2BW-style checkpointing): stash only boundary
//!   inputs and re-run each stage forward right before its backward,
//!   trading compute for memory.
//!
//! # The enforced memory model
//!
//! [`PipelineSchedule::max_in_flight`] is a **contract with the
//! runtime**, not documentation: it is the peak number of minibatches
//! that may simultaneously hold activations at a stage, and every
//! layer of the system treats it as such.
//!
//! - The **partitioner** charges `max_in_flight × per-minibatch
//!   activation bytes` (plus [`PipelineSchedule::extra_weight_versions`]
//!   stashed parameter copies) when certifying that a stage fits its
//!   GPU.
//! - The **executor** bounds the same window without a dispatch-time
//!   gate: stream-order schedules execute their declared lanes in
//!   order, and on arrival-FIFO schedules the `Nm` injection cap
//!   bounds every stage, so each non-fused stage must declare at least
//!   `Nm` (the executor asserts this at construction). Its
//!   completion-based occupancy books check every stage against the
//!   declaration as the run goes.
//! - The **trace audit** (`hetpipe-core`'s `OccupancyAudit`) measures
//!   per-stage and per-GPU peak occupancy from the simulated span
//!   trace and asserts measured ≤ declared as a first-class invariant
//!   (exercised by the tier-1 tests and the CI schedule sweep).
//!
//! Declared bounds must therefore be *sound* rather than idealized:
//! the wave schedule declares the arrival-FIFO-achievable `Nm` per
//! non-fused stage (see [`Schedule::HetPipeWave`]'s docs for why
//! Figure 1's `min(Nm, 2(k−1−q)+1)` window is unsound under timing
//! skew). Where the honest charge makes a plan memory-infeasible,
//! [`RecomputePolicy::BoundaryOnly`] drops the per-minibatch stash to
//! the boundary input — [`ScheduleStream::with_recompute`] inserts a
//! [`ScheduleOp::Recompute`] before every standalone backward, and the
//! cost model pays one extra forward per minibatch for it.
//!
//! # Example
//!
//! ```
//! use hetpipe_schedule::{PipelineSchedule, Schedule, ScheduleOp, WspParams};
//!
//! // Stage 0 of a 4-stage 1F1B pipeline with waves of 4: four warmup
//! // forwards, then strict one-forward-one-backward alternation.
//! let wsp = WspParams::new(4, 0);
//! let ops: Vec<ScheduleOp> = Schedule::OneFOneB.stream(0, 4, wsp).take(6).collect();
//! assert_eq!(ops[..4], [
//!     ScheduleOp::Forward { mb: 1 },
//!     ScheduleOp::Forward { mb: 2 },
//!     ScheduleOp::Forward { mb: 3 },
//!     ScheduleOp::Forward { mb: 4 },
//! ]);
//! assert_eq!(ops[4], ScheduleOp::Backward { mb: 1 });
//! assert_eq!(ops[5], ScheduleOp::Forward { mb: 5 });
//! ```

pub mod extract;
pub mod lane;
pub mod ops;
pub mod recompute;
pub mod schedules;
pub mod stream;
pub mod wsp;

pub use extract::{
    committed_queues, ps_interaction_points, CommittedQueue, GatePoint, PsInteractions, PushPoint,
    QueueKind,
};
pub use lane::{lanes, Lane};
pub use ops::{Dispatch, GpuOp, ScheduleOp};
pub use recompute::RecomputePolicy;
pub use schedules::{validate_gpu_stream, validate_stream_with, PipelineSchedule, Schedule};
pub use stream::{GpuStream, ScheduleStream};
pub use wsp::WspParams;
