//! The [`PipelineSchedule`] trait and [`Schedule`], its one
//! implementor.
//!
//! A schedule answers four questions about a `k`-stage pipeline
//! processing waves of `Nm` minibatches:
//!
//! 1. **What runs where, in what order?** — [`PipelineSchedule::stream`]
//!    yields each stage's infinite op sequence.
//! 2. **How are ready ops dispatched on a GPU?** —
//!    [`PipelineSchedule::dispatch`]: arrival-FIFO (the paper's
//!    condition 3) or strict stream order (how GPipe / PipeDream are
//!    defined).
//! 3. **How deep is the pipeline physically?** —
//!    [`PipelineSchedule::virtual_stages`]: interleaved schedules run
//!    `chunks` virtual stages per GPU.
//! 4. **What does it cost in memory?** —
//!    [`PipelineSchedule::max_in_flight`] (peak activation-holding
//!    minibatches per stage) and
//!    [`PipelineSchedule::extra_weight_versions`] (weight copies pinned
//!    by in-flight minibatches, the paper's `w_p` stashing).

use crate::ops::{Dispatch, GpuOp, ScheduleOp};
use crate::recompute::RecomputePolicy;
use crate::stream::{BasePattern, GpuStream, ScheduleStream};
use crate::wsp::WspParams;
use std::fmt;

/// A static pipeline schedule, reified as per-stage op streams plus
/// memory-accounting metadata. [`Schedule`] is the one implementor;
/// each variant's docs give the reasons behind its answers.
///
/// `stage` and `k` are always in *executor* (virtual) stages: for
/// interleaved schedules, `k = chunks × GPUs` and stage `s` runs on
/// GPU `s % GPUs`.
pub trait PipelineSchedule {
    /// Short human-readable name (e.g. `"hetpipe-wave"`).
    fn name(&self) -> &'static str;

    /// The dispatch discipline stage GPUs use for ready ops.
    fn dispatch(&self) -> Dispatch;

    /// Whether the last stage fuses each minibatch's forward and
    /// backward into one task (Section 4 of the paper).
    fn fused_last_stage(&self) -> bool;

    /// Executor stages for a pipeline of `k_gpus` GPUs (interleaved
    /// schedules multiply by their chunk count).
    fn virtual_stages(&self, k_gpus: usize) -> usize;

    /// The infinite op stream of `stage` (0-based of `k`).
    ///
    /// For schedules that dispatch per-GPU composite streams
    /// ([`Dispatch::GpuStreamOrder`]) this is the per-stage
    /// *projection* used by stage-local analyses; the executor
    /// consumes [`PipelineSchedule::gpu_streams_with`] instead.
    fn stream(&self, stage: usize, k: usize, wsp: WspParams) -> ScheduleStream;

    /// The composite per-GPU op streams of one virtual worker, one
    /// handle per physical GPU (`k_gpus` of them): each an ordered
    /// timeline merging every co-located virtual-stage chunk, each op
    /// tagged with its stage ([`GpuOp`]). The schedule's per-stage
    /// checkpoint decisions ([`PipelineSchedule::recomputes_at`]) are
    /// applied under `policy`, so the streams' recompute placement is
    /// always the same decision the memory and cost models charge for.
    ///
    /// `Some` exactly for schedules whose
    /// [`PipelineSchedule::dispatch`] is [`Dispatch::GpuStreamOrder`];
    /// flat and depth-expanded schedules return `None`.
    fn gpu_streams_with(
        &self,
        k_gpus: usize,
        wsp: WspParams,
        policy: RecomputePolicy,
    ) -> Option<Vec<GpuStream>>;

    /// Peak number of minibatches simultaneously holding activations at
    /// `stage` — the quantity the per-stage memory constraint charges.
    ///
    /// This is a *sound* bound, not an idealized one. Stream-order
    /// schedules hold it by executing the declared op stream in order.
    /// Arrival-FIFO schedules have no dispatch-time gate: the `Nm`
    /// injection cap bounds their stages, so every non-fused stage
    /// must declare at least `Nm`, which the executor asserts at
    /// construction. The executor's completion-based occupancy books
    /// check the window as a run goes, and trace-measured occupancy ≤
    /// this value is asserted as a first-class invariant
    /// (`hetpipe-core`'s `OccupancyAudit`).
    fn max_in_flight(&self, stage: usize, k: usize, nm: usize) -> usize;

    /// Weight versions pinned at `stage` beyond the resident
    /// weights/gradients/momentum set.
    fn extra_weight_versions(&self, stage: usize, k: usize, nm: usize) -> u64;

    /// How many of this schedule's stages share one physical GPU
    /// (interleaved chunks; 1 for flat schedules). Memory feasibility
    /// checks split each GPU's budget across its co-located stages so
    /// that certified plans fit the *sum* of the chunks they place on
    /// a GPU.
    fn colocated_stages(&self) -> usize;

    /// Whether `stage` actually checkpoints under `policy`: activation
    /// recomputation is skipped where the in-flight window is 1 — a
    /// single stashed activation set is live during its own backward
    /// either way, so recomputing there spends a forward re-run and
    /// reclaims nothing (e.g. the last stage of stream-order
    /// schedules, which Megatron leaves un-checkpointed for free
    /// throughput) — and at fused last stages, whose activations are
    /// still live when the backward runs. Streams, the memory model,
    /// the cost model, and the executor all key their recompute terms
    /// on this per-stage decision rather than on the raw policy.
    fn recomputes_at(&self, stage: usize, k: usize, nm: usize, policy: RecomputePolicy) -> bool {
        policy.is_on()
            && self.max_in_flight(stage, k, nm) > 1
            && !(self.fused_last_stage() && stage == k - 1)
    }
}

/// The pipeline schedule: the paper's wave schedule plus the three
/// literature baselines it competes with.
///
/// A `Copy` enum, so `SystemConfig` stays `Clone`, CLI sweeps are
/// cheap, and the partition DP's memory-fit probes (`O(k·L²)` per
/// solve) match on the variant instead of dispatching dynamically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Schedule {
    /// The paper's Figure-1 wave schedule, the default: up to `Nm`
    /// minibatches in flight, arrival-FIFO service per GPU,
    /// forward+backward fused at the last stage. Every in-flight
    /// minibatch stashes its injection-time weight version `w_p`.
    ///
    /// Its in-flight window is the sound arrival-FIFO bound: `Nm` at
    /// every non-last stage, 1 at the fused last stage. The paper's
    /// Figure-1 analysis suggests the tighter window
    /// `min(Nm, 2(k − 1 − q) + 1)` (a minibatch's activations live for
    /// `2(k − 1 − q) + 1` *uniform* task slots), but that bound only
    /// holds for perfectly balanced stages. Under arrival-order
    /// dispatch with real timing skew, forwards race ahead of
    /// backwards and a middle stage transiently holds up to `Nm` full
    /// activation sets — observed in simulation even on the paper's
    /// own ED/VGG-19 configuration. Since the executor's dispatch
    /// discipline (condition 3 of Section 4) is arrival order, the
    /// only sound per-stage charge that preserves that discipline is
    /// the pipeline-wide injection cap `Nm`, which bounds every stage
    /// without a dispatch-time gate; the executor's occupancy books and
    /// `OccupancyAudit` check it.
    /// [`RecomputePolicy::BoundaryOnly`] is the lever that buys the
    /// honestly-charged memory back.
    #[default]
    HetPipeWave,
    /// GPipe-style fill-drain: all `Nm` forwards of a wave, a full
    /// drain of `Nm` backwards, then the next wave. Every stage
    /// accumulates the activations of the whole wave before the drain
    /// starts, but the whole wave runs on a single weight version —
    /// the flush between waves is what buys fill-drain its memory
    /// advantage.
    FillDrain,
    /// PipeDream-style one-forward-one-backward: stage `q` warms up
    /// with `min(Nm, k − q)` forwards, then strictly alternates
    /// backward and forward, bounding in-flight work by pipeline depth
    /// instead of `Nm` (the classic 1F1B bound: stage `q` holds at
    /// most `k − q` in-flight minibatches, capped by `Nm` for shallow
    /// waves).
    ///
    /// Weights use PipeDream-2BW double-buffered versioning: instead
    /// of stashing the injection-time version `w_p` of every in-flight
    /// minibatch (`in_flight − 1` extra copies, HetPipe's Section-4
    /// accounting), the stage keeps exactly **two** buffers — the
    /// freshest version and the previous one — and every in-flight
    /// minibatch reads the previous buffer. That caps the extra pinned
    /// copies at 1 whenever the stage pipelines at all (0 when the
    /// window is 1 and the resident weights suffice), at the price of
    /// a *fixed* one-wave staleness: a minibatch of wave `c` computes
    /// on the version closed by wave `c − 1`
    /// ([`WspParams::two_bw_version`]), which is never older than the
    /// WSP start gate requires (`tests/staleness_props.rs` checks this
    /// against [`WspParams::required_wave`] exhaustively).
    OneFOneB,
    /// Interleaved 1F1B over virtual stage chunks (Megatron-LM's
    /// interleaved schedule): the model is cut into `chunks × GPUs`
    /// consecutive pieces assigned round-robin, so each GPU hosts
    /// `chunks` non-adjacent virtual stages.
    ///
    /// Two fidelity levels, selected by `composite`:
    ///
    /// - **Composite per-GPU streams** (`composite: true`, what
    ///   `parse("interleaved-1f1b")` yields, and how Megatron-LM
    ///   actually schedules): each physical GPU executes one ordered
    ///   [`GpuStream`] that merges its co-located chunks in
    ///   warmup/steady/drain chunk groups, so chunk 1's first
    ///   microbatches run *between* chunk 0's warmup forwards instead
    ///   of queueing behind them. The executor's `GpuStreamOrder`
    ///   dispatch path consumes these streams directly.
    /// - **Depth-expanded 1F1B** (`composite: false`, kept so the
    ///   fidelity delta stays measurable in `schedule_compare`): each
    ///   virtual stage runs a plain 1F1B stream and co-located chunks
    ///   share their GPU's FIFO timeline in dependency-arrival order —
    ///   during warmup the first chunk's window is reserved ahead of
    ///   the later chunks' first arrivals, which is exactly the
    ///   under-utilization the composite form fixes.
    ///
    /// Either way, chunking multiplies the boundary activation/gradient
    /// transfers by the chunk count, which on network-bound clusters can
    /// outweigh the smaller per-chunk bubbles — the `schedule_compare`
    /// sweep makes the trade-off visible.
    ///
    /// The in-flight window is the 1F1B bound over *virtual* depth —
    /// deep in-flight windows are what let the expanded pipeline stay
    /// full across its (chunk-multiplied) boundary transfers. The
    /// composite stream's per-chunk windows are capped at exactly this
    /// bound, so the declared charge is sound for both forms and plans
    /// certify identically; only the GPU timeline order differs.
    ///
    /// Weights use per-chunk PipeDream-2BW double buffering, the
    /// [`Schedule::OneFOneB`] rule: each *virtual stage* keeps the
    /// freshest buffer plus at most one previous buffer, instead of
    /// stashing the injection-time `w_p` of every in-flight minibatch.
    /// `verify::interleaved_chunk_versions` proves this WSP-sound
    /// chunk by chunk (the previous buffer is never older than the
    /// start gate requires, at any depth), so the declared memory
    /// charge drops from `in_flight − 1` to at most 1 extra copy per
    /// busy chunk — the saving the whimpy `Max_m` cells in
    /// `schedule_compare` inherit.
    Interleaved1F1B {
        /// Virtual stage chunks per GPU (≥ 1; 1 degenerates to plain
        /// 1F1B).
        chunks: usize,
        /// Composite per-GPU streams (true) or depth-expanded
        /// per-stage streams merged by arrival order (false).
        composite: bool,
    },
}

impl Schedule {
    /// Every schedule in its default configuration (interleaved with
    /// 2 chunks, in both its depth-expanded and composite forms), for
    /// sweeps.
    pub const ALL: [Schedule; 5] = [
        Schedule::HetPipeWave,
        Schedule::FillDrain,
        Schedule::OneFOneB,
        Schedule::Interleaved1F1B {
            chunks: 2,
            composite: false,
        },
        Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        },
    ];

    /// Parses a CLI name: `hetpipe-wave` | `fill-drain` | `1f1b` |
    /// `interleaved-1f1b[:chunks]` (composite) |
    /// `interleaved-1f1b-depth[:chunks]` (depth-expanded).
    pub fn parse(s: &str) -> Option<Schedule> {
        match s {
            "hetpipe-wave" | "wave" | "hetpipe" => Some(Schedule::HetPipeWave),
            "fill-drain" | "gpipe" => Some(Schedule::FillDrain),
            "1f1b" | "pipedream" => Some(Schedule::OneFOneB),
            "interleaved-1f1b" | "interleaved" => Some(Schedule::Interleaved1F1B {
                chunks: 2,
                composite: true,
            }),
            "interleaved-1f1b-depth" | "interleaved-depth" => Some(Schedule::Interleaved1F1B {
                chunks: 2,
                composite: false,
            }),
            _ => {
                if let Some(rest) = s
                    .strip_prefix("interleaved-1f1b-depth:")
                    .or_else(|| s.strip_prefix("interleaved-depth:"))
                {
                    let chunks: usize = rest.parse().ok().filter(|&c| c >= 1)?;
                    return Some(Schedule::Interleaved1F1B {
                        chunks,
                        composite: false,
                    });
                }
                let rest = s
                    .strip_prefix("interleaved-1f1b:")
                    .or_else(|| s.strip_prefix("interleaved:"))?;
                let chunks: usize = rest.parse().ok().filter(|&c| c >= 1)?;
                Some(Schedule::Interleaved1F1B {
                    chunks,
                    composite: true,
                })
            }
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Schedule::Interleaved1F1B { chunks, composite } => {
                if *composite {
                    write!(f, "interleaved-1f1b:{chunks}")
                } else {
                    write!(f, "interleaved-1f1b-depth:{chunks}")
                }
            }
            other => f.write_str(other.name()),
        }
    }
}

impl PipelineSchedule for Schedule {
    fn name(&self) -> &'static str {
        match self {
            Schedule::HetPipeWave => "hetpipe-wave",
            Schedule::FillDrain => "fill-drain",
            Schedule::OneFOneB => "1f1b",
            Schedule::Interleaved1F1B {
                composite: true, ..
            } => "interleaved-1f1b",
            Schedule::Interleaved1F1B {
                composite: false, ..
            } => "interleaved-1f1b-depth",
        }
    }

    fn dispatch(&self) -> Dispatch {
        match self {
            Schedule::HetPipeWave => Dispatch::ArrivalFifo,
            Schedule::Interleaved1F1B {
                composite: true, ..
            } => Dispatch::GpuStreamOrder,
            _ => Dispatch::StreamOrder,
        }
    }

    fn fused_last_stage(&self) -> bool {
        matches!(self, Schedule::HetPipeWave)
    }

    fn virtual_stages(&self, k_gpus: usize) -> usize {
        self.colocated_stages() * k_gpus
    }

    fn stream(&self, stage: usize, k: usize, wsp: WspParams) -> ScheduleStream {
        let pattern = match self {
            Schedule::HetPipeWave if stage == k - 1 => BasePattern::Fused,
            Schedule::FillDrain => BasePattern::FillDrain,
            // The wave's non-last stages, 1F1B, and interleaving over
            // virtual stages. In the composite interleaved form this
            // is the per-stage projection (the executor consumes
            // `gpu_streams_with`), kept for stage-local analyses.
            _ => BasePattern::Interleave {
                warmup: self.max_in_flight(stage, k, wsp.nm) as u64,
            },
        };
        ScheduleStream::new(pattern, stage, wsp)
    }

    fn gpu_streams_with(
        &self,
        k_gpus: usize,
        wsp: WspParams,
        policy: RecomputePolicy,
    ) -> Option<Vec<GpuStream>> {
        if self.dispatch() != Dispatch::GpuStreamOrder {
            return None;
        }
        let chunks = self.colocated_stages();
        let k = chunks * k_gpus;
        // The stream's structural windows ARE the declared bounds —
        // passed in so they cannot drift apart.
        let caps = (0..k)
            .map(|s| self.max_in_flight(s, k, wsp.nm) as u64)
            .collect();
        let remat = (0..k)
            .map(|s| self.recomputes_at(s, k, wsp.nm, policy))
            .collect();
        // One shared joint timetable per virtual worker, fanned into
        // the per-GPU handles: the slot simulation runs once instead
        // of once per GPU, and no handle's op sequence changes.
        Some(GpuStream::shared_set(k_gpus, chunks, wsp, caps, remat))
    }

    fn max_in_flight(&self, stage: usize, k: usize, nm: usize) -> usize {
        debug_assert!(stage < k, "stage index out of range");
        match self {
            Schedule::HetPipeWave if stage == k - 1 => 1,
            Schedule::HetPipeWave | Schedule::FillDrain => nm,
            Schedule::OneFOneB | Schedule::Interleaved1F1B { .. } => nm.min(k - stage),
        }
    }

    fn extra_weight_versions(&self, stage: usize, k: usize, nm: usize) -> u64 {
        let in_flight = self.max_in_flight(stage, k, nm);
        match self {
            // `w_p` stashing: one copy per extra in-flight minibatch.
            Schedule::HetPipeWave => in_flight.saturating_sub(1) as u64,
            Schedule::FillDrain => 0,
            // PipeDream-2BW: one shadow buffer while pipelining.
            Schedule::OneFOneB | Schedule::Interleaved1F1B { .. } => (in_flight > 1) as u64,
        }
    }

    fn colocated_stages(&self) -> usize {
        match self {
            Schedule::Interleaved1F1B { chunks, .. } => (*chunks).max(1),
            _ => 1,
        }
    }
}

/// Checks the structural invariants of a stream prefix under a
/// [`RecomputePolicy`] — the executable form of the paper's Section-4
/// scheduling conditions at the schedule level:
///
/// 1. forwards appear in minibatch order with no gaps;
/// 2. backwards appear in minibatch order with no gaps;
/// 3. a minibatch's backward never precedes its forward (the
///    stage-local form of "no activation used before produced");
/// 4. fused ops appear only on the last stage, and only if the
///    schedule fuses;
/// 5. gates and pushes appear on stage 0 only, pushes strictly after
///    the wave's last backward, gates before the gated forward;
/// 6. at stages that checkpoint ([`PipelineSchedule::recomputes_at`] —
///    the policy is on and the stage's window exceeds 1) every
///    standalone backward is *immediately* preceded by a
///    [`ScheduleOp::Recompute`] of the same minibatch (its forward
///    already ran, its backward is next); at all other stages — fused
///    last stages, window-1 stages, or any stage under `None` — no
///    recompute op may appear at all.
///
/// Returns `Err` with a description of the first violation.
pub fn validate_stream_with(
    sched: Schedule,
    stage: usize,
    k: usize,
    wsp: WspParams,
    recompute: RecomputePolicy,
    prefix_len: usize,
) -> Result<(), String> {
    // The per-stage effective policy: window-1 stages skip
    // checkpointing (nothing to reclaim), so their streams carry no
    // recompute ops even when the run-wide policy is on.
    let recompute = if sched.recomputes_at(stage, k, wsp.nm, recompute) {
        recompute
    } else {
        RecomputePolicy::None
    };
    let ops: Vec<ScheduleOp> = sched
        .stream(stage, k, wsp)
        .with_recompute(recompute)
        .take(prefix_len)
        .collect();
    let mut next_fwd = 1u64;
    let mut next_bwd = 1u64;
    let mut in_flight = 0i64;
    let mut peak = 0i64;
    let mut pending_recompute: Option<u64> = None;
    for (i, op) in ops.iter().enumerate() {
        if pending_recompute.is_some() && !matches!(op, ScheduleOp::Backward { .. }) {
            return Err(format!(
                "{} stage {stage}: op {i} {op:?} intervenes between a recompute and its backward",
                sched.name()
            ));
        }
        match *op {
            ScheduleOp::Recompute { mb } => {
                if !recompute.is_on() {
                    return Err(format!(
                        "{} stage {stage}: recompute of {mb} with recomputation off",
                        sched.name()
                    ));
                }
                if mb != next_bwd || mb >= next_fwd {
                    return Err(format!(
                        "{} stage {stage}: recompute of {mb} out of place \
                         (next backward {next_bwd}, next forward {next_fwd})",
                        sched.name()
                    ));
                }
                pending_recompute = Some(mb);
            }
            ScheduleOp::Forward { mb } | ScheduleOp::FusedFwdBwd { mb } => {
                if mb != next_fwd {
                    return Err(format!(
                        "{} stage {stage}: op {i} forward mb {mb}, expected {next_fwd}",
                        sched.name()
                    ));
                }
                next_fwd += 1;
                in_flight += 1;
                peak = peak.max(in_flight);
                if matches!(op, ScheduleOp::FusedFwdBwd { .. }) {
                    if stage != k - 1 || !sched.fused_last_stage() {
                        return Err(format!(
                            "{} stage {stage}: fused op off the last stage",
                            sched.name()
                        ));
                    }
                    if mb != next_bwd {
                        return Err(format!(
                            "{} stage {stage}: fused backward out of order",
                            sched.name()
                        ));
                    }
                    next_bwd += 1;
                    in_flight -= 1;
                }
            }
            ScheduleOp::Backward { mb } => {
                if mb != next_bwd {
                    return Err(format!(
                        "{} stage {stage}: op {i} backward mb {mb}, expected {next_bwd}",
                        sched.name()
                    ));
                }
                if mb >= next_fwd {
                    return Err(format!(
                        "{} stage {stage}: backward of {mb} before its forward",
                        sched.name()
                    ));
                }
                if recompute.is_on() && pending_recompute != Some(mb) {
                    return Err(format!(
                        "{} stage {stage}: backward of {mb} without its recompute",
                        sched.name()
                    ));
                }
                pending_recompute = None;
                next_bwd += 1;
                in_flight -= 1;
            }
            ScheduleOp::Push { wave } => {
                if stage != 0 {
                    return Err(format!("{}: push off stage 0", sched.name()));
                }
                if next_bwd <= wsp.last_of_wave(wave) {
                    return Err(format!(
                        "{}: push of wave {wave} before its last backward",
                        sched.name()
                    ));
                }
            }
            ScheduleOp::PullGate { wave } => {
                if stage != 0 {
                    return Err(format!("{}: gate off stage 0", sched.name()));
                }
                // The gate must protect the next forward: it may not
                // come later than required.
                if let Some(req) = wsp.required_wave(next_fwd) {
                    if req > wave {
                        return Err(format!(
                            "{}: gate {wave} too stale for forward {next_fwd} (needs {req})",
                            sched.name()
                        ));
                    }
                }
            }
        }
    }
    // The declared memory bound must hold on the observed stream.
    let declared = sched.max_in_flight(stage, k, wsp.nm) as i64;
    if peak > declared {
        return Err(format!(
            "{} stage {stage}: observed in-flight {peak} exceeds declared {declared}",
            sched.name()
        ));
    }
    // Gates must actually precede every forward that needs them.
    let mut visible = -1i64;
    for op in &ops {
        match *op {
            ScheduleOp::PullGate { wave } => visible = visible.max(wave as i64),
            ScheduleOp::Forward { mb } | ScheduleOp::FusedFwdBwd { mb } if stage == 0 => {
                if let Some(req) = wsp.required_wave(mb) {
                    if (req as i64) > visible {
                        return Err(format!(
                            "{}: forward {mb} ungated (needs wave {req}, gated {visible})",
                            sched.name()
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Checks the structural invariants of a *composite per-GPU* stream
/// prefix — the per-GPU form of the Section-4 conditions plus the
/// chunk-group contract:
///
/// 1. every op's stage belongs to this GPU (`stage % GPUs == gpu`,
///    `stage < chunks × GPUs`);
/// 2. per stage: forwards in minibatch order with no gaps, backwards
///    likewise, no backward before its forward;
/// 3. per stage: structural occupancy (forwards emitted − backwards
///    emitted) never exceeds the declared
///    [`PipelineSchedule::max_in_flight`] — the charge the memory
///    model certifies;
/// 4. recompute ops appear exactly where
///    [`PipelineSchedule::recomputes_at`] says, immediately before
///    their backward;
/// 5. wave bookkeeping decorates virtual stage 0 only (so only GPU
///    0's stream), pushes strictly after the wave's last backward,
///    gates before the gated forward.
///
/// Returns `Err` with a description of the first violation, or if the
/// schedule declares no composite stream for this GPU.
pub fn validate_gpu_stream(
    sched: Schedule,
    gpu: usize,
    k_gpus: usize,
    wsp: WspParams,
    recompute: RecomputePolicy,
    prefix_len: usize,
) -> Result<(), String> {
    let Some(stream) = sched
        .gpu_streams_with(k_gpus, wsp, recompute)
        .and_then(|set| set.into_iter().nth(gpu))
    else {
        return Err(format!(
            "{} declares no composite stream for gpu {gpu}",
            sched.name()
        ));
    };
    let k = sched.virtual_stages(k_gpus);
    let ops: Vec<GpuOp> = stream.take(prefix_len).collect();
    let mut next_fwd = vec![1u64; k];
    let mut next_bwd = vec![1u64; k];
    let mut pending_recompute: Option<(usize, u64)> = None;
    let mut visible = -1i64;
    for (i, gop) in ops.iter().enumerate() {
        let stage = gop.stage;
        if stage >= k || stage % k_gpus != gpu {
            return Err(format!(
                "{} gpu {gpu}: op {i} {gop:?} carries a foreign stage",
                sched.name()
            ));
        }
        if let Some((ps, pm)) = pending_recompute {
            if gop.op != (ScheduleOp::Backward { mb: pm }) || stage != ps {
                return Err(format!(
                    "{} gpu {gpu}: op {i} {gop:?} intervenes between a recompute \
                     and its backward (stage {ps} mb {pm})",
                    sched.name()
                ));
            }
        }
        match gop.op {
            ScheduleOp::Forward { mb } => {
                if mb != next_fwd[stage] {
                    return Err(format!(
                        "{} gpu {gpu} stage {stage}: forward mb {mb}, expected {}",
                        sched.name(),
                        next_fwd[stage]
                    ));
                }
                if stage == 0 {
                    if let Some(req) = wsp.required_wave(mb) {
                        if req as i64 > visible {
                            return Err(format!(
                                "{}: forward {mb} ungated (needs wave {req}, gated {visible})",
                                sched.name()
                            ));
                        }
                    }
                }
                next_fwd[stage] += 1;
                let outstanding = next_fwd[stage] - next_bwd[stage];
                let declared = sched.max_in_flight(stage, k, wsp.nm) as u64;
                if outstanding > declared {
                    return Err(format!(
                        "{} gpu {gpu} stage {stage}: structural occupancy {outstanding} \
                         exceeds declared {declared}",
                        sched.name()
                    ));
                }
            }
            ScheduleOp::Backward { mb } => {
                if mb != next_bwd[stage] {
                    return Err(format!(
                        "{} gpu {gpu} stage {stage}: backward mb {mb}, expected {}",
                        sched.name(),
                        next_bwd[stage]
                    ));
                }
                if mb >= next_fwd[stage] {
                    return Err(format!(
                        "{} gpu {gpu} stage {stage}: backward of {mb} before its forward",
                        sched.name()
                    ));
                }
                if sched.recomputes_at(stage, k, wsp.nm, recompute)
                    && pending_recompute != Some((stage, mb))
                {
                    return Err(format!(
                        "{} gpu {gpu} stage {stage}: backward of {mb} without its recompute",
                        sched.name()
                    ));
                }
                pending_recompute = None;
                next_bwd[stage] += 1;
            }
            ScheduleOp::Recompute { mb } => {
                if !sched.recomputes_at(stage, k, wsp.nm, recompute) {
                    return Err(format!(
                        "{} gpu {gpu} stage {stage}: recompute of {mb} at a stage \
                         that must not checkpoint",
                        sched.name()
                    ));
                }
                if mb != next_bwd[stage] || mb >= next_fwd[stage] {
                    return Err(format!(
                        "{} gpu {gpu} stage {stage}: recompute of {mb} out of place",
                        sched.name()
                    ));
                }
                pending_recompute = Some((stage, mb));
            }
            ScheduleOp::FusedFwdBwd { .. } => {
                return Err(format!(
                    "{} gpu {gpu}: composite streams never fuse (op {i})",
                    sched.name()
                ));
            }
            ScheduleOp::Push { wave } => {
                if stage != 0 {
                    return Err(format!("{}: push off stage 0", sched.name()));
                }
                if next_bwd[0] <= wsp.last_of_wave(wave) {
                    return Err(format!(
                        "{}: push of wave {wave} before its last backward",
                        sched.name()
                    ));
                }
            }
            ScheduleOp::PullGate { wave } => {
                if stage != 0 {
                    return Err(format!("{}: gate off stage 0", sched.name()));
                }
                visible = visible.max(wave as i64);
                if let Some(req) = wsp.required_wave(next_fwd[0]) {
                    if req > wave {
                        return Err(format!(
                            "{}: gate {wave} too stale for forward {} (needs {req})",
                            sched.name(),
                            next_fwd[0]
                        ));
                    }
                }
            }
        }
    }
    // Every chunk of this GPU must actually appear in the prefix.
    for c in 0..sched.colocated_stages() {
        let stage = c * k_gpus + gpu;
        if next_fwd[stage] == 1 {
            return Err(format!(
                "{} gpu {gpu}: chunk {c} (stage {stage}) emitted no work in {prefix_len} ops",
                sched.name()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interleaved(chunks: usize, composite: bool) -> Schedule {
        Schedule::Interleaved1F1B { chunks, composite }
    }

    /// GPU `gpu`'s handle of the schedule's composite stream set.
    fn gpu_stream(sched: Schedule, gpu: usize, k_gpus: usize, wsp: WspParams) -> GpuStream {
        sched
            .gpu_streams_with(k_gpus, wsp, RecomputePolicy::None)
            .expect("composite stream")
            .swap_remove(gpu)
    }

    #[test]
    fn all_streams_satisfy_invariants() {
        for sched in Schedule::ALL {
            for k_gpus in [1usize, 2, 4] {
                let k = sched.virtual_stages(k_gpus);
                for nm in [1usize, 2, 4, 7] {
                    for d in [0usize, 2] {
                        let wsp = WspParams::new(nm, d);
                        for recompute in RecomputePolicy::ALL {
                            for stage in 0..k {
                                validate_stream_with(sched, stage, k, wsp, recompute, 300)
                                    .unwrap_or_else(|e| {
                                        panic!("{e} (k_gpus={k_gpus} nm={nm} d={d} {recompute})")
                                    });
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wave_in_flight_is_the_sound_fifo_bound() {
        // Arrival-FIFO has no dispatch-time gate: only the Nm injection
        // cap bounds a stage, so every arrival-FIFO schedule must
        // declare at least Nm at each non-fused stage.
        for sched in Schedule::ALL {
            if sched.dispatch() != Dispatch::ArrivalFifo {
                continue;
            }
            for k in 1..=6 {
                for nm in [1, 2, 4, 7] {
                    for q in 0..k {
                        if sched.fused_last_stage() && q == k - 1 {
                            continue;
                        }
                        assert!(
                            sched.max_in_flight(q, k, nm) >= nm,
                            "{sched} stage {q} of {k} declares less than Nm = {nm}"
                        );
                    }
                }
            }
        }
        // k = 4, Nm = 4: every non-fused stage may transiently hold the
        // full injection window Nm under arrival-order dispatch; the
        // fused last stage holds exactly 1. (Figure 1's idealized
        // min(Nm, 2(k−1−q)+1) window only holds for perfectly balanced
        // stages and is NOT what the executor can guarantee.)
        let wave = Schedule::HetPipeWave;
        assert_eq!(wave.max_in_flight(0, 4, 4), 4);
        assert_eq!(wave.max_in_flight(1, 4, 4), 4);
        assert_eq!(wave.max_in_flight(2, 4, 4), 4);
        assert_eq!(wave.max_in_flight(3, 4, 4), 1);
        assert_eq!(wave.max_in_flight(0, 4, 100), 100);
        // Nm = 1 degenerates to naive model parallelism everywhere.
        for q in 0..4 {
            assert_eq!(wave.max_in_flight(q, 4, 1), 1);
        }
    }

    #[test]
    fn memory_profiles_ranked_as_expected() {
        // Stage 0, deep pipeline: fill-drain and the wave schedule hold
        // the whole wave, 1F1B bounds holding by pipeline depth.
        let (k, nm) = (4, 8);
        assert_eq!(Schedule::FillDrain.max_in_flight(0, k, nm), 8);
        assert_eq!(Schedule::OneFOneB.max_in_flight(0, k, nm), 4);
        assert_eq!(Schedule::HetPipeWave.max_in_flight(0, k, nm), 8);
        // Weight versions: fill-drain pins none beyond the resident
        // set; the wave schedule stashes one per extra in-flight
        // minibatch (the paper's w_p stashing); 1F1B double-buffers
        // (PipeDream-2BW) and pins exactly one shadow copy while
        // pipelining, none when the window is 1.
        assert_eq!(Schedule::FillDrain.extra_weight_versions(0, k, nm), 0);
        assert_eq!(Schedule::OneFOneB.extra_weight_versions(0, k, nm), 1);
        assert_eq!(Schedule::OneFOneB.extra_weight_versions(k - 1, k, nm), 0);
        assert_eq!(Schedule::HetPipeWave.extra_weight_versions(0, k, nm), 7);
    }

    #[test]
    fn two_bw_caps_1f1b_weight_versions_at_one() {
        let s = Schedule::OneFOneB;
        for k in [1usize, 2, 4, 8] {
            for nm in [1usize, 2, 4, 16] {
                for stage in 0..k {
                    let extra = s.extra_weight_versions(stage, k, nm);
                    assert!(extra <= 1, "2BW pins at most one shadow copy, got {extra}");
                    let pipelining = s.max_in_flight(stage, k, nm) > 1;
                    assert_eq!(extra == 1, pipelining, "k={k} nm={nm} stage={stage}");
                }
            }
        }
    }

    #[test]
    fn interleaved_uses_per_chunk_two_bw_versions() {
        // Both interleaved forms declare the per-chunk 2BW rule that
        // `verify::interleaved_chunk_versions` proved WSP-sound: at
        // most one shadow copy per virtual stage, exactly where the
        // stage's window pipelines — never the old `w_p` stash of
        // `in_flight − 1` copies.
        for chunks in [2usize, 4] {
            for composite in [false, true] {
                let s = interleaved(chunks, composite);
                for k_gpus in [2usize, 4] {
                    let k = s.virtual_stages(k_gpus);
                    for nm in [1usize, 4, 8] {
                        for stage in 0..k {
                            let extra = s.extra_weight_versions(stage, k, nm);
                            assert!(extra <= 1, "chunks={chunks} stage={stage}: got {extra}");
                            let pipelining = s.max_in_flight(stage, k, nm) > 1;
                            assert_eq!(extra == 1, pipelining, "chunks={chunks} stage={stage}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_expands_virtual_stages() {
        assert_eq!(interleaved(3, true).virtual_stages(4), 12);
        assert_eq!(Schedule::HetPipeWave.virtual_stages(4), 4);
    }

    #[test]
    fn colocated_stages_counts_chunks() {
        let cases = [
            (Schedule::HetPipeWave, 1),
            (Schedule::FillDrain, 1),
            (Schedule::OneFOneB, 1),
            (interleaved(3, false), 3),
            (interleaved(3, true), 3),
        ];
        for (s, want) in cases {
            assert_eq!(s.colocated_stages(), want, "{s}");
        }
    }

    #[test]
    fn parse_round_trips_display_and_rejects_zero_chunks() {
        for s in Schedule::ALL {
            assert_eq!(Schedule::parse(&s.to_string()), Some(s), "round-trip {s}");
        }
        for chunks in 1..=8 {
            for composite in [false, true] {
                let s = interleaved(chunks, composite);
                assert_eq!(Schedule::parse(&s.to_string()), Some(s), "round-trip {s}");
            }
        }
        for bad in [
            "interleaved-1f1b:0",
            "interleaved-1f1b-depth:0",
            "interleaved:0",
            "interleaved-depth:0",
            "interleaved-1f1b:x",
            "nope",
        ] {
            assert_eq!(Schedule::parse(bad), None, "{bad}");
        }
        assert_eq!(Schedule::parse("gpipe"), Some(Schedule::FillDrain));
        assert_eq!(
            Schedule::parse("interleaved-1f1b:4"),
            Some(interleaved(4, true))
        );
        assert_eq!(
            Schedule::parse("interleaved-1f1b-depth:4"),
            Some(interleaved(4, false))
        );
        assert_eq!(Schedule::default(), Schedule::HetPipeWave);
    }

    #[test]
    fn dispatch_disciplines() {
        assert_eq!(Schedule::HetPipeWave.dispatch(), Dispatch::ArrivalFifo);
        assert_eq!(Schedule::FillDrain.dispatch(), Dispatch::StreamOrder);
        assert_eq!(Schedule::OneFOneB.dispatch(), Dispatch::StreamOrder);
        assert_eq!(interleaved(2, true).dispatch(), Dispatch::GpuStreamOrder);
        assert_eq!(interleaved(2, false).dispatch(), Dispatch::StreamOrder);
    }

    #[test]
    fn composite_streams_satisfy_invariants_across_grid() {
        // The per-GPU stream contract, checked over a wider grid than
        // any simulation covers: per-stage order, declared occupancy,
        // recompute placement, and wave decorations on GPU 0 only.
        for chunks in [1usize, 2, 3] {
            for k_gpus in [1usize, 2, 4] {
                let sched = interleaved(chunks, true);
                for nm in [1usize, 2, 4, 7] {
                    for d in [0usize, 2] {
                        let wsp = WspParams::new(nm, d);
                        for recompute in RecomputePolicy::ALL {
                            for gpu in 0..k_gpus {
                                validate_gpu_stream(sched, gpu, k_gpus, wsp, recompute, 400)
                                    .unwrap_or_else(|e| {
                                        panic!(
                                            "{e} (chunks={chunks} k_gpus={k_gpus} \
                                             nm={nm} d={d} {recompute})"
                                        )
                                    });
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn composite_warmup_interleaves_chunk_groups() {
        // The fidelity bug the composite stream exists to fix: with
        // nm > GPUs, the depth-expanded warmup emits chunk 0's whole
        // window before chunk 1's first microbatch, while the
        // composite stream switches to chunk 1 after one group of
        // min(GPUs, Nm) forwards.
        let (gpus, chunks, nm) = (4usize, 2usize, 6usize);
        let wsp = WspParams::new(nm, 0);
        let ops: Vec<GpuOp> = gpu_stream(interleaved(chunks, true), 0, gpus, wsp)
            .take(40)
            .collect();
        let first_chunk1 = ops
            .iter()
            .position(|g| g.stage == gpus && matches!(g.op, ScheduleOp::Forward { .. }))
            .expect("chunk 1 appears");
        let chunk0_before: usize = ops[..first_chunk1]
            .iter()
            .filter(|g| g.stage == 0 && matches!(g.op, ScheduleOp::Forward { .. }))
            .count();
        assert_eq!(
            chunk0_before, gpus,
            "warmup must hand over after one chunk group, not after \
             chunk 0's whole window: {ops:?}"
        );
    }

    #[test]
    fn composite_chunk1_degenerates_to_1f1b() {
        // One chunk per GPU: the composite stream must be plain 1F1B
        // (warmup forwards then strict alternation), matching the
        // per-stage stream's op sequence exactly.
        let wsp = WspParams::new(4, 0);
        let (gpus, gpu) = (4usize, 1usize);
        let composite: Vec<ScheduleOp> = gpu_stream(interleaved(1, true), gpu, gpus, wsp)
            .take(60)
            .map(|g| {
                assert_eq!(g.stage, gpu);
                g.op
            })
            .collect();
        let flat: Vec<ScheduleOp> = Schedule::OneFOneB.stream(gpu, gpus, wsp).take(60).collect();
        assert_eq!(composite, flat);
    }

    #[test]
    fn shared_timetable_matches_independent_replays() {
        // The shared-set handles must emit exactly the op sequences of
        // per-GPU independent replays, for every GPU, chunk count,
        // recompute policy, and interleaved pull order — sharing the
        // timetable is a cost optimization, not a semantic change.
        for chunks in [1usize, 2, 3] {
            for k_gpus in [1usize, 2, 4] {
                let sched = interleaved(chunks, true);
                let k = sched.virtual_stages(k_gpus);
                for nm in [1usize, 4] {
                    let wsp = WspParams::new(nm, 1);
                    for recompute in RecomputePolicy::ALL {
                        let mut shared = sched
                            .gpu_streams_with(k_gpus, wsp, recompute)
                            .expect("composite set");
                        assert_eq!(shared.len(), k_gpus);
                        let caps: Vec<u64> = (0..k)
                            .map(|s| sched.max_in_flight(s, k, nm) as u64)
                            .collect();
                        let remat: Vec<bool> = (0..k)
                            .map(|s| sched.recomputes_at(s, k, nm, recompute))
                            .collect();
                        let mut solo: Vec<_> = (0..k_gpus)
                            .map(|g| {
                                GpuStream::new(g, k_gpus, chunks, wsp, caps.clone())
                                    .with_remat(remat.clone())
                            })
                            .collect();
                        // Pull round-robin across the shared handles
                        // (the executor's consumption is interleaved
                        // too) and compare each against its solo
                        // replay pulled straight through.
                        let per_gpu = 120;
                        let mut got: Vec<Vec<GpuOp>> = vec![Vec::new(); k_gpus];
                        for _ in 0..per_gpu {
                            for (g, stream) in shared.iter_mut().enumerate() {
                                got[g].push(stream.next().unwrap());
                            }
                        }
                        for (g, stream) in solo.iter_mut().enumerate() {
                            let want: Vec<GpuOp> = stream.take(per_gpu).collect();
                            assert_eq!(
                                got[g], want,
                                "chunks={chunks} k_gpus={k_gpus} nm={nm} {recompute} gpu {g}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn composite_streams_are_deterministic() {
        let wsp = WspParams::new(4, 1);
        let s = interleaved(2, true);
        let a: Vec<GpuOp> = gpu_stream(s, 0, 4, wsp).take(300).collect();
        let b: Vec<GpuOp> = gpu_stream(s, 0, 4, wsp).take(300).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn flat_schedules_have_no_gpu_streams() {
        let wsp = WspParams::new(4, 0);
        for s in Schedule::ALL {
            let composite = matches!(
                s,
                Schedule::Interleaved1F1B {
                    composite: true,
                    ..
                }
            );
            let streams = s.gpu_streams_with(4, wsp, RecomputePolicy::None);
            assert_eq!(streams.is_some(), composite, "{s}");
        }
    }

    #[test]
    fn recomputes_at_skips_window_one_stages() {
        let on = RecomputePolicy::BoundaryOnly;
        let (wave, ofob) = (Schedule::HetPipeWave, Schedule::OneFOneB);
        // Stream-order schedules: the last stage's 1F1B window is 1 —
        // Megatron's free-throughput skip.
        assert!(ofob.recomputes_at(0, 4, 4, on));
        assert!(!ofob.recomputes_at(3, 4, 4, on));
        // The wave schedule's fused last stage never checkpoints; its
        // other stages do as long as Nm > 1.
        assert!(wave.recomputes_at(0, 4, 4, on));
        assert!(!wave.recomputes_at(3, 4, 4, on));
        assert!(!wave.recomputes_at(0, 4, 1, on));
        // Policy off: never.
        assert!(!ofob.recomputes_at(0, 4, 4, RecomputePolicy::None));
    }
}
