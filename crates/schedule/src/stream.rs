//! Deterministic, infinite per-stage and per-GPU op streams.
//!
//! A [`ScheduleStream`] is the schedule *as data*: the exact sequence
//! of [`ScheduleOp`]s one pipeline stage executes, decorated (on
//! stage 0) with the WSP wave bookkeeping — a [`ScheduleOp::Push`]
//! after the last backward of every wave and a
//! [`ScheduleOp::PullGate`] before the first forward that requires a
//! global wave. Streams are infinite iterators; executors pull ops on
//! demand and tests `take(n)` a prefix.
//!
//! A [`GpuStream`] is the *composite per-GPU* form of the same idea:
//! one ordered timeline per physical GPU, merging the ops of every
//! virtual-stage chunk the schedule co-locates there (each op tagged
//! with its stage as a [`GpuOp`]). This is how Megatron-LM's
//! interleaved schedule is actually specified — the GPU cycles
//! through its chunks in groups rather than letting arrival order
//! decide the merge — and it is the stream contract the executor's
//! `GpuStreamOrder` dispatch path consumes.
//!
//! # Splicing reshaped pipelines at drained wave boundaries
//!
//! [`ScheduleStream::resume_from`] / [`GpuStream::resume_from`]
//! fast-forward a fresh stream of the *same* shape past a boundary.
//! But an elastic splice usually *reshapes* the pipeline — a GPU was
//! lost, preempted, or re-admitted, or `Nm` changed — and then there
//! is no same-shape stream to resume: the correct continuation is a
//! **fresh stream of the new shape**, minibatches renumbered from 1,
//! with the splice's global wave/minibatch offsets applied outside the
//! stream (the runtime controller owns that bookkeeping). This is
//! sound because a wave boundary is a full drain point: every
//! minibatch of the boundary wave has completed its backward and
//! nothing beyond it has been dispatched, so the WSP state the new
//! stream assumes (clean slate, wave 0 local) is exactly the state the
//! drained pipeline is in — the boundary wave's push/pull bookkeeping
//! is settled by the splice itself.
//!
//! `fresh_epoch_stream_is_the_spliced_continuation` pins the
//! unchanged-shape specialization of that claim: for the drained base
//! patterns (`BasePattern::FillDrain`, `BasePattern::Fused`) a
//! renumbered fresh stream emits op-for-op the `resume_from` tail,
//! modulo the boundary wave's own gate (already satisfied by the
//! splice). For `BasePattern::Interleave` (1F1B overlap across the
//! boundary) the fresh stream re-warms instead of inheriting the
//! resumed stream's in-flight window — still a correct continuation
//! (minibatches ≤ boundary complete, > boundary untouched), just not
//! op-identical; the re-warmup is the throughput cost of a splice, not
//! a correctness gap.

use crate::ops::{GpuOp, ScheduleOp};
use crate::recompute::RecomputePolicy;
use crate::wsp::WspParams;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The base compute pattern of a stream, before wave decoration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BasePattern {
    /// `warmup` forwards, then strict backward/forward alternation
    /// (PipeDream 1F1B; also the steady-state shape of the HetPipe
    /// wave schedule at non-last stages).
    Interleave {
        /// Forwards executed before the first backward.
        warmup: u64,
    },
    /// All `Nm` forwards of a wave, then all `Nm` backwards (GPipe).
    FillDrain,
    /// Forward and backward of each minibatch fused as one task (the
    /// wave schedule's last stage).
    Fused,
}

/// An infinite, deterministic op stream for one pipeline stage.
#[derive(Debug, Clone)]
pub struct ScheduleStream {
    pattern: BasePattern,
    /// Wave bookkeeping (`Push` / `PullGate`) is emitted on stage 0
    /// only — pushes and pulls are per-virtual-worker, not per-stage.
    decorate: bool,
    /// When [`RecomputePolicy::BoundaryOnly`], every standalone
    /// backward is preceded by a [`ScheduleOp::Recompute`] of the same
    /// minibatch (fused tasks never need one).
    recompute: RecomputePolicy,
    wsp: WspParams,
    /// Forwards emitted so far (the next forward is `fwd_emitted + 1`).
    fwd_emitted: u64,
    /// Backwards emitted so far.
    bwd_emitted: u64,
    /// Newest wave already gated on (−1 = none), to emit each gate once.
    gated: i64,
    pending: VecDeque<ScheduleOp>,
}

impl ScheduleStream {
    pub(crate) fn new(pattern: BasePattern, stage: usize, wsp: WspParams) -> Self {
        ScheduleStream {
            pattern,
            decorate: stage == 0,
            recompute: RecomputePolicy::None,
            wsp,
            fwd_emitted: 0,
            bwd_emitted: 0,
            gated: -1,
            pending: VecDeque::new(),
        }
    }

    /// Returns this stream with the given recomputation policy: under
    /// [`RecomputePolicy::BoundaryOnly`] a [`ScheduleOp::Recompute`] is
    /// emitted immediately before every standalone backward. Must be
    /// applied before the first op is pulled.
    pub fn with_recompute(mut self, policy: RecomputePolicy) -> Self {
        debug_assert!(
            self.fwd_emitted == 0 && self.bwd_emitted == 0,
            "recompute policy must be set before the stream starts"
        );
        self.recompute = policy;
        self
    }

    /// Fast-forwards this (fresh) stream to the state immediately
    /// after the wave-boundary backward: ops are generated and
    /// discarded until the backward (or fused task) of `mb` — the last
    /// minibatch of `wave` — and the [`ScheduleOp::Push`] of `wave`
    /// that follows it on decorated stages have been emitted. The next
    /// op pulled from the resumed stream is therefore exactly the op a
    /// fresh stream would emit after that point: the resumed sequence
    /// *is* the tail of a fresh stream, which is what lets a re-planned
    /// executor splice a continuation at a wave boundary without
    /// re-deriving mid-stream state (`tests/runtime_faults.rs` /
    /// the stream tests pin the tail equality).
    ///
    /// `mb = 0` (before wave 0) returns the stream unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `mb` is not the last minibatch of `wave`, or if the
    /// stream has already emitted ops.
    pub fn resume_from(mut self, wave: u64, mb: u64) -> Self {
        assert!(
            self.fwd_emitted == 0 && self.bwd_emitted == 0 && self.pending.is_empty(),
            "resume_from requires a fresh stream"
        );
        if mb == 0 {
            return self;
        }
        assert_eq!(
            mb,
            self.wsp.last_of_wave(wave),
            "splices happen at wave boundaries"
        );
        // Discard popped ops (not generated state: `refill` batches a
        // whole emission group into `pending`, so `bwd_emitted` runs
        // ahead of what has actually been pulled).
        loop {
            match self.next() {
                Some(ScheduleOp::Backward { mb: m }) | Some(ScheduleOp::FusedFwdBwd { mb: m })
                    if m == mb =>
                {
                    break
                }
                Some(_) => {}
                None => unreachable!("schedule streams are infinite"),
            }
        }
        // Drain the rest of the boundary minibatch's emission group:
        // the wave push (decorated stages) sits in `pending` right
        // behind the backward that closed it.
        while matches!(self.pending.front(), Some(ScheduleOp::Push { wave: w }) if *w <= wave) {
            self.pending.pop_front();
        }
        self
    }

    /// Emits the gate for `p`'s required wave (once per wave) ahead of
    /// the forward of `p`.
    fn gate_before_forward(&mut self, p: u64) {
        if !self.decorate {
            return;
        }
        if let Some(w) = self.wsp.required_wave(p) {
            if w as i64 > self.gated {
                self.gated = w as i64;
                self.pending.push_back(ScheduleOp::PullGate { wave: w });
            }
        }
    }

    /// Emits the push after `p`'s backward when `p` closes a wave.
    fn push_after_backward(&mut self, p: u64) {
        if !self.decorate {
            return;
        }
        if p.is_multiple_of(self.wsp.nm as u64) {
            self.pending.push_back(ScheduleOp::Push {
                wave: p / self.wsp.nm as u64 - 1,
            });
        }
    }

    /// Emits the backward of `p` (with its recompute prefix when the
    /// policy calls for one) and the wave push that may follow it.
    fn emit_backward(&mut self, p: u64) {
        if self.recompute.is_on() {
            self.pending.push_back(ScheduleOp::Recompute { mb: p });
        }
        self.pending.push_back(ScheduleOp::Backward { mb: p });
        self.bwd_emitted = p;
        self.push_after_backward(p);
    }

    /// Generates the next base op (plus decorations) into `pending`.
    fn refill(&mut self) {
        let nm = self.wsp.nm as u64;
        match self.pattern {
            BasePattern::Fused => {
                let p = self.fwd_emitted + 1;
                self.gate_before_forward(p);
                self.pending.push_back(ScheduleOp::FusedFwdBwd { mb: p });
                self.fwd_emitted = p;
                self.bwd_emitted = p;
                self.push_after_backward(p);
            }
            BasePattern::Interleave { warmup } => {
                let outstanding = self.fwd_emitted - self.bwd_emitted;
                // A forward while the pipeline window has room (which
                // covers the initial warmup run of forwards), a
                // backward once it is full.
                if outstanding < warmup {
                    let p = self.fwd_emitted + 1;
                    self.gate_before_forward(p);
                    self.pending.push_back(ScheduleOp::Forward { mb: p });
                    self.fwd_emitted = p;
                } else {
                    self.emit_backward(self.bwd_emitted + 1);
                }
            }
            BasePattern::FillDrain => {
                let outstanding = self.fwd_emitted - self.bwd_emitted;
                // Fill while a wave is incomplete, drain it entirely
                // before touching the next wave.
                if outstanding < nm && self.bwd_emitted.is_multiple_of(nm) {
                    let p = self.fwd_emitted + 1;
                    self.gate_before_forward(p);
                    self.pending.push_back(ScheduleOp::Forward { mb: p });
                    self.fwd_emitted = p;
                } else {
                    self.emit_backward(self.bwd_emitted + 1);
                }
            }
        }
    }
}

impl Iterator for ScheduleStream {
    type Item = ScheduleOp;

    /// Always `Some`: schedules are infinite.
    fn next(&mut self) -> Option<ScheduleOp> {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front()
    }
}

/// The joint idealized unit-slot timetable of one whole virtual
/// pipeline, together with the per-GPU op queues it fans into.
///
/// One instance is **shared** (behind an `Arc`) by all of a virtual
/// worker's [`GpuStream`] handles: advancing a slot emits the newly
/// started ops of *every tracked GPU* into that GPU's queue, so the
/// slot simulation runs once per virtual worker instead of once per
/// GPU (the G× replay the per-instance form paid). Consumption order
/// across handles cannot perturb the timetable — queues only buffer —
/// so each GPU's emitted op sequence is identical to an independent
/// replay.
#[derive(Debug, Clone)]
struct Timetable {
    /// Physical GPUs in the pipeline (`p`).
    gpus: usize,
    /// Co-located chunks (`v`); virtual stages are `chunks × gpus`.
    chunks: usize,
    wsp: WspParams,
    /// Per virtual stage: the schedule's declared outstanding cap
    /// ([`crate::PipelineSchedule::max_in_flight`], injected at
    /// construction).
    caps: Vec<u64>,
    /// Per virtual stage: emit a [`ScheduleOp::Recompute`] before
    /// each backward (the schedule's
    /// [`crate::PipelineSchedule::recomputes_at`] decisions).
    remat: Vec<bool>,
    /// Simulated forward / backward completions per virtual stage.
    f: Vec<u64>,
    b: Vec<u64>,
    /// Per GPU: the timetable op in progress and its remaining slots
    /// (ops are duration-weighted: a backward costs about twice a
    /// forward, a recomputed backward three forwards).
    running: Vec<Option<(SlotOp, u32)>>,
    /// Newest wave already gated on (−1 = none).
    gated: i64,
    /// Which GPUs' ops are queued. A standalone [`GpuStream::new`]
    /// handle tracks only its own GPU (foreign queues would otherwise
    /// grow without a consumer); [`GpuStream::shared_set`] tracks all.
    track: Vec<bool>,
    /// Per-GPU queues of emitted-but-unconsumed ops.
    queues: Vec<VecDeque<GpuOp>>,
    /// Whether any slot has been simulated (guards `remat` changes).
    started: bool,
}

/// One op of the idealized timetable (internal to [`Timetable`]).
#[derive(Debug, Clone, Copy)]
enum SlotOp {
    Fwd { stage: usize, mb: u64 },
    Bwd { stage: usize, mb: u64 },
}

impl Timetable {
    fn new(gpus: usize, chunks: usize, wsp: WspParams, caps: Vec<u64>, track: Vec<bool>) -> Self {
        assert!(chunks >= 1, "at least one chunk per GPU");
        let k = chunks * gpus;
        assert_eq!(caps.len(), k, "one window cap per virtual stage");
        assert!(caps.iter().all(|&c| c >= 1), "windows hold at least one");
        Timetable {
            gpus,
            chunks,
            wsp,
            caps,
            remat: vec![false; k],
            f: vec![0; k],
            b: vec![0; k],
            running: vec![None; gpus],
            gated: -1,
            track,
            queues: (0..gpus).map(|_| VecDeque::new()).collect(),
            started: false,
        }
    }

    /// The op GPU `g` serves in the current slot of the idealized
    /// timetable, by drain-first / oldest-minibatch / deepest-stage
    /// priority, or `None` when `g` idles this slot.
    fn pick(&self, g: usize) -> Option<SlotOp> {
        let k = self.chunks * self.gpus;
        // Ready backward with the smallest minibatch, deepest stage on
        // ties (the most recently enabled link of the drain wave).
        let mut best: Option<(u64, usize)> = None;
        for c in 0..self.chunks {
            let s = c * self.gpus + g;
            let mb = self.b[s] + 1;
            let grad_ready = s + 1 == k || self.b[s + 1] >= mb;
            if mb <= self.f[s] && grad_ready && best.is_none_or(|(m, _)| mb < m) {
                best = Some((mb, s));
            }
        }
        if let Some((mb, stage)) = best {
            return Some(SlotOp::Bwd { stage, mb });
        }
        // Ready forward with the smallest minibatch (the deepest chunk
        // holding it wins ties automatically: a minibatch is ready at
        // exactly one stage), gated on the stage's 1F1B window.
        let mut best: Option<(u64, usize)> = None;
        for c in 0..self.chunks {
            let s = c * self.gpus + g;
            let mb = self.f[s] + 1;
            let input_ready = s == 0 || self.f[s - 1] >= mb;
            let window_open = self.f[s] - self.b[s] < self.caps[s];
            if input_ready && window_open && best.is_none_or(|(m, _)| mb < m) {
                best = Some((mb, s));
            }
        }
        best.map(|(mb, stage)| SlotOp::Fwd { stage, mb })
    }

    /// Duration of a timetable op in slots, with a forward as the
    /// unit: backwards stream twice the data and launch roughly twice
    /// the kernels (see `hetpipe-model`'s profile), and a recomputed
    /// backward additionally replays the stage forward. Matching the
    /// relative weights keeps the emitted *order* close to what the
    /// real durations produce, which is all the stream encodes.
    fn duration(&self, op: SlotOp) -> u32 {
        match op {
            SlotOp::Fwd { .. } => 1,
            SlotOp::Bwd { stage, .. } => {
                if self.remat[stage] {
                    3
                } else {
                    2
                }
            }
        }
    }

    /// Advances the idealized timetable one slot, emitting every
    /// tracked GPU's newly started op (if any) with its decorations
    /// into that GPU's queue.
    fn step_slot(&mut self) {
        self.started = true;
        // Idle GPUs pick against the slot-start state; completions
        // apply at the end of an op's last slot, so dependencies
        // always cross slot boundaries strictly forward (what makes
        // strict stream-order execution of the emitted prefixes
        // acyclic).
        let starts: Vec<Option<SlotOp>> = (0..self.gpus)
            .map(|g| {
                if self.running[g].is_none() {
                    self.pick(g)
                } else {
                    None
                }
            })
            .collect();
        for (g, op) in starts.into_iter().enumerate() {
            if let Some(op) = op {
                self.running[g] = Some((op, self.duration(op)));
                if self.track[g] {
                    self.emit(g, op);
                }
            }
        }
        for g in 0..self.gpus {
            if let Some((op, remaining)) = self.running[g] {
                if remaining == 1 {
                    match op {
                        SlotOp::Fwd { stage, .. } => self.f[stage] += 1,
                        SlotOp::Bwd { stage, .. } => self.b[stage] += 1,
                    }
                    self.running[g] = None;
                } else {
                    self.running[g] = Some((op, remaining - 1));
                }
            }
        }
    }

    /// Emits `op` (with its WSP decorations and recompute prefix) into
    /// GPU `g`'s queue.
    fn emit(&mut self, g: usize, op: SlotOp) {
        let queue = &mut self.queues[g];
        match op {
            SlotOp::Fwd { stage, mb } => {
                if stage == 0 {
                    if let Some(w) = self.wsp.required_wave(mb) {
                        if w as i64 > self.gated {
                            self.gated = w as i64;
                            queue.push_back(GpuOp {
                                stage,
                                op: ScheduleOp::PullGate { wave: w },
                            });
                        }
                    }
                }
                queue.push_back(GpuOp {
                    stage,
                    op: ScheduleOp::Forward { mb },
                });
            }
            SlotOp::Bwd { stage, mb } => {
                if self.remat[stage] {
                    queue.push_back(GpuOp {
                        stage,
                        op: ScheduleOp::Recompute { mb },
                    });
                }
                queue.push_back(GpuOp {
                    stage,
                    op: ScheduleOp::Backward { mb },
                });
                if stage == 0 && mb.is_multiple_of(self.wsp.nm as u64) {
                    queue.push_back(GpuOp {
                        stage,
                        op: ScheduleOp::Push {
                            wave: mb / self.wsp.nm as u64 - 1,
                        },
                    });
                }
            }
        }
    }
}

/// An infinite, deterministic *composite* op stream for one physical
/// GPU hosting several co-located virtual-stage chunks.
///
/// The merge order is derived from an **idealized unit-slot
/// timetable** of the whole virtual pipeline, the continuous analogue
/// of how Megatron-LM lays out its interleaved chunk groups: every
/// stage op takes one uniform time slot, each GPU runs at most one op
/// per slot, and ops become ready when their pipeline dependency
/// completed in an earlier slot. Per slot each GPU serves, in
/// priority order, the ready *backward* with the oldest minibatch
/// (draining completes minibatches and frees windows — classic 1F1B
/// drain priority), else the ready *forward* with the oldest
/// minibatch (ties to the deepest chunk, whose output the backward
/// wave needs soonest). Forwards are gated on the per-stage 1F1B
/// window `min(Nm, K − stage)` — the same bound
/// [`crate::PipelineSchedule::max_in_flight`] declares and the memory
/// model charges — so the stream's structural occupancy never
/// exceeds its certification and the WSP injection cap stays intact.
///
/// A virtual worker's handles share **one** joint `Timetable`
/// behind an `Arc` ([`GpuStream::shared_set`]): each slot is
/// simulated once and its ops fan into per-GPU queues, instead of
/// every handle independently replaying the whole timetable (G× the
/// slot work — the inefficiency the ROADMAP flagged). A standalone
/// handle ([`GpuStream::new`]) owns a private timetable and behaves
/// exactly like one member of a set — queues only buffer, so the
/// per-GPU op sequence is independent of how the handles interleave
/// their pulls. Because every dependency edge crosses slot boundaries
/// strictly forward, the union of stream-order edges and data
/// dependencies is acyclic — executing the per-GPU streams in strict
/// order can never deadlock, for any chunk count, GPU count, or `Nm`.
/// (A naive per-GPU chunk-group cursor does not have this property:
/// with equal chunk windows it can order a deep chunk's forward ahead
/// of the shallow chunk op that transitively feeds it on another GPU,
/// closing a cross-GPU wait cycle.)
///
/// The chunk-group interleaving the composite stream exists for
/// emerges directly: chunk 1's first microbatch becomes ready after
/// `GPUs` slots and immediately outranks chunk 0's next warmup
/// forward, so warmup hands over after one group of `min(GPUs, Nm)`
/// forwards instead of serializing chunk 0's whole window.
///
/// Wave bookkeeping (`PullGate` / `Push`) decorates virtual stage 0 —
/// chunk 0 of GPU 0 — exactly as [`ScheduleStream`] decorates
/// stage 0.
#[derive(Debug)]
pub struct GpuStream {
    /// The joint timetable — private to this handle
    /// ([`GpuStream::new`]) or shared by a virtual worker's whole
    /// handle set ([`GpuStream::shared_set`]).
    shared: Arc<Mutex<Timetable>>,
    /// This stream's GPU (0-based).
    gpu: usize,
}

impl Clone for GpuStream {
    /// Deep-clones the timetable state: the clone replays on from the
    /// current state independently, sharing nothing with the original
    /// (or with any set the original belongs to). The clone is a
    /// *standalone* handle: it tracks (and buffers ops for) only its
    /// own GPU — foreign queues a shared-set member had accumulated
    /// are dropped, since the clone has no consumer for them and they
    /// would otherwise grow without bound.
    fn clone(&self) -> GpuStream {
        let mut snapshot = self.shared.lock().expect("timetable lock").clone();
        for g in 0..snapshot.track.len() {
            snapshot.track[g] = g == self.gpu;
            if g != self.gpu {
                snapshot.queues[g].clear();
            }
        }
        GpuStream {
            shared: Arc::new(Mutex::new(snapshot)),
            gpu: self.gpu,
        }
    }
}

impl GpuStream {
    /// Creates a *standalone* composite stream of `gpu` in a pipeline
    /// of `gpus` physical GPUs each hosting `chunks` virtual stages
    /// (stage `c × gpus + gpu` for chunk `c`), with a private
    /// timetable that queues only this GPU's ops. Executors serving a
    /// whole virtual worker should use [`GpuStream::shared_set`]
    /// instead, which simulates the joint timetable once for all G
    /// handles.
    ///
    /// `caps` is the per-virtual-stage outstanding window, one entry
    /// per stage — the *schedule's own*
    /// [`crate::PipelineSchedule::max_in_flight`] values, passed in
    /// rather than re-derived here so the stream's structural
    /// occupancy can never drift from the declared accounting the
    /// memory model certifies and the occupancy audit enforces.
    ///
    /// # Panics
    ///
    /// Panics if `gpu >= gpus`, `chunks == 0`, `caps` has the wrong
    /// length, or any cap is 0.
    pub fn new(gpu: usize, gpus: usize, chunks: usize, wsp: WspParams, caps: Vec<u64>) -> Self {
        assert!(gpu < gpus, "gpu index out of range");
        let mut track = vec![false; gpus];
        track[gpu] = true;
        GpuStream {
            shared: Arc::new(Mutex::new(Timetable::new(gpus, chunks, wsp, caps, track))),
            gpu,
        }
    }

    /// Creates the full per-GPU handle set of one virtual worker —
    /// one [`GpuStream`] per physical GPU, all fanned from a **single
    /// shared** joint timetable (`Arc`), so each unit slot is
    /// simulated once instead of once per GPU.
    ///
    /// `remat` holds the per-virtual-stage rematerialization flags
    /// (the schedule's [`crate::PipelineSchedule::recomputes_at`]
    /// decisions), applied at construction since a shared timetable
    /// must not change once any handle has pulled an op.
    ///
    /// # Panics
    ///
    /// Panics if `chunks == 0`, or `caps` / `remat` do not have one
    /// entry per virtual stage, or any cap is 0.
    pub fn shared_set(
        gpus: usize,
        chunks: usize,
        wsp: WspParams,
        caps: Vec<u64>,
        remat: Vec<bool>,
    ) -> Vec<GpuStream> {
        let mut timetable = Timetable::new(gpus, chunks, wsp, caps, vec![true; gpus]);
        assert_eq!(
            remat.len(),
            timetable.remat.len(),
            "one recompute flag per virtual stage"
        );
        timetable.remat = remat;
        let shared = Arc::new(Mutex::new(timetable));
        (0..gpus)
            .map(|gpu| GpuStream {
                shared: Arc::clone(&shared),
                gpu,
            })
            .collect()
    }

    /// Sets the per-stage rematerialization flags, one per virtual
    /// stage: before each backward of a flagged stage the stream
    /// emits a [`ScheduleOp::Recompute`]. The flags are the
    /// *schedule's own* per-stage checkpoint decisions
    /// ([`crate::PipelineSchedule::recomputes_at`], applied by
    /// [`crate::PipelineSchedule::gpu_streams_with`]) — passed in,
    /// like the window caps, so the stream's recompute placement can
    /// never drift from the memory/cost/executor accounting. Must be
    /// applied before the first op is pulled.
    ///
    /// # Panics
    ///
    /// Panics if `remat` does not have one entry per virtual stage,
    /// or if the stream has already started.
    pub fn with_remat(self, remat: Vec<bool>) -> Self {
        {
            let mut t = self.shared.lock().expect("timetable lock");
            assert!(
                !t.started,
                "recompute flags must be set before the stream starts"
            );
            assert_eq!(
                remat.len(),
                t.remat.len(),
                "one recompute flag per virtual stage"
            );
            t.remat = remat;
        }
        self
    }

    /// Fast-forwards this composite stream to the state immediately
    /// after the wave-boundary backward of `mb` (the last minibatch of
    /// `wave`): ops are pulled and discarded until *every* co-located
    /// chunk of this GPU has emitted its backward of `mb`, plus the
    /// [`ScheduleOp::Push`] of `wave` on GPU 0 (which hosts virtual
    /// stage 0). The next op pulled is exactly what a fresh stream
    /// would emit after that point — the per-GPU form of
    /// [`ScheduleStream::resume_from`], and the stream-level
    /// prerequisite for splicing a re-planned continuation at a wave
    /// boundary.
    ///
    /// Works on standalone handles and on [`GpuStream::shared_set`]
    /// members alike (resume every member of a shared set, in any
    /// order: each handle discards only its own queue, and the shared
    /// timetable advances once). `mb = 0` returns the stream
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `mb` is not the last minibatch of `wave`.
    pub fn resume_from(mut self, wave: u64, mb: u64) -> Self {
        if mb == 0 {
            return self;
        }
        let (gpus, chunks) = {
            let t = self.shared.lock().expect("timetable lock");
            assert_eq!(
                mb,
                t.wsp.last_of_wave(wave),
                "splices happen at wave boundaries"
            );
            (t.gpus, t.chunks)
        };
        let mut done = vec![0u64; chunks];
        while done.iter().any(|&m| m < mb) {
            let gop = self.next().expect("streams are infinite");
            if let ScheduleOp::Backward { mb: m } = gop.op {
                done[gop.stage / gpus] = m;
            }
        }
        // The boundary wave's push is queued directly behind stage 0's
        // backward; consume it so the resumed stream starts clean.
        let mut t = self.shared.lock().expect("timetable lock");
        while matches!(
            t.queues[self.gpu].front(),
            Some(GpuOp { op: ScheduleOp::Push { wave: w }, .. }) if *w <= wave
        ) {
            t.queues[self.gpu].pop_front();
        }
        drop(t);
        self
    }
}

impl Iterator for GpuStream {
    type Item = GpuOp;

    /// Always `Some`: schedules are infinite. Pops this GPU's queue,
    /// advancing the (possibly shared) joint timetable while the
    /// queue is empty — the timetable always progresses: the oldest
    /// incomplete minibatch's frontier op is ready by construction
    /// (its dependency completed and, being the oldest, no window can
    /// be full of younger work below it), so some GPU runs every slot
    /// and this GPU's chunks recur within a bounded number of slots.
    fn next(&mut self) -> Option<GpuOp> {
        let mut t = self.shared.lock().expect("timetable lock");
        loop {
            if let Some(op) = t.queues[self.gpu].pop_front() {
                return Some(op);
            }
            t.step_slot();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(pattern: BasePattern, stage: usize, wsp: WspParams, n: usize) -> Vec<ScheduleOp> {
        ScheduleStream::new(pattern, stage, wsp).take(n).collect()
    }

    #[test]
    fn fill_drain_alternates_whole_waves() {
        use ScheduleOp::*;
        let got = ops(BasePattern::FillDrain, 1, WspParams::new(3, 0), 9);
        assert_eq!(
            got,
            vec![
                Forward { mb: 1 },
                Forward { mb: 2 },
                Forward { mb: 3 },
                Backward { mb: 1 },
                Backward { mb: 2 },
                Backward { mb: 3 },
                Forward { mb: 4 },
                Forward { mb: 5 },
                Forward { mb: 6 },
            ]
        );
    }

    #[test]
    fn interleave_warmup_then_1f1b() {
        use ScheduleOp::*;
        let got = ops(
            BasePattern::Interleave { warmup: 2 },
            1,
            WspParams::new(4, 0),
            8,
        );
        assert_eq!(
            got,
            vec![
                Forward { mb: 1 },
                Forward { mb: 2 },
                Backward { mb: 1 },
                Forward { mb: 3 },
                Backward { mb: 2 },
                Forward { mb: 4 },
                Backward { mb: 3 },
                Forward { mb: 5 },
            ]
        );
    }

    #[test]
    fn stage0_gets_push_and_gate_decorations() {
        let wsp = WspParams::new(2, 0); // s_global = 2: mb 4 requires wave 0.
        let got = ops(BasePattern::FillDrain, 0, wsp, 12);
        let pushes: Vec<_> = got
            .iter()
            .filter(|o| matches!(o, ScheduleOp::Push { .. }))
            .collect();
        let gates: Vec<_> = got
            .iter()
            .filter(|o| matches!(o, ScheduleOp::PullGate { .. }))
            .collect();
        assert!(!pushes.is_empty(), "stage 0 pushes waves: {got:?}");
        assert!(!gates.is_empty(), "stage 0 gates on waves: {got:?}");
        // The push of wave 0 appears right after Backward{2}.
        let b2 = got
            .iter()
            .position(|o| *o == ScheduleOp::Backward { mb: 2 })
            .unwrap();
        assert_eq!(got[b2 + 1], ScheduleOp::Push { wave: 0 });
        // The gate for wave 0 precedes Forward{4} (required_wave(4) = 0).
        let g = got
            .iter()
            .position(|o| *o == ScheduleOp::PullGate { wave: 0 })
            .unwrap();
        let f4 = got
            .iter()
            .position(|o| *o == ScheduleOp::Forward { mb: 4 })
            .unwrap();
        assert!(g < f4, "gate must precede the gated forward: {got:?}");
    }

    #[test]
    fn non_zero_stages_have_no_decorations() {
        for pattern in [
            BasePattern::FillDrain,
            BasePattern::Interleave { warmup: 3 },
            BasePattern::Fused,
        ] {
            let got = ops(pattern, 2, WspParams::new(2, 0), 40);
            assert!(
                got.iter().all(ScheduleOp::is_compute),
                "{pattern:?} stage 2 must be pure compute"
            );
        }
    }

    #[test]
    fn fused_stream_is_one_task_per_minibatch() {
        let got = ops(BasePattern::Fused, 3, WspParams::new(4, 0), 5);
        for (i, op) in got.iter().enumerate() {
            assert_eq!(*op, ScheduleOp::FusedFwdBwd { mb: i as u64 + 1 });
        }
    }

    #[test]
    fn recompute_precedes_every_standalone_backward() {
        use ScheduleOp::*;
        for pattern in [
            BasePattern::FillDrain,
            BasePattern::Interleave { warmup: 2 },
        ] {
            let got: Vec<ScheduleOp> = ScheduleStream::new(pattern, 1, WspParams::new(3, 0))
                .with_recompute(RecomputePolicy::BoundaryOnly)
                .take(60)
                .collect();
            let mut backwards = 0;
            for (i, op) in got.iter().enumerate() {
                if let Backward { mb } = op {
                    backwards += 1;
                    assert_eq!(
                        got[i - 1],
                        Recompute { mb: *mb },
                        "{pattern:?}: backward {mb} missing its recompute"
                    );
                }
            }
            assert!(backwards > 5, "{pattern:?} ran backwards");
            // Exactly one recompute per backward, no strays.
            let recomputes = got.iter().filter(|o| matches!(o, Recompute { .. })).count();
            // The tail may end on a Recompute whose Backward is cut off.
            assert!(recomputes == backwards || recomputes == backwards + 1);
        }
        // Fused tasks never recompute.
        let got: Vec<ScheduleOp> = ScheduleStream::new(BasePattern::Fused, 3, WspParams::new(3, 0))
            .with_recompute(RecomputePolicy::BoundaryOnly)
            .take(20)
            .collect();
        assert!(got.iter().all(|o| !matches!(o, Recompute { .. })));
    }

    #[test]
    fn resumed_stream_equals_tail_of_fresh() {
        // The splice prerequisite: resume_from(wave, mb) must continue
        // exactly where a fresh stream stands after emitting mb's
        // backward (and the wave push on decorated stages) — for every
        // base pattern, decorated and not.
        for pattern in [
            BasePattern::FillDrain,
            BasePattern::Interleave { warmup: 3 },
            BasePattern::Fused,
        ] {
            for stage in [0usize, 2] {
                for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
                    let wsp = WspParams::new(3, 1);
                    let mk = || {
                        ScheduleStream::new(pattern, stage, wsp).with_recompute(
                            if pattern == BasePattern::Fused {
                                RecomputePolicy::None
                            } else {
                                recompute
                            },
                        )
                    };
                    let (wave, mb) = (1u64, wsp.last_of_wave(1));
                    let fresh: Vec<ScheduleOp> = mk().take(120).collect();
                    // The cut point: right after Backward/Fused{mb} and
                    // any immediately-following wave push.
                    let bwd_at = fresh
                        .iter()
                        .position(|o| {
                            matches!(o,
                                ScheduleOp::Backward { mb: m }
                                | ScheduleOp::FusedFwdBwd { mb: m } if *m == mb)
                        })
                        .expect("boundary backward in prefix");
                    let mut cut = bwd_at + 1;
                    while matches!(fresh.get(cut), Some(ScheduleOp::Push { .. })) {
                        cut += 1;
                    }
                    let tail: Vec<ScheduleOp> = fresh[cut..].to_vec();
                    let resumed: Vec<ScheduleOp> =
                        mk().resume_from(wave, mb).take(tail.len()).collect();
                    assert_eq!(
                        resumed, tail,
                        "{pattern:?} stage {stage} {recompute}: resumed != fresh tail"
                    );
                }
            }
        }
        // mb = 0 is the identity.
        let wsp = WspParams::new(4, 0);
        let a: Vec<ScheduleOp> = ScheduleStream::new(BasePattern::FillDrain, 0, wsp)
            .resume_from(0, 0)
            .take(20)
            .collect();
        let b: Vec<ScheduleOp> = ScheduleStream::new(BasePattern::FillDrain, 0, wsp)
            .take(20)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn fresh_epoch_stream_is_the_spliced_continuation() {
        // The reshaped-splice soundness claim, specialized to the
        // unchanged shape where it is checkable op-for-op: at a
        // drained wave boundary, a FRESH stream renumbered by the
        // boundary offsets (mb += boundary_mb, wave += boundary+1)
        // emits exactly the resume_from tail — except the boundary
        // wave's own PullGate, which the splice has already satisfied.
        // This is what licenses the controller to splice reshaped
        // pipelines (different device set or Nm) with fresh streams of
        // the new shape: a reshape has no old stream to resume.
        use ScheduleOp::*;
        let renumber = |op: &ScheduleOp, mb_off: u64, wave_off: u64| match *op {
            Forward { mb } => Forward { mb: mb + mb_off },
            Backward { mb } => Backward { mb: mb + mb_off },
            Recompute { mb } => Recompute { mb: mb + mb_off },
            FusedFwdBwd { mb } => FusedFwdBwd { mb: mb + mb_off },
            Push { wave } => Push {
                wave: wave + wave_off,
            },
            PullGate { wave } => PullGate {
                wave: wave + wave_off,
            },
        };
        // Drained patterns only: Interleave keeps 1F1B work in flight
        // across the boundary, so a fresh epoch re-warms (correct but
        // not op-identical — see the module docs).
        for pattern in [BasePattern::FillDrain, BasePattern::Fused] {
            for stage in [0usize, 2] {
                for s_global in [0usize, 1] {
                    let wsp = WspParams::new(3, s_global);
                    let boundary_wave = 1u64;
                    let boundary_mb = wsp.last_of_wave(boundary_wave);
                    let resumed: Vec<ScheduleOp> = ScheduleStream::new(pattern, stage, wsp)
                        .resume_from(boundary_wave, boundary_mb)
                        .take(60)
                        .collect();
                    // Drop the boundary wave's own bookkeeping: the
                    // splice settles waves <= boundary before the new
                    // epoch starts.
                    let resumed: Vec<ScheduleOp> = resumed
                        .into_iter()
                        .filter(|op| !matches!(op, PullGate { wave } if *wave <= boundary_wave))
                        .collect();
                    let fresh: Vec<ScheduleOp> = ScheduleStream::new(pattern, stage, wsp)
                        .map(|op| renumber(&op, boundary_mb, boundary_wave + 1))
                        .take(resumed.len())
                        .collect();
                    assert_eq!(
                        fresh, resumed,
                        "{pattern:?} stage {stage} s={s_global}: \
                         fresh epoch is not the spliced continuation"
                    );
                }
            }
        }
    }

    #[test]
    fn resumed_gpu_stream_equals_tail_of_fresh() {
        // Per-GPU form: after resume_from(wave, mb), each handle's op
        // sequence equals the fresh stream's tail past the point where
        // all of the GPU's chunks emitted Backward{mb} (plus the wave
        // push on GPU 0). Checked per GPU across chunk counts and
        // recompute, for standalone handles.
        for chunks in [1usize, 2, 3] {
            for gpus in [1usize, 2, 4] {
                let wsp = WspParams::new(3, 0);
                let k = chunks * gpus;
                let caps: Vec<u64> = (0..k).map(|s| (wsp.nm.min(k - s)) as u64).collect();
                let (wave, mb) = (1u64, wsp.last_of_wave(1));
                for gpu in 0..gpus {
                    let fresh: Vec<GpuOp> = GpuStream::new(gpu, gpus, chunks, wsp, caps.clone())
                        .take(400)
                        .collect();
                    let mut done = vec![0u64; chunks];
                    let mut cut = 0;
                    for (i, gop) in fresh.iter().enumerate() {
                        if let ScheduleOp::Backward { mb: m } = gop.op {
                            done[gop.stage / gpus] = m;
                        }
                        if done.iter().all(|&m| m >= mb) {
                            cut = i + 1;
                            break;
                        }
                    }
                    assert!(cut > 0, "prefix long enough to cross the boundary");
                    while matches!(
                        fresh.get(cut),
                        Some(GpuOp {
                            op: ScheduleOp::Push { .. },
                            ..
                        })
                    ) {
                        cut += 1;
                    }
                    let tail: Vec<GpuOp> = fresh[cut..cut + 100].to_vec();
                    let resumed: Vec<GpuOp> = GpuStream::new(gpu, gpus, chunks, wsp, caps.clone())
                        .resume_from(wave, mb)
                        .take(100)
                        .collect();
                    assert_eq!(
                        resumed, tail,
                        "chunks={chunks} gpus={gpus} gpu={gpu}: resumed != fresh tail"
                    );
                }
            }
        }
    }

    #[test]
    fn gpu_resume_from_zero_is_identity() {
        let wsp = WspParams::new(4, 0);
        let caps = vec![4, 3, 2, 1];
        let a: Vec<GpuOp> = GpuStream::new(1, 2, 2, wsp, caps.clone())
            .resume_from(0, 0)
            .take(40)
            .collect();
        let b: Vec<GpuOp> = GpuStream::new(1, 2, 2, wsp, caps).take(40).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn resumed_shared_set_matches_standalone_resume() {
        // Resuming every member of a shared set must leave each handle
        // emitting exactly what its standalone resumed counterpart
        // does — the shared timetable advances once, queues buffer.
        let (gpus, chunks) = (4usize, 2usize);
        let wsp = WspParams::new(4, 0);
        let k = chunks * gpus;
        let caps: Vec<u64> = (0..k).map(|s| (wsp.nm.min(k - s)) as u64).collect();
        let (wave, mb) = (0u64, wsp.last_of_wave(0));
        let shared: Vec<GpuStream> =
            GpuStream::shared_set(gpus, chunks, wsp, caps.clone(), vec![false; k])
                .into_iter()
                .map(|s| s.resume_from(wave, mb))
                .collect();
        for (g, mut stream) in shared.into_iter().enumerate() {
            let want: Vec<GpuOp> = GpuStream::new(g, gpus, chunks, wsp, caps.clone())
                .resume_from(wave, mb)
                .take(80)
                .collect();
            let got: Vec<GpuOp> = (0..80).map(|_| stream.next().unwrap()).collect();
            assert_eq!(got, want, "gpu {g}");
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let a = ops(
            BasePattern::Interleave { warmup: 4 },
            0,
            WspParams::new(4, 1),
            200,
        );
        let b = ops(
            BasePattern::Interleave { warmup: 4 },
            0,
            WspParams::new(4, 1),
            200,
        );
        assert_eq!(a, b);
    }
}
