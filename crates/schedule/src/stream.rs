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
//! decide the merge. Every GPU's timeline comes from one joint
//! timetable of the whole virtual pipeline: a `GpuStream` replays it
//! for its one GPU, and a virtual worker's [`crate::Lanes`] — what the
//! executor's `GpuStreamOrder` dispatch path consumes — run it once for
//! all of them.
//!
//! # Splicing reshaped pipelines at drained wave boundaries
//!
//! An elastic splice usually *reshapes* the pipeline — a GPU was
//! lost, preempted, or re-admitted, or `Nm` changed — so there is no
//! same-shape stream to continue: the continuation is a **fresh
//! stream of the new shape**, minibatches renumbered from 1, with the
//! splice's global wave/minibatch offsets applied outside the stream
//! (the runtime controller owns that bookkeeping). This is sound
//! because a wave boundary is a full drain point: every minibatch of
//! the boundary wave has completed its backward and nothing beyond it
//! has been dispatched, so the WSP state the new stream assumes
//! (clean slate, wave 0 local) is exactly the state the drained
//! pipeline is in — the boundary wave's push/pull bookkeeping is
//! settled by the splice itself.
//!
//! `fresh_epoch_stream_is_the_spliced_continuation` pins the
//! unchanged-shape specialization of that claim: for the drained base
//! patterns (`BasePattern::FillDrain`, `BasePattern::Fused`) a
//! renumbered fresh stream emits op-for-op the tail of one long
//! stream past the boundary backward, modulo the boundary wave's own
//! gate (already satisfied by the splice). For
//! `BasePattern::Interleave` (1F1B overlap across the boundary) the
//! fresh stream re-warms instead of inheriting the long stream's
//! in-flight window — still a correct continuation (minibatches ≤
//! boundary complete, > boundary untouched), just not op-identical;
//! the re-warmup is the throughput cost of a splice, not a
//! correctness gap.

use crate::ops::{GpuOp, ScheduleOp, StateWriter};
use crate::recompute::RecomputePolicy;
use crate::wsp::WspParams;
use std::collections::VecDeque;

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

    /// Writes the stream's position and its emitted-but-unpulled ops.
    /// Only a decorated stream advances its gate mark.
    pub fn write_state(&self, w: &mut impl StateWriter) {
        w.mb(self.fwd_emitted).mb(self.bwd_emitted);
        if self.decorate {
            w.wave(self.gated);
        }
        w.ints(&[self.pending.len() as i64]);
        for op in &self.pending {
            op.write_state(w);
        }
    }

    /// Moves the stream `mbs` minibatches and `waves` waves on.
    pub fn shift(&mut self, mbs: u64, waves: u64) {
        self.fwd_emitted += mbs;
        self.bwd_emitted += mbs;
        if self.decorate {
            self.gated += waves as i64;
        }
        for op in &mut self.pending {
            *op = op.shifted(mbs, waves);
        }
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
/// Advancing a slot emits the newly started op of every tracked GPU
/// into that GPU's queue. A virtual worker's [`crate::Lanes`] own one
/// timetable tracking every GPU, so each slot is simulated once per
/// virtual worker; a standalone [`GpuStream`] owns one tracking only
/// its GPU. Queues only buffer, so the order in which GPUs are pulled
/// cannot perturb the timetable: each GPU's op sequence is the same
/// either way.
#[derive(Debug, Clone)]
pub(crate) struct Timetable {
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
    /// The one GPU whose ops are queued, or `None` for all of them. A
    /// [`GpuStream`] tracks only its own GPU (foreign queues would
    /// otherwise grow without a consumer).
    track: Option<usize>,
    /// Per-GPU queues of emitted-but-unconsumed ops.
    queues: Vec<VecDeque<GpuOp>>,
}

/// One op of the idealized timetable (internal to [`Timetable`]).
#[derive(Debug, Clone, Copy)]
enum SlotOp {
    Fwd { stage: usize, mb: u64 },
    Bwd { stage: usize, mb: u64 },
}

impl Timetable {
    /// The timetable of `gpus` physical GPUs each hosting `chunks`
    /// virtual stages (stage `c × gpus + g` for chunk `c` of GPU `g`),
    /// queueing every GPU's ops.
    ///
    /// `caps` is the per-virtual-stage outstanding window and `remat`
    /// the per-virtual-stage recompute flags, one entry per stage —
    /// the *schedule's own* [`crate::PipelineSchedule::max_in_flight`]
    /// and [`crate::PipelineSchedule::recomputes_at`] answers, passed
    /// in rather than re-derived here so the stream's structural
    /// occupancy and recompute placement can never drift from the
    /// declared accounting the memory model certifies and the
    /// occupancy audit enforces.
    ///
    /// # Panics
    ///
    /// Panics if `chunks == 0`, `caps` or `remat` has the wrong
    /// length, or any cap is 0.
    pub(crate) fn new(
        gpus: usize,
        chunks: usize,
        wsp: WspParams,
        caps: Vec<u64>,
        remat: Vec<bool>,
    ) -> Self {
        assert!(chunks >= 1, "at least one chunk per GPU");
        let k = chunks * gpus;
        assert_eq!(caps.len(), k, "one window cap per virtual stage");
        assert!(caps.iter().all(|&c| c >= 1), "windows hold at least one");
        assert_eq!(remat.len(), k, "one recompute flag per virtual stage");
        Timetable {
            gpus,
            chunks,
            wsp,
            caps,
            remat,
            f: vec![0; k],
            b: vec![0; k],
            running: vec![None; gpus],
            gated: -1,
            track: None,
            queues: (0..gpus).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Physical GPUs in the pipeline.
    pub(crate) fn gpus(&self) -> usize {
        self.gpus
    }

    /// GPU `g`'s next op, advancing the timetable while its queue is
    /// empty — the timetable always progresses: the oldest incomplete
    /// minibatch's frontier op is ready by construction (its
    /// dependency completed and, being the oldest, no window can be
    /// full of younger work below it), so some GPU runs every slot and
    /// `g`'s chunks recur within a bounded number of slots.
    pub(crate) fn next(&mut self, g: usize) -> GpuOp {
        loop {
            if let Some(op) = self.queues[g].pop_front() {
                return op;
            }
            self.step_slot();
        }
    }

    /// Writes the timetable's per-stage progress, its running ops and
    /// every queued op.
    pub(crate) fn write_state(&self, w: &mut impl StateWriter) {
        for (&f, &b) in self.f.iter().zip(&self.b) {
            w.mb(f).mb(b);
        }
        for running in &self.running {
            match *running {
                Some((SlotOp::Fwd { stage, mb }, left)) => {
                    w.ints(&[1, stage as i64, left as i64]).mb(mb)
                }
                Some((SlotOp::Bwd { stage, mb }, left)) => {
                    w.ints(&[2, stage as i64, left as i64]).mb(mb)
                }
                None => w.ints(&[0]),
            };
        }
        w.wave(self.gated);
        for queue in &self.queues {
            w.ints(&[queue.len() as i64]);
            for gop in queue {
                w.ints(&[gop.stage as i64]);
                gop.op.write_state(w);
            }
        }
    }

    /// Moves the timetable `mbs` minibatches and `waves` waves on.
    pub(crate) fn shift(&mut self, mbs: u64, waves: u64) {
        for count in self.f.iter_mut().chain(&mut self.b) {
            *count += mbs;
        }
        for (op, _) in self.running.iter_mut().flatten() {
            match op {
                SlotOp::Fwd { mb, .. } | SlotOp::Bwd { mb, .. } => *mb += mbs,
            }
        }
        self.gated += waves as i64;
        for gop in self.queues.iter_mut().flatten() {
            gop.op = gop.op.shifted(mbs, waves);
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
                if self.track.is_none_or(|t| t == g) {
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
/// A `GpuStream` owns a private timetable and replays it alone, for
/// the stream checks and analyses that look at one GPU
/// ([`crate::PipelineSchedule::gpu_streams_with`]). The executor
/// pulls a virtual worker's GPUs from its [`crate::Lanes`] instead,
/// which run the same timetable once for all of them and emit exactly
/// the same per-GPU sequences.
///
/// Because every dependency edge crosses slot boundaries strictly
/// forward, the union of stream-order edges and data dependencies is
/// acyclic — executing the per-GPU streams in strict order can never
/// deadlock, for any chunk count, GPU count, or `Nm`.
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
    /// The timetable, queueing only this GPU's ops.
    table: Timetable,
    /// This stream's GPU (0-based).
    gpu: usize,
}

impl GpuStream {
    /// GPU `gpu`'s stream of `table`, which then queues only `gpu`'s
    /// ops.
    pub(crate) fn new(mut table: Timetable, gpu: usize) -> Self {
        assert!(gpu < table.gpus, "gpu index out of range");
        table.track = Some(gpu);
        GpuStream { table, gpu }
    }
}

impl Iterator for GpuStream {
    type Item = GpuOp;

    /// Always `Some`: schedules are infinite.
    fn next(&mut self) -> Option<GpuOp> {
        Some(self.table.next(self.gpu))
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
    fn fresh_epoch_stream_is_the_spliced_continuation() {
        // The reshaped-splice soundness claim, specialized to the
        // unchanged shape where it is checkable op-for-op: at a
        // drained wave boundary, a FRESH stream renumbered by the
        // boundary offsets (mb += boundary_mb, wave += boundary+1)
        // emits exactly the tail of one long stream past the boundary
        // backward (and the wave push behind it) — except the boundary
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
                    let long: Vec<ScheduleOp> =
                        ScheduleStream::new(pattern, stage, wsp).take(100).collect();
                    // The cut point: right after Backward/Fused{mb} and
                    // any immediately-following wave push.
                    let bwd_at = long
                        .iter()
                        .position(|o| {
                            matches!(o,
                                Backward { mb } | FusedFwdBwd { mb } if *mb == boundary_mb)
                        })
                        .expect("boundary backward in prefix");
                    let mut cut = bwd_at + 1;
                    while matches!(long.get(cut), Some(Push { .. })) {
                        cut += 1;
                    }
                    // Drop the boundary wave's own bookkeeping: the
                    // splice settles waves <= boundary before the new
                    // epoch starts.
                    let tail: Vec<ScheduleOp> = long[cut..cut + 60]
                        .iter()
                        .filter(|op| !matches!(op, PullGate { wave } if *wave <= boundary_wave))
                        .copied()
                        .collect();
                    let fresh: Vec<ScheduleOp> = ScheduleStream::new(pattern, stage, wsp)
                        .map(|op| renumber(&op, boundary_mb, boundary_wave + 1))
                        .take(tail.len())
                        .collect();
                    assert_eq!(
                        fresh, tail,
                        "{pattern:?} stage {stage} s={s_global}: \
                         fresh epoch is not the spliced continuation"
                    );
                }
            }
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
