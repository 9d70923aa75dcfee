//! The schedule-op alphabet and dispatch disciplines.

/// One step of a stage's schedule.
///
/// Minibatches are 1-indexed (matching the paper's Figure 1); waves are
/// 0-indexed groups of `Nm` consecutive minibatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleOp {
    /// Run the forward pass of minibatch `mb` on this stage.
    Forward {
        /// The minibatch (1-indexed).
        mb: u64,
    },
    /// Run the backward pass of minibatch `mb` on this stage.
    Backward {
        /// The minibatch (1-indexed).
        mb: u64,
    },
    /// Run forward and backward of `mb` fused as one task (the paper's
    /// Section-4 optimization at the last stage of the wave schedule).
    FusedFwdBwd {
        /// The minibatch (1-indexed).
        mb: u64,
    },
    /// Re-run the stage's forward of `mb` from its stashed boundary
    /// input to rematerialize the intermediate activations, directly
    /// before `mb`'s backward (activation recomputation,
    /// [`crate::RecomputePolicy::BoundaryOnly`]). This is stage-local
    /// compute: it is *not* a pipeline forward and produces no boundary
    /// output for the next stage.
    Recompute {
        /// The minibatch (1-indexed) whose backward follows.
        mb: u64,
    },
    /// Push the aggregated update of `wave` to the parameter servers
    /// (emitted on stage 0 only, after the wave's last backward).
    Push {
        /// The completed wave (0-indexed).
        wave: u64,
    },
    /// Block until the local weights reflect the global updates of
    /// `wave` (the WSP start gate; emitted on stage 0 only, before the
    /// first forward that requires the wave).
    PullGate {
        /// The wave that must be visible (0-indexed).
        wave: u64,
    },
}

impl ScheduleOp {
    /// The minibatch a compute op refers to (`None` for the wave
    /// bookkeeping ops).
    pub fn minibatch(&self) -> Option<u64> {
        match self {
            ScheduleOp::Forward { mb }
            | ScheduleOp::Backward { mb }
            | ScheduleOp::FusedFwdBwd { mb }
            | ScheduleOp::Recompute { mb } => Some(*mb),
            ScheduleOp::Push { .. } | ScheduleOp::PullGate { .. } => None,
        }
    }

    /// True for ops that occupy the stage's GPU.
    pub fn is_compute(&self) -> bool {
        self.minibatch().is_some()
    }

    /// True if the op performs (or includes) a *pipeline* forward pass
    /// (one that produces boundary activations for the next stage).
    /// [`ScheduleOp::Recompute`] re-runs forward kernels but is
    /// stage-local, so it does not count.
    pub fn has_forward(&self) -> bool {
        matches!(
            self,
            ScheduleOp::Forward { .. } | ScheduleOp::FusedFwdBwd { .. }
        )
    }

    /// True if the op performs (or includes) a backward pass.
    pub fn has_backward(&self) -> bool {
        matches!(
            self,
            ScheduleOp::Backward { .. } | ScheduleOp::FusedFwdBwd { .. }
        )
    }

    /// The same op `mbs` minibatches and `waves` waves later.
    pub fn shifted(self, mbs: u64, waves: u64) -> ScheduleOp {
        match self {
            ScheduleOp::Forward { mb } => ScheduleOp::Forward { mb: mb + mbs },
            ScheduleOp::Backward { mb } => ScheduleOp::Backward { mb: mb + mbs },
            ScheduleOp::FusedFwdBwd { mb } => ScheduleOp::FusedFwdBwd { mb: mb + mbs },
            ScheduleOp::Recompute { mb } => ScheduleOp::Recompute { mb: mb + mbs },
            ScheduleOp::Push { wave } => ScheduleOp::Push { wave: wave + waves },
            ScheduleOp::PullGate { wave } => ScheduleOp::PullGate { wave: wave + waves },
        }
    }

    /// Writes the op to `w`: its kind, then its minibatch or wave.
    pub fn write_state(&self, w: &mut impl StateWriter) {
        match *self {
            ScheduleOp::Forward { mb } => w.ints(&[0]).mb(mb),
            ScheduleOp::Backward { mb } => w.ints(&[1]).mb(mb),
            ScheduleOp::FusedFwdBwd { mb } => w.ints(&[2]).mb(mb),
            ScheduleOp::Recompute { mb } => w.ints(&[3]).mb(mb),
            ScheduleOp::Push { wave } => w.ints(&[4]).wave(wave as i64),
            ScheduleOp::PullGate { wave } => w.ints(&[5]).wave(wave as i64),
        };
    }
}

/// Where a generator writes the state its future ops depend on, for a
/// caller that compares states up to a shift of minibatch and wave
/// numbers (the executor's steady-state fast-forward).
pub trait StateWriter {
    /// Plain counts, written as they are.
    fn ints(&mut self, xs: &[i64]) -> &mut Self;
    /// A minibatch number.
    fn mb(&mut self, mb: u64) -> &mut Self;
    /// A wave number (−1 = none).
    fn wave(&mut self, wave: i64) -> &mut Self;
}

/// One step of a *per-GPU composite* schedule: a [`ScheduleOp`] tagged
/// with the executor (virtual) stage it belongs to.
///
/// Flat schedules key their streams by stage, so the stage is implied;
/// a composite per-GPU stream (Megatron-style interleaved chunk
/// groups) merges the ops of every virtual stage co-located on one
/// GPU into a single ordered timeline, so each op carries its stage —
/// the `gpu`/chunk-group dimension of the stream contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GpuOp {
    /// The executor (virtual) stage the op runs as. For a composite
    /// stream of GPU `g` in a `chunks × GPUs` pipeline this is
    /// `chunk × GPUs + g`.
    pub stage: usize,
    /// The op itself.
    pub op: ScheduleOp,
}

/// How a stage's GPU orders ops whose dependencies are satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Serve tasks first-come-first-served in dependency-arrival order
    /// (the paper's Section-4 condition 3). The op stream constrains
    /// *which* tasks exist and their per-kind order; the interleaving
    /// of forwards and backwards on the GPU follows arrival times.
    ArrivalFifo,
    /// Execute ops strictly in stream order: an op waits for its
    /// stream predecessor *and* its data dependency. This is how
    /// fill-drain and 1F1B are defined in the literature.
    StreamOrder,
    /// Execute each GPU's *composite* stream
    /// ([`crate::PipelineSchedule::gpu_streams_with`]) in strict order: the
    /// schedule decides how co-located virtual-stage chunks interleave
    /// on the GPU timeline (Megatron-style ordered chunk groups),
    /// instead of leaving the merge to dependency-arrival order.
    GpuStreamOrder,
}
