//! Training-memory model.
//!
//! Two questions from the paper are answered here:
//!
//! 1. *Does the whole model fit one GPU?* — gates the data-parallel
//!    baseline. Section 8.3: ResNet-152 at batch 32 "is too large to be
//!    loaded into a single GPU with G type [6 GB RTX 2060], and thus,
//!    Horovod uses only 12 GPUs", while VGG-19 fits all 16.
//! 2. *Does a pipeline stage fit its GPU for a given `Nm`?* — the memory
//!    constraint of the partitioning algorithm (Sections 4 and 7). The
//!    stage's position matters: earlier stages hold activations of more
//!    in-flight minibatches (the paper's GPU1-vs-GPU4 discussion around
//!    Figure 1).

use crate::graph::ModelGraph;
use hetpipe_cluster::gpu::GpuSpec;
use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
use std::ops::Range;

/// cuDNN scratch workspace reserved per GPU, bytes.
pub const CUDNN_WORKSPACE_BYTES: u64 = 600 << 20;

/// Framework (TensorFlow 1.12 runtime, CUDA context) overhead, bytes.
pub const FRAMEWORK_OVERHEAD_BYTES: u64 = 500 << 20;

/// Resident copies of the parameter set: weights, gradients, and SGD
/// momentum.
pub const PARAM_STATE_COPIES: u64 = 3;

/// The `Nm` beyond which a `k`-stage pipeline's *throughput* gains
/// nothing.
///
/// A minibatch's forward/backward round trip through the pipeline
/// spans `2k - 1` task slots, so more than `2k - 1` concurrent
/// minibatches cannot keep any additional stage busy — they only queue
/// (and, under the sound occupancy accounting, cost memory). The `Nm`
/// search is therefore capped here.
pub fn nm_saturation_limit(k: usize) -> usize {
    2 * k - 1
}

/// The per-stage constants of the stage-memory formula, hoisted out
/// of the byte computation: a stage's in-flight window, pinned weight
/// versions, and checkpoint decision depend only on
/// `(stage, k, nm, schedule, recompute)` — not on the layer range —
/// so callers probing many ranges per stage (the partition DP issues
/// O(L²) probes per stage per solve) construct the terms once and
/// evaluate each range as pure prefix-sum arithmetic, instead of
/// re-resolving the schedule per probe.
///
/// This is the *single source* of the stage-memory formula:
/// [`TrainingMemoryModel::stage_bytes_with`] delegates here, so the
/// hoisted and unhoisted paths cannot drift.
#[derive(Debug, Clone, Copy)]
pub struct StageMemoryTerms {
    /// Parameter-set copies held: the resident
    /// weights/gradients/momentum ([`PARAM_STATE_COPIES`]) plus the
    /// schedule's stashed versions.
    param_copies: u64,
    /// Peak minibatches simultaneously holding activations.
    in_flight: u64,
    /// Whether the stage checkpoints
    /// ([`PipelineSchedule::recomputes_at`]).
    recomputes: bool,
}

impl StageMemoryTerms {
    /// Resolves the schedule's per-stage terms once.
    pub fn new(
        stage: usize,
        k: usize,
        nm: usize,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> StageMemoryTerms {
        StageMemoryTerms {
            param_copies: PARAM_STATE_COPIES + schedule.extra_weight_versions(stage, k, nm),
            in_flight: schedule.max_in_flight(stage, k, nm) as u64,
            recomputes: schedule.recomputes_at(stage, k, nm, recompute),
        }
    }

    /// Whether the stage checkpoints under these terms (the resolved
    /// [`PipelineSchedule::recomputes_at`] decision) — exposed so
    /// callers that hoist the terms need not re-resolve the flag.
    #[inline]
    pub fn recomputes(&self) -> bool {
        self.recomputes
    }

    /// Bytes the stage needs to hold the contiguous layer `range` —
    /// O(1): two prefix-sum range queries and a few multiplies.
    #[inline]
    pub fn stage_bytes(&self, graph: &ModelGraph, range: Range<usize>) -> u64 {
        let params = graph.param_bytes_in(range.clone());
        let stored = graph.stored_bytes_in(range.clone());
        let input_buf = graph.input_bytes_of(range.start);
        let activations = if self.recomputes {
            // Stashed boundary inputs for every in-flight minibatch,
            // plus the one rematerialized set live during a backward.
            self.in_flight * input_buf + stored
        } else {
            self.in_flight * (stored + input_buf)
        };
        params * self.param_copies + activations + CUDNN_WORKSPACE_BYTES + FRAMEWORK_OVERHEAD_BYTES
    }
}

/// Analytic training-memory model for a [`ModelGraph`].
#[derive(Debug, Clone, Copy)]
pub struct TrainingMemoryModel;

impl TrainingMemoryModel {
    /// Bytes needed to train the whole model on one GPU (data-parallel
    /// worker): parameter states, all stored activations of one
    /// minibatch, workspace and framework overhead.
    pub fn full_model_bytes(graph: &ModelGraph) -> u64 {
        PARAM_STATE_COPIES * graph.total_param_bytes()
            + graph.total_stored_bytes()
            + CUDNN_WORKSPACE_BYTES
            + FRAMEWORK_OVERHEAD_BYTES
    }

    /// Whether a single `gpu` can train the whole model (the
    /// data-parallel feasibility gate).
    pub fn fits_full_model(graph: &ModelGraph, gpu: &GpuSpec) -> bool {
        Self::full_model_bytes(graph) <= gpu.memory_bytes
    }

    /// Bytes needed by pipeline stage `stage` (0-based of `k`) holding
    /// the contiguous layer range `range`, with `nm` minibatches in the
    /// pipeline, under `schedule` and an activation-recomputation
    /// policy.
    ///
    /// The schedule determines both the peak number of in-flight
    /// activation sets ([`PipelineSchedule::max_in_flight`]) and the
    /// extra pinned weight versions
    /// ([`PipelineSchedule::extra_weight_versions`]) — e.g. GPipe
    /// fill-drain stores a whole wave of activations but a single
    /// weight version, while the paper's wave schedule (Section 4)
    /// pins the version `w_p` each in-flight minibatch started with
    /// until its backward pass, stashing `in_flight - 1` extra
    /// parameter copies.
    ///
    /// At stages that checkpoint
    /// ([`PipelineSchedule::recomputes_at`]: the policy is on and the
    /// stage's window exceeds 1) each in-flight minibatch stashes only
    /// its boundary input; one full stored set is additionally charged
    /// because the backward currently running has its forward
    /// rematerialized in memory ([`Self::stage_rematerialized_bytes`]).
    /// Non-checkpointing stages (window 1, fused last stages) charge
    /// the plain full stash — for a window of 1 the two are equal, so
    /// skipping the recompute there costs no memory.
    pub fn stage_bytes_with(
        graph: &ModelGraph,
        range: Range<usize>,
        stage: usize,
        k: usize,
        nm: usize,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> u64 {
        StageMemoryTerms::new(stage, k, nm, schedule, recompute).stage_bytes(graph, range)
    }

    /// The *rematerialized-set* component of
    /// [`Self::stage_bytes_with`]: the one full stored-activation set
    /// that is live while a checkpointing stage runs a backward (its
    /// forward was just re-run). Zero at stages that do not checkpoint.
    ///
    /// Split out because the charge is tied to a *running backward*,
    /// and co-located interleaved chunks share one serial GPU — at
    /// most one of a GPU's chunks can be executing a backward at any
    /// instant, so the per-GPU aggregation
    /// ([`Self::per_gpu_peak_bytes_with`]) charges the **max** across
    /// the GPU's chunks rather than the sum. Summing (the old
    /// behaviour) over-charged every multi-chunk GPU by
    /// `(chunks − 1) × stored` and rejected plans that fit.
    pub fn stage_rematerialized_bytes(
        graph: &ModelGraph,
        range: Range<usize>,
        stage: usize,
        k: usize,
        nm: usize,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> u64 {
        if schedule.recomputes_at(stage, k, nm, recompute) {
            graph.stored_bytes_in(range)
        } else {
            0
        }
    }

    /// Reference implementation of [`Self::stage_bytes_with`] that
    /// re-sums the layer slice on every call (the pre-prefix-sum
    /// behaviour). Kept as the parity oracle for the planner's O(1)
    /// range queries and as the timing baseline `planner_bench`
    /// records — not for production use.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_bytes_with_naive(
        graph: &ModelGraph,
        range: Range<usize>,
        stage: usize,
        k: usize,
        nm: usize,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> u64 {
        let layers = &graph.layers()[range.clone()];
        let params: u64 = layers.iter().map(|l| l.param_bytes).sum();
        let stored: u64 = layers.iter().map(|l| l.stored_bytes).sum();
        let in_flight = schedule.max_in_flight(stage, k, nm) as u64;
        let extra_versions = schedule.extra_weight_versions(stage, k, nm);
        let input_buf = graph.input_bytes_of(range.start);
        let activations = if schedule.recomputes_at(stage, k, nm, recompute) {
            in_flight * input_buf + stored
        } else {
            in_flight * (stored + input_buf)
        };
        params * (PARAM_STATE_COPIES + extra_versions)
            + activations
            + CUDNN_WORKSPACE_BYTES
            + FRAMEWORK_OVERHEAD_BYTES
    }

    /// Whether `gpu` can host the given stage under `schedule` and a
    /// recomputation policy, splitting the budget of co-located
    /// interleaved chunks equally.
    ///
    /// Schedules that co-locate several virtual stages on one GPU
    /// (interleaved chunks) split the GPU's budget: each stage must
    /// fit an equal share of the memory left after the per-GPU fixed
    /// overheads (counted once). Equal split is conservative — the
    /// chunk sums it admits always fit — and keeps the constraint
    /// per-stage, which is what the interval DP can check; the solver
    /// uses it as the *fallback* certification after the exact joint
    /// per-GPU check ([`Self::plan_fits_per_gpu`]) over uneven chunk
    /// shares.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_fits_with(
        graph: &ModelGraph,
        range: Range<usize>,
        stage: usize,
        k: usize,
        nm: usize,
        gpu: &GpuSpec,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> bool {
        let budget = Self::equal_split_budget(gpu, schedule);
        Self::stage_bytes_with(graph, range, stage, k, nm, schedule, recompute) <= budget
    }

    /// The per-stage byte budget of `gpu` under `schedule`: the whole
    /// capacity for flat schedules, or the conservative equal split
    /// (fixed overheads counted once) across co-located interleaved
    /// chunks.
    pub fn equal_split_budget(gpu: &GpuSpec, schedule: Schedule) -> u64 {
        let colocated = schedule.colocated_stages() as u64;
        if colocated > 1 {
            let fixed = CUDNN_WORKSPACE_BYTES + FRAMEWORK_OVERHEAD_BYTES;
            fixed + gpu.memory_bytes.saturating_sub(fixed) / colocated
        } else {
            gpu.memory_bytes
        }
    }

    /// Whether the stage fits `gpu` with the *whole* GPU budget to
    /// itself (no co-located-chunk split). A necessary condition for
    /// any placement; the solver's relaxed DP pass probes this and
    /// certifies the reconstructed plan with the exact joint check
    /// [`Self::plan_fits_per_gpu`], which admits uneven chunk shares
    /// (a big chunk paired with a small one) that the equal split
    /// rejects.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_fits_alone(
        graph: &ModelGraph,
        range: Range<usize>,
        stage: usize,
        k: usize,
        nm: usize,
        gpu: &GpuSpec,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> bool {
        Self::stage_bytes_with(graph, range, stage, k, nm, schedule, recompute) <= gpu.memory_bytes
    }

    /// Peak memory per *physical GPU* for a full partition plan under
    /// `schedule` and a recomputation policy: per-stage bytes, with
    /// interleaved virtual stages that share a GPU summed (minus the
    /// per-GPU fixed overheads counted once).
    ///
    /// `ranges` has one entry per executor stage
    /// (`schedule.virtual_stages(gpus)` of them); stage `s` runs on
    /// GPU `s % gpus`. Returns one peak-bytes figure per GPU.
    ///
    /// The rematerialized activation set of checkpointing stages is
    /// charged as the **max** across a GPU's co-located chunks, not
    /// the sum: the chunks share one serial GPU, so at most one
    /// backward (and hence one rematerialized forward) is live per
    /// GPU at any instant. Everything else a stage pins — stashed
    /// boundary inputs, weight versions — persists across the GPU's
    /// whole chunk set and is summed as before.
    pub fn per_gpu_peak_bytes_with(
        graph: &ModelGraph,
        ranges: &[Range<usize>],
        gpus: usize,
        nm: usize,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> Vec<u64> {
        let k = ranges.len();
        let fixed = CUDNN_WORKSPACE_BYTES + FRAMEWORK_OVERHEAD_BYTES;
        let mut per_gpu = vec![fixed; gpus];
        let mut remat_max = vec![0u64; gpus];
        for (stage, range) in ranges.iter().enumerate() {
            let stage_total =
                Self::stage_bytes_with(graph, range.clone(), stage, k, nm, schedule, recompute);
            let remat = Self::stage_rematerialized_bytes(
                graph,
                range.clone(),
                stage,
                k,
                nm,
                schedule,
                recompute,
            );
            per_gpu[stage % gpus] += stage_total - fixed - remat;
            remat_max[stage % gpus] = remat_max[stage % gpus].max(remat);
        }
        for (peak, remat) in per_gpu.iter_mut().zip(remat_max) {
            *peak += remat;
        }
        per_gpu
    }

    /// The exact joint per-GPU memory check: every physical GPU's
    /// co-located chunk set — with whatever *uneven* shares the plan
    /// gives them — fits that GPU's capacity. `gpus` holds the
    /// physical GPU specs in stage order (stage `s` runs on GPU
    /// `s % gpus.len()`).
    pub fn plan_fits_per_gpu(
        graph: &ModelGraph,
        ranges: &[Range<usize>],
        gpus: &[GpuSpec],
        nm: usize,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> bool {
        let peaks =
            Self::per_gpu_peak_bytes_with(graph, ranges, gpus.len(), nm, schedule, recompute);
        peaks
            .iter()
            .zip(gpus)
            .all(|(&peak, gpu)| peak <= gpu.memory_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{resnet152, vgg19};
    use hetpipe_cluster::GpuKind;

    /// Stage bytes under `schedule` without recomputation.
    fn bytes(
        g: &ModelGraph,
        r: Range<usize>,
        stage: usize,
        k: usize,
        nm: usize,
        schedule: Schedule,
    ) -> u64 {
        TrainingMemoryModel::stage_bytes_with(g, r, stage, k, nm, schedule, RecomputePolicy::None)
    }

    #[test]
    fn paper_memory_gates() {
        // Section 8.3 / Table 4: ResNet-152 @32 does NOT fit the 6 GB
        // RTX 2060 (Horovod drops to 12 GPUs) but DOES fit the 8 GB
        // Quadro P4000 and everything above; VGG-19 fits all four kinds.
        let rn = resnet152(32);
        let vg = vgg19(32);
        assert!(!TrainingMemoryModel::fits_full_model(
            &rn,
            &GpuKind::Rtx2060.spec()
        ));
        assert!(TrainingMemoryModel::fits_full_model(
            &rn,
            &GpuKind::QuadroP4000.spec()
        ));
        assert!(TrainingMemoryModel::fits_full_model(
            &rn,
            &GpuKind::TitanV.spec()
        ));
        for kind in GpuKind::ALL {
            assert!(
                TrainingMemoryModel::fits_full_model(&vg, &kind.spec()),
                "VGG-19 must fit {kind}"
            );
        }
    }

    #[test]
    fn earlier_stages_need_more_memory() {
        let g = vgg19(32);
        let k = 4;
        let quarter = g.len() / k;
        let r = 0..quarter;
        let early = bytes(&g, r.clone(), 0, k, 4, Schedule::HetPipeWave);
        let late = bytes(&g, r, 3, k, 4, Schedule::HetPipeWave);
        assert!(
            early > late,
            "same layers cost more memory at stage 0 than stage 3"
        );
    }

    #[test]
    fn more_concurrency_needs_more_memory() {
        let g = resnet152(32);
        let r = 0..10;
        let m1 = bytes(&g, r.clone(), 0, 4, 1, Schedule::HetPipeWave);
        let m4 = bytes(&g, r.clone(), 0, 4, 4, Schedule::HetPipeWave);
        let m7 = bytes(&g, r, 0, 4, 7, Schedule::HetPipeWave);
        assert!(m1 < m4 && m4 < m7);
    }

    #[test]
    fn schedule_changes_stage_memory() {
        let g = vgg19(32);
        let r = 0..g.len() / 4;
        let (k, nm) = (4, 8);
        let wave = bytes(&g, r.clone(), 0, k, nm, Schedule::HetPipeWave);
        let gpipe = bytes(&g, r.clone(), 0, k, nm, Schedule::FillDrain);
        let ofob = bytes(&g, r, 0, k, nm, Schedule::OneFOneB);
        // Stage 0, Nm = 8 > depth: fill-drain and the wave schedule
        // both store the whole wave's 8 activation sets, but the wave
        // schedule additionally stashes 7 weight versions (w_p), while
        // 1F1B bounds activations by depth (4) — so 1F1B is cheapest
        // and the wave schedule dearest.
        assert!(ofob < gpipe, "1F1B {ofob} vs fill-drain {gpipe}");
        assert!(gpipe < wave, "fill-drain {gpipe} vs wave {wave}");
    }

    #[test]
    fn recompute_cuts_activation_memory() {
        let g = vgg19(32);
        let r = 0..g.len() / 4;
        let (k, nm) = (4, 8);
        for schedule in Schedule::ALL {
            let full = TrainingMemoryModel::stage_bytes_with(
                &g,
                r.clone(),
                0,
                k,
                nm,
                schedule,
                RecomputePolicy::None,
            );
            let ckpt = TrainingMemoryModel::stage_bytes_with(
                &g,
                r.clone(),
                0,
                k,
                nm,
                schedule,
                RecomputePolicy::BoundaryOnly,
            );
            assert!(
                ckpt < full,
                "{schedule}: boundary-only {ckpt} must undercut full stash {full}"
            );
        }
        // The fused last stage holds one set either way: recompute
        // changes nothing there (its activations are still live).
        let fused_full = TrainingMemoryModel::stage_bytes_with(
            &g,
            r.clone(),
            k - 1,
            k,
            nm,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        );
        let fused_ckpt = TrainingMemoryModel::stage_bytes_with(
            &g,
            r,
            k - 1,
            k,
            nm,
            Schedule::HetPipeWave,
            RecomputePolicy::BoundaryOnly,
        );
        assert_eq!(fused_full, fused_ckpt);
    }

    #[test]
    fn joint_per_gpu_check_admits_uneven_chunk_shares() {
        let g = vgg19(32);
        let n = g.len();
        let (k, nm) = (4, 2);
        let sched = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        // A deliberately lopsided 2-GPU, 4-virtual-stage split: GPU 0
        // hosts a big chunk (stage 0, half the model) and a tiny one
        // (stage 2).
        let ranges = vec![
            0..n / 2,
            n / 2..n / 2 + 1,
            n / 2 + 1..n / 2 + 2,
            n / 2 + 2..n,
        ];
        let bytes: Vec<u64> = ranges
            .iter()
            .enumerate()
            .map(|(s, r)| {
                TrainingMemoryModel::stage_bytes_with(
                    &g,
                    r.clone(),
                    s,
                    k,
                    nm,
                    sched,
                    RecomputePolicy::None,
                )
            })
            .collect();
        // The per-GPU aggregation is exactly "chunk sums, fixed
        // overhead counted once": GPU g hosts stages g and g + 2.
        let fixed = CUDNN_WORKSPACE_BYTES + FRAMEWORK_OVERHEAD_BYTES;
        let peaks = TrainingMemoryModel::per_gpu_peak_bytes_with(
            &g,
            &ranges,
            2,
            nm,
            sched,
            RecomputePolicy::None,
        );
        assert_eq!(
            peaks,
            vec![bytes[0] + bytes[2] - fixed, bytes[1] + bytes[3] - fixed]
        );

        // Size a GPU to exactly the bigger joint peak: the pair fits
        // together, but the big chunk alone overflows its equal-split
        // half-budget — the uneven pairing only the joint check
        // admits.
        let mut gpu = hetpipe_cluster::GpuKind::TitanV.spec();
        gpu.memory_bytes = *peaks.iter().max().unwrap();
        let gpus = vec![gpu.clone(), gpu.clone()];
        assert!(TrainingMemoryModel::plan_fits_per_gpu(
            &g,
            &ranges,
            &gpus,
            nm,
            sched,
            RecomputePolicy::None
        ));
        assert!(
            !TrainingMemoryModel::stage_fits_with(
                &g,
                ranges[0].clone(),
                0,
                k,
                nm,
                &gpu,
                sched,
                RecomputePolicy::None
            ),
            "the big chunk must overflow its equal split — otherwise \
             the joint check adds nothing here"
        );
        // One byte less and the joint check refuses.
        let mut small = gpu;
        small.memory_bytes -= 1;
        assert!(!TrainingMemoryModel::plan_fits_per_gpu(
            &g,
            &ranges,
            &[small.clone(), small],
            nm,
            sched,
            RecomputePolicy::None
        ));
    }

    #[test]
    fn per_gpu_peaks_aggregate_interleaved_chunks() {
        let g = vgg19(32);
        let n = g.len();
        // 4 GPUs, 2 chunks: 8 virtual stages of equal layer count.
        let per = n / 8;
        let ranges: Vec<_> = (0..8)
            .map(|i| i * per..if i == 7 { n } else { (i + 1) * per })
            .collect();
        let sched = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        let peaks = TrainingMemoryModel::per_gpu_peak_bytes_with(
            &g,
            &ranges,
            4,
            4,
            sched,
            RecomputePolicy::None,
        );
        assert_eq!(peaks.len(), 4);
        // Each GPU hosts 2 chunks: its peak exceeds either chunk alone
        // but counts the fixed workspace/framework overhead only once.
        let k = ranges.len();
        let lone = bytes(&g, ranges[0].clone(), 0, k, 4, sched);
        assert!(peaks[0] > lone);
        let double_fixed = lone + bytes(&g, ranges[4].clone(), 4, k, 4, sched);
        assert!(
            peaks[0] < double_fixed,
            "fixed overhead must not be double-counted"
        );
    }

    #[test]
    fn rematerialized_set_charged_max_across_colocated_chunks() {
        let g = vgg19(32);
        let n = g.len();
        let per = n / 8;
        let ranges: Vec<_> = (0..8)
            .map(|i| i * per..if i == 7 { n } else { (i + 1) * per })
            .collect();
        let sched = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        let (gpus, nm, k) = (4usize, 4usize, 8usize);
        let rc = RecomputePolicy::BoundaryOnly;
        let fixed = CUDNN_WORKSPACE_BYTES + FRAMEWORK_OVERHEAD_BYTES;
        let peaks = TrainingMemoryModel::per_gpu_peak_bytes_with(&g, &ranges, gpus, nm, sched, rc);
        for (gpu, &peak) in peaks.iter().enumerate() {
            let stages = [gpu, gpu + gpus];
            let totals: Vec<u64> = stages
                .iter()
                .map(|&s| {
                    TrainingMemoryModel::stage_bytes_with(
                        &g,
                        ranges[s].clone(),
                        s,
                        k,
                        nm,
                        sched,
                        rc,
                    )
                })
                .collect();
            let remats: Vec<u64> = stages
                .iter()
                .map(|&s| {
                    TrainingMemoryModel::stage_rematerialized_bytes(
                        &g,
                        ranges[s].clone(),
                        s,
                        k,
                        nm,
                        sched,
                        rc,
                    )
                })
                .collect();
            // The old behaviour summed both rematerialized sets; the
            // chunks share one serial GPU, so only the largest can be
            // live — the per-GPU peak charges exactly that.
            let sum_charged = totals.iter().sum::<u64>() - fixed;
            let expected = sum_charged - remats.iter().sum::<u64>() + remats.iter().max().unwrap();
            assert_eq!(peak, expected, "gpu {gpu}");
            if remats.iter().filter(|&&r| r > 0).count() == 2 {
                assert!(
                    peak < sum_charged,
                    "gpu {gpu}: max-charging must be strictly tighter when \
                     both chunks checkpoint"
                );
            }
        }
        // The bugfix consequence: a GPU sized exactly to the
        // max-charged peak admits the plan — the old sum-charging
        // rejected this same hardware.
        let mut gpu = hetpipe_cluster::GpuKind::TitanV.spec();
        gpu.memory_bytes = *peaks.iter().max().unwrap();
        let specs = vec![gpu.clone(); gpus];
        assert!(TrainingMemoryModel::plan_fits_per_gpu(
            &g, &ranges, &specs, nm, sched, rc
        ));
        let mut small = gpu;
        small.memory_bytes -= 1;
        assert!(!TrainingMemoryModel::plan_fits_per_gpu(
            &g,
            &ranges,
            &vec![small; gpus],
            nm,
            sched,
            rc
        ));
    }

    #[test]
    fn prefix_sum_bytes_match_naive_reference() {
        let g = vgg19(32);
        let n = g.len();
        let (k, nm) = (4, 4);
        for schedule in Schedule::ALL {
            for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
                for stage in [0, k - 1] {
                    for (s, e) in [(0, n), (3, 9), (n / 2, n), (5, 6)] {
                        assert_eq!(
                            TrainingMemoryModel::stage_bytes_with(
                                &g,
                                s..e,
                                stage,
                                k,
                                nm,
                                schedule,
                                recompute
                            ),
                            TrainingMemoryModel::stage_bytes_with_naive(
                                &g,
                                s..e,
                                stage,
                                k,
                                nm,
                                schedule,
                                recompute
                            ),
                            "{schedule} {recompute} stage {stage} {s}..{e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stage_fits_respects_capacity() {
        let g = resnet152(32);
        // The whole model as one stage with deep concurrency cannot fit
        // the smallest GPU.
        assert!(!TrainingMemoryModel::stage_fits_with(
            &g,
            0..g.len(),
            0,
            1,
            1,
            &GpuKind::Rtx2060.spec(),
            Schedule::HetPipeWave,
            RecomputePolicy::None
        ));
        // A tiny range fits easily.
        assert!(TrainingMemoryModel::stage_fits_with(
            &g,
            0..1,
            0,
            4,
            1,
            &GpuKind::Rtx2060.spec(),
            Schedule::HetPipeWave,
            RecomputePolicy::None
        ));
    }
}
