//! Per-stage cost model.
//!
//! Section 7: *"we calculate the execution time of a partition to be the
//! sum of the computation time of all the layers in the partition and
//! the communication time needed for receiving the activations (in the
//! forward pass) and local gradients (in the backward pass)."*

use hetpipe_cluster::gpu::GpuSpec;
use hetpipe_cluster::network::LinkKind;
use hetpipe_model::memory::TrainingMemoryModel;
use hetpipe_model::profile;
use hetpipe_model::profile::{Pass, STAGE_TASK_OVERHEAD_SECS};
use hetpipe_model::ModelGraph;
use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
use std::ops::Range;

/// A partitioning problem instance: a model, an ordered list of stage
/// GPUs, the links feeding each stage, the pipeline concurrency, and
/// the pipeline schedule (whose per-stage memory profile shapes the
/// feasible cut set).
#[derive(Debug, Clone)]
pub struct PartitionProblem<'a> {
    /// The model to partition.
    pub graph: &'a ModelGraph,
    /// GPU of each pipeline stage, in stage order (`k` entries). For
    /// interleaved schedules these are *virtual* stages and the list
    /// repeats physical GPUs round-robin.
    pub gpus: Vec<GpuSpec>,
    /// Link crossed between stage `i` and stage `i + 1`
    /// (`k - 1` entries).
    pub links: Vec<LinkKind>,
    /// Number of minibatches concurrently in the pipeline (`Nm`);
    /// drives the per-stage memory constraint.
    pub nm: usize,
    /// The pipeline schedule the stages will run; determines per-stage
    /// in-flight activation counts and pinned weight versions.
    pub schedule: Schedule,
    /// Activation recomputation policy: shrinks the per-stage memory
    /// term (boundary inputs only) and adds one forward pass of
    /// compute per backward to every non-fused stage.
    pub recompute: RecomputePolicy,
}

impl<'a> PartitionProblem<'a> {
    /// Creates a problem instance for the paper's wave schedule.
    ///
    /// # Panics
    ///
    /// Panics if `links.len() + 1 != gpus.len()` or if `nm == 0`.
    pub fn new(graph: &'a ModelGraph, gpus: Vec<GpuSpec>, links: Vec<LinkKind>, nm: usize) -> Self {
        Self::with_schedule(graph, gpus, links, nm, Schedule::HetPipeWave)
    }

    /// Creates a problem instance for an arbitrary schedule.
    ///
    /// # Panics
    ///
    /// Panics if `links.len() + 1 != gpus.len()` or if `nm == 0`.
    pub fn with_schedule(
        graph: &'a ModelGraph,
        gpus: Vec<GpuSpec>,
        links: Vec<LinkKind>,
        nm: usize,
        schedule: Schedule,
    ) -> Self {
        assert_eq!(
            links.len() + 1,
            gpus.len(),
            "need exactly one link between each pair of adjacent stages"
        );
        assert!(nm >= 1, "at least one minibatch must be in flight");
        PartitionProblem {
            graph,
            gpus,
            links,
            nm,
            schedule,
            recompute: RecomputePolicy::None,
        }
    }

    /// Sets the activation-recomputation policy (builder style).
    pub fn with_recompute(mut self, recompute: RecomputePolicy) -> Self {
        self.recompute = recompute;
        self
    }

    /// Number of pipeline stages `k`.
    pub fn stages(&self) -> usize {
        self.gpus.len()
    }
}

/// Evaluates stage times and memory feasibility for a problem.
///
/// Every per-range query is O(1): layer times are prefix-summed per
/// stage GPU, layer bytes are prefix-summed on the graph itself, and
/// the schedule's per-stage terms (in-flight window, pinned versions,
/// checkpoint decision, memory budgets) are resolved **once** at
/// construction — the partition DP issues O(k·L²) probes per solve,
/// so per-probe schedule resolution dominated plan time as thoroughly
/// as per-probe re-summation did.
#[derive(Debug, Clone)]
pub struct StageCostModel<'a> {
    problem: &'a PartitionProblem<'a>,
    /// Prefix sums of per-layer fwd+bwd seconds, one row per stage GPU.
    prefix_secs: Vec<Vec<f64>>,
    /// Prefix sums of per-layer forward-only seconds (the recompute
    /// term re-runs exactly the forward), one row per stage GPU.
    prefix_fwd_secs: Vec<Vec<f64>>,
    /// Per stage: incoming-activation transfer seconds by range start
    /// (`in_comm[stage][s]` = receive the forward input cut at `s`;
    /// 0 for stage 0, whose loader overlaps with compute).
    in_comm: Vec<Vec<f64>>,
    /// Per stage: incoming-gradient transfer seconds by range end
    /// (`out_comm[stage][i]` = receive the gradient of the boundary
    /// before layer `i`; 0 for the last stage). Index 0 is unused.
    out_comm: Vec<Vec<f64>>,
    /// Per stage: the schedule's memory terms, hoisted.
    terms: Vec<hetpipe_model::StageMemoryTerms>,
    /// Per stage: the equal-split byte budget ([`Self::fits`]).
    budget_equal: Vec<u64>,
    /// Per stage: the whole-GPU byte budget ([`Self::fits_alone`]).
    budget_alone: Vec<u64>,
}

impl<'a> StageCostModel<'a> {
    /// Precomputes prefix sums of layer times for every stage GPU and
    /// the per-stage schedule terms and budgets.
    pub fn new(problem: &'a PartitionProblem<'a>) -> Self {
        let layers = problem.graph.layers();
        let mut prefix_secs = Vec::with_capacity(problem.gpus.len());
        let mut prefix_fwd_secs = Vec::with_capacity(problem.gpus.len());
        for gpu in &problem.gpus {
            let mut acc = 0.0;
            let mut acc_fwd = 0.0;
            let mut row = Vec::with_capacity(layers.len() + 1);
            let mut row_fwd = Vec::with_capacity(layers.len() + 1);
            row.push(0.0);
            row_fwd.push(0.0);
            for l in layers {
                let p = profile::LayerProfile::of(l, gpu);
                acc += p.total_secs();
                acc_fwd += profile::pass_time_secs(l, gpu, Pass::Forward);
                row.push(acc);
                row_fwd.push(acc_fwd);
            }
            prefix_secs.push(row);
            prefix_fwd_secs.push(row_fwd);
        }
        let k = problem.gpus.len();
        let n = layers.len();
        let g = problem.graph;
        // Per-stage comm tables: transfer times depend only on the
        // boundary a range starts or ends at, so the DP's per-probe
        // comm charge is two lookups instead of two bandwidth
        // computations.
        let in_comm: Vec<Vec<f64>> = (0..k)
            .map(|stage| {
                (0..=n)
                    .map(|s| {
                        if stage > 0 && s < n {
                            problem.links[stage - 1].transfer_secs(g.input_bytes_of(s))
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let out_comm: Vec<Vec<f64>> = (0..k)
            .map(|stage| {
                (0..=n)
                    .map(|i| {
                        if stage + 1 < k && i > 0 {
                            problem.links[stage].transfer_secs(g.boundary_bytes(i - 1))
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let terms: Vec<_> = (0..k)
            .map(|s| {
                hetpipe_model::StageMemoryTerms::new(
                    s,
                    k,
                    problem.nm,
                    problem.schedule,
                    problem.recompute,
                )
            })
            .collect();
        let budget_equal = problem
            .gpus
            .iter()
            .map(|gpu| TrainingMemoryModel::equal_split_budget(gpu, problem.schedule))
            .collect();
        let budget_alone = problem.gpus.iter().map(|gpu| gpu.memory_bytes).collect();
        StageCostModel {
            problem,
            prefix_secs,
            prefix_fwd_secs,
            in_comm,
            out_comm,
            terms,
            budget_equal,
            budget_alone,
        }
    }

    /// Pure compute time of layers `range` on stage `stage`'s GPU.
    pub fn compute_secs(&self, stage: usize, range: Range<usize>) -> f64 {
        self.prefix_secs[stage][range.end] - self.prefix_secs[stage][range.start]
    }

    /// Forward-only compute time of layers `range` on stage `stage`'s
    /// GPU — what one activation recomputation costs.
    pub fn forward_secs(&self, stage: usize, range: Range<usize>) -> f64 {
        self.prefix_fwd_secs[stage][range.end] - self.prefix_fwd_secs[stage][range.start]
    }

    /// Communication time charged to stage `stage` for the layer range:
    /// receiving forward activations from the previous stage and
    /// backward gradients from the next stage.
    ///
    /// `range.end` is exclusive; `last_stage` receives no gradient from
    /// the right, and stage 0 receives its input from the data loader
    /// (not charged — the loader overlaps with compute in practice).
    pub fn comm_secs(&self, stage: usize, range: Range<usize>) -> f64 {
        // Forward activations arriving from the left neighbour, plus
        // gradients w.r.t. our outputs arriving from the right (same
        // size as the boundary activations) — precomputed per-stage
        // boundary tables, since the DP probes every (start, end) pair.
        self.in_comm[stage][range.start] + self.out_comm[stage][range.end]
    }

    /// Full execution time of a stage: compute, plus incoming
    /// communication, plus the fixed dispatch overhead of one forward
    /// and one backward task (so plans match what the executor
    /// simulates). Stages that checkpoint
    /// ([`PipelineSchedule::recomputes_at`]) additionally pay one
    /// forward pass (and one task dispatch) per minibatch to
    /// rematerialize activations; stages whose in-flight window is 1
    /// (e.g. the last stage of the 1F1B-family schedules) skip the
    /// re-run — there is no stash to reclaim, so the executor never
    /// schedules one and the plan must not charge for it.
    pub fn stage_secs(&self, stage: usize, range: Range<usize>) -> f64 {
        let mut secs = self.compute_secs(stage, range.clone())
            + self.comm_secs(stage, range.clone())
            + 2.0 * STAGE_TASK_OVERHEAD_SECS;
        if self.terms[stage].recomputes() {
            secs += self.forward_secs(stage, range) + STAGE_TASK_OVERHEAD_SECS;
        }
        secs
    }

    /// Reference implementation of [`Self::stage_secs`] that re-sums
    /// the layer slice on every call instead of using the prefix-sum
    /// range queries. The parity oracle for `tests/planner_parity.rs`
    /// and the per-probe cost `planner_bench` times as its baseline —
    /// not for production use.
    pub fn stage_secs_naive(&self, stage: usize, range: Range<usize>) -> f64 {
        let layers = &self.problem.graph.layers()[range.clone()];
        let gpu = &self.problem.gpus[stage];
        let mut secs = profile::range_time_secs(layers, gpu)
            + self.comm_secs(stage, range.clone())
            + 2.0 * STAGE_TASK_OVERHEAD_SECS;
        if self.problem.schedule.recomputes_at(
            stage,
            self.problem.stages(),
            self.problem.nm,
            self.problem.recompute,
        ) {
            let fwd: f64 = layers
                .iter()
                .map(|l| profile::pass_time_secs(l, gpu, Pass::Forward))
                .sum();
            secs += fwd + STAGE_TASK_OVERHEAD_SECS;
        }
        secs
    }

    /// Whether the layer range fits stage `stage`'s GPU memory at the
    /// problem's `Nm` under the problem's schedule (equal-split budget
    /// for co-located interleaved chunks — the conservative per-stage
    /// certification).
    pub fn fits(&self, stage: usize, range: Range<usize>) -> bool {
        self.terms[stage].stage_bytes(self.problem.graph, range) <= self.budget_equal[stage]
    }

    /// The relaxed per-stage check: the range fits the stage's GPU
    /// with the whole budget to itself. Necessary for any plan; the
    /// solver pairs it with the exact joint per-GPU check
    /// ([`TrainingMemoryModel::plan_fits_per_gpu`]) so uneven chunk
    /// shares that fit *together* are admitted.
    pub fn fits_alone(&self, stage: usize, range: Range<usize>) -> bool {
        self.terms[stage].stage_bytes(self.problem.graph, range) <= self.budget_alone[stage]
    }

    /// The exact joint per-GPU check over a complete plan's ranges.
    pub fn plan_fits_per_gpu(&self, ranges: &[Range<usize>]) -> bool {
        let colocated = self.problem.schedule.colocated_stages();
        let physical = self.problem.stages() / colocated;
        TrainingMemoryModel::plan_fits_per_gpu(
            self.problem.graph,
            ranges,
            &self.problem.gpus[..physical],
            self.problem.nm,
            self.problem.schedule,
            self.problem.recompute,
        )
    }

    /// The wrapped problem.
    pub fn problem(&self) -> &PartitionProblem<'a> {
        self.problem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_cluster::GpuKind;
    use hetpipe_model::vgg19;

    fn problem(graph: &ModelGraph) -> PartitionProblem<'_> {
        PartitionProblem::new(
            graph,
            vec![GpuKind::TitanV.spec(); 4],
            vec![LinkKind::Pcie; 3],
            1,
        )
    }

    #[test]
    fn compute_prefix_sums_match_direct() {
        let g = vgg19(32);
        let p = problem(&g);
        let m = StageCostModel::new(&p);
        let direct = profile::range_time_secs(&g.layers()[3..9], &p.gpus[0]);
        assert!((m.compute_secs(0, 3..9) - direct).abs() < 1e-12);
    }

    #[test]
    fn edge_stages_have_less_comm() {
        let g = vgg19(32);
        let p = problem(&g);
        let m = StageCostModel::new(&p);
        let quarter = g.len() / 4;
        // Stage 0 only receives gradients from the right; a middle stage
        // receives from both sides.
        let c0 = m.comm_secs(0, 0..quarter);
        let c1 = m.comm_secs(1, quarter..2 * quarter);
        assert!(c0 < c1);
        // The last stage only receives activations from the left.
        let c3 = m.comm_secs(3, 3 * quarter..g.len());
        assert!(c3 < c1);
    }

    #[test]
    fn stage_secs_is_compute_plus_comm_plus_dispatch() {
        let g = vgg19(32);
        let p = problem(&g);
        let m = StageCostModel::new(&p);
        let r = 5..12;
        let expected = m.compute_secs(1, r.clone())
            + m.comm_secs(1, r.clone())
            + 2.0 * STAGE_TASK_OVERHEAD_SECS;
        assert!((m.stage_secs(1, r) - expected).abs() < 1e-15);
    }

    #[test]
    fn recompute_charges_one_forward_per_minibatch() {
        let g = vgg19(32);
        let deep = |graph| {
            PartitionProblem::new(
                graph,
                vec![GpuKind::TitanV.spec(); 4],
                vec![LinkKind::Pcie; 3],
                4,
            )
        };
        let plain = deep(&g);
        let ckpt = deep(&g).with_recompute(RecomputePolicy::BoundaryOnly);
        let m_plain = StageCostModel::new(&plain);
        let m_ckpt = StageCostModel::new(&ckpt);
        let r = 5..12;
        // A checkpointing stage pays the forward re-run plus one task
        // dispatch on top of the plain stage time.
        let expected = m_plain.stage_secs(1, r.clone())
            + m_plain.forward_secs(1, r.clone())
            + STAGE_TASK_OVERHEAD_SECS;
        assert!((m_ckpt.stage_secs(1, r.clone()) - expected).abs() < 1e-15);
        // The wave schedule's fused last stage never recomputes.
        let last = 3;
        let tail = g.len() - 5..g.len();
        assert!(
            (m_ckpt.stage_secs(last, tail.clone()) - m_plain.stage_secs(last, tail.clone())).abs()
                < 1e-15
        );
        // Nm = 1: every window is 1, so no stage checkpoints and the
        // recompute policy must not change any stage time (the skip
        // that recovers Megatron's free throughput).
        let plain1 = problem(&g);
        let ckpt1 = problem(&g).with_recompute(RecomputePolicy::BoundaryOnly);
        let m_plain1 = StageCostModel::new(&plain1);
        let m_ckpt1 = StageCostModel::new(&ckpt1);
        for stage in 0..4 {
            assert!(
                (m_ckpt1.stage_secs(stage, r.clone()) - m_plain1.stage_secs(stage, r.clone()))
                    .abs()
                    < 1e-15,
                "window-1 stage {stage} must skip the recompute charge"
            );
        }
        // 1F1B's last stage has window 1 even at Nm = 4: skipped too.
        let ofob = PartitionProblem::with_schedule(
            &g,
            vec![GpuKind::TitanV.spec(); 4],
            vec![LinkKind::Pcie; 3],
            4,
            Schedule::OneFOneB,
        );
        let ofob_ckpt = ofob.clone().with_recompute(RecomputePolicy::BoundaryOnly);
        let m_ofob = StageCostModel::new(&ofob);
        let m_ofob_ckpt = StageCostModel::new(&ofob_ckpt);
        assert!(
            (m_ofob_ckpt.stage_secs(3, tail.clone()) - m_ofob.stage_secs(3, tail)).abs() < 1e-15,
            "1F1B's window-1 last stage must skip the recompute charge"
        );
        assert!(m_ofob_ckpt.stage_secs(0, r.clone()) > m_ofob.stage_secs(0, r));
    }

    #[test]
    fn hoisted_fits_matches_memory_model() {
        // The hoisted per-stage terms must answer exactly like the
        // memory model's unhoisted entry points, for every schedule,
        // recompute policy, stage, and range probed.
        use hetpipe_model::TrainingMemoryModel;
        let g = vgg19(32);
        let n = g.len();
        for schedule in Schedule::ALL {
            let k = {
                use hetpipe_schedule::PipelineSchedule;
                schedule.virtual_stages(4)
            };
            for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
                let p = PartitionProblem::with_schedule(
                    &g,
                    (0..k).map(|_| GpuKind::Rtx2060.spec()).collect(),
                    vec![LinkKind::Pcie; k - 1],
                    3,
                    schedule,
                )
                .with_recompute(recompute);
                let m = StageCostModel::new(&p);
                for stage in 0..k {
                    for (s, e) in [(0, n), (0, 2), (3, 9), (n / 2, n), (n - 1, n)] {
                        assert_eq!(
                            m.fits(stage, s..e),
                            TrainingMemoryModel::stage_fits_with(
                                &g,
                                s..e,
                                stage,
                                k,
                                3,
                                &p.gpus[stage],
                                schedule,
                                recompute
                            ),
                            "{schedule} {recompute} fits stage {stage} {s}..{e}"
                        );
                        assert_eq!(
                            m.fits_alone(stage, s..e),
                            TrainingMemoryModel::stage_fits_alone(
                                &g,
                                s..e,
                                stage,
                                k,
                                3,
                                &p.gpus[stage],
                                schedule,
                                recompute
                            ),
                            "{schedule} {recompute} fits_alone stage {stage} {s}..{e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one link between")]
    fn mismatched_links_rejected() {
        let g = vgg19(32);
        let _ = PartitionProblem::new(&g, vec![GpuKind::TitanV.spec(); 4], vec![], 1);
    }
}
