//! Per-stage cost model.
//!
//! Section 7: *"we calculate the execution time of a partition to be the
//! sum of the computation time of all the layers in the partition and
//! the communication time needed for receiving the activations (in the
//! forward pass) and local gradients (in the backward pass)."*
//!
//! Those times depend on the model, the stage's GPU and its links, and
//! not on `Nm` or the stage's position. A [`LayerTable`] builds them
//! once per GPU spec and link kind, as prefix and comm rows, and every
//! [`StageCostModel`] of one pipeline borrows its stages' rows from it.
//! The model itself owns only what depends on `Nm` and position: the
//! schedule's memory terms and the byte budgets.

use hetpipe_cluster::gpu::GpuSpec;
use hetpipe_cluster::network::LinkKind;
use hetpipe_model::memory::{StageBytesFrom, TrainingMemoryModel};
use hetpipe_model::profile;
use hetpipe_model::profile::{Pass, STAGE_TASK_OVERHEAD_SECS};
use hetpipe_model::ModelGraph;
use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
use std::borrow::Cow;
use std::ops::Range;
use std::rc::Rc;

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

/// One GPU spec's prefix rows: running sums of every layer's
/// forward + backward seconds and of its forward seconds, from 0 before
/// layer 0 to the whole model after layer `n − 1`.
#[derive(Debug)]
struct PrefixRows {
    secs: Box<[f64]>,
    fwd: Box<[f64]>,
}

/// One link kind's transfer seconds, boundary by boundary:
/// `incoming[s]` receives the forward input of a range starting at `s`
/// (0 at `s = n`), and `outgoing[i]` receives the gradient of the
/// boundary before layer `i` (0 at `i = 0`).
#[derive(Debug)]
struct CommRows {
    incoming: Box<[f64]>,
    outgoing: Box<[f64]>,
}

/// A GPU spec as its rows see it: the kind's name and the bits of the
/// two rates a derate divides ([`GpuSpec::derated`]).
type GpuKey = (&'static str, u64, u64);

/// The per-layer rows of one model (see the module docs): prefix rows
/// per GPU spec, keyed by kind and derate bits, and comm rows per
/// [`LinkKind`]. A row pair is built the first time a pipeline asks for
/// it and shared by every later one, so two stages on equal specs read
/// the same `f64`s, summed in the same order.
#[derive(Debug)]
pub struct LayerTable<'g> {
    graph: &'g ModelGraph,
    gpus: Vec<(GpuKey, Rc<PrefixRows>)>,
    links: Vec<(LinkKind, Rc<CommRows>)>,
    /// The rows of a pipeline's two ends, all zero: stage 0 is not
    /// charged for its input (the loader overlaps with compute) and the
    /// last stage receives no gradient.
    edge: Rc<CommRows>,
}

impl<'g> LayerTable<'g> {
    /// An empty table over `graph`.
    pub fn new(graph: &'g ModelGraph) -> Self {
        let zeros = vec![0.0; graph.len() + 1].into_boxed_slice();
        LayerTable {
            graph,
            gpus: Vec::new(),
            links: Vec::new(),
            edge: Rc::new(CommRows {
                incoming: zeros.clone(),
                outgoing: zeros,
            }),
        }
    }

    /// The model the rows are of.
    pub(crate) fn graph(&self) -> &'g ModelGraph {
        self.graph
    }

    /// The row pairs this table has built: (prefix-row pairs, one per
    /// GPU spec; comm-row pairs, one per link kind).
    pub fn row_builds(&self) -> (usize, usize) {
        (self.gpus.len(), self.links.len())
    }

    /// The rows of a pipeline over `gpus` joined by `links`, each row
    /// pair built here when the table lacks it.
    ///
    /// # Panics
    ///
    /// Panics if `links.len() + 1 != gpus.len()`.
    pub(crate) fn rows(&mut self, gpus: &[GpuSpec], links: &[LinkKind]) -> StageRows {
        assert_eq!(
            links.len() + 1,
            gpus.len(),
            "need exactly one link between each pair of adjacent stages"
        );
        let mut stages = Vec::with_capacity(gpus.len());
        for (s, gpu) in gpus.iter().enumerate() {
            let incoming = match s.checked_sub(1) {
                Some(left) => self.link(links[left]),
                None => self.edge.clone(),
            };
            let outgoing = match links.get(s) {
                Some(&right) => self.link(right),
                None => self.edge.clone(),
            };
            stages.push((self.gpu(gpu), incoming, outgoing));
        }
        StageRows { stages }
    }

    fn gpu(&mut self, gpu: &GpuSpec) -> Rc<PrefixRows> {
        let key = (
            gpu.name,
            gpu.effective_throughput.to_bits(),
            gpu.memory_bw_bytes_per_sec.to_bits(),
        );
        if let Some((_, rows)) = self.gpus.iter().find(|(k, _)| *k == key) {
            return rows.clone();
        }
        let layers = self.graph.layers();
        let mut acc = 0.0;
        let mut acc_fwd = 0.0;
        let mut secs = Vec::with_capacity(layers.len() + 1);
        let mut fwd = Vec::with_capacity(layers.len() + 1);
        secs.push(0.0);
        fwd.push(0.0);
        for l in layers {
            let p = profile::LayerProfile::of(l, gpu);
            acc += p.total_secs();
            acc_fwd += profile::pass_time_secs(l, gpu, Pass::Forward);
            secs.push(acc);
            fwd.push(acc_fwd);
        }
        let rows = Rc::new(PrefixRows {
            secs: secs.into(),
            fwd: fwd.into(),
        });
        self.gpus.push((key, rows.clone()));
        rows
    }

    fn link(&mut self, link: LinkKind) -> Rc<CommRows> {
        if let Some((_, rows)) = self.links.iter().find(|(l, _)| *l == link) {
            return rows.clone();
        }
        // Transfer times depend only on the boundary a range starts or
        // ends at, so a probe's comm charge is two lookups instead of
        // two bandwidth computations.
        let (g, n) = (self.graph, self.graph.len());
        let incoming = (0..=n)
            .map(|s| {
                if s < n {
                    link.transfer_secs(g.input_bytes_of(s))
                } else {
                    0.0
                }
            })
            .collect();
        let outgoing = (0..=n)
            .map(|i| {
                if i > 0 {
                    link.transfer_secs(g.boundary_bytes(i - 1))
                } else {
                    0.0
                }
            })
            .collect();
        let rows = Rc::new(CommRows { incoming, outgoing });
        self.links.push((link, rows.clone()));
        rows
    }
}

/// One pipeline's rows in stage order: each stage's GPU prefix rows and
/// the comm rows of its incoming and outgoing links, shared with the
/// [`LayerTable`] that built them.
#[derive(Debug, Clone)]
pub(crate) struct StageRows {
    stages: Vec<(Rc<PrefixRows>, Rc<CommRows>, Rc<CommRows>)>,
}

/// Evaluates stage times and memory feasibility for a problem.
///
/// Every per-range query is O(1): layer times are prefix rows per stage
/// GPU and transfer times comm rows per link, both borrowed from a
/// [`LayerTable`]; layer bytes are prefix-summed on the graph itself;
/// and the schedule's per-stage terms (in-flight window, pinned
/// versions, checkpoint decision, memory budgets) are resolved **once**
/// at construction — the partition DP issues O(k·L²) probes per solve,
/// so per-probe schedule resolution dominated plan time as thoroughly
/// as per-probe re-summation did.
#[derive(Debug, Clone)]
pub struct StageCostModel<'a> {
    problem: &'a PartitionProblem<'a>,
    /// Each stage's rows: borrowed from a sweep's table, or built for
    /// this model alone by [`StageCostModel::new`].
    rows: Cow<'a, StageRows>,
    /// Per stage: the schedule's memory terms, hoisted.
    terms: Vec<hetpipe_model::StageMemoryTerms>,
    /// Per stage: the equal-split byte budget ([`Self::fits`]).
    budget_equal: Vec<u64>,
    /// Per stage: the whole-GPU byte budget ([`Self::fits_alone`]).
    budget_alone: Vec<u64>,
}

impl<'a> StageCostModel<'a> {
    /// The cost model of `problem` over rows of its own, from a one-off
    /// [`LayerTable`], with the per-stage schedule terms and budgets.
    pub fn new(problem: &'a PartitionProblem<'a>) -> Self {
        let rows = LayerTable::new(problem.graph).rows(&problem.gpus, &problem.links);
        Self::with_rows(problem, Cow::Owned(rows))
    }

    /// The cost model of `problem` reading `rows`, which must be the
    /// rows of `problem`'s GPUs and links.
    pub(crate) fn with_rows(problem: &'a PartitionProblem<'a>, rows: Cow<'a, StageRows>) -> Self {
        let k = problem.gpus.len();
        debug_assert_eq!(rows.stages.len(), k, "one row set per stage");
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
            rows,
            terms,
            budget_equal,
            budget_alone,
        }
    }

    /// Pure compute time of layers `range` on stage `stage`'s GPU.
    pub fn compute_secs(&self, stage: usize, range: Range<usize>) -> f64 {
        let secs = &self.rows.stages[stage].0.secs;
        secs[range.end] - secs[range.start]
    }

    /// Forward-only compute time of layers `range` on stage `stage`'s
    /// GPU — what one activation recomputation costs.
    pub fn forward_secs(&self, stage: usize, range: Range<usize>) -> f64 {
        let fwd = &self.rows.stages[stage].0.fwd;
        fwd[range.end] - fwd[range.start]
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
        // size as the boundary activations) — the links' comm rows,
        // since the DP probes every (start, end) pair.
        let (_, incoming, outgoing) = &self.rows.stages[stage];
        incoming.incoming[range.start] + outgoing.outgoing[range.end]
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
        self.probes_from(stage, range.start).stage_secs(range.end)
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
        self.probes_from(stage, range.start).fits(range.end)
    }

    /// The relaxed per-stage check: the range fits the stage's GPU
    /// with the whole budget to itself. Necessary for any plan; the
    /// solver pairs it with the exact joint per-GPU check
    /// ([`TrainingMemoryModel::plan_fits_per_gpu`]) so uneven chunk
    /// shares that fit *together* are admitted.
    pub fn fits_alone(&self, stage: usize, range: Range<usize>) -> bool {
        self.probes_from(stage, range.start).fits_alone(range.end)
    }

    /// Stage `stage`'s probes of the layer ranges that start at
    /// `start`, with the prefix, comm and forward rows, the memory
    /// terms and the budgets looked up once. [`Self::stage_secs`],
    /// [`Self::fits`] and [`Self::fits_alone`] are its one-probe forms.
    pub(crate) fn probes_from(&self, stage: usize, start: usize) -> StartProbe<'_> {
        let (gpu, incoming, outgoing) = &self.rows.stages[stage];
        StartProbe {
            prefix: &gpu.secs,
            prefix_fwd: &gpu.fwd,
            out_comm: &outgoing.outgoing,
            secs_before: gpu.secs[start],
            fwd_before: gpu.fwd[start],
            in_comm: incoming.incoming[start],
            recomputes: self.terms[stage].recomputes(),
            bytes: self.terms[stage].bytes_from(self.problem.graph, start),
            budget_equal: self.budget_equal[stage],
            budget_alone: self.budget_alone[stage],
        }
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

/// One stage's probes of the layer ranges that start at one layer
/// ([`StageCostModel::probes_from`]): a probe of range end `end` reads
/// that end's prefix, comm and byte entries only. Each probe computes
/// the same `f64` expression in the same order as the unhoisted
/// formula, so every stage time is the same to the bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StartProbe<'m> {
    prefix: &'m [f64],
    prefix_fwd: &'m [f64],
    out_comm: &'m [f64],
    secs_before: f64,
    fwd_before: f64,
    in_comm: f64,
    recomputes: bool,
    bytes: StageBytesFrom<'m>,
    budget_equal: u64,
    budget_alone: u64,
}

impl StartProbe<'_> {
    /// [`StageCostModel::stage_secs`] of the range ending at `end`.
    #[inline]
    pub(crate) fn stage_secs(&self, end: usize) -> f64 {
        let compute = self.prefix[end] - self.secs_before;
        let comm = self.in_comm + self.out_comm[end];
        let mut secs = compute + comm + 2.0 * STAGE_TASK_OVERHEAD_SECS;
        if self.recomputes {
            secs += (self.prefix_fwd[end] - self.fwd_before) + STAGE_TASK_OVERHEAD_SECS;
        }
        secs
    }

    /// A floor of [`Self::stage_secs`]: the same expression without
    /// the outgoing-gradient term `out_comm[end]`. It is at most
    /// `stage_secs(end)` and nondecreasing in `end`, bit for bit (see
    /// the partition DP's doc for why), so once it exceeds a bound,
    /// no longer range from this start can get under it.
    #[inline]
    pub(crate) fn floor_secs(&self, end: usize) -> f64 {
        let compute = self.prefix[end] - self.secs_before;
        let mut secs = compute + self.in_comm + 2.0 * STAGE_TASK_OVERHEAD_SECS;
        if self.recomputes {
            secs += (self.prefix_fwd[end] - self.fwd_before) + STAGE_TASK_OVERHEAD_SECS;
        }
        secs
    }

    /// [`StageCostModel::fits`] of the range ending at `end`.
    #[inline]
    pub(crate) fn fits(&self, end: usize) -> bool {
        self.bytes.to(end) <= self.budget_equal
    }

    /// [`StageCostModel::fits_alone`] of the range ending at `end`.
    #[inline]
    pub(crate) fn fits_alone(&self, end: usize) -> bool {
        self.bytes.to(end) <= self.budget_alone
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
