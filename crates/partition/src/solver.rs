//! The min–max partition solvers.
//!
//! The exact solver is an interval dynamic program: `best[j][i]` is the
//! minimal achievable bottleneck when the first `i` layers are split
//! into `j + 1` stages, i.e. stage `j` ends right before layer `i`.
//! Position-dependent memory constraints (earlier stages hold more
//! in-flight state) are applied per candidate interval.
//!
//! Plan time is the system's hot path (the order search's `Nm` sweeps
//! solve this DP hundreds of times per build), so the DP is
//! O(k·L²) with **O(1) probes**: stage times and memory charges are
//! prefix-sum range queries, and a frontier prune drops range starts
//! whose memory budget is already exceeded (infeasibility is monotone
//! in range width). [`PartitionSolver::solve_reference`] preserves the
//! naive re-summing DP as the parity oracle and timing baseline; the
//! largest feasible `Nm` is binary-searched over the monotone
//! feasibility gate ([`max_feasible_nm_linear`] keeps the linear
//! rescan for the same purpose). A faster binary-search/greedy variant
//! is provided as a comparison point for larger synthetic instances.

use crate::cost::{PartitionProblem, StageCostModel};
use std::fmt;
use std::ops::Range;

/// Why a problem instance cannot be partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// More stages than layers (empty stages are not allowed).
    TooManyStages {
        /// Requested stage count.
        stages: usize,
        /// Available layer units.
        layers: usize,
    },
    /// No cut assignment satisfies every stage's memory budget.
    OutOfMemory,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::TooManyStages { stages, layers } => write!(
                f,
                "cannot split {layers} layer units into {stages} non-empty stages"
            ),
            PartitionError::OutOfMemory => {
                write!(f, "no contiguous partition satisfies the memory budgets")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A feasible partition of the model onto the pipeline stages.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Layer range of each stage, in stage order.
    pub ranges: Vec<Range<usize>>,
    /// Execution time of each stage, seconds.
    pub stage_secs: Vec<f64>,
    /// The plan's bottleneck (maximum stage time), seconds.
    pub bottleneck_secs: f64,
}

impl PartitionPlan {
    fn from_ranges(model: &StageCostModel<'_>, ranges: Vec<Range<usize>>) -> PartitionPlan {
        let stage_secs: Vec<f64> = ranges
            .iter()
            .enumerate()
            .map(|(s, r)| model.stage_secs(s, r.clone()))
            .collect();
        let bottleneck_secs = stage_secs.iter().cloned().fold(0.0, f64::max);
        PartitionPlan {
            ranges,
            stage_secs,
            bottleneck_secs,
        }
    }

    /// The pipeline's steady-state throughput upper bound in
    /// minibatches per second (1 / bottleneck).
    pub fn minibatches_per_sec(&self) -> f64 {
        1.0 / self.bottleneck_secs
    }

    /// Asserts structural invariants: ranges are non-empty, contiguous,
    /// and cover `0..layers`.
    pub fn is_valid_cover(&self, layers: usize) -> bool {
        let mut next = 0;
        for r in &self.ranges {
            if r.start != next || r.end <= r.start {
                return false;
            }
            next = r.end;
        }
        next == layers
    }
}

/// Which memory certification the DP's per-interval probe uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemMode {
    /// The per-stage check (equal-split budget for co-located chunks).
    PerStage,
    /// The relaxed whole-GPU check; the reconstructed plan must then
    /// pass the exact joint per-GPU check.
    Alone,
}

/// The exact interval-DP solver.
#[derive(Debug, Clone, Copy)]
pub struct PartitionSolver;

impl PartitionSolver {
    /// Solves the min–max partitioning problem exactly.
    ///
    /// Returns the optimal plan, or an error when the instance is
    /// structurally or memory-infeasible.
    ///
    /// # Examples
    ///
    /// ```
    /// use hetpipe_cluster::{GpuKind, LinkKind};
    /// use hetpipe_partition::{PartitionProblem, PartitionSolver};
    ///
    /// let g = hetpipe_model::vgg19(32);
    /// let p = PartitionProblem::new(
    ///     &g,
    ///     vec![GpuKind::TitanV.spec(); 4],
    ///     vec![LinkKind::Pcie; 3],
    ///     1,
    /// );
    /// let plan = PartitionSolver::solve(&p).unwrap();
    /// assert!(plan.is_valid_cover(g.len()));
    /// assert_eq!(plan.ranges.len(), 4);
    /// ```
    pub fn solve(problem: &PartitionProblem<'_>) -> Result<PartitionPlan, PartitionError> {
        use hetpipe_schedule::PipelineSchedule;
        if problem.schedule.colocated_stages() > 1 {
            // Interleaved chunks share a physical GPU. The per-stage DP
            // cannot see a GPU's whole chunk set, so run it with the
            // relaxed fits-alone probe and certify the reconstructed
            // plan with the exact joint per-GPU check — this admits
            // uneven chunk shares (a big chunk paired with a small one)
            // that the equal-split budget rejects. When the relaxed
            // optimum happens not to fit jointly, fall back to the
            // conservative equal-split certification.
            if let Ok(plan) = Self::solve_with_mode(problem, MemMode::Alone) {
                let model = StageCostModel::new(problem);
                if model.plan_fits_per_gpu(&plan.ranges) {
                    return Ok(plan);
                }
            }
        }
        Self::solve_with_mode(problem, MemMode::PerStage)
    }

    /// [`PartitionSolver::solve`] warm-started from an incumbent plan
    /// (e.g. the plan currently executing, when the runtime re-plans
    /// with observed costs): the incumbent's bottleneck under the *new*
    /// cost model is a sound upper bound on the optimum, so the DP
    /// skips every `(stage, range)` cell whose stage time already
    /// exceeds it. Answer-preserving, not heuristic — the optimum's
    /// whole DP path has values at or below the bound, and candidates
    /// above the bound can never be an argmin at a retained cell, so
    /// the reconstructed plan (tie-breaks included) is identical to a
    /// cold [`PartitionSolver::solve`] (`solve_warm_matches_cold`
    /// pins this on derated-GPU replan instances).
    ///
    /// The bound only applies when the incumbent is a valid cover that
    /// is still memory-feasible under `problem`; otherwise (or for
    /// colocated interleaved schedules, whose joint per-GPU
    /// certification admits no per-cell bound) this degrades to the
    /// cold solve.
    pub fn solve_warm(
        problem: &PartitionProblem<'_>,
        incumbent: Option<&[Range<usize>]>,
    ) -> Result<PartitionPlan, PartitionError> {
        use hetpipe_schedule::PipelineSchedule;
        if problem.schedule.colocated_stages() > 1 {
            return Self::solve(problem);
        }
        Self::solve_bounded(problem, MemMode::PerStage, incumbent)
    }

    /// The warm-start bound: the incumbent's bottleneck re-costed
    /// under `model`, or ∞ when the incumbent is not a valid,
    /// memory-feasible cover of the new problem (no sound bound
    /// exists then).
    fn incumbent_bound(
        model: &StageCostModel<'_>,
        n: usize,
        k: usize,
        incumbent: Option<&[Range<usize>]>,
    ) -> f64 {
        let Some(ranges) = incumbent else {
            return f64::INFINITY;
        };
        let mut next = 0;
        let is_cover = ranges.len() == k
            && ranges.iter().all(|r| {
                let ok = r.start == next && r.end > r.start;
                next = r.end;
                ok
            })
            && next == n;
        if !is_cover {
            return f64::INFINITY;
        }
        if !ranges
            .iter()
            .enumerate()
            .all(|(s, r)| model.fits(s, r.clone()))
        {
            return f64::INFINITY;
        }
        ranges
            .iter()
            .enumerate()
            .map(|(s, r)| model.stage_secs(s, r.clone()))
            .fold(0.0, f64::max)
    }

    fn solve_with_mode(
        problem: &PartitionProblem<'_>,
        mode: MemMode,
    ) -> Result<PartitionPlan, PartitionError> {
        Self::solve_bounded(problem, mode, None)
    }

    fn solve_bounded(
        problem: &PartitionProblem<'_>,
        mode: MemMode,
        incumbent: Option<&[Range<usize>]>,
    ) -> Result<PartitionPlan, PartitionError> {
        let k = problem.stages();
        let n = problem.graph.len();
        if k > n {
            return Err(PartitionError::TooManyStages {
                stages: k,
                layers: n,
            });
        }
        let model = StageCostModel::new(problem);
        let bound = Self::incumbent_bound(&model, n, k, incumbent);
        let fits = |stage: usize, range: std::ops::Range<usize>| match mode {
            MemMode::PerStage => model.fits(stage, range),
            MemMode::Alone => model.fits_alone(stage, range),
        };

        const INF: f64 = f64::INFINITY;
        // best[j][i]: minimal bottleneck splitting layers 0..i into the
        // first j+1 stages (stage j ends at i). choice[j][i]: the start
        // of stage j in that optimum.
        let mut best = vec![vec![INF; n + 1]; k];
        let mut choice = vec![vec![usize::MAX; n + 1]; k];

        for i in 1..=n {
            // Stage 0 covers 0..i. Memory infeasibility is monotone in
            // the range end for a fixed start (params and stored bytes
            // only grow; the input buffer and per-stage multipliers are
            // fixed), so the first infeasible prefix ends the sweep.
            if !fits(0, 0..i) {
                break;
            }
            let t = model.stage_secs(0, 0..i);
            // Cells above the warm-start bound can never sit on the
            // optimal path (the incumbent proves optimum ≤ bound), so
            // they are never materialized. Memory monotonicity still
            // drives the break; time is not assumed monotone, so the
            // sweep continues past a too-slow prefix.
            if t <= bound {
                best[0][i] = t;
                choice[0][i] = 0;
            }
        }
        for j in 1..k {
            // Start-major frontier walk: stage j covering s..i for
            // every s in [j, n) with a feasible (j−1)-stage prefix,
            // extending i until the memory budget trips — the same
            // monotonicity as above makes the break exact, so
            // infeasible (s, i) pairs beyond the frontier are never
            // probed at all. Visiting s ascending with strictly-less
            // updates keeps the chosen cuts identical to the
            // end-major loop this replaces.
            for s in j..n {
                let lo = best[j - 1][s];
                if lo.is_infinite() {
                    continue;
                }
                for i in (s + 1)..=n {
                    if !fits(j, s..i) {
                        break;
                    }
                    let b = lo.max(model.stage_secs(j, s..i));
                    if b <= bound && b < best[j][i] {
                        best[j][i] = b;
                        choice[j][i] = s;
                    }
                }
            }
        }

        if best[k - 1][n].is_infinite() {
            return Err(PartitionError::OutOfMemory);
        }

        // Reconstruct ranges right-to-left.
        let mut ranges = vec![0..0; k];
        let mut end = n;
        for j in (0..k).rev() {
            let start = choice[j][end];
            ranges[j] = start..end;
            end = start;
        }
        Ok(PartitionPlan::from_ranges(&model, ranges))
    }

    /// Reference DP solver: semantically identical to [`Self::solve`],
    /// but every per-interval probe re-sums the layer slice (naive
    /// time and memory summation, no frontier prune) — the
    /// pre-optimization planner. Kept as the parity oracle for
    /// `tests/planner_parity.rs` and the timing baseline
    /// `planner_bench` records; not for production use.
    pub fn solve_reference(
        problem: &PartitionProblem<'_>,
    ) -> Result<PartitionPlan, PartitionError> {
        use hetpipe_schedule::PipelineSchedule;
        if problem.schedule.colocated_stages() > 1 {
            if let Ok(plan) = Self::solve_reference_with_mode(problem, MemMode::Alone) {
                let model = StageCostModel::new(problem);
                if model.plan_fits_per_gpu(&plan.ranges) {
                    return Ok(plan);
                }
            }
        }
        Self::solve_reference_with_mode(problem, MemMode::PerStage)
    }

    fn solve_reference_with_mode(
        problem: &PartitionProblem<'_>,
        mode: MemMode,
    ) -> Result<PartitionPlan, PartitionError> {
        use hetpipe_model::memory::TrainingMemoryModel;
        let k = problem.stages();
        let n = problem.graph.len();
        if k > n {
            return Err(PartitionError::TooManyStages {
                stages: k,
                layers: n,
            });
        }
        let model = StageCostModel::new(problem);
        let budget = |stage: usize| match mode {
            MemMode::PerStage => {
                TrainingMemoryModel::equal_split_budget(&problem.gpus[stage], problem.schedule)
            }
            MemMode::Alone => problem.gpus[stage].memory_bytes,
        };
        let fits = |stage: usize, range: Range<usize>| {
            TrainingMemoryModel::stage_bytes_with_naive(
                problem.graph,
                range,
                stage,
                k,
                problem.nm,
                problem.schedule,
                problem.recompute,
            ) <= budget(stage)
        };

        const INF: f64 = f64::INFINITY;
        let mut best = vec![vec![INF; n + 1]; k];
        let mut choice = vec![vec![usize::MAX; n + 1]; k];
        for i in 1..=n {
            if fits(0, 0..i) {
                best[0][i] = model.stage_secs_naive(0, 0..i);
                choice[0][i] = 0;
            }
        }
        for j in 1..k {
            for i in (j + 1)..=n {
                for s in j..i {
                    if best[j - 1][s].is_infinite() || !fits(j, s..i) {
                        continue;
                    }
                    let b = best[j - 1][s].max(model.stage_secs_naive(j, s..i));
                    if b < best[j][i] {
                        best[j][i] = b;
                        choice[j][i] = s;
                    }
                }
            }
        }
        if best[k - 1][n].is_infinite() {
            return Err(PartitionError::OutOfMemory);
        }
        let mut ranges = vec![0..0; k];
        let mut end = n;
        for j in (0..k).rev() {
            let start = choice[j][end];
            ranges[j] = start..end;
            end = start;
        }
        Ok(PartitionPlan::from_ranges(&model, ranges))
    }

    /// Binary-search + greedy solver (comparison point).
    ///
    /// Binary-searches the bottleneck value and greedily packs layers
    /// left-to-right; exact for monotone cost structures without memory
    /// constraints, heuristic (but fast) otherwise. Returns `None` if
    /// the greedy sweep finds no feasible packing.
    pub fn solve_greedy(problem: &PartitionProblem<'_>) -> Option<PartitionPlan> {
        let k = problem.stages();
        let n = problem.graph.len();
        if k > n {
            return None;
        }
        let model = StageCostModel::new(problem);

        // Upper bound: everything on the slowest single stage.
        let mut hi = (0..k)
            .map(|s| model.stage_secs(s, 0..n))
            .fold(0.0, f64::max);
        let mut lo = 0.0;
        let mut found: Option<Vec<Range<usize>>> = None;
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if let Some(ranges) = greedy_pack(&model, k, n, mid) {
                found = Some(ranges);
                hi = mid;
            } else {
                lo = mid;
            }
        }
        found.map(|r| PartitionPlan::from_ranges(&model, r))
    }
}

/// Greedily packs layers into stages keeping each stage under `cap`
/// seconds and within memory; each stage takes the longest feasible
/// prefix that still leaves at least one layer per remaining stage.
fn greedy_pack(
    model: &StageCostModel<'_>,
    k: usize,
    n: usize,
    cap: f64,
) -> Option<Vec<Range<usize>>> {
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0;
    for stage in 0..k {
        let remaining_stages = k - stage - 1;
        let max_end = n - remaining_stages;
        let mut end = None;
        for e in (start + 1)..=max_end {
            if model.stage_secs(stage, start..e) <= cap && model.fits(stage, start..e) {
                end = Some(e);
            } else if model.compute_secs(stage, start..e) > cap {
                // Compute alone already exceeds the cap; longer ranges
                // only grow, so stop extending.
                break;
            }
        }
        let e = end?;
        // The last stage must consume everything.
        if stage == k - 1 && e != n {
            return None;
        }
        ranges.push(start..e);
        start = e;
    }
    (start == n).then_some(ranges)
}

/// An incremental solver for `Nm` sweeps over one fixed
/// `(graph, gpus, links, schedule, recompute)` configuration: the
/// *same* partitioning instance at every `Nm` in a range. The system
/// builder sweeps each of its instances once with it and takes the
/// order scan's proxy, `Max_m`, the `Nm` choice and the final plans
/// from that one sweep, so every plan it runs comes from here.
///
/// The reuse step is **answer-preserving**, not heuristic. For flat
/// schedules (no co-located chunks), stage times depend on `Nm` only
/// through the per-stage checkpoint flags
/// ([`hetpipe_schedule::PipelineSchedule::recomputes_at`]); the memory
/// constraint is monotone in `Nm`, so the feasible cut set only
/// shrinks as `Nm` grows. If the optimum at a smaller `Nm` is still
/// feasible at the next `Nm` (an O(k) check) and the checkpoint flags
/// are unchanged, it is *the* optimum there — including the DP's
/// deterministic tie-breaking: any competitor that would tie it and
/// precede it in visit order at the larger `Nm` was also feasible (and
/// would have won) at the smaller one. `tests/planner_parity.rs` holds
/// every sweep cell against a fresh [`PartitionSolver::solve`].
#[derive(Debug, Clone)]
pub struct NmSweep<'a> {
    graph: &'a hetpipe_model::ModelGraph,
    gpus: Vec<hetpipe_cluster::gpu::GpuSpec>,
    links: Vec<hetpipe_cluster::network::LinkKind>,
    schedule: hetpipe_schedule::Schedule,
    recompute: hetpipe_schedule::RecomputePolicy,
    /// Last solved `(nm, plan, per-stage checkpoint flags)`.
    cached: Option<(usize, PartitionPlan, Vec<bool>)>,
}

impl<'a> NmSweep<'a> {
    /// Creates a sweep over the fixed configuration.
    pub fn new(
        graph: &'a hetpipe_model::ModelGraph,
        gpus: &[hetpipe_cluster::gpu::GpuSpec],
        links: &[hetpipe_cluster::network::LinkKind],
        schedule: hetpipe_schedule::Schedule,
        recompute: hetpipe_schedule::RecomputePolicy,
    ) -> Self {
        NmSweep {
            graph,
            gpus: gpus.to_vec(),
            links: links.to_vec(),
            schedule,
            recompute,
            cached: None,
        }
    }

    /// Solves at `nm`, reusing the previous solution when the reuse
    /// conditions prove it optimal. Identical results to
    /// [`PartitionSolver::solve`] on the same problem; the reuse step
    /// only fires for `nm` at or above the cached solve's (callers
    /// sweep ascending).
    pub fn solve(&mut self, nm: usize) -> Result<PartitionPlan, PartitionError> {
        use hetpipe_schedule::PipelineSchedule;
        let k = self.gpus.len();
        let flags: Vec<bool> = (0..k)
            .map(|s| self.schedule.recomputes_at(s, k, nm, self.recompute))
            .collect();
        if self.schedule.colocated_stages() == 1 {
            if let Some((prev_nm, plan, prev_flags)) = &self.cached {
                if *prev_nm <= nm && *prev_flags == flags {
                    // k O(1) probes via the unhoisted memory-model
                    // entry point — the fast path must not rebuild a
                    // whole StageCostModel (its O(k·n) prefix/comm
                    // tables are exactly what the reuse step saves).
                    let still_fits = plan.ranges.iter().enumerate().all(|(s, r)| {
                        hetpipe_model::TrainingMemoryModel::stage_fits_with(
                            self.graph,
                            r.clone(),
                            s,
                            k,
                            nm,
                            &self.gpus[s],
                            self.schedule,
                            self.recompute,
                        )
                    });
                    if still_fits {
                        // Still feasible under the tighter constraint
                        // and the cost function is unchanged: the
                        // cached plan (values included — stage times
                        // only read the unchanged flags) is the fresh
                        // DP's exact output.
                        let plan = plan.clone();
                        self.cached = Some((nm, plan.clone(), flags));
                        return Ok(plan);
                    }
                }
            }
        }
        let problem = PartitionProblem::with_schedule(
            self.graph,
            self.gpus.clone(),
            self.links.clone(),
            nm,
            self.schedule,
        )
        .with_recompute(self.recompute);
        let result = PartitionSolver::solve(&problem);
        if let Ok(plan) = &result {
            self.cached = Some((nm, plan.clone(), flags));
        }
        result
    }
}

/// Finds the largest `Nm` in `1..=limit` for which a feasible partition
/// exists under `schedule` and `recompute`, together with its plan.
///
/// This is the paper's `Max_m` (Section 4): the maximum number of
/// minibatches that can concurrently execute in the virtual worker,
/// bounded by GPU memory. The schedule's per-stage memory profile
/// (in-flight activations, pinned weight versions) shapes which `Nm`
/// fit, and `BoundaryOnly` recomputation shrinks the per-stage memory
/// term, so it typically admits a larger `Max_m` on memory-bound
/// clusters (at the cost of one extra forward per backward in the
/// plan's stage times).
pub fn max_feasible_nm_with(
    graph: &hetpipe_model::ModelGraph,
    gpus: &[hetpipe_cluster::gpu::GpuSpec],
    links: &[hetpipe_cluster::network::LinkKind],
    limit: usize,
    schedule: hetpipe_schedule::Schedule,
    recompute: hetpipe_schedule::RecomputePolicy,
) -> Option<(usize, PartitionPlan)> {
    {
        use hetpipe_schedule::PipelineSchedule;
        if schedule.colocated_stages() > 1 {
            // The gallop/binary edge-finding below needs solve()
            // feasibility to be a *prefix* of 1..=limit. That holds for
            // flat schedules (memory is monotone in Nm), but an
            // interleaved solve first certifies its Alone-mode optimum
            // with the joint per-GPU check — a different plan at every
            // Nm — so success is not provably monotone there. Keep the
            // linear scan for colocated schedules: answers before speed.
            return max_feasible_nm_linear(graph, gpus, links, limit, schedule, recompute);
        }
    }
    let solve_at = |nm: usize| {
        let p = PartitionProblem::with_schedule(graph, gpus.to_vec(), links.to_vec(), nm, schedule)
            .with_recompute(recompute);
        PartitionSolver::solve(&p).ok()
    };
    if limit == 0 {
        return None;
    }
    // Memory is monotone in Nm (every per-stage charge is
    // nondecreasing in the in-flight count and pinned versions), so
    // feasibility over 1..=limit is a prefix — gallop (1, 2, 4, …) to
    // bracket its edge, then binary-search inside the bracket, instead
    // of solving a DP per Nm. Galloping keeps the small-Max_m case as
    // cheap as the linear scan while large Max_m costs O(log) solves.
    // The gate is pinned by `max_feasible_nm_monotone_gate` /
    // `tests/planner_parity.rs`, which assert agreement with
    // [`max_feasible_nm_linear`] across a grid of clusters, models,
    // and schedules.
    let mut lo = (1, solve_at(1)?);
    let mut hi = None; // Smallest Nm proven infeasible, if any.
    let mut probe = 2;
    while probe <= limit {
        match solve_at(probe) {
            Some(plan) => lo = (probe, plan),
            None => {
                hi = Some(probe);
                break;
            }
        }
        if probe == limit {
            break;
        }
        probe = (probe * 2).min(limit);
    }
    if let Some(mut hi) = hi {
        // Invariant: lo feasible (plan held), hi infeasible.
        while hi - lo.0 > 1 {
            let mid = lo.0 + (hi - lo.0) / 2;
            match solve_at(mid) {
                Some(plan) => lo = (mid, plan),
                None => hi = mid,
            }
        }
    }
    Some((lo.0, lo.1))
}

/// Reference implementation of [`max_feasible_nm_with`]: the linear
/// `Nm` rescan the binary search replaced. Kept as the parity oracle
/// (`max_feasible_nm_monotone_gate`, `tests/planner_parity.rs`) and
/// the timing baseline `planner_bench` records.
pub fn max_feasible_nm_linear(
    graph: &hetpipe_model::ModelGraph,
    gpus: &[hetpipe_cluster::gpu::GpuSpec],
    links: &[hetpipe_cluster::network::LinkKind],
    limit: usize,
    schedule: hetpipe_schedule::Schedule,
    recompute: hetpipe_schedule::RecomputePolicy,
) -> Option<(usize, PartitionPlan)> {
    let mut best = None;
    for nm in 1..=limit {
        let p = PartitionProblem::with_schedule(graph, gpus.to_vec(), links.to_vec(), nm, schedule)
            .with_recompute(recompute);
        match PartitionSolver::solve(&p) {
            Ok(plan) => best = Some((nm, plan)),
            // Memory is monotone in Nm: once infeasible, larger Nm stays
            // infeasible.
            Err(_) => break,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_cluster::{GpuKind, LinkKind};
    use hetpipe_model::{mlp, resnet152, vgg19};

    fn homo4(graph: &hetpipe_model::ModelGraph, nm: usize) -> PartitionProblem<'_> {
        PartitionProblem::new(
            graph,
            vec![GpuKind::TitanV.spec(); 4],
            vec![LinkKind::Pcie; 3],
            nm,
        )
    }

    #[test]
    fn solves_vgg19_into_4_stages() {
        let g = vgg19(32);
        let plan = PartitionSolver::solve(&homo4(&g, 1)).unwrap();
        assert!(plan.is_valid_cover(g.len()));
        assert_eq!(plan.ranges.len(), 4);
        assert!(plan.bottleneck_secs > 0.0);
        // The bottleneck of a 4-way split should beat a single stage by
        // a decent margin (ideal 4x, transfers eat some).
        let whole = StageCostModel::new(&homo4(&g, 1)).compute_secs(0, 0..g.len());
        assert!(plan.bottleneck_secs < whole / 2.0);
    }

    #[test]
    fn heterogeneous_stages_get_uneven_layers() {
        // A fast GPU paired with slow ones should take more layers.
        let g = resnet152(32);
        let p = PartitionProblem::new(
            &g,
            vec![
                GpuKind::TitanV.spec(),
                GpuKind::TitanV.spec(),
                GpuKind::QuadroP4000.spec(),
                GpuKind::QuadroP4000.spec(),
            ],
            vec![LinkKind::Pcie; 3],
            1,
        );
        let plan = PartitionSolver::solve(&p).unwrap();
        let v_layers = plan.ranges[0].len() + plan.ranges[1].len();
        let q_layers = plan.ranges[2].len() + plan.ranges[3].len();
        assert!(
            v_layers > q_layers,
            "TITAN V stages took {v_layers} units vs Quadro's {q_layers}"
        );
    }

    #[test]
    fn too_many_stages_rejected() {
        let g = mlp(8, &[16, 16, 10]);
        let p = PartitionProblem::new(
            &g,
            vec![GpuKind::TitanV.spec(); 5],
            vec![LinkKind::Pcie; 4],
            1,
        );
        assert!(matches!(
            PartitionSolver::solve(&p),
            Err(PartitionError::TooManyStages {
                stages: 5,
                layers: 3
            })
        ));
    }

    #[test]
    fn memory_infeasible_rejected() {
        // ResNet-152 at batch 64 split only two ways across 6 GB GPUs:
        // whatever the cut, one stage carries activations it cannot hold.
        let g = resnet152(64);
        let p = PartitionProblem::new(
            &g,
            vec![GpuKind::Rtx2060.spec(); 2],
            vec![LinkKind::Pcie; 1],
            1,
        );
        assert_eq!(PartitionSolver::solve(&p), Err(PartitionError::OutOfMemory));
    }

    #[test]
    fn recompute_extends_feasible_nm() {
        use hetpipe_schedule::{RecomputePolicy, Schedule};
        // ResNet-152 @64 on 6 GB RTX 2060s: stashing full activations
        // caps the pipeline at a shallow Nm; boundary-only recompute
        // drops the per-minibatch stash to the boundary tensor and
        // admits much deeper concurrency.
        let g = resnet152(64);
        let gpus = vec![GpuKind::Rtx2060.spec(); 4];
        let links = vec![LinkKind::Pcie; 3];
        let limit = hetpipe_model::memory::nm_saturation_limit(4);
        let (plain, _) = max_feasible_nm_with(
            &g,
            &gpus,
            &links,
            limit,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        )
        .expect("feasible without recompute");
        let (ckpt, plan) = max_feasible_nm_with(
            &g,
            &gpus,
            &links,
            limit,
            Schedule::HetPipeWave,
            RecomputePolicy::BoundaryOnly,
        )
        .expect("feasible with recompute");
        assert!(
            ckpt > plain,
            "boundary-only recompute must admit deeper pipelines: {ckpt} vs {plain}"
        );
        assert!(plan.is_valid_cover(g.len()));
    }

    #[test]
    fn joint_check_admits_uneven_interleaved_chunks() {
        use hetpipe_schedule::Schedule;
        // 4 physical RTX 2060s × 2 interleaved chunks, VGG-19 at
        // Nm = 3: no cut satisfies the conservative equal-split
        // per-stage budget, but pairing a big chunk with a small one
        // fits each GPU jointly — the exact per-GPU check admits it.
        let g = vgg19(32);
        let sched = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        let p = PartitionProblem::with_schedule(
            &g,
            vec![GpuKind::Rtx2060.spec(); 8],
            vec![LinkKind::Pcie; 7],
            3,
            sched,
        );
        assert_eq!(
            PartitionSolver::solve_with_mode(&p, MemMode::PerStage),
            Err(PartitionError::OutOfMemory),
            "the equal-split certification must reject this instance"
        );
        let plan = PartitionSolver::solve(&p).expect("the joint per-GPU check admits it");
        assert!(plan.is_valid_cover(g.len()));
        let model = StageCostModel::new(&p);
        assert!(
            model.plan_fits_per_gpu(&plan.ranges),
            "admitted plans must pass the exact joint check"
        );
        // The shares are genuinely uneven: at least one chunk exceeds
        // its equal split (which is why the old check rejected it).
        assert!(
            plan.ranges
                .iter()
                .enumerate()
                .any(|(s, r)| !model.fits(s, r.clone())),
            "expected an uneven big+small chunk pairing"
        );
    }

    #[test]
    fn max_feasible_nm_monotone_gate() {
        let g = resnet152(64);
        let gpus = vec![GpuKind::Rtx2060.spec(); 4];
        let links = vec![LinkKind::Pcie; 3];
        let limit = hetpipe_model::memory::nm_saturation_limit(4);
        let (nm, plan) = max_feasible_nm_with(
            &g,
            &gpus,
            &links,
            limit,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        )
        .unwrap();
        assert!(nm >= 1 && nm < limit, "6 GB GPUs cap concurrency, got {nm}");
        assert!(plan.is_valid_cover(g.len()));
        // One step further must be infeasible.
        let p = PartitionProblem::new(&g, gpus.clone(), links.clone(), nm + 1);
        assert!(PartitionSolver::solve(&p).is_err());

        // The binary search exists *because* of this monotone gate:
        // across a grid of clusters × models × schedules × recompute,
        // it must agree exactly with the linear rescan it replaced —
        // same Max_m, same plan.
        use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
        let vgg = vgg19(32);
        let rn64 = resnet152(64);
        let clusters: Vec<Vec<_>> = vec![
            vec![GpuKind::Rtx2060.spec(); 4],
            vec![GpuKind::TitanV.spec(); 4],
            vec![
                GpuKind::TitanV.spec(),
                GpuKind::TitanRtx.spec(),
                GpuKind::QuadroP4000.spec(),
                GpuKind::Rtx2060.spec(),
            ],
        ];
        for graph in [&vgg, &rn64] {
            for gpus in &clusters {
                for schedule in [
                    Schedule::HetPipeWave,
                    Schedule::OneFOneB,
                    // Colocated: the edge search must defer to the
                    // linear scan (joint-check feasibility is not
                    // provably monotone in Nm), so agreement here pins
                    // that fallback.
                    Schedule::Interleaved1F1B {
                        chunks: 2,
                        composite: true,
                    },
                ] {
                    for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
                        let limit =
                            hetpipe_model::memory::nm_saturation_limit(schedule.virtual_stages(4));
                        let links = vec![LinkKind::Pcie; schedule.virtual_stages(4) - 1];
                        let gpus: Vec<_> = (0..schedule.virtual_stages(4))
                            .map(|s| gpus[s % 4].clone())
                            .collect();
                        let fast =
                            max_feasible_nm_with(graph, &gpus, &links, limit, schedule, recompute);
                        let slow = max_feasible_nm_linear(
                            graph, &gpus, &links, limit, schedule, recompute,
                        );
                        match (fast, slow) {
                            (None, None) => {}
                            (Some((a, pa)), Some((b, pb))) => {
                                assert_eq!(
                                    a, b,
                                    "{} {schedule} {recompute}: binary {a} vs linear {b}",
                                    graph.name
                                );
                                assert_eq!(pa.ranges, pb.ranges, "{} {schedule}", graph.name);
                            }
                            (a, b) => panic!(
                                "{} {schedule} {recompute}: binary {:?} vs linear {:?}",
                                graph.name,
                                a.map(|x| x.0),
                                b.map(|x| x.0)
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nm_sweep_matches_fresh_solves() {
        use hetpipe_schedule::{RecomputePolicy, Schedule};
        // Every sweep cell — including the flag transition at
        // Nm 1 → 2 under recompute and the memory-binding tail on the
        // whimpy GPUs — must be bit-identical to a fresh solve.
        let vgg = vgg19(32);
        let rn64 = resnet152(64);
        let clusters: Vec<Vec<_>> = vec![
            vec![GpuKind::Rtx2060.spec(); 4],
            vec![
                GpuKind::TitanV.spec(),
                GpuKind::TitanRtx.spec(),
                GpuKind::QuadroP4000.spec(),
                GpuKind::Rtx2060.spec(),
            ],
        ];
        for graph in [&vgg, &rn64] {
            for gpus in &clusters {
                for schedule in [
                    Schedule::HetPipeWave,
                    Schedule::OneFOneB,
                    Schedule::FillDrain,
                ] {
                    for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
                        let links = vec![LinkKind::Pcie; 3];
                        let mut sweep = NmSweep::new(graph, gpus, &links, schedule, recompute);
                        for nm in 1..=hetpipe_model::memory::nm_saturation_limit(4) {
                            let p = PartitionProblem::with_schedule(
                                graph,
                                gpus.clone(),
                                links.clone(),
                                nm,
                                schedule,
                            )
                            .with_recompute(recompute);
                            let fresh = PartitionSolver::solve(&p);
                            let swept = sweep.solve(nm);
                            match (&fresh, &swept) {
                                (Ok(a), Ok(b)) => {
                                    assert_eq!(a.ranges, b.ranges, "{} {schedule} nm={nm}", graph.name);
                                    assert_eq!(
                                        a.stage_secs.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                                        b.stage_secs.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                                        "{} {schedule} {recompute} nm={nm}: stage times",
                                        graph.name
                                    );
                                }
                                (Err(a), Err(b)) => assert_eq!(a, b),
                                _ => panic!(
                                    "{} {schedule} {recompute} nm={nm}: fresh {fresh:?} vs sweep {swept:?}",
                                    graph.name
                                ),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn solve_warm_matches_cold() {
        use hetpipe_schedule::{RecomputePolicy, Schedule};
        // The replan shape: solve at nominal specs, derate one GPU by
        // an observed straggler severity, re-solve warm-started from
        // the nominal incumbent. The warm solve prunes cells above the
        // incumbent's (re-costed) bottleneck but must stay
        // bit-identical to the cold solve — plans, stage times, and
        // tie-breaks.
        let vgg = vgg19(32);
        let rn = resnet152(32);
        for graph in [&vgg, &rn] {
            for schedule in [Schedule::HetPipeWave, Schedule::OneFOneB] {
                for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
                    for nm in [1usize, 2, 4] {
                        let nominal = vec![GpuKind::Rtx2060.spec(); 4];
                        let links = vec![LinkKind::Pcie; 3];
                        let base = PartitionProblem::with_schedule(
                            graph,
                            nominal.clone(),
                            links.clone(),
                            nm,
                            schedule,
                        )
                        .with_recompute(recompute);
                        let Ok(incumbent) = PartitionSolver::solve(&base) else {
                            continue;
                        };
                        let mut derated = nominal.clone();
                        derated[1] = derated[1].derated(1.3);
                        let replan = PartitionProblem::with_schedule(
                            graph,
                            derated,
                            links.clone(),
                            nm,
                            schedule,
                        )
                        .with_recompute(recompute);
                        let cold = PartitionSolver::solve(&replan);
                        let warm = PartitionSolver::solve_warm(&replan, Some(&incumbent.ranges));
                        match (&cold, &warm) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!(
                                    a.ranges, b.ranges,
                                    "{} {schedule} {recompute} nm={nm}",
                                    graph.name
                                );
                                assert_eq!(
                                    a.stage_secs.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                                    b.stage_secs.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                                    "{} {schedule} nm={nm}: stage times",
                                    graph.name
                                );
                            }
                            (Err(a), Err(b)) => assert_eq!(a, b),
                            _ => panic!(
                                "{} {schedule} nm={nm}: cold {cold:?} vs warm {warm:?}",
                                graph.name
                            ),
                        }
                    }
                }
            }
        }
        // Degenerate warm starts degrade to the cold solve: no
        // incumbent, wrong stage count, or a non-cover.
        let p = homo4(&vgg, 2);
        let cold = PartitionSolver::solve(&p).unwrap();
        for inc in [
            None,
            Some(vec![0..vgg.len()]),
            Some(vec![0..1, 0..1, 1..2, 2..vgg.len()]),
        ] {
            let warm = PartitionSolver::solve_warm(&p, inc.as_deref()).unwrap();
            assert_eq!(warm.ranges, cold.ranges);
        }
    }

    #[test]
    fn greedy_matches_dp_without_memory_pressure() {
        let g = vgg19(32);
        let p = homo4(&g, 1);
        let dp = PartitionSolver::solve(&p).unwrap();
        let greedy = PartitionSolver::solve_greedy(&p).unwrap();
        // Greedy is not always optimal but must be within a few percent
        // here and never better than the exact optimum.
        assert!(greedy.bottleneck_secs >= dp.bottleneck_secs - 1e-12);
        assert!(greedy.bottleneck_secs <= dp.bottleneck_secs * 1.10);
    }

    #[test]
    fn single_stage_takes_everything() {
        let g = vgg19(32);
        let p = PartitionProblem::new(&g, vec![GpuKind::TitanRtx.spec()], vec![], 1);
        let plan = PartitionSolver::solve(&p).unwrap();
        assert_eq!(plan.ranges, vec![0..g.len()]);
        assert_eq!(plan.stage_secs.len(), 1);
    }

    #[test]
    fn plan_stage_times_consistent() {
        let g = resnet152(32);
        let p = homo4(&g, 4);
        let plan = PartitionSolver::solve(&p).unwrap();
        let model = StageCostModel::new(&p);
        for (s, r) in plan.ranges.iter().enumerate() {
            assert!((plan.stage_secs[s] - model.stage_secs(s, r.clone())).abs() < 1e-12);
        }
        assert!(
            (plan.bottleneck_secs - plan.stage_secs.iter().cloned().fold(0.0, f64::max)).abs()
                < 1e-15
        );
    }
}
