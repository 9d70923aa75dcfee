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
//! prefix-sum range queries whose per-start rows are looked up once,
//! a frontier prune drops range ends past the first one whose memory
//! budget is exceeded (infeasibility is monotone in the range end),
//! and the last stage, whose only read cell ends at layer `L`, probes
//! that one end per start. An incumbent bound drops most of what is
//! left: a greedy plan built from the same probes bounds the optimum,
//! and the DP skips every start, range end and candidate that provably
//! exceeds its bottleneck, so on the plan-sweep matrix about one cell
//! in seven remains and every plan stays the same to the bit.
//! [`PartitionSolver::solve_reference`]
//! preserves the naive re-summing DP as the parity oracle and timing
//! baseline.
//!
//! Co-located interleaved chunks run two DPs: a relaxed `Alone` pass
//! whose plan must then pass the exact joint per-GPU check, and the
//! equal-split `PerStage` pass as the fallback. [`NmSweep`] walks one
//! instance over `Nm = 1, 2, …` and skips each mode's DP whenever that
//! mode's previous optimum provably still is its optimum, on flat and
//! interleaved schedules alike. The joint check still runs at each
//! `Nm` before an `Alone` plan is returned. Its walk up to the first
//! infeasible `Nm` ([`NmSweep::feasible_prefix`]) is the one `Max_m`
//! search: [`max_feasible_nm_with`] returns its end, and the system
//! builder plans from the whole prefix.

use crate::cost::{LayerTable, PartitionProblem, StageCostModel, StageRows, StartProbe};
use std::borrow::Cow;
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

impl MemMode {
    /// This mode's memory check of `probe`'s range ending at `end`.
    #[inline]
    fn fits(self, probe: &StartProbe<'_>, end: usize) -> bool {
        match self {
            MemMode::PerStage => probe.fits(end),
            MemMode::Alone => probe.fits_alone(end),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// This thread's DP runs as (`Alone`, `PerStage`) — test
    /// instrumentation only: tests run in parallel, so each reads its
    /// own thread's counts.
    static DP_RUNS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    /// This thread's DP cells: the `(start, end)` pairs whose stage
    /// time a DP computed. Test instrumentation, like `DP_RUNS`.
    static DP_CELLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
        // One cost model serves both DPs and the joint check.
        let model = StageCostModel::new(problem);
        if problem.schedule.colocated_stages() > 1 {
            // Interleaved chunks share a physical GPU. The per-stage DP
            // cannot see a GPU's whole chunk set, so run it with the
            // relaxed fits-alone probe and certify the reconstructed
            // plan with the exact joint per-GPU check — this admits
            // uneven chunk shares (a big chunk paired with a small one)
            // that the equal-split budget rejects. When the relaxed
            // optimum happens not to fit jointly, fall back to the
            // conservative equal-split certification.
            if let Ok(plan) = Self::solve_with_mode(&model, MemMode::Alone) {
                if model.plan_fits_per_gpu(&plan.ranges) {
                    return Ok(plan);
                }
            }
        }
        Self::solve_with_mode(&model, MemMode::PerStage)
    }

    /// One memory mode's optimum: the min–max DP bounded by the
    /// bottleneck of a greedy plan ([`Self::incumbent`]).
    fn solve_with_mode(
        model: &StageCostModel<'_>,
        mode: MemMode,
    ) -> Result<PartitionPlan, PartitionError> {
        Self::min_max_dp(model, mode, Self::incumbent(model, mode))
    }

    /// The bottleneck of one feasible plan under `mode`, or +∞ when the
    /// greedy finds none — the bound [`Self::min_max_dp`] prunes by.
    ///
    /// A pack under a cap `T` works left to right: each stage but the
    /// last takes the longest range that passes the mode's memory
    /// check, has a stage time ≤ `T` and leaves a layer for each later
    /// stage; the last stage takes the rest. The first pack has
    /// `T = +∞`, then `T` is bisected between 0 and the best bottleneck
    /// found so far. A pack reads only the DP's own probes (the mode's
    /// fit check and [`StartProbe::stage_secs`]), so its plan is one
    /// the DP could choose and the DP's optimum is at most the result,
    /// bit for bit. When no pack fits, the DP runs unpruned, so an
    /// infeasible instance returns the same error as before.
    fn incumbent(model: &StageCostModel<'_>, mode: MemMode) -> f64 {
        const BISECTIONS: usize = 5;
        let k = model.problem().stages();
        let n = model.problem().graph.len();
        if k > n {
            return f64::INFINITY;
        }
        let pack = |cap: f64| -> Option<f64> {
            let mut start = 0;
            let mut worst = 0.0_f64;
            for j in 0..k - 1 {
                let probe = model.probes_from(j, start);
                let mut take = None;
                for end in start + 1..=n - (k - 1 - j) {
                    if !mode.fits(&probe, end) || probe.floor_secs(end) > cap {
                        break;
                    }
                    let secs = probe.stage_secs(end);
                    if secs <= cap {
                        take = Some((end, secs));
                    }
                }
                let (end, secs) = take?;
                worst = worst.max(secs);
                start = end;
            }
            let probe = model.probes_from(k - 1, start);
            mode.fits(&probe, n).then(|| worst.max(probe.stage_secs(n)))
        };
        let Some(mut best) = pack(f64::INFINITY) else {
            return f64::INFINITY;
        };
        let mut lo = 0.0;
        for _ in 0..BISECTIONS {
            let cap = 0.5 * (lo + best);
            match pack(cap) {
                Some(b) if b <= cap => best = b,
                other => {
                    // The last stage overran the cap, or no pack fit.
                    best = other.map_or(best, |b| best.min(b));
                    lo = cap;
                }
            }
        }
        best
    }

    /// The min–max interval DP, pruned by `bound`: the bottleneck of a
    /// feasible plan, or +∞ for the unpruned DP.
    ///
    /// With a finite bound it skips three kinds of work, all by strict
    /// tests (`> bound`), so a candidate tied at the bound survives:
    /// a start whose prefix bottleneck `best[j−1][s]` exceeds the
    /// bound (such cells are never written, so they stay +∞); the rest
    /// of a start's walk once [`StartProbe::floor_secs`] exceeds the
    /// bound; and every candidate whose value exceeds it.
    ///
    /// **The floor.** It is the stage time without the outgoing
    /// gradient term. In `f64` it is ≤ the stage time because
    /// `out_comm ≥ 0`, so `in_comm + out_comm ≥ in_comm`, and every
    /// later step (`+ compute`, `+ 2·overhead`, the recompute term)
    /// is a rounded addition, which is monotone in each argument. It is
    /// nondecreasing in the range end because the prefix rows are
    /// running sums of nonnegative terms, hence nondecreasing, and the
    /// floor is built from a row entry by monotone steps only: a
    /// rounded subtraction of the start's fixed entry, then the same
    /// rounded additions. So
    /// once the floor exceeds the bound, every longer range from that
    /// start has a stage time above it.
    ///
    /// **The output is identical** whenever the bound is at least the
    /// optimum. By induction over stages, every cell whose unpruned
    /// value is ≤ the bound gets that value and the same `choice`,
    /// and every other cell stays +∞. A surviving candidate reads a
    /// finite, hence exact, prefix cell, so it is one of the unpruned
    /// DP's candidates with the same value. For a cell of value
    /// `v ≤ bound`, its first minimal start `s*` survives: its prefix
    /// cell is ≤ `v`, its stage time and therefore every floor up to
    /// this end are ≤ `v`, and its value is `v`. Starts before `s*`
    /// have values > `v` and starts after it ≥ `v`, so the
    /// strictly-less update in ascending start order keeps `s*`. The
    /// reconstruction reads `best[k−1][n]` (the optimum) and then
    /// only cells on the optimal chain, each ≤ the optimum. A bound
    /// below the optimum leaves `best[k−1][n]` at +∞ and returns
    /// [`PartitionError::OutOfMemory`].
    fn min_max_dp(
        model: &StageCostModel<'_>,
        mode: MemMode,
        bound: f64,
    ) -> Result<PartitionPlan, PartitionError> {
        let problem = model.problem();
        let k = problem.stages();
        let n = problem.graph.len();
        if k > n {
            return Err(PartitionError::TooManyStages {
                stages: k,
                layers: n,
            });
        }
        #[cfg(test)]
        DP_RUNS.with(|c| {
            let (alone, per_stage) = c.get();
            c.set(match mode {
                MemMode::Alone => (alone + 1, per_stage),
                MemMode::PerStage => (alone, per_stage + 1),
            });
        });
        #[cfg(test)]
        let count_cell = || DP_CELLS.with(|c| c.set(c.get() + 1));

        const INF: f64 = f64::INFINITY;
        // best[j][i]: minimal bottleneck splitting layers 0..i into the
        // first j+1 stages (stage j ends at i). choice[j][i]: the start
        // of stage j in that optimum.
        let mut best = vec![vec![INF; n + 1]; k];
        let mut choice = vec![vec![usize::MAX; n + 1]; k];

        let first = model.probes_from(0, 0);
        for i in 1..=n {
            // Stage 0 covers 0..i. Memory infeasibility is monotone in
            // the range end for a fixed start (params and stored bytes
            // only grow; the input buffer and per-stage multipliers are
            // fixed), so the first infeasible prefix ends the sweep, and
            // so does the first floor above the bound.
            if !mode.fits(&first, i) || first.floor_secs(i) > bound {
                break;
            }
            #[cfg(test)]
            count_cell();
            let secs = first.stage_secs(i);
            if secs <= bound {
                best[0][i] = secs;
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
            //
            // The reconstruction reads only best[k−1][n], so the last
            // stage probes the one end n from each start. That cell
            // gets the update the full walk would give it: by the same
            // monotonicity, s..n fits exactly when every s..i with
            // i ≤ n does, which is when the walk reaches n.
            let last = j + 1 == k;
            for s in j..n {
                // +∞ also when the prefix bottleneck exceeds the bound.
                let lo = best[j - 1][s];
                if lo.is_infinite() {
                    continue;
                }
                let probe = model.probes_from(j, s);
                for i in (if last { n } else { s + 1 })..=n {
                    if !mode.fits(&probe, i) || probe.floor_secs(i) > bound {
                        break;
                    }
                    #[cfg(test)]
                    count_cell();
                    let b = lo.max(probe.stage_secs(i));
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
        Ok(PartitionPlan::from_ranges(model, ranges))
    }

    /// Reference DP solver: semantically identical to [`Self::solve`],
    /// but every per-interval probe re-sums the layer slice (naive
    /// time and memory summation, no frontier prune or incumbent
    /// bound) — the
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
}

/// An incremental solver for `Nm` sweeps over one fixed
/// `(graph, gpus, links, schedule, recompute)` configuration: the
/// *same* partitioning instance at every `Nm` in a range. The system
/// builder sweeps each of its instances once with it and takes the
/// order scan's proxy, `Max_m`, the `Nm` choice and the final plans
/// from that one sweep, so every plan it runs comes from here.
///
/// The reuse step is **answer-preserving**, not heuristic, and runs
/// per memory mode on every schedule. The sweep keeps the last
/// optimum of each DP it runs: the `PerStage` DP (the only one a flat
/// schedule needs) and, for co-located interleaved chunks, the relaxed
/// `Alone` DP. Within one mode, stage times depend on `Nm` only
/// through the per-stage checkpoint flags
/// ([`hetpipe_schedule::PipelineSchedule::recomputes_at`]), and the
/// mode's memory check is monotone in `Nm`, so its feasible cut set
/// only shrinks as `Nm` grows. If a mode's optimum at a smaller `Nm`
/// still passes that mode's check at the next `Nm` (k O(1) probes)
/// and the checkpoint flags are unchanged, it is *the* optimum of
/// that mode's DP there — including the DP's deterministic
/// tie-breaking: any competitor that would tie it and precede it in
/// visit order at the larger `Nm` was also feasible (and would have
/// won) at the smaller one.
///
/// A co-located solve then takes the same two steps as
/// [`PartitionSolver::solve`]: it returns the `Alone` optimum when
/// that plan passes the exact joint per-GPU check at this `Nm`
/// ([`hetpipe_model::TrainingMemoryModel::plan_fits_per_gpu`],
/// re-run at every `Nm`, since a plan that fit jointly at a smaller
/// `Nm` may not fit now), and the `PerStage` optimum otherwise.
/// `tests/planner_parity.rs` holds every sweep cell against a fresh
/// [`PartitionSolver::solve`].
///
/// Every DP of the sweep reads its stages' time and comm rows from one
/// [`LayerTable`]: a one-off table of its own ([`NmSweep::new`]), or a
/// caller's table shared with other sweeps ([`NmSweep::with_table`]).
/// The rows are the same `f64`s either way.
#[derive(Debug, Clone)]
pub struct NmSweep<'a> {
    graph: &'a hetpipe_model::ModelGraph,
    gpus: Vec<hetpipe_cluster::gpu::GpuSpec>,
    links: Vec<hetpipe_cluster::network::LinkKind>,
    rows: StageRows,
    schedule: hetpipe_schedule::Schedule,
    recompute: hetpipe_schedule::RecomputePolicy,
    /// The `Alone` DP's last `(nm, plan, per-stage checkpoint flags)`.
    alone: Option<(usize, PartitionPlan, Vec<bool>)>,
    /// The `PerStage` DP's last `(nm, plan, per-stage checkpoint flags)`.
    per_stage: Option<(usize, PartitionPlan, Vec<bool>)>,
}

impl<'a> NmSweep<'a> {
    /// Creates a sweep over the fixed configuration, with a layer table
    /// of its own.
    pub fn new(
        graph: &'a hetpipe_model::ModelGraph,
        gpus: &[hetpipe_cluster::gpu::GpuSpec],
        links: &[hetpipe_cluster::network::LinkKind],
        schedule: hetpipe_schedule::Schedule,
        recompute: hetpipe_schedule::RecomputePolicy,
    ) -> Self {
        Self::with_table(
            &mut LayerTable::new(graph),
            gpus,
            links,
            schedule,
            recompute,
        )
    }

    /// Creates a sweep over the fixed configuration on `table`'s model
    /// that reads its rows from `table`, which builds the row pairs it
    /// lacks.
    pub fn with_table(
        table: &mut LayerTable<'a>,
        gpus: &[hetpipe_cluster::gpu::GpuSpec],
        links: &[hetpipe_cluster::network::LinkKind],
        schedule: hetpipe_schedule::Schedule,
        recompute: hetpipe_schedule::RecomputePolicy,
    ) -> Self {
        NmSweep {
            graph: table.graph(),
            gpus: gpus.to_vec(),
            links: links.to_vec(),
            rows: table.rows(gpus, links),
            schedule,
            recompute,
            alone: None,
            per_stage: None,
        }
    }

    /// Solves at `nm`, reusing each mode's previous optimum when the
    /// reuse conditions prove it optimal. Identical results to
    /// [`PartitionSolver::solve`] on the same problem; the reuse step
    /// only fires for `nm` at or above the cached solve's (callers
    /// sweep ascending).
    pub fn solve(&mut self, nm: usize) -> Result<PartitionPlan, PartitionError> {
        use hetpipe_schedule::PipelineSchedule;
        let k = self.gpus.len();
        let flags: Vec<bool> = (0..k)
            .map(|s| self.schedule.recomputes_at(s, k, nm, self.recompute))
            .collect();
        let colocated = self.schedule.colocated_stages();
        if colocated > 1 {
            if let Ok(plan) = self.solve_mode(MemMode::Alone, nm, &flags) {
                if hetpipe_model::TrainingMemoryModel::plan_fits_per_gpu(
                    self.graph,
                    &plan.ranges,
                    &self.gpus[..k / colocated],
                    nm,
                    self.schedule,
                    self.recompute,
                ) {
                    return Ok(plan);
                }
            }
        }
        self.solve_mode(MemMode::PerStage, nm, &flags)
    }

    /// The plans at `Nm = 1, 2, …` up to the first infeasible `Nm` or
    /// `limit`: entry `m − 1` is [`Self::solve`]'s plan at `Nm = m`, and
    /// the length is the instance's `Max_m` ([`max_feasible_nm_with`]).
    pub fn feasible_prefix(mut self, limit: usize) -> Vec<PartitionPlan> {
        (1..=limit).map_while(|nm| self.solve(nm).ok()).collect()
    }

    /// One mode's DP optimum at `nm`: the cached plan when it still
    /// passes the mode's per-stage check under unchanged flags, a
    /// fresh DP otherwise.
    fn solve_mode(
        &mut self,
        mode: MemMode,
        nm: usize,
        flags: &[bool],
    ) -> Result<PartitionPlan, PartitionError> {
        use hetpipe_model::TrainingMemoryModel;
        let k = self.gpus.len();
        let cached = match mode {
            MemMode::PerStage => &mut self.per_stage,
            MemMode::Alone => &mut self.alone,
        };
        if let Some((prev_nm, plan, prev_flags)) = cached {
            if *prev_nm <= nm && prev_flags.as_slice() == flags {
                // k O(1) probes via the unhoisted memory-model entry
                // points — the fast path builds no StageCostModel (its
                // O(k) terms and budgets are what the reuse step saves).
                let fits = match mode {
                    MemMode::PerStage => TrainingMemoryModel::stage_fits_with,
                    MemMode::Alone => TrainingMemoryModel::stage_fits_alone,
                };
                let still_fits = plan.ranges.iter().enumerate().all(|(s, r)| {
                    fits(
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
                    // Still feasible under the tighter constraint and
                    // the cost function is unchanged: the cached plan
                    // (values included — stage times only read the
                    // unchanged flags) is the fresh DP's exact output.
                    *prev_nm = nm;
                    return Ok(plan.clone());
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
        let model = StageCostModel::with_rows(&problem, Cow::Borrowed(&self.rows));
        let result = PartitionSolver::solve_with_mode(&model, mode);
        if let Ok(plan) = &result {
            *cached = Some((nm, plan.clone(), flags.to_vec()));
        }
        result
    }
}

/// The end of the feasible `Nm` prefix in `1..=limit` under `schedule`
/// and `recompute`, with its plan: the last `Nm` of the first run of
/// feasible `Nm = 1, 2, …` ([`NmSweep::feasible_prefix`]), or `None`
/// when even `Nm = 1` is infeasible.
///
/// This is the paper's `Max_m` (Section 4): the maximum number of
/// minibatches that can concurrently execute in the virtual worker,
/// bounded by GPU memory, and the `Max_m` `HetPipeSystem::build` uses.
/// On flat schedules memory is monotone in `Nm`, so the prefix end is
/// also the largest feasible `Nm` in `1..=limit`
/// (`tests/partition_props.rs` audits that monotonicity on a
/// memory-bound instance). On co-located interleaved
/// schedules an `Nm` passes only if its plan passes the joint per-GPU
/// check, which is not provably monotone in `Nm`, so a feasible `Nm`
/// past the first infeasible one is not counted. The schedule's
/// per-stage memory profile (in-flight activations, pinned weight
/// versions) shapes which `Nm` fit, and `BoundaryOnly` recomputation
/// shrinks the per-stage memory term, so it typically admits a larger
/// `Max_m` on memory-bound clusters (at the cost of one extra forward
/// per backward in the plan's stage times).
pub fn max_feasible_nm_with(
    graph: &hetpipe_model::ModelGraph,
    gpus: &[hetpipe_cluster::gpu::GpuSpec],
    links: &[hetpipe_cluster::network::LinkKind],
    limit: usize,
    schedule: hetpipe_schedule::Schedule,
    recompute: hetpipe_schedule::RecomputePolicy,
) -> Option<(usize, PartitionPlan)> {
    let mut prefix = NmSweep::new(graph, gpus, links, schedule, recompute).feasible_prefix(limit);
    let plan = prefix.pop()?;
    Some((prefix.len() + 1, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_cluster::{GpuKind, LinkKind};
    use hetpipe_model::{mlp, resnet152, resnet50, vgg19};

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
            PartitionSolver::solve_with_mode(&StageCostModel::new(&p), MemMode::PerStage),
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
        use hetpipe_schedule::{RecomputePolicy, Schedule};
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
        let p = PartitionProblem::new(&g, gpus, links, nm + 1);
        assert!(PartitionSolver::solve(&p).is_err());
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

    /// Sweeps `Nm = 1..=last` over `kinds` × 2 interleaved chunks,
    /// holds every cell bit for bit (ranges and `stage_secs` bits)
    /// against a cold [`PartitionSolver::solve`], and returns each
    /// `Nm`'s DP runs in the sweep as (`Alone`, `PerStage`).
    fn interleaved_sweep_dp_runs(
        graph: &hetpipe_model::ModelGraph,
        kinds: &[GpuKind],
        recompute: hetpipe_schedule::RecomputePolicy,
        last: usize,
    ) -> Vec<(u64, u64)> {
        use hetpipe_schedule::{PipelineSchedule, Schedule};
        let schedule = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        let k = schedule.virtual_stages(kinds.len());
        let gpus: Vec<_> = (0..k).map(|s| kinds[s % kinds.len()].spec()).collect();
        let links = vec![LinkKind::Pcie; k - 1];
        let mut sweep = NmSweep::new(graph, &gpus, &links, schedule, recompute);
        (1..=last)
            .map(|nm| {
                let before = DP_RUNS.with(|c| c.get());
                let swept = sweep.solve(nm).expect("feasible");
                let after = DP_RUNS.with(|c| c.get());
                let p = PartitionProblem::with_schedule(
                    graph,
                    gpus.clone(),
                    links.clone(),
                    nm,
                    schedule,
                )
                .with_recompute(recompute);
                let cold = PartitionSolver::solve(&p).expect("feasible");
                assert_eq!(swept.ranges, cold.ranges, "{} nm={nm}", graph.name);
                assert_eq!(
                    swept
                        .stage_secs
                        .iter()
                        .map(|s| s.to_bits())
                        .collect::<Vec<_>>(),
                    cold.stage_secs
                        .iter()
                        .map(|s| s.to_bits())
                        .collect::<Vec<_>>(),
                    "{} nm={nm}: stage times",
                    graph.name
                );
                (after.0 - before.0, after.1 - before.1)
            })
            .collect()
    }

    #[test]
    fn nm_sweep_reuses_the_alone_optimum_on_interleaved_schedules() {
        use hetpipe_schedule::RecomputePolicy;
        // VGG-19 on four RTX 2060s: the Alone optimum at Nm = 1 passes
        // the joint per-GPU check and still fits alone at Nm = 2 and 3,
        // so neither DP runs again.
        let runs =
            interleaved_sweep_dp_runs(&vgg19(32), &[GpuKind::Rtx2060; 4], RecomputePolicy::None, 3);
        assert_eq!(runs, [(1, 0), (0, 0), (0, 0)]);
    }

    #[test]
    fn nm_sweep_reuses_the_per_stage_fallback_on_interleaved_schedules() {
        use hetpipe_schedule::RecomputePolicy;
        // ResNet-152 on four Quadro P4000s. From Nm = 5 the reused
        // Alone optimum fails the joint check, so the PerStage DP runs
        // (twice: its Nm = 5 plan no longer fits at 6). At Nm = 7 the
        // Alone plan stops fitting and its DP re-runs, but its new
        // optimum fails the joint check too, and the PerStage plan of
        // Nm = 6 is reused. From Nm = 8 both modes reuse.
        let runs = interleaved_sweep_dp_runs(
            &resnet152(32),
            &[GpuKind::QuadroP4000; 4],
            RecomputePolicy::None,
            9,
        );
        assert_eq!(
            runs,
            [
                (1, 0),
                (0, 0),
                (0, 0),
                (0, 0),
                (0, 1),
                (0, 1),
                (1, 0),
                (0, 0),
                (0, 0)
            ]
        );
    }

    #[test]
    fn nm_sweep_flag_flip_forces_a_fresh_solve() {
        use hetpipe_model::TrainingMemoryModel;
        use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
        // Under BoundaryOnly no stage checkpoints at Nm = 1 (its
        // in-flight window is 1), and some do from Nm = 2 on. The
        // Nm = 1 plan still fits alone at Nm = 2, so only the flag flip
        // forces the fresh Alone DP there.
        let g = vgg19(32);
        let runs =
            interleaved_sweep_dp_runs(&g, &[GpuKind::Rtx2060; 4], RecomputePolicy::BoundaryOnly, 4);
        assert_eq!(runs, [(1, 0), (1, 0), (0, 0), (0, 0)]);

        let schedule = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        let k = schedule.virtual_stages(4);
        let gpu = GpuKind::Rtx2060.spec();
        let flags = |nm| {
            (0..k)
                .map(|s| schedule.recomputes_at(s, k, nm, RecomputePolicy::BoundaryOnly))
                .collect::<Vec<_>>()
        };
        assert_ne!(flags(1), flags(2));
        let p = PartitionProblem::with_schedule(
            &g,
            vec![gpu.clone(); k],
            vec![LinkKind::Pcie; k - 1],
            1,
            schedule,
        )
        .with_recompute(RecomputePolicy::BoundaryOnly);
        let plan = PartitionSolver::solve(&p).unwrap();
        assert!(plan.ranges.iter().enumerate().all(|(s, r)| {
            TrainingMemoryModel::stage_fits_alone(
                &g,
                r.clone(),
                s,
                k,
                2,
                &gpu,
                schedule,
                RecomputePolicy::BoundaryOnly,
            )
        }));
    }

    /// One splitmix64 step: the seeded source of the sweeps' choices.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Whether two DP results agree bit for bit: the same ranges,
    /// `stage_secs` bits and `bottleneck_secs` bits, or the same error.
    fn same_dp_result(
        a: &Result<PartitionPlan, PartitionError>,
        b: &Result<PartitionPlan, PartitionError>,
    ) -> bool {
        let bits = |p: &PartitionPlan| p.stage_secs.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (Ok(a), Ok(b)) => {
                a.ranges == b.ranges
                    && bits(a) == bits(b)
                    && a.bottleneck_secs.to_bits() == b.bottleneck_secs.to_bits()
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    /// Holds every `(stage, start, end)` floor of `model` to at most
    /// the stage time and nondecreasing in `end`, bit for bit, and
    /// returns the number of ranges checked.
    fn check_floors(model: &StageCostModel<'_>, at: &dyn Fn() -> String) -> u64 {
        let n = model.problem().graph.len();
        let mut checked = 0;
        for stage in 0..model.problem().stages() {
            for start in 0..n {
                let probe = model.probes_from(stage, start);
                let mut prev = f64::NEG_INFINITY;
                for end in start + 1..=n {
                    let floor = probe.floor_secs(end);
                    let secs = probe.stage_secs(end);
                    assert!(
                        floor <= secs,
                        "{}: stage {stage} {start}..{end} floor {floor:e} > {secs:e}",
                        at()
                    );
                    assert!(
                        floor >= prev,
                        "{}: stage {stage} {start}..{end} floor {floor:e} < {prev:e}",
                        at()
                    );
                    prev = floor;
                    checked += 1;
                }
            }
        }
        checked
    }

    /// The incumbent bound changes no DP output. A seeded sweep over
    /// VGG-19, ResNet-152, ResNet-50 and random MLPs × random lists of
    /// 1–8 GPUs from the four kinds × random PCIe / InfiniBand links
    /// × every schedule × both recompute policies × both memory modes
    /// × every `Nm` up to saturation holds the bounded DP
    /// ([`PartitionSolver::solve_with_mode`]) bit for bit to the
    /// unbounded one (a +∞ bound), errors included, and holds every
    /// floor the sweep's cost models can probe to its two laws. An
    /// incumbent one ulp below the optimum must leave the DP without a
    /// plan, and the parity check must catch it. Tier: dynamically
    /// audited.
    #[test]
    fn incumbent_bound_keeps_every_plan() {
        use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
        const CASES: usize = 32;
        let kinds = [
            GpuKind::TitanV,
            GpuKind::TitanRtx,
            GpuKind::QuadroP4000,
            GpuKind::Rtx2060,
        ];
        let cells = || DP_CELLS.with(|c| c.get());
        let (mut bounded_cells, mut unbounded_cells) = (0, 0);
        let (mut plans, mut too_many, mut out_of_memory, mut floors) = (0, 0, 0, 0);
        let mut rng = 0x4845_5450_4950_4521_u64;
        for case in 0..CASES {
            let mut pick = |m: u64| (splitmix(&mut rng) % m) as usize;
            let graph = match pick(4) {
                0 => vgg19(32),
                1 => resnet152(32),
                2 => resnet50(32),
                _ => {
                    let widths: Vec<usize> = (0..2 + pick(8)).map(|_| 8 + pick(248)).collect();
                    mlp(16, &widths)
                }
            };
            let physical = 1 + pick(8);
            let gpus: Vec<GpuKind> = (0..physical).map(|_| kinds[pick(4)]).collect();
            let links: Vec<LinkKind> = (0..2 * physical)
                .map(|_| [LinkKind::Pcie, LinkKind::Infiniband][pick(2)])
                .collect();
            for schedule in Schedule::ALL {
                let k = schedule.virtual_stages(physical);
                for recompute in RecomputePolicy::ALL {
                    for nm in 1..=hetpipe_model::memory::nm_saturation_limit(k) {
                        let p = PartitionProblem::with_schedule(
                            &graph,
                            (0..k).map(|s| gpus[s % physical].spec()).collect(),
                            links[..k - 1].to_vec(),
                            nm,
                            schedule,
                        )
                        .with_recompute(recompute);
                        let model = StageCostModel::new(&p);
                        let at = || {
                            format!(
                                "case {case} {} on {gpus:?} {schedule} {recompute} nm={nm}",
                                graph.name
                            )
                        };
                        floors += check_floors(&model, &at);
                        for mode in [MemMode::PerStage, MemMode::Alone] {
                            let before = cells();
                            let bounded = PartitionSolver::solve_with_mode(&model, mode);
                            let mid = cells();
                            let unbounded =
                                PartitionSolver::min_max_dp(&model, mode, f64::INFINITY);
                            bounded_cells += mid - before;
                            unbounded_cells += cells() - mid;
                            assert!(
                                same_dp_result(&bounded, &unbounded),
                                "{} {mode:?}: bounded {bounded:?} vs unbounded {unbounded:?}",
                                at()
                            );
                            let plan = match &unbounded {
                                Ok(plan) => plan,
                                Err(PartitionError::TooManyStages { .. }) => {
                                    too_many += 1;
                                    continue;
                                }
                                Err(PartitionError::OutOfMemory) => {
                                    out_of_memory += 1;
                                    continue;
                                }
                            };
                            plans += 1;
                            // Negative control: an incumbent one ulp
                            // below the optimum prunes the optimum.
                            let below = f64::from_bits(plan.bottleneck_secs.to_bits() - 1);
                            let control = PartitionSolver::min_max_dp(&model, mode, below);
                            assert_eq!(
                                control,
                                Err(PartitionError::OutOfMemory),
                                "{} {mode:?}: a bound below the optimum",
                                at()
                            );
                            assert!(!same_dp_result(&control, &unbounded), "{}", at());
                        }
                    }
                }
            }
        }
        eprintln!(
            "{plans} plans, {too_many} too many stages, {out_of_memory} out of memory, \
             {floors} floors; DP cells {bounded_cells} bounded, {unbounded_cells} unbounded"
        );
        assert!(
            plans > 1_000 && too_many > 100 && out_of_memory > 100,
            "{plans} plans, {too_many} too many stages, {out_of_memory} out of memory"
        );
        assert!(
            unbounded_cells >= 4 * bounded_cells,
            "the bound saves too little: {bounded_cells} of {unbounded_cells} cells"
        );
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
