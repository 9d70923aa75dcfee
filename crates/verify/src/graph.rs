//! Stream-graph verification: deadlock proofs and structural
//! occupancy bounds, computed from a schedule's committed queues
//! without executing the DES.
//!
//! # The dependency DAG
//!
//! [`hetpipe_schedule::committed_queues`] reifies what a schedule
//! statically commits each execution unit to: per-stage op queues
//! (flat and depth-expanded schedules) or per-GPU composite queues,
//! truncated to a dependency-closed horizon of `max_mb` minibatches.
//! This module turns those queues into an explicit dependency graph:
//!
//! - **program-order edges** — consecutive ops of an *ordered* queue
//!   (the executor commits to that total order); for arrival-FIFO
//!   queues only the per-kind subsequences (forwards in minibatch
//!   order, backwards in minibatch order, ...) are committed, so only
//!   those chains become edges — the verifier never assumes more
//!   order than the executor enforces.
//! - **data edges** — `Fwd(s−1, mb) → Fwd(s, mb)` (boundary
//!   activations), `Bwd(s+1, mb) → Bwd(s, mb)` (boundary gradients),
//!   `Fwd(s, mb) → Bwd(s, mb)` (the stash), and
//!   `Fwd(s, mb) → Rec(s, mb) → Bwd(s, mb)` under recomputation.
//! - **WSP edges** — `Bwd(0, last_of_wave(w)) → Push(w)` (a wave's
//!   update is pushed after its last backward on stage 0) and, across
//!   *all* mirrored virtual workers, `Push_u(w) → Gate_v(w)`: a pull
//!   gate opens only once every worker has pushed the wave, which is
//!   exactly the cross-worker coupling that could deadlock a bad
//!   schedule. The gate then precedes the first forward that requires
//!   the wave (`Gate_v(w) → Fwd_v(0, first_of_wave(w) + s_global + 1)`).
//!
//! A topological sort (Kahn) of this graph is a machine-checked
//! deadlock-freedom proof for the configuration: every op in the
//! horizon can execute in some dependency-respecting order. PR 3
//! argued this "by construction"; [`verify_deadlock_free`] replaces
//! that argument with a checked certificate per config, and
//! [`verify_queues`] exposes the raw layer so tests can feed it
//! deliberately cyclic queue sets and watch the cycle get named.
//!
//! Finite horizon, infinite schedule: the proof covers minibatches
//! `1..=max_mb` directly. Generalization to the infinite stream is by
//! wave-shift induction — after warmup, every stream is periodic in
//! waves (for some period `p`, wave `w+p`'s ops are wave `w`'s shifted
//! by `p·Nm` minibatches), so a deadlock-free steady-state period
//! implies deadlock-freedom forever. [`DagProof::wave_period`] reports
//! the minimal such period found on the horizon's tail.
//!
//! # Structural occupancy
//!
//! [`structural_occupancy`] computes, per stage and per GPU, the peak
//! activation occupancy *implied by the committed op order alone*: a
//! prefix walk of each ordered queue (+1 per pipeline forward, −1 per
//! backward) whose peak is exact — the executor performs exactly that
//! delta sequence. Arrival-FIFO queues commit no interleaving, so the
//! structural bound is the declared window itself (the executor's gate
//! is the only thing bounding them — and PR 2 showed the window is
//! genuinely reachable under timing skew). Depth-expanded schedules
//! get conservative per-GPU sums of their co-located stage peaks. The
//! result is the middle of the `measured ≤ structural ≤ declared`
//! chain of [`hetpipe_des::OccupancyBound`], plus over-reservation
//! lints where `declared > 2 × structural`.

use hetpipe_des::{BoundEntity, OccupancyBound};
use hetpipe_schedule::{
    committed_queues, CommittedQueue, Dispatch, PipelineSchedule, RecomputePolicy, Schedule,
    ScheduleOp, WspParams,
};
use std::collections::HashMap;

/// Node identity inside the dependency graph. Public since PR 8: the
/// VW-isolation pass judges every edge against its endpoints' declared
/// footprints, so node identity is part of the verifier's vocabulary,
/// not an implementation detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepNode {
    /// Forward of minibatch `mb` at `stage`.
    Fwd {
        /// Virtual worker.
        vw: usize,
        /// Virtual stage.
        stage: usize,
        /// Minibatch (1-indexed).
        mb: u64,
    },
    /// Backward of minibatch `mb` at `stage`.
    Bwd {
        /// Virtual worker.
        vw: usize,
        /// Virtual stage.
        stage: usize,
        /// Minibatch (1-indexed).
        mb: u64,
    },
    /// Fused forward+backward (the wave schedule's last stage): one
    /// node acting as both the forward and the backward of its
    /// minibatch — dependency lookups resolve either role to it, and
    /// its footprint is the union of the two.
    Fused {
        /// Virtual worker.
        vw: usize,
        /// Virtual stage.
        stage: usize,
        /// Minibatch (1-indexed).
        mb: u64,
    },
    /// Recompute of minibatch `mb`'s activations at `stage`.
    Rec {
        /// Virtual worker.
        vw: usize,
        /// Virtual stage.
        stage: usize,
        /// Minibatch (1-indexed).
        mb: u64,
    },
    /// Push of wave `wave`'s aggregated update to the parameter server.
    Push {
        /// Virtual worker.
        vw: usize,
        /// WSP wave.
        wave: u64,
    },
    /// Pull gate waiting for every worker's push of wave `wave`.
    Gate {
        /// Virtual worker.
        vw: usize,
        /// WSP wave.
        wave: u64,
    },
}

impl DepNode {
    /// The virtual worker the op belongs to.
    pub fn vw(&self) -> usize {
        match *self {
            DepNode::Fwd { vw, .. }
            | DepNode::Bwd { vw, .. }
            | DepNode::Fused { vw, .. }
            | DepNode::Rec { vw, .. }
            | DepNode::Push { vw, .. }
            | DepNode::Gate { vw, .. } => vw,
        }
    }
}

/// Why an edge exists — which commitment of the schedule it encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Committed execution order of one queue (total order for
    /// ordered queues, per-kind subsequences for arrival-FIFO).
    Program,
    /// Dataflow within one virtual worker: boundary activations /
    /// gradients, the stash, recompute.
    Data,
    /// WSP coupling: backward→push, push→gate (the only cross-VW
    /// edges), gate→first-gated-forward.
    Wsp,
}

/// One dependency edge, by node index into [`DepGraphData::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source node index.
    pub from: usize,
    /// Target node index.
    pub to: usize,
    /// The commitment the edge encodes.
    pub kind: EdgeKind,
}

/// The dependency graph as data: what [`verify_queues`] proves acyclic,
/// exposed for the isolation pass to judge edge by edge.
#[derive(Debug, Clone)]
pub struct DepGraphData {
    /// Node identities, indexed by the edge endpoints.
    pub nodes: Vec<DepNode>,
    /// Human-readable node labels (counterexample rendering).
    pub labels: Vec<String>,
    /// Every dependency edge, tagged with its kind.
    pub edges: Vec<DepEdge>,
}

struct Graph {
    labels: Vec<String>,
    keys: Vec<DepNode>,
    succs: Vec<Vec<usize>>,
    edge_list: Vec<DepEdge>,
    index: HashMap<DepNode, usize>,
}

impl Graph {
    fn new() -> Graph {
        Graph {
            labels: Vec::new(),
            keys: Vec::new(),
            succs: Vec::new(),
            edge_list: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn add_node(&mut self, label: String, key: DepNode) -> usize {
        self.labels.push(label);
        self.keys.push(key);
        self.succs.push(Vec::new());
        self.labels.len() - 1
    }

    fn add_edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        if from != to && !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.edge_list.push(DepEdge { from, to, kind });
        }
    }

    fn edge_by_key(&mut self, from: DepNode, to: usize, kind: EdgeKind) {
        if let Some(&f) = self.index.get(&from) {
            self.add_edge(f, to, kind);
        }
    }
}

/// A machine-checked deadlock-freedom certificate for one
/// configuration.
#[derive(Debug, Clone)]
pub struct DagProof {
    /// Ops in the graph (all virtual workers).
    pub nodes: usize,
    /// Dependency edges checked.
    pub edges: usize,
    /// Horizon: minibatches `1..=minibatches` covered per stage.
    pub minibatches: u64,
    /// Mirrored virtual workers coupled through push/gate edges.
    pub vws: usize,
    /// The minimal wave period `p` such that the horizon's steady-state
    /// tail repeats under the `mb → mb + p·Nm` shift — the induction
    /// witness extending the finite proof to the infinite stream.
    /// `1` for every flat schedule; composite timetables advance in
    /// chunk groups of `k_gpus` minibatches, so their period is
    /// `lcm(Nm, k_gpus) / Nm` when `Nm` is not a multiple of the GPU
    /// count. `None` when no period fits within the horizon (a proof
    /// gap, not a deadlock — callers treat it as a violation).
    pub wave_period: Option<u64>,
}

/// A dependency cycle: the named ops, in order, each depending on the
/// next (a genuine deadlock in the committed structure).
#[derive(Debug, Clone)]
pub struct CycleError {
    /// Node labels along the cycle.
    pub cycle: Vec<String>,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dependency cycle (deadlock): ")?;
        for label in &self.cycle {
            write!(f, "{label} → ")?;
        }
        if let Some(first) = self.cycle.first() {
            write!(f, "{first}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CycleError {}

fn op_label(vw: usize, stage: usize, op: &ScheduleOp) -> String {
    match *op {
        ScheduleOp::Forward { mb } => format!("vw{vw} s{stage} fwd mb{mb}"),
        ScheduleOp::Backward { mb } => format!("vw{vw} s{stage} bwd mb{mb}"),
        ScheduleOp::FusedFwdBwd { mb } => format!("vw{vw} s{stage} fused mb{mb}"),
        ScheduleOp::Recompute { mb } => format!("vw{vw} s{stage} rec mb{mb}"),
        ScheduleOp::Push { wave } => format!("vw{vw} push w{wave}"),
        ScheduleOp::PullGate { wave } => format!("vw{vw} gate w{wave}"),
    }
}

/// The two-pass graph construction shared by [`verify_queues`] (which
/// then proves it acyclic) and [`dependency_graph`] (which exposes it
/// as data for the isolation pass).
fn build_graph(queue_sets: &[Vec<CommittedQueue>], k: usize, wsp: WspParams) -> Graph {
    let vws = queue_sets.len();
    let mut g = Graph::new();

    // Pass 1: nodes and program-order edges.
    for (vw, queues) in queue_sets.iter().enumerate() {
        for queue in queues {
            let mut prev: Option<usize> = None;
            // Per-kind chain tails for unordered queues, keyed by
            // (stage, kind-discriminant).
            let mut kind_tail: HashMap<(usize, u8), usize> = HashMap::new();
            for gop in &queue.ops {
                let stage = gop.stage;
                let (key, kind) = match gop.op {
                    ScheduleOp::Forward { mb } => (DepNode::Fwd { vw, stage, mb }, 0u8),
                    ScheduleOp::Backward { mb } => (DepNode::Bwd { vw, stage, mb }, 1),
                    ScheduleOp::FusedFwdBwd { mb } => (DepNode::Fused { vw, stage, mb }, 2),
                    ScheduleOp::Recompute { mb } => (DepNode::Rec { vw, stage, mb }, 3),
                    ScheduleOp::Push { wave } => (DepNode::Push { vw, wave }, 4),
                    ScheduleOp::PullGate { wave } => (DepNode::Gate { vw, wave }, 5),
                };
                let idx = g.add_node(op_label(vw, stage, &gop.op), key);
                if let DepNode::Fused { vw, stage, mb } = key {
                    // A fused op is both the forward and the backward
                    // of its minibatch at this stage.
                    g.index.insert(DepNode::Fwd { vw, stage, mb }, idx);
                    g.index.insert(DepNode::Bwd { vw, stage, mb }, idx);
                } else {
                    g.index.insert(key, idx);
                }
                if queue.ordered {
                    if let Some(p) = prev {
                        g.add_edge(p, idx, EdgeKind::Program);
                    }
                    prev = Some(idx);
                } else if let Some(&tail) = kind_tail.get(&(stage, kind)) {
                    g.add_edge(tail, idx, EdgeKind::Program);
                    kind_tail.insert((stage, kind), idx);
                } else {
                    kind_tail.insert((stage, kind), idx);
                }
            }
        }
    }

    // Pass 2: data and WSP edges.
    let sg = wsp.s_global() as u64;
    for (vw, queues) in queue_sets.iter().enumerate() {
        for queue in queues {
            for gop in &queue.ops {
                let stage = gop.stage;
                match gop.op {
                    ScheduleOp::Forward { mb } | ScheduleOp::FusedFwdBwd { mb } => {
                        let idx = g.index[&DepNode::Fwd { vw, stage, mb }];
                        if stage > 0 {
                            g.edge_by_key(
                                DepNode::Fwd {
                                    vw,
                                    stage: stage - 1,
                                    mb,
                                },
                                idx,
                                EdgeKind::Data,
                            );
                        }
                        if gop.op.has_backward() && stage + 1 < k {
                            g.edge_by_key(
                                DepNode::Bwd {
                                    vw,
                                    stage: stage + 1,
                                    mb,
                                },
                                idx,
                                EdgeKind::Data,
                            );
                        }
                    }
                    ScheduleOp::Backward { mb } => {
                        let idx = g.index[&DepNode::Bwd { vw, stage, mb }];
                        g.edge_by_key(DepNode::Fwd { vw, stage, mb }, idx, EdgeKind::Data);
                        if stage + 1 < k {
                            g.edge_by_key(
                                DepNode::Bwd {
                                    vw,
                                    stage: stage + 1,
                                    mb,
                                },
                                idx,
                                EdgeKind::Data,
                            );
                        }
                        g.edge_by_key(DepNode::Rec { vw, stage, mb }, idx, EdgeKind::Data);
                    }
                    ScheduleOp::Recompute { mb } => {
                        let idx = g.index[&DepNode::Rec { vw, stage, mb }];
                        g.edge_by_key(DepNode::Fwd { vw, stage, mb }, idx, EdgeKind::Data);
                    }
                    ScheduleOp::Push { wave } => {
                        let idx = g.index[&DepNode::Push { vw, wave }];
                        g.edge_by_key(
                            DepNode::Bwd {
                                vw,
                                stage: 0,
                                mb: wsp.last_of_wave(wave),
                            },
                            idx,
                            EdgeKind::Wsp,
                        );
                    }
                    ScheduleOp::PullGate { wave } => {
                        let idx = g.index[&DepNode::Gate { vw, wave }];
                        // The cross-worker coupling: every worker's
                        // push of the wave precedes every worker's
                        // gate on it.
                        for u in 0..vws {
                            g.edge_by_key(DepNode::Push { vw: u, wave }, idx, EdgeKind::Wsp);
                        }
                        // The gate precedes the first forward that
                        // requires the wave (direction: gate → fwd).
                        let first_gated = wsp.first_of_wave(wave) + sg + 1;
                        if let Some(&fwd) = g.index.get(&DepNode::Fwd {
                            vw,
                            stage: 0,
                            mb: first_gated,
                        }) {
                            g.add_edge(idx, fwd, EdgeKind::Wsp);
                        }
                    }
                }
            }
        }
    }

    g
}

/// Builds the dependency graph of `vws` mirrored copies of
/// `queue_sets[vw]` and proves it acyclic. This is the raw layer under
/// [`verify_deadlock_free`]: it accepts hand-built queue sets, so
/// tests can feed it deliberately broken structures (a backward before
/// its forward, a gate whose push never happens before it, ...) and
/// assert the cycle is caught and named. Returns `(nodes, edges)` on
/// success.
pub fn verify_queues(
    queue_sets: &[Vec<CommittedQueue>],
    k: usize,
    wsp: WspParams,
) -> Result<(usize, usize), CycleError> {
    kahn(&build_graph(queue_sets, k, wsp))
}

/// Builds the same dependency graph [`verify_queues`] proves acyclic
/// and returns it *as data* — node identities, labels, and
/// kind-tagged edges — for analyses that judge the graph edge by edge
/// (the VW-isolation pass). Does not require acyclicity: cycle
/// detection stays the deadlock pass's job.
pub fn dependency_graph(
    queue_sets: &[Vec<CommittedQueue>],
    k: usize,
    wsp: WspParams,
) -> DepGraphData {
    let g = build_graph(queue_sets, k, wsp);
    DepGraphData {
        nodes: g.keys,
        labels: g.labels,
        edges: g.edge_list,
    }
}

/// Kahn's algorithm; on failure extracts and names one cycle.
fn kahn(g: &Graph) -> Result<(usize, usize), CycleError> {
    let n = g.labels.len();
    let mut indeg = vec![0usize; n];
    for succs in &g.succs {
        for &t in succs {
            indeg[t] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut done = 0usize;
    while let Some(i) = ready.pop() {
        done += 1;
        for &t in &g.succs[i] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                ready.push(t);
            }
        }
    }
    if done == n {
        return Ok((n, g.edge_list.len()));
    }
    // Nodes with indeg > 0 at this point sit on or behind a cycle.
    // Walk predecessors within the remaining set until a repeat.
    let remaining: Vec<bool> = indeg.iter().map(|&d| d > 0).collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, succs) in g.succs.iter().enumerate() {
        if !remaining[i] {
            continue;
        }
        for &t in succs {
            if remaining[t] {
                preds[t].push(i);
            }
        }
    }
    let start = remaining.iter().position(|&r| r).expect("cycle exists");
    let mut seen_at: HashMap<usize, usize> = HashMap::new();
    let mut walk = vec![start];
    let mut cur = start;
    loop {
        if let Some(&at) = seen_at.get(&cur) {
            let cycle: Vec<String> = walk[at..walk.len() - 1]
                .iter()
                .rev()
                .map(|&i| g.labels[i].clone())
                .collect();
            return Err(CycleError { cycle });
        }
        seen_at.insert(cur, walk.len() - 1);
        cur = *preds[cur]
            .first()
            .expect("every remaining node has a remaining predecessor");
        walk.push(cur);
    }
}

/// The minimal wave period of the horizon's steady-state tail: the
/// smallest `p` such that the per-queue compute-op patterns of the
/// last two complete waves equal those `p` waves earlier under the
/// `mb → mb + p·Nm` shift — the wave-shift induction witness.
fn wave_period(queues: &[CommittedQueue], wsp: WspParams, max_mb: u64) -> Option<u64> {
    let full_waves = max_mb / wsp.nm as u64;
    if full_waves < 3 {
        return None;
    }
    let pattern = |q: &CommittedQueue, w: u64| -> Vec<(usize, u8, u64)> {
        q.ops
            .iter()
            .filter_map(|g| {
                let mb = g.op.minibatch()?;
                if wsp.wave_of(mb) != w {
                    return None;
                }
                let kind = match g.op {
                    ScheduleOp::Forward { .. } => 0u8,
                    ScheduleOp::Backward { .. } => 1,
                    ScheduleOp::FusedFwdBwd { .. } => 2,
                    ScheduleOp::Recompute { .. } => 3,
                    _ => unreachable!("minibatch() filtered decorations"),
                };
                Some((g.stage, kind, mb - wsp.first_of_wave(w)))
            })
            .collect()
    };
    let last = full_waves - 1;
    (1..=full_waves - 2).find(|&period| {
        queues.iter().all(|q| {
            pattern(q, last) == pattern(q, last - period)
                && pattern(q, last - 1) == pattern(q, last - 1 - period)
        })
    })
}

/// Extracts `sched`'s committed queues on a `k_gpus`-GPU virtual
/// worker, mirrors them across `vws` WSP-coupled virtual workers, and
/// proves the resulting dependency graph acyclic — a machine-checked
/// deadlock-freedom certificate for the configuration over minibatches
/// `1..=max_mb`.
pub fn verify_deadlock_free(
    sched: Schedule,
    k_gpus: usize,
    wsp: WspParams,
    recompute: RecomputePolicy,
    max_mb: u64,
    vws: usize,
) -> Result<DagProof, CycleError> {
    let k = sched.virtual_stages(k_gpus);
    let queues = committed_queues(sched, k_gpus, wsp, recompute, max_mb);
    let period = wave_period(&queues, wsp, max_mb);
    let queue_sets: Vec<Vec<CommittedQueue>> = vec![queues; vws.max(1)];
    let (nodes, edges) = verify_queues(&queue_sets, k, wsp)?;
    Ok(DagProof {
        nodes,
        edges,
        minibatches: max_mb,
        vws: vws.max(1),
        wave_period: period,
    })
}

/// Structural occupancy bounds of one configuration (virtual worker 0).
#[derive(Debug, Clone)]
pub struct OccupancyReport {
    /// Per-stage and per-GPU triples with `structural` filled in.
    pub bounds: Vec<OccupancyBound>,
    /// True when the stage bounds are exact prefix-walk peaks of a
    /// committed total order (stream-order / composite dispatch);
    /// false for arrival-FIFO, where the declared window is the only
    /// structural bound (and is reachable, so `structural = declared`).
    pub exact: bool,
    /// Over-reservation lints: entities whose declared bound is loose
    /// by more than 2× against the structural peak.
    pub lints: Vec<String>,
}

/// Peak of the occupancy prefix walk over `ops` restricted by
/// `counts`: +1 per pipeline forward, −1 per backward (a fused op
/// transiently holds 1).
fn walk_peak<'a>(
    ops: impl Iterator<Item = &'a hetpipe_schedule::GpuOp>,
    counts: impl Fn(usize) -> bool,
) -> i64 {
    let mut occ = 0i64;
    let mut peak = 0i64;
    for gop in ops {
        if !counts(gop.stage) {
            continue;
        }
        if gop.op.has_forward() {
            occ += 1;
            peak = peak.max(occ);
        }
        if gop.op.has_backward() {
            occ -= 1;
        }
    }
    peak
}

/// Computes the structural occupancy bounds of `sched` per stage and
/// per GPU over minibatches `1..=max_mb`, paired with the declared
/// contract, plus over-reservation lints. See the module docs for
/// what "structural" means per dispatch discipline.
pub fn structural_occupancy(
    sched: Schedule,
    k_gpus: usize,
    wsp: WspParams,
    recompute: RecomputePolicy,
    max_mb: u64,
) -> OccupancyReport {
    let k = sched.virtual_stages(k_gpus);
    let declared: Vec<i64> = (0..k)
        .map(|s| sched.max_in_flight(s, k, wsp.nm) as i64)
        .collect();
    let queues = committed_queues(sched, k_gpus, wsp, recompute, max_mb);
    let exact = sched.dispatch() != Dispatch::ArrivalFifo;

    let stage_peak: Vec<i64> = match sched.dispatch() {
        // Arrival-FIFO commits no interleaving: the executor's
        // declared window is the structural bound, and PR 2 showed it
        // is reachable under timing skew — so structural = declared.
        Dispatch::ArrivalFifo => declared.clone(),
        // The per-stage delta sequence is fully committed: the walk
        // peak is exact.
        Dispatch::StreamOrder | Dispatch::GpuStreamOrder => (0..k)
            .map(|s| {
                queues
                    .iter()
                    .map(|q| walk_peak(q.ops.iter(), |stage| stage == s))
                    .max()
                    .unwrap_or(0)
            })
            .collect(),
    };

    let mut bounds: Vec<OccupancyBound> = (0..k)
        .map(|stage| OccupancyBound {
            entity: BoundEntity::Stage { vw: 0, stage },
            measured: None,
            structural: Some(stage_peak[stage]),
            declared: declared[stage],
        })
        .collect();

    for gpu in 0..k_gpus {
        let colocated: Vec<usize> = (0..k).filter(|s| s % k_gpus == gpu).collect();
        let gpu_declared: i64 = colocated.iter().map(|&s| declared[s]).sum();
        let gpu_structural = match sched.dispatch() {
            Dispatch::ArrivalFifo => gpu_declared,
            // The composite queue commits the joint interleaving of
            // co-located stages, so the joint walk is exact.
            Dispatch::GpuStreamOrder => queues
                .iter()
                .map(|q| walk_peak(q.ops.iter(), |stage| stage % k_gpus == gpu))
                .max()
                .unwrap_or(0),
            // Depth-expanded stream-order: co-located stage streams
            // merge in arrival order, so the sum of stage peaks is the
            // (conservative) structural bound.
            Dispatch::StreamOrder => colocated.iter().map(|&s| stage_peak[s]).sum(),
        };
        bounds.push(OccupancyBound {
            entity: BoundEntity::Gpu { vw: 0, gpu },
            measured: None,
            structural: Some(gpu_structural),
            declared: gpu_declared,
        });
    }

    let lints = bounds
        .iter()
        .filter(|b| b.over_reserved(2))
        .map(|b| format!("over-reserved (>2x): {b}"))
        .collect();
    OccupancyReport {
        bounds,
        exact,
        lints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_des::check_bounds;
    use hetpipe_schedule::{GpuOp, QueueKind};

    #[test]
    fn every_schedule_is_deadlock_free() {
        for sched in Schedule::ALL {
            for k_gpus in [2usize, 4] {
                for d in [0usize, 1] {
                    let wsp = WspParams::new(4, d);
                    for recompute in RecomputePolicy::ALL {
                        let proof = verify_deadlock_free(sched, k_gpus, wsp, recompute, 24, 2)
                            .unwrap_or_else(|c| {
                                panic!(
                                    "{} (k_gpus={k_gpus}, d={d}, {recompute}): {c}",
                                    sched.name()
                                )
                            });
                        assert!(proof.nodes > 0);
                        assert!(proof.edges >= proof.nodes - 1);
                        assert_eq!(proof.vws, 2);
                        assert_eq!(
                            proof.wave_period,
                            Some(1),
                            "{}: steady state at Nm-divisible depths is 1-wave periodic",
                            sched.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn composite_period_is_chunk_group_cadence() {
        // Nm = 4 on 3 GPUs: the composite timetable advances in chunk
        // groups of 3 minibatches, so the steady state repeats every
        // lcm(4, 3) / 4 = 3 waves — the witness must find it.
        let sched = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        let wsp = WspParams::new(4, 0);
        let proof = verify_deadlock_free(sched, 3, wsp, RecomputePolicy::None, 48, 2).unwrap();
        assert_eq!(proof.wave_period, Some(3));
    }

    #[test]
    fn reversed_data_edge_is_a_named_cycle() {
        // A hand-built broken queue: stage 0 runs mb 1's backward
        // *before* its forward in a committed total order. The
        // program-order edge bwd→fwd plus the data edge fwd→bwd form
        // a 2-cycle.
        let wsp = WspParams::new(2, 0);
        let broken = vec![vec![CommittedQueue {
            kind: QueueKind::Stage(0),
            ordered: true,
            ops: vec![
                GpuOp {
                    stage: 0,
                    op: ScheduleOp::Backward { mb: 1 },
                },
                GpuOp {
                    stage: 0,
                    op: ScheduleOp::Forward { mb: 1 },
                },
            ],
        }]];
        let err = verify_queues(&broken, 1, wsp).unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("deadlock"), "{rendered}");
        assert!(rendered.contains("bwd mb1"), "{rendered}");
        assert!(rendered.contains("fwd mb1"), "{rendered}");
    }

    #[test]
    fn cross_worker_gate_before_push_deadlocks() {
        // Worker 0 gates on wave 0 *before* emitting any backward of
        // the wave (so its own push can never happen), while worker
        // 1's push depends on nothing — one worker alone is fine, but
        // a gate preceding the local wave completion in a committed
        // order is a deadlock when the gated forward is needed for
        // the wave's own backward... build the minimal cyclic shape:
        // gate(w0) → fwd(1) → bwd(1) → push(w0) → gate(w0).
        let wsp = WspParams::new(1, 0);
        // nm=1: wave 0 = mb 1, s_global = 0, first gated fwd for wave
        // 0 is mb 2. Gate wave 0 placed before fwd mb 2; push of wave
        // 0 requires bwd mb 1 — make bwd mb 1 come *after* fwd mb 2
        // in the committed order, closing the cycle through the gate.
        let broken = vec![vec![CommittedQueue {
            kind: QueueKind::Stage(0),
            ordered: true,
            ops: vec![
                GpuOp {
                    stage: 0,
                    op: ScheduleOp::Forward { mb: 1 },
                },
                GpuOp {
                    stage: 0,
                    op: ScheduleOp::PullGate { wave: 0 },
                },
                GpuOp {
                    stage: 0,
                    op: ScheduleOp::Forward { mb: 2 },
                },
                GpuOp {
                    stage: 0,
                    op: ScheduleOp::Backward { mb: 1 },
                },
                GpuOp {
                    stage: 0,
                    op: ScheduleOp::Push { wave: 0 },
                },
                GpuOp {
                    stage: 0,
                    op: ScheduleOp::Backward { mb: 2 },
                },
            ],
        }]];
        let err = verify_queues(&broken, 1, wsp).unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("gate w0"), "{rendered}");
        assert!(rendered.contains("push w0"), "{rendered}");
    }

    #[test]
    fn structural_bounds_are_sound_for_all_schedules() {
        for sched in Schedule::ALL {
            for k_gpus in [2usize, 4] {
                let wsp = WspParams::new(4, 0);
                for recompute in RecomputePolicy::ALL {
                    let report = structural_occupancy(sched, k_gpus, wsp, recompute, 24);
                    check_bounds(&report.bounds)
                        .unwrap_or_else(|v| panic!("{} (k_gpus={k_gpus}): {v:?}", sched.name()));
                }
            }
        }
    }

    #[test]
    fn structural_peaks_match_known_schedule_shapes() {
        let wsp = WspParams::new(4, 0);
        // Fill-drain: every stage fills to Nm.
        let r = structural_occupancy(Schedule::FillDrain, 4, wsp, RecomputePolicy::None, 24);
        for s in 0..4 {
            assert_eq!(r.bounds[s].structural, Some(4), "fill-drain stage {s}");
            assert_eq!(r.bounds[s].declared, 4);
        }
        assert!(r.exact);
        assert!(r.lints.is_empty());
        // 1F1B: stage s peaks at min(Nm, k−s) — exactly the declared
        // window, so no slack anywhere.
        let r = structural_occupancy(Schedule::OneFOneB, 4, wsp, RecomputePolicy::None, 24);
        for s in 0..4 {
            assert_eq!(
                r.bounds[s].structural,
                Some((4 - s) as i64),
                "1f1b stage {s}"
            );
            assert_eq!(r.bounds[s].declared, (4 - s) as i64);
        }
        // Wave schedule: arrival-FIFO, structural = declared = Nm
        // (fused last stage: 1).
        let r = structural_occupancy(Schedule::HetPipeWave, 4, wsp, RecomputePolicy::None, 24);
        assert!(!r.exact);
        for s in 0..3 {
            assert_eq!(r.bounds[s].structural, Some(4));
        }
        assert_eq!(r.bounds[3].structural, Some(1));
    }

    #[test]
    fn composite_gpu_walk_is_jointly_exact() {
        let wsp = WspParams::new(4, 0);
        let sched = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        let r = structural_occupancy(sched, 4, wsp, RecomputePolicy::None, 24);
        let k = sched.virtual_stages(4);
        // Per-GPU joint peaks never exceed the summed declared bound…
        check_bounds(&r.bounds).unwrap();
        // …and the GPU entities exist with structural values from the
        // joint walk (≤ sum of their stage peaks).
        for gpu in 0..4 {
            let b = r
                .bounds
                .iter()
                .find(|b| b.entity == BoundEntity::Gpu { vw: 0, gpu })
                .unwrap();
            let stage_sum: i64 = (0..k)
                .filter(|s| s % 4 == gpu)
                .map(|s| {
                    r.bounds
                        .iter()
                        .find(|b| b.entity == BoundEntity::Stage { vw: 0, stage: s })
                        .unwrap()
                        .structural
                        .unwrap()
                })
                .sum();
            assert!(b.structural.unwrap() <= stage_sum, "gpu {gpu}");
        }
    }
}
