//! Committed-queue extraction: a schedule's static execution
//! structure, reified for offline analysis.
//!
//! Every schedule ultimately commits each execution unit — a virtual
//! stage (flat and depth-expanded schedules) or a physical GPU
//! (composite schedules) — to a queue of ops. The executor consumes
//! those queues live; the static verifier (`hetpipe-verify`) instead
//! needs them *as data*, truncated to a finite horizon, so it can
//! build the dependency DAG, prove deadlock-freedom, and compute
//! structural occupancy bounds without running the DES. This module is
//! that extraction hook.
//!
//! The `ordered` flag records how strong the commitment is:
//! stream-order and composite schedules commit to the exact total
//! order of each queue, while arrival-FIFO schedules (the paper's
//! wave schedule) commit only to the per-kind subsequences — forwards
//! in minibatch order, backwards in minibatch order — and leave the
//! interleaving to dependency-arrival times. Analyses must not assume
//! more order than the executor enforces.

use crate::lane::{lanes, Lane};
use crate::ops::{Dispatch, GpuOp, ScheduleOp};
use crate::recompute::RecomputePolicy;
use crate::schedules::{PipelineSchedule, Schedule};
use crate::wsp::WspParams;

/// Which execution unit a committed queue belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// One executor (virtual) stage's stream.
    Stage(usize),
    /// One physical GPU's composite stream (co-located chunks merged
    /// in schedule order).
    Gpu(usize),
}

/// One statically committed execution queue: the finite op prefix one
/// execution unit will perform, covering a verification horizon.
#[derive(Debug, Clone)]
pub struct CommittedQueue {
    /// The execution unit.
    pub kind: QueueKind,
    /// True when the executor commits to this exact total order
    /// (stream-order / composite dispatch); false when only the
    /// per-kind subsequences are committed (arrival-FIFO dispatch).
    pub ordered: bool,
    /// The ops, each tagged with its executor stage.
    pub ops: Vec<GpuOp>,
}

/// True when `op` is retained within a horizon of `max_mb`
/// minibatches: compute ops of minibatches `1..=max_mb`, plus the wave
/// decorations whose wave completes within the horizon (so every
/// retained gate's matching push is also retained — the queue set is
/// dependency-closed).
fn retained(op: &ScheduleOp, wsp: WspParams, max_mb: u64) -> bool {
    match *op {
        ScheduleOp::Forward { mb }
        | ScheduleOp::Backward { mb }
        | ScheduleOp::FusedFwdBwd { mb }
        | ScheduleOp::Recompute { mb } => mb <= max_mb,
        ScheduleOp::Push { wave } | ScheduleOp::PullGate { wave } => {
            wsp.last_of_wave(wave) <= max_mb
        }
    }
}

/// Pulls ops from `next` until the horizon is fully covered: every
/// stage in `stages` has emitted the backward of minibatch `max_mb`,
/// and (when virtual stage 0 is among them) every push of a wave
/// completing within the horizon has appeared. Returns the retained
/// ops. `budget` bounds the pull so a malformed stream cannot hang the
/// caller; the streams' own invariants keep real schedules far below
/// it.
fn pull_horizon(
    mut next: impl FnMut() -> GpuOp,
    stages: &[usize],
    wsp: WspParams,
    max_mb: u64,
    budget: usize,
) -> Vec<GpuOp> {
    let full_waves = max_mb / wsp.nm as u64;
    let mut bwd_done = vec![0u64; stages.len()];
    let mut pushes = 0u64;
    let decorated = stages.contains(&0);
    let mut ops = Vec::new();
    for _ in 0..budget {
        let done = bwd_done.iter().all(|&b| b >= max_mb) && (!decorated || pushes >= full_waves);
        if done {
            break;
        }
        let gop = next();
        match gop.op {
            ScheduleOp::Backward { mb } | ScheduleOp::FusedFwdBwd { mb } => {
                if let Some(slot) = stages.iter().position(|&s| s == gop.stage) {
                    bwd_done[slot] = bwd_done[slot].max(mb);
                }
            }
            ScheduleOp::Push { wave } if retained(&gop.op, wsp, max_mb) => {
                pushes = pushes.max(wave + 1);
            }
            _ => {}
        }
        if retained(&gop.op, wsp, max_mb) {
            ops.push(gop);
        }
    }
    ops
}

/// Extracts the committed queues of `sched` on a `k_gpus`-GPU virtual
/// worker, covering every compute op of minibatches `1..=max_mb` and
/// every wave decoration of the waves completing within that horizon.
///
/// There is one queue per [`lanes`] lane: one per physical GPU for
/// composite schedules, one per virtual stage otherwise. Queues are
/// ordered unless the dispatch is [`Dispatch::ArrivalFifo`].
pub fn committed_queues(
    sched: Schedule,
    k_gpus: usize,
    wsp: WspParams,
    recompute: RecomputePolicy,
    max_mb: u64,
) -> Vec<CommittedQueue> {
    let ordered = sched.dispatch() != Dispatch::ArrivalFifo;
    let lanes = lanes(sched, k_gpus, wsp, recompute);
    let k = sched.virtual_stages(k_gpus);
    let n = lanes.len();
    // Worst case per minibatch per stage: forward + recompute +
    // backward, plus two decorations per wave and stream warmup slack.
    let per_stage_budget = (max_mb as usize) * 4 + 4 * wsp.nm + 64;
    lanes
        .into_iter()
        .enumerate()
        .map(|(i, mut lane)| {
            let stages: Vec<usize> = (0..k).filter(|s| s % n == i).collect();
            let kind = match lane {
                Lane::Stage { .. } => QueueKind::Stage(i),
                Lane::Gpu(_) => QueueKind::Gpu(i),
            };
            let ops = pull_horizon(
                || lane.next().expect("lanes are infinite"),
                &stages,
                wsp,
                max_mb,
                per_stage_budget * stages.len(),
            );
            CommittedQueue { kind, ordered, ops }
        })
        .collect()
}

/// One pull gate's position in the stage-0 stream: how many stage-0
/// forwards the schedule commits to performing before blocking on the
/// parameter server for `wave`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatePoint {
    /// The wave the gate waits for.
    pub wave: u64,
    /// Stage-0 forwards committed before the gate. This is the VW's
    /// lookahead window: a per-VW engine may execute exactly this many
    /// stage-0 forwards (and everything they enable downstream) before
    /// it must synchronize with other VWs' pushes.
    pub forwards_before: u64,
}

/// One push's position in the stage-0 stream: how many stage-0
/// backwards precede the publication of `wave`'s aggregated update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushPoint {
    /// The wave being pushed.
    pub wave: u64,
    /// Stage-0 backwards committed before the push.
    pub backwards_before: u64,
}

/// The parameter-server interaction points of one VW's committed
/// queue set: every gate and push, positioned against the stage-0
/// compute stream. This is the raw material of `hetpipe-verify`'s
/// lookahead prover — the only places the future per-VW engine may
/// block on or signal other VWs.
#[derive(Debug, Clone, Default)]
pub struct PsInteractions {
    /// Pull gates in stream order.
    pub gates: Vec<GatePoint>,
    /// Pushes in stream order.
    pub pushes: Vec<PushPoint>,
}

/// Extracts the PS interaction points from a committed queue set. Wave
/// decorations live on the queue hosting virtual stage 0 (the
/// `Stage(0)` queue, or `Gpu(0)` for composite schedules); positions
/// count that queue's stage-0 forwards and backwards in committed
/// order — the order the executor consults when it blocks on a gate.
pub fn ps_interaction_points(queues: &[CommittedQueue]) -> PsInteractions {
    let mut out = PsInteractions::default();
    let Some(host) = queues
        .iter()
        .find(|q| matches!(q.kind, QueueKind::Stage(0) | QueueKind::Gpu(0)))
    else {
        return out;
    };
    let mut fwds = 0u64;
    let mut bwds = 0u64;
    for gop in &host.ops {
        match gop.op {
            ScheduleOp::PullGate { wave } => out.gates.push(GatePoint {
                wave,
                forwards_before: fwds,
            }),
            ScheduleOp::Push { wave } => out.pushes.push(PushPoint {
                wave,
                backwards_before: bwds,
            }),
            _ => {
                if gop.stage == 0 {
                    if gop.op.has_forward() {
                        fwds += 1;
                    }
                    if gop.op.has_backward() {
                        bwds += 1;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn queues_cover_the_horizon_exactly_once() {
        // Every compute op of every minibatch in the horizon appears
        // exactly once across the queue set, on its own stage; nothing
        // beyond the horizon leaks in.
        for sched in Schedule::ALL {
            for k_gpus in [2usize, 4] {
                let k = sched.virtual_stages(k_gpus);
                let wsp = WspParams::new(4, 1);
                let max_mb = 12u64;
                for recompute in RecomputePolicy::ALL {
                    let queues = committed_queues(sched, k_gpus, wsp, recompute, max_mb);
                    let mut fwd: HashSet<(usize, u64)> = HashSet::new();
                    let mut bwd: HashSet<(usize, u64)> = HashSet::new();
                    for q in &queues {
                        for gop in &q.ops {
                            if let Some(mb) = gop.op.minibatch() {
                                assert!(mb <= max_mb, "{}: {gop:?} beyond horizon", sched.name());
                            }
                            if gop.op.has_forward() {
                                assert!(
                                    fwd.insert((gop.stage, gop.op.minibatch().unwrap())),
                                    "{}: duplicate forward {gop:?}",
                                    sched.name()
                                );
                            }
                            if gop.op.has_backward() {
                                assert!(
                                    bwd.insert((gop.stage, gop.op.minibatch().unwrap())),
                                    "{}: duplicate backward {gop:?}",
                                    sched.name()
                                );
                            }
                        }
                    }
                    for stage in 0..k {
                        for mb in 1..=max_mb {
                            assert!(
                                fwd.contains(&(stage, mb)),
                                "{}: forward of mb {mb} missing at stage {stage} \
                                 (k_gpus={k_gpus}, {recompute})",
                                sched.name()
                            );
                            assert!(
                                bwd.contains(&(stage, mb)),
                                "{}: backward of mb {mb} missing at stage {stage} \
                                 (k_gpus={k_gpus}, {recompute})",
                                sched.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn queue_set_is_dependency_closed_on_waves() {
        // Every retained pull gate's wave has its push retained too —
        // the closure the DAG builder relies on.
        for sched in Schedule::ALL {
            let wsp = WspParams::new(4, 0);
            let queues = committed_queues(sched, 4, wsp, RecomputePolicy::None, 16);
            let pushes: HashSet<u64> = queues
                .iter()
                .flat_map(|q| q.ops.iter())
                .filter_map(|g| match g.op {
                    ScheduleOp::Push { wave } => Some(wave),
                    _ => None,
                })
                .collect();
            for q in &queues {
                for gop in &q.ops {
                    if let ScheduleOp::PullGate { wave } = gop.op {
                        assert!(
                            pushes.contains(&wave),
                            "{}: gate of wave {wave} without its push",
                            sched.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ordered_flag_tracks_dispatch() {
        let wsp = WspParams::new(4, 0);
        let wave = committed_queues(Schedule::HetPipeWave, 4, wsp, RecomputePolicy::None, 8);
        assert!(wave.iter().all(|q| !q.ordered), "arrival-FIFO is unordered");
        assert_eq!(wave.len(), 4);
        let flat = committed_queues(Schedule::OneFOneB, 4, wsp, RecomputePolicy::None, 8);
        assert!(flat.iter().all(|q| q.ordered));
        assert!(flat
            .iter()
            .enumerate()
            .all(|(i, q)| q.kind == QueueKind::Stage(i)));
        let comp = committed_queues(
            Schedule::Interleaved1F1B {
                chunks: 2,
                composite: true,
            },
            4,
            wsp,
            RecomputePolicy::None,
            8,
        );
        assert_eq!(comp.len(), 4, "one composite queue per GPU");
        assert!(comp
            .iter()
            .enumerate()
            .all(|(g, q)| q.ordered && q.kind == QueueKind::Gpu(g)));
        // Composite queues carry only their own GPU's stages.
        for (g, q) in comp.iter().enumerate() {
            assert!(q.ops.iter().all(|op| op.stage % 4 == g));
        }
    }

    #[test]
    fn ps_points_follow_the_wsp_closed_form() {
        // Every schedule places gate(w) exactly before the first
        // stage-0 forward requiring wave w, and push(w) exactly after
        // the last backward of wave w — so the interaction points are
        // a closed-form function of (Nm, D), independent of schedule.
        for sched in Schedule::ALL {
            for (nm, d) in [(2usize, 0usize), (4, 1)] {
                let wsp = WspParams::new(nm, d);
                let max_mb = (nm as u64) * 8;
                let queues = committed_queues(sched, 4, wsp, RecomputePolicy::None, max_mb);
                let pts = ps_interaction_points(&queues);
                assert!(
                    !pts.gates.is_empty(),
                    "{}: no gates extracted",
                    sched.name()
                );
                for (i, g) in pts.gates.iter().enumerate() {
                    assert_eq!(g.wave, i as u64, "{}: gates in wave order", sched.name());
                    assert_eq!(
                        g.forwards_before,
                        g.wave * nm as u64 + wsp.s_global() as u64 + 1,
                        "{}: gate({}) lookahead (nm={nm}, d={d})",
                        sched.name(),
                        g.wave
                    );
                }
                for (i, p) in pts.pushes.iter().enumerate() {
                    assert_eq!(p.wave, i as u64, "{}: pushes in wave order", sched.name());
                    assert_eq!(
                        p.backwards_before,
                        wsp.last_of_wave(p.wave),
                        "{}: push({}) position (nm={nm}, d={d})",
                        sched.name(),
                        p.wave
                    );
                }
            }
        }
    }

    #[test]
    fn extraction_matches_raw_streams() {
        // The per-stage extraction is the stream itself, filtered to
        // the horizon — no reordering, no loss.
        let wsp = WspParams::new(4, 1);
        let queues = committed_queues(
            Schedule::OneFOneB,
            4,
            wsp,
            RecomputePolicy::BoundaryOnly,
            10,
        );
        for (stage, q) in queues.iter().enumerate() {
            let effective =
                if Schedule::OneFOneB.recomputes_at(stage, 4, 4, RecomputePolicy::BoundaryOnly) {
                    RecomputePolicy::BoundaryOnly
                } else {
                    RecomputePolicy::None
                };
            let want: Vec<ScheduleOp> = Schedule::OneFOneB
                .stream(stage, 4, wsp)
                .with_recompute(effective)
                .take(200)
                .filter(|op| retained(op, wsp, 10))
                .collect();
            let got: Vec<ScheduleOp> = q.ops.iter().map(|g| g.op).collect();
            assert_eq!(got, want[..got.len()], "stage {stage}");
        }
    }
}
