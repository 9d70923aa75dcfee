//! Lanes: the ordered op queues a virtual worker's GPUs execute.
//!
//! A lane is one ordered op queue bound to one GPU, each op tagged
//! with the virtual stage it runs as ([`GpuOp`]). Every schedule is a
//! set of lanes over its virtual stages, held by one [`Lanes`] value
//! per virtual worker:
//!
//! - flat and depth-expanded schedules (fill-drain, 1F1B,
//!   depth-expanded interleaved, and the arrival-FIFO wave schedule)
//!   get one lane per virtual stage, fed by that stage's
//!   [`ScheduleStream`];
//! - composite schedules (those declaring
//!   [`PipelineSchedule::gpu_streams_with`]) get one lane per physical
//!   GPU, fed by one joint timetable of the whole virtual pipeline
//!   whose per-GPU queues merge every co-located chunk. Each lane
//!   emits exactly what that GPU's standalone [`crate::GpuStream`]
//!   emits.
//!
//! Either way lane `i` of `n` hosts the virtual stages `s` with
//! `s % n == i`, as chunk `s / n`. The executor runs the lanes of
//! stream-order schedules in lane order; arrival-FIFO schedules commit
//! only to each lane's per-kind order (see
//! [`crate::CommittedQueue::ordered`]). Recompute placement follows
//! [`PipelineSchedule::recomputes_at`] in both forms.
//!
//! A [`Lanes`] is a plain owned value: a clone continues exactly like
//! its original and advances independently of it.

use crate::ops::{Dispatch, GpuOp, ScheduleOp, StateWriter};
use crate::recompute::RecomputePolicy;
use crate::schedules::{PipelineSchedule, Schedule};
use crate::stream::{ScheduleStream, Timetable};
use crate::wsp::WspParams;

/// The lanes of one virtual worker (see the module docs).
#[derive(Debug, Clone)]
pub struct Lanes(Source);

/// Where a virtual worker's lanes draw their ops from.
#[derive(Debug, Clone)]
enum Source {
    /// One stream per virtual stage, recompute applied.
    Stages(Vec<ScheduleStream>),
    /// One joint timetable whose per-GPU queues are the lanes.
    Gpus(Timetable),
}

impl Lanes {
    /// The lanes of one virtual worker running `sched` on `k_gpus`
    /// physical GPUs.
    pub fn new(
        sched: Schedule,
        k_gpus: usize,
        wsp: WspParams,
        recompute: RecomputePolicy,
    ) -> Lanes {
        if let Some(table) = sched.timetable(k_gpus, wsp, recompute) {
            return Lanes(Source::Gpus(table));
        }
        let k = sched.virtual_stages(k_gpus);
        let streams = (0..k)
            .map(|stage| {
                let effective = if sched.recomputes_at(stage, k, wsp.nm, recompute) {
                    recompute
                } else {
                    RecomputePolicy::None
                };
                sched.stream(stage, k, wsp).with_recompute(effective)
            })
            .collect();
        Lanes(Source::Stages(streams))
    }

    /// The number of lanes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Source::Stages(streams) => streams.len(),
            Source::Gpus(table) => table.gpus(),
        }
    }

    /// Always false: a virtual worker has at least one lane.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next op of `lane` (lanes are infinite).
    pub fn next(&mut self, lane: usize) -> GpuOp {
        match &mut self.0 {
            Source::Stages(streams) => GpuOp {
                stage: lane,
                op: streams[lane].next().expect("streams are infinite"),
            },
            Source::Gpus(table) => table.next(lane),
        }
    }

    /// Writes the state the lanes' future ops depend on.
    pub fn write_state(&self, w: &mut impl StateWriter) {
        match &self.0 {
            Source::Stages(streams) => streams.iter().for_each(|s| s.write_state(w)),
            Source::Gpus(table) => table.write_state(w),
        }
    }

    /// Moves the lanes `mbs` minibatches and `waves` waves on: the ops
    /// they emit from then on are the ones they would have emitted
    /// `mbs` minibatches later.
    pub fn shift(&mut self, mbs: u64, waves: u64) {
        match &mut self.0 {
            Source::Stages(streams) => streams.iter_mut().for_each(|s| s.shift(mbs, waves)),
            Source::Gpus(table) => table.shift(mbs, waves),
        }
    }
}

/// Checks the first `prefix_len` ops of every lane of one virtual
/// worker of `sched` on `k_gpus` GPUs, the lanes [`Lanes::new`] builds
/// for the executor and [`crate::committed_queues`]. This is the
/// schedule contract the memory model and the executor share: the
/// paper's Section-4 scheduling conditions at the schedule level plus
/// the declared activation window. Per lane, with counters per stage:
///
/// 1. every op's stage is hosted by the lane (`stage % lanes == lane`);
/// 2. forwards (fused ops included) and backwards each run in
///    minibatch order with no gaps, and no backward precedes its
///    forward;
/// 3. after every forward the stage's outstanding minibatches stay
///    within [`PipelineSchedule::max_in_flight`];
/// 4. fused ops appear only at the last stage of a fusing schedule;
/// 5. a [`ScheduleOp::Recompute`] appears exactly where
///    [`PipelineSchedule::recomputes_at`] says, directly before its own
///    backward;
/// 6. pushes and gates appear on stage 0 only: each push after its
///    wave's last backward, no gate staler than the next forward
///    needs, and every stage-0 forward behind the gate it requires;
/// 7. every stage the lane hosts emits work within the prefix.
///
/// Returns `Err` naming the first broken rule.
pub fn validate_lanes(
    sched: Schedule,
    k_gpus: usize,
    wsp: WspParams,
    recompute: RecomputePolicy,
    prefix_len: usize,
) -> Result<(), String> {
    let mut lanes = Lanes::new(sched, k_gpus, wsp, recompute);
    for lane in 0..lanes.len() {
        let ops: Vec<GpuOp> = (0..prefix_len).map(|_| lanes.next(lane)).collect();
        check_lane(sched, k_gpus, wsp, recompute, lane, &ops)?;
    }
    Ok(())
}

/// [`validate_lanes`]' walk over the ops of lane `lane`.
pub(crate) fn check_lane(
    sched: Schedule,
    k_gpus: usize,
    wsp: WspParams,
    recompute: RecomputePolicy,
    lane: usize,
    ops: &[GpuOp],
) -> Result<(), String> {
    let k = sched.virtual_stages(k_gpus);
    let lanes = match sched.dispatch() {
        Dispatch::GpuStreamOrder => k_gpus,
        _ => k,
    };
    let mut next_fwd = vec![1u64; k];
    let mut next_bwd = vec![1u64; k];
    // The recompute awaiting its backward, as `(stage, mb)`.
    let mut pending: Option<(usize, u64)> = None;
    // The newest wave a stage-0 gate has made visible.
    let mut gated = -1i64;
    for (i, &GpuOp { stage, op }) in ops.iter().enumerate() {
        let fail = |why: &str| {
            Err(format!(
                "{sched} lane {lane} op {i} {op:?} stage {stage}: {why}"
            ))
        };
        if stage >= k || stage % lanes != lane {
            return fail("foreign stage, not hosted by this lane");
        }
        if pending.is_some_and(|(s, mb)| (stage, op) != (s, ScheduleOp::Backward { mb })) {
            return fail("recompute not directly before its own backward");
        }
        let (fwd, bwd) = (next_fwd[stage], next_bwd[stage]);
        let remat = sched.recomputes_at(stage, k, wsp.nm, recompute);
        match op {
            ScheduleOp::Forward { mb } | ScheduleOp::FusedFwdBwd { mb } => {
                if mb != fwd {
                    return fail(&format!("forward gap, expected mb {fwd}"));
                }
                if stage == 0 && wsp.required_wave(mb).is_some_and(|w| w as i64 > gated) {
                    return fail(&format!("ungated forward, gated through wave {gated}"));
                }
                next_fwd[stage] += 1;
                let declared = sched.max_in_flight(stage, k, wsp.nm) as u64;
                if mb + 1 - bwd > declared {
                    return fail(&format!("in flight exceeds declared {declared}"));
                }
                if let ScheduleOp::FusedFwdBwd { .. } = op {
                    if !sched.fused_last_stage() || stage + 1 != k {
                        return fail("fused op off a fusing last stage");
                    }
                    if mb != bwd {
                        return fail(&format!("backward gap, expected mb {bwd}"));
                    }
                    next_bwd[stage] += 1;
                }
            }
            ScheduleOp::Backward { mb } => {
                if mb != bwd {
                    return fail(&format!("backward gap, expected mb {bwd}"));
                }
                if mb >= fwd {
                    return fail("backward before its forward");
                }
                if remat && pending.take() != Some((stage, mb)) {
                    return fail("backward without its recompute");
                }
                next_bwd[stage] += 1;
            }
            ScheduleOp::Recompute { mb } => {
                if !remat {
                    return fail("recompute at a stage that must not checkpoint");
                }
                if mb != bwd || mb >= fwd {
                    return fail("recompute not directly before its own backward");
                }
                pending = Some((stage, mb));
            }
            ScheduleOp::Push { .. } | ScheduleOp::PullGate { .. } if stage != 0 => {
                return fail("wave op off stage 0");
            }
            ScheduleOp::Push { wave } => {
                if bwd <= wsp.last_of_wave(wave) {
                    return fail("push before its wave's last backward");
                }
            }
            ScheduleOp::PullGate { wave } => {
                if wsp.required_wave(fwd).is_some_and(|w| w > wave) {
                    return fail("gate staler than the next forward needs");
                }
                gated = gated.max(wave as i64);
            }
        }
    }
    match (lane..k).step_by(lanes).find(|&s| next_fwd[s] == 1) {
        Some(idle) => Err(format!(
            "{sched} lane {lane}: hosted stage {idle} emitted no work in {} ops",
            ops.len()
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `n` ops from each lane, cycling through the lanes in
    /// `order`.
    fn pull(lanes: &mut Lanes, order: &[usize], n: usize) -> Vec<Vec<GpuOp>> {
        let mut out = vec![Vec::new(); lanes.len()];
        for _ in 0..n {
            for &i in order {
                out[i].push(lanes.next(i));
            }
        }
        out
    }

    const GPUS: usize = 4;

    fn wsp() -> WspParams {
        WspParams::new(4, 0)
    }

    fn composite() -> Schedule {
        Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        }
    }

    /// A real 400-op prefix of `lane`, which [`check_lane`] accepts.
    fn prefix(sched: Schedule, recompute: RecomputePolicy, lane: usize) -> Vec<GpuOp> {
        let mut lanes = Lanes::new(sched, GPUS, wsp(), recompute);
        let ops: Vec<GpuOp> = (0..400).map(|_| lanes.next(lane)).collect();
        check_lane(sched, GPUS, wsp(), recompute, lane, &ops).expect("a real prefix holds");
        ops
    }

    /// The index of the first `op` at `stage` in `ops`.
    fn find(ops: &[GpuOp], stage: usize, op: ScheduleOp) -> usize {
        let want = GpuOp { stage, op };
        ops.iter()
            .position(|&g| g == want)
            .expect("op in the prefix")
    }

    /// Asserts that [`check_lane`] refutes the corrupted `ops` with an
    /// error naming `rule`.
    fn refuted(
        sched: Schedule,
        recompute: RecomputePolicy,
        lane: usize,
        ops: &[GpuOp],
        rule: &str,
    ) {
        match check_lane(sched, GPUS, wsp(), recompute, lane, ops) {
            Ok(()) => panic!("{sched} lane {lane}: accepted a prefix breaking {rule:?}"),
            Err(e) => assert!(
                e.contains(rule),
                "{sched} lane {lane}: {e:?} names not {rule:?}"
            ),
        }
    }

    /// Each rule of [`validate_lanes`], broken in one copy of a real
    /// lane prefix, is refuted by name.
    #[test]
    fn check_lane_refutes_each_broken_rule() {
        use RecomputePolicy::{BoundaryOnly as On, None as Off};
        use ScheduleOp::*;
        let (wave, ofob, comp) = (Schedule::HetPipeWave, Schedule::OneFOneB, composite());

        let mut ops = prefix(comp, On, 0);
        ops[0].stage = 1;
        refuted(comp, On, 0, &ops, "foreign stage");

        let mut ops = prefix(comp, On, 0);
        let i = find(&ops, 0, Forward { mb: 2 });
        ops[i].op = Forward { mb: 3 };
        refuted(comp, On, 0, &ops, "forward gap");

        let mut ops = prefix(ofob, On, 0);
        ops.insert(
            0,
            GpuOp {
                stage: 0,
                op: Backward { mb: 1 },
            },
        );
        refuted(ofob, On, 0, &ops, "backward before its forward");

        let mut ops = prefix(wave, Off, 0);
        let i = find(&ops, 0, Backward { mb: 1 });
        ops[i].op = Backward { mb: 2 };
        refuted(wave, Off, 0, &ops, "backward gap");

        let mut ops = prefix(ofob, On, 0);
        ops.remove(find(&ops, 0, Recompute { mb: 1 }));
        refuted(ofob, On, 0, &ops, "backward without its recompute");

        let mut ops = prefix(ofob, On, 0);
        let i = find(&ops, 0, Recompute { mb: 1 });
        ops.swap(i - 1, i);
        refuted(
            ofob,
            On,
            0,
            &ops,
            "recompute not directly before its own backward",
        );

        // 1F1B's last stage has a window of 1: nothing to reclaim.
        let mut ops = prefix(ofob, On, GPUS - 1);
        let i = find(&ops, GPUS - 1, Backward { mb: 1 });
        ops.insert(
            i,
            GpuOp {
                stage: GPUS - 1,
                op: Recompute { mb: 1 },
            },
        );
        refuted(ofob, On, GPUS - 1, &ops, "must not checkpoint");

        // Moving a recompute and its backward behind the next forward
        // lets stage 0 hold one minibatch more than its window.
        let mut ops = prefix(ofob, On, 0);
        let i = find(&ops, 0, Recompute { mb: 1 });
        ops[i..i + 3].rotate_left(2);
        refuted(ofob, On, 0, &ops, "in flight exceeds declared");

        let mut ops = prefix(wave, Off, 0);
        ops[0].op = FusedFwdBwd { mb: 1 };
        refuted(wave, Off, 0, &ops, "fused op off a fusing last stage");

        let mut ops = prefix(wave, Off, 0);
        let push = ops.remove(find(&ops, 0, Push { wave: 0 }));
        ops.insert(0, push);
        refuted(wave, Off, 0, &ops, "push before its wave's last backward");

        let mut ops = prefix(wave, Off, 1);
        ops.insert(
            0,
            GpuOp {
                stage: 1,
                op: Push { wave: 0 },
            },
        );
        refuted(wave, Off, 1, &ops, "wave op off stage 0");

        let mut ops = prefix(wave, Off, 0);
        ops.retain(|g| !matches!(g.op, PullGate { .. }));
        refuted(wave, Off, 0, &ops, "ungated forward");

        let mut ops = prefix(wave, Off, 0);
        let i = find(&ops, 0, PullGate { wave: 1 });
        ops[i].op = PullGate { wave: 0 };
        refuted(
            wave,
            Off,
            0,
            &ops,
            "gate staler than the next forward needs",
        );

        // Lane 0 of the composite schedule also hosts stage GPUS.
        let mut ops = prefix(comp, On, 0);
        ops.retain(|g| g.stage != GPUS);
        refuted(comp, On, 0, &ops, "emitted no work");
    }

    /// A clone emits what its original would have emitted next,
    /// whichever of the two is pulled first and in whatever lane order.
    #[test]
    fn forked_lanes_continue_like_their_originals() {
        let wsp = WspParams::new(4, 0);
        for (sched, recompute) in [
            (Schedule::OneFOneB, RecomputePolicy::BoundaryOnly),
            (
                Schedule::Interleaved1F1B {
                    chunks: 2,
                    composite: true,
                },
                RecomputePolicy::None,
            ),
        ] {
            let mut original = Lanes::new(sched, 4, wsp, recompute);
            // Uneven progress, so the composite queues hold ops.
            pull(&mut original, &[0, 0, 1, 3], 5);
            let mut fork = original.clone();
            let ahead = pull(&mut original, &[3, 2, 1, 0], 40);
            let behind = pull(&mut fork, &[0, 1, 2, 3], 40);
            assert_eq!(ahead, behind, "{sched}");
        }
    }
}
