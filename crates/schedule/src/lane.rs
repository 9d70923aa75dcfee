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

use crate::ops::{GpuOp, StateWriter};
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
