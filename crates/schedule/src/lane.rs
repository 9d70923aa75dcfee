//! Lanes: the ordered op queues a virtual worker's GPUs execute.
//!
//! A lane is one ordered op queue bound to one GPU, each op tagged
//! with the virtual stage it runs as ([`GpuOp`]). Every schedule is a
//! set of lanes over its virtual stages:
//!
//! - flat and depth-expanded schedules (fill-drain, 1F1B,
//!   depth-expanded interleaved, and the arrival-FIFO wave schedule)
//!   get one lane per virtual stage, fed by that stage's
//!   [`ScheduleStream`];
//! - composite schedules (those declaring
//!   [`PipelineSchedule::gpu_streams_with`]) get one lane per physical
//!   GPU, fed by that GPU's [`GpuStream`], which merges every
//!   co-located chunk.
//!
//! Either way lane `i` of `n` hosts the virtual stages `s` with
//! `s % n == i`, as chunk `s / n`. The executor runs the lanes of
//! stream-order schedules in lane order; arrival-FIFO schedules commit
//! only to each lane's per-kind order (see
//! [`crate::CommittedQueue::ordered`]). Recompute placement follows
//! [`PipelineSchedule::recomputes_at`] in both forms.

use crate::ops::{GpuOp, StateWriter};
use crate::recompute::RecomputePolicy;
use crate::schedules::{PipelineSchedule, Schedule};
use crate::stream::{GpuStream, ScheduleStream};
use crate::wsp::WspParams;

/// One lane's infinite op source.
#[derive(Debug)]
pub enum Lane {
    /// The stream of one virtual stage.
    Stage {
        /// The virtual stage.
        stage: usize,
        /// Its op stream, recompute applied.
        stream: ScheduleStream,
    },
    /// The composite stream of one physical GPU, recompute applied.
    Gpu(GpuStream),
}

impl Iterator for Lane {
    type Item = GpuOp;

    /// Always `Some`: lanes are infinite.
    fn next(&mut self) -> Option<GpuOp> {
        match self {
            Lane::Stage { stage, stream } => stream.next().map(|op| GpuOp { stage: *stage, op }),
            Lane::Gpu(stream) => stream.next(),
        }
    }
}

impl Lane {
    /// Writes the state the lane's future ops depend on. The composite
    /// lanes of one virtual worker share a timetable, which the lane
    /// of GPU 0 writes.
    pub fn write_state(&self, w: &mut impl StateWriter) {
        match self {
            Lane::Stage { stream, .. } => stream.write_state(w),
            Lane::Gpu(stream) => stream.write_state(w),
        }
    }

    /// Moves the lane `mbs` minibatches and `waves` waves on: the ops
    /// it emits from then on are the ones it would have emitted
    /// `mbs` minibatches later. The lane of GPU 0 moves the shared
    /// timetable of composite lanes.
    pub fn shift(&mut self, mbs: u64, waves: u64) {
        match self {
            Lane::Stage { stream, .. } => stream.shift(mbs, waves),
            Lane::Gpu(stream) => stream.shift(mbs, waves),
        }
    }
}

/// Forks a virtual worker's lanes: each copy emits exactly the ops
/// its original would emit next, and the copies advance independently
/// of the originals. Composite lanes that share a timetable share one
/// copy of it ([`GpuStream::fork_set`]).
pub fn fork_lanes<'a>(lanes: impl IntoIterator<Item = &'a Lane>) -> Vec<Lane> {
    let lanes: Vec<&Lane> = lanes.into_iter().collect();
    let gpus: Vec<&GpuStream> = lanes
        .iter()
        .filter_map(|&lane| match lane {
            Lane::Gpu(stream) => Some(stream),
            Lane::Stage { .. } => None,
        })
        .collect();
    let mut forked = GpuStream::fork_set(&gpus).into_iter();
    lanes
        .into_iter()
        .map(|lane| match lane {
            Lane::Stage { stage, stream } => Lane::Stage {
                stage: *stage,
                stream: stream.clone(),
            },
            Lane::Gpu(_) => Lane::Gpu(forked.next().expect("one fork per composite lane")),
        })
        .collect()
}

/// The lanes of one virtual worker running `sched` on `k_gpus`
/// physical GPUs, in lane order (see the module docs).
pub fn lanes(
    sched: Schedule,
    k_gpus: usize,
    wsp: WspParams,
    recompute: RecomputePolicy,
) -> Vec<Lane> {
    if let Some(streams) = sched.gpu_streams_with(k_gpus, wsp, recompute) {
        return streams.into_iter().map(Lane::Gpu).collect();
    }
    let k = sched.virtual_stages(k_gpus);
    (0..k)
        .map(|stage| {
            let effective = if sched.recomputes_at(stage, k, wsp.nm, recompute) {
                recompute
            } else {
                RecomputePolicy::None
            };
            Lane::Stage {
                stage,
                stream: sched.stream(stage, k, wsp).with_recompute(effective),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `n` ops from each lane, cycling through the lanes in
    /// `order`.
    fn pull(lanes: &mut [Lane], order: &[usize], n: usize) -> Vec<Vec<GpuOp>> {
        let mut out = vec![Vec::new(); lanes.len()];
        for _ in 0..n {
            for &i in order {
                out[i].push(lanes[i].next().expect("lanes are infinite"));
            }
        }
        out
    }

    /// A fork emits what its original would have emitted next, whatever
    /// order the two sets are pulled in, and composite lanes keep
    /// sharing one timetable in the fork.
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
            let mut original = lanes(sched, 4, wsp, recompute);
            // Uneven progress, so the composite queues hold ops.
            pull(&mut original, &[0, 0, 1, 3], 5);
            let mut fork = fork_lanes(&original);
            let ahead = pull(&mut fork, &[3, 2, 1, 0], 40);
            let behind = pull(&mut original, &[0, 1, 2, 3], 40);
            assert_eq!(ahead, behind, "{sched}");
            if let (Lane::Gpu(a), Lane::Gpu(b)) = (&fork[0], &fork[1]) {
                assert!(a.shares_timetable_with(b), "{sched}: the fork split a set");
            }
        }
    }
}
