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

use crate::ops::GpuOp;
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
