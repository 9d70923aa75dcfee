//! The measured ≤ declared activation-occupancy audit.
//!
//! The memory model certifies partition plans against each schedule's
//! declared per-stage activation window
//! ([`PipelineSchedule::max_in_flight`]), and the executor keeps every
//! run within that window: lanes by their stream order, arrival-FIFO
//! by its `Nm` injection cap. This module closes the loop: it
//! measures the *realized* peak occupancy from a run's span trace — a
//! minibatch holds an activation set at a stage from its forward's
//! completion until its backward's completion — and asserts
//! measured ≤ declared as a first-class invariant, per stage and per
//! physical GPU.
//!
//! The measurement is one pass over the trace into dense per-stage
//! event vectors (one allocation per stage, none per span), folded by
//! [`peak_of_events`], the trace's single definition of a measured
//! peak.
//!
//! Used by the tier-1 `schedule_conditions` tests and by the
//! `schedule_compare` CI smoke run, which fails the build on any
//! violation.

use crate::exec::{RunStats, SpanTag};
use crate::vw::VirtualWorker;
use hetpipe_des::{peak_of_events, SimTime};
use hetpipe_schedule::{PipelineSchedule, Schedule};
use std::fmt;

/// One stage's measured-vs-declared occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOccupancy {
    /// Virtual worker index.
    pub vw: usize,
    /// Executor (virtual) stage index.
    pub stage: usize,
    /// Trace-measured peak number of minibatches simultaneously
    /// holding activations at the stage.
    pub measured: i64,
    /// The schedule's declared (and memory-charged) bound.
    pub declared: i64,
}

impl StageOccupancy {
    /// True when the run stayed within its certification.
    pub fn sound(&self) -> bool {
        self.measured <= self.declared
    }
}

impl fmt::Display for StageOccupancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vw{} stage {}: measured {} / declared {}",
            self.vw, self.stage, self.measured, self.declared
        )
    }
}

/// One physical GPU's measured-vs-declared occupancy (co-located
/// interleaved chunks summed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuOccupancy {
    /// Virtual worker index.
    pub vw: usize,
    /// Physical GPU position within the VW (0-based).
    pub gpu: usize,
    /// Peak activation sets held across all of the GPU's co-located
    /// stages simultaneously.
    pub measured: i64,
    /// Sum of the co-located stages' declared bounds.
    pub declared: i64,
}

impl GpuOccupancy {
    /// True when the run stayed within its certification.
    pub fn sound(&self) -> bool {
        self.measured <= self.declared
    }
}

impl fmt::Display for GpuOccupancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vw{} gpu {}: measured {} / declared {}",
            self.vw, self.gpu, self.measured, self.declared
        )
    }
}

/// The full audit of one run.
#[derive(Debug, Clone)]
pub struct OccupancyAudit {
    /// Per executor stage, every `(vw, stage)` that ran tasks.
    pub stages: Vec<StageOccupancy>,
    /// Per physical GPU of every VW.
    pub gpus: Vec<GpuOccupancy>,
}

impl OccupancyAudit {
    /// Measures peak activation occupancy from `stats`' span trace and
    /// pairs it with `schedule`'s declared accounting.
    ///
    /// Occupancy events: +1 when a forward span ends (activations
    /// materialized), −1 when the matching backward span ends
    /// (released). The wave schedule's fused last-stage task carries
    /// both, so it contributes a net-zero handoff; recompute spans are
    /// stage-local re-runs and contribute nothing.
    ///
    /// One pass over the trace appends each event to its stage's
    /// vector, laid out by [`VirtualWorker::stage_offsets`]: the pass
    /// allocates per stage, never per span. A GPU's peak is its stage's peak when
    /// stages are not co-located; otherwise it is the peak of the
    /// co-located stages' events merged. Every peak goes through
    /// [`peak_of_events`].
    pub fn measure(
        stats: &RunStats,
        vws: &[VirtualWorker],
        schedule: &Schedule,
        nm: usize,
    ) -> OccupancyAudit {
        let fused = schedule.fused_last_stage();
        let colocated = schedule.colocated_stages();
        let offset = VirtualWorker::stage_offsets(vws);
        let mut events: Vec<Vec<(SimTime, i64)>> = vec![Vec::new(); offset[vws.len()]];
        for span in stats.trace.spans() {
            let (vw, stage, delta) = match span.tag {
                SpanTag::Forward { vw, stage, .. } => (vw as usize, stage as usize, 1),
                SpanTag::Backward { vw, stage, .. } => (vw as usize, stage as usize, -1),
                _ => continue,
            };
            let slot = offset[vw] + stage;
            debug_assert!(slot < offset[vw + 1], "vw{vw} has no stage {stage}");
            events[slot].push((span.end, delta));
            if fused && delta < 0 && slot + 1 == offset[vw + 1] {
                // The fused task is its own forward.
                events[slot].push((span.end, 1));
            }
        }

        let mut stages = Vec::new();
        let mut gpus = Vec::new();
        for (vwi, vw) in vws.iter().enumerate() {
            let k = vw.stages();
            let physical = k / colocated;
            let evs = &mut events[offset[vwi]..offset[vwi + 1]];
            // Merge co-located stages before their peaks consume them.
            let merged: Vec<i64> = if colocated == 1 {
                Vec::new()
            } else {
                (0..physical)
                    .map(|gpu| {
                        let on_gpu = evs.iter().skip(gpu).step_by(physical);
                        peak_of_events(on_gpu.flatten().copied().collect())
                    })
                    .collect()
            };
            let first = stages.len();
            for (stage, e) in evs.iter_mut().enumerate() {
                stages.push(StageOccupancy {
                    vw: vwi,
                    stage,
                    measured: peak_of_events(std::mem::take(e)),
                    declared: schedule.max_in_flight(stage, k, nm) as i64,
                });
            }
            for gpu in 0..physical {
                let declared: i64 = (0..k)
                    .filter(|s| s % physical == gpu)
                    .map(|s| schedule.max_in_flight(s, k, nm) as i64)
                    .sum();
                let measured = if colocated == 1 {
                    stages[first + gpu].measured
                } else {
                    merged[gpu]
                };
                gpus.push(GpuOccupancy {
                    vw: vwi,
                    gpu,
                    measured,
                    declared,
                });
            }
        }
        OccupancyAudit { stages, gpus }
    }

    /// Every stage or GPU whose measured peak exceeds its declaration,
    /// rendered for reporting. Empty iff the run was sound.
    pub fn violations(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .stages
            .iter()
            .filter(|s| !s.sound())
            .map(|s| format!("stage occupancy violation: {s}"))
            .collect();
        v.extend(
            self.gpus
                .iter()
                .filter(|g| !g.sound())
                .map(|g| format!("gpu occupancy violation: {g}")),
        );
        v
    }

    /// True when every measured peak is within its declaration.
    pub fn is_sound(&self) -> bool {
        self.stages.iter().all(StageOccupancy::sound) && self.gpus.iter().all(GpuOccupancy::sound)
    }

    /// Folds the audit's trace-measured peaks into matching
    /// occupancy-bound triples by entity, completing the
    /// `measured ≤ structural ≤ declared` chain when the triples came
    /// from the static verifier's structural pass
    /// (`hetpipe_des::check_bounds` then judges all three at once).
    /// Entities the trace never observed are left untouched.
    pub fn merge_measured(&self, bounds: &mut [hetpipe_des::OccupancyBound]) {
        use hetpipe_des::BoundEntity;
        for bound in bounds.iter_mut() {
            let measured = match bound.entity {
                BoundEntity::Stage { vw, stage } => self
                    .stages
                    .iter()
                    .find(|s| s.vw == vw && s.stage == stage)
                    .map(|s| s.measured),
                BoundEntity::Gpu { vw, gpu } => self
                    .gpus
                    .iter()
                    .find(|g| g.vw == vw && g.gpu == gpu)
                    .map(|g| g.measured),
            };
            if let Some(measured) = measured {
                bound.measured = Some(measured);
            }
        }
    }

    /// Panics with the full violation list unless the audit is sound.
    pub fn assert_sound(&self, label: &str) {
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "{label}: trace-measured activation occupancy exceeds the declared \
             memory accounting:\n  {}",
            violations.join("\n  ")
        );
    }
}
