//! The measured ≤ declared activation-occupancy audit.
//!
//! The memory model certifies partition plans against each schedule's
//! declared per-stage activation window
//! ([`PipelineSchedule::max_in_flight`]), and the executor keeps every
//! run within that window: lanes by their stream order, arrival-FIFO
//! by its `Nm` injection cap. This module closes the loop: it
//! measures the *realized* peak occupancy of a run — a minibatch
//! holds an activation set at a stage from its forward's completion
//! until its backward's completion — and asserts measured ≤ declared
//! as a first-class invariant, per stage and per physical GPU.
//!
//! The measurement folds while the run executes: the executor hands
//! each forward and backward span's end to an `OccupancyFold`, one
//! [`PeakFold`] per stage and per physical GPU, and stores the peaks
//! in [`RunStats::peaks`]. A run therefore needs no kept trace to be
//! audited, and the peaks equal [`hetpipe_des::peak_of_events`] over
//! the whole trace (`tests/report_parity.rs` checks this).
//!
//! Used by the tier-1 `schedule_conditions` tests and by the
//! `schedule_compare` CI smoke run, which fails the build on any
//! violation.

use crate::exec::fastforward::Normal;
use crate::exec::RunStats;
use crate::vw::VirtualWorker;
use hetpipe_des::{PeakFold, SimTime};
use hetpipe_schedule::{PipelineSchedule, Schedule};
use std::fmt;

/// One run's measured peak activation occupancy: the number of
/// minibatches simultaneously holding activations, per stage and per
/// physical GPU (co-located interleaved chunks summed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeasuredPeaks {
    /// Per executor stage, laid out by [`VirtualWorker::stage_offsets`].
    pub stages: Vec<i64>,
    /// Per physical GPU, VW by VW, each VW's GPUs in position order.
    pub gpus: Vec<i64>,
}

/// The in-run fold behind [`MeasuredPeaks`]. Occupancy events: +1 when
/// a forward span ends (activations materialized), −1 when the
/// matching backward span ends (released). The wave schedule's fused
/// last-stage task carries both, a net-zero handoff; recompute spans
/// are stage-local re-runs and carry nothing.
#[derive(Clone)]
pub(crate) struct OccupancyFold {
    /// [`VirtualWorker::stage_offsets`] of the run.
    offsets: Vec<usize>,
    /// Per VW, the index of its first physical GPU in `gpus`.
    gpu_offsets: Vec<usize>,
    stages: Vec<PeakFold>,
    /// One fold per physical GPU when stages are co-located; empty
    /// otherwise, since a GPU's peak is then its stage's peak.
    gpus: Vec<PeakFold>,
    colocated: usize,
}

impl OccupancyFold {
    pub(crate) fn new(vws: &[VirtualWorker], schedule: &Schedule) -> OccupancyFold {
        let colocated = schedule.colocated_stages();
        let offsets = VirtualWorker::stage_offsets(vws);
        let mut gpu_offsets = vec![0];
        for vw in vws {
            gpu_offsets.push(gpu_offsets[gpu_offsets.len() - 1] + vw.stages() / colocated);
        }
        let gpus = if colocated == 1 {
            0
        } else {
            gpu_offsets[vws.len()]
        };
        OccupancyFold {
            stages: vec![PeakFold::default(); offsets[vws.len()]],
            gpus: vec![PeakFold::default(); gpus],
            offsets,
            gpu_offsets,
            colocated,
        }
    }

    /// Books `delta` activation sets at `(vw, stage)` from instant `at`
    /// on, recorded at `now` (`now <= at`, and `now` never decreases).
    pub(crate) fn record(
        &mut self,
        vw: usize,
        stage: usize,
        now: SimTime,
        at: SimTime,
        delta: i64,
    ) {
        let slot = self.offsets[vw] + stage;
        debug_assert!(slot < self.offsets[vw + 1], "vw{vw} has no stage {stage}");
        self.stages[slot].push(now, at, delta);
        if self.colocated > 1 {
            let physical = self.gpu_offsets[vw + 1] - self.gpu_offsets[vw];
            self.gpus[self.gpu_offsets[vw] + stage % physical].push(now, at, delta);
        }
    }

    /// Writes each fold's running level and pending events.
    pub(crate) fn normal(&self, n: &mut Normal) {
        for fold in self.stages.iter().chain(&self.gpus) {
            n.peak_fold(fold);
        }
    }

    /// Moves every fold's pending events `by` later.
    pub(crate) fn shift(&mut self, by: SimTime) {
        for fold in self.stages.iter_mut().chain(&mut self.gpus) {
            fold.shift(by);
        }
    }

    /// Applies every pending event and returns the peaks.
    pub(crate) fn finish(mut self) -> MeasuredPeaks {
        let stages: Vec<i64> = self.stages.iter_mut().map(PeakFold::finish).collect();
        let gpus = if self.colocated == 1 {
            stages.clone()
        } else {
            self.gpus.iter_mut().map(PeakFold::finish).collect()
        };
        MeasuredPeaks { stages, gpus }
    }
}

/// One stage's measured-vs-declared occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOccupancy {
    /// Virtual worker index.
    pub vw: usize,
    /// Executor (virtual) stage index.
    pub stage: usize,
    /// Measured peak number of minibatches simultaneously holding
    /// activations at the stage.
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
    /// Pairs the peaks `stats` measured during the run
    /// ([`RunStats::peaks`]) with `schedule`'s declared accounting: a
    /// stage declares [`PipelineSchedule::max_in_flight`], a physical
    /// GPU the sum over its co-located stages.
    ///
    /// # Panics
    ///
    /// Panics unless `vws` has the stage layout of the run's VWs.
    pub fn measure(
        stats: &RunStats,
        vws: &[VirtualWorker],
        schedule: &Schedule,
        nm: usize,
    ) -> OccupancyAudit {
        let colocated = schedule.colocated_stages();
        let peaks = &stats.peaks;
        assert_eq!(
            peaks.stages.len(),
            VirtualWorker::stage_offsets(vws)[vws.len()],
            "the audited VWs must be the run's"
        );
        let mut measured_stages = peaks.stages.iter().copied();
        let mut measured_gpus = peaks.gpus.iter().copied();
        let mut stages = Vec::new();
        let mut gpus = Vec::new();
        for (vwi, vw) in vws.iter().enumerate() {
            let k = vw.stages();
            let physical = k / colocated;
            for stage in 0..k {
                stages.push(StageOccupancy {
                    vw: vwi,
                    stage,
                    measured: measured_stages.next().expect("one peak per stage"),
                    declared: schedule.max_in_flight(stage, k, nm) as i64,
                });
            }
            for gpu in 0..physical {
                let declared: i64 = (0..k)
                    .filter(|s| s % physical == gpu)
                    .map(|s| schedule.max_in_flight(s, k, nm) as i64)
                    .sum();
                gpus.push(GpuOccupancy {
                    vw: vwi,
                    gpu,
                    measured: measured_gpus.next().expect("one peak per physical GPU"),
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

    /// Folds the audit's measured peaks into matching
    /// occupancy-bound triples by entity, completing the
    /// `measured ≤ structural ≤ declared` chain when the triples came
    /// from the static verifier's structural pass
    /// (`hetpipe_des::check_bounds` then judges all three at once).
    /// Entities the audit does not cover are left untouched.
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
            "{label}: measured activation occupancy exceeds the declared \
             memory accounting:\n  {}",
            violations.join("\n  ")
        );
    }
}
