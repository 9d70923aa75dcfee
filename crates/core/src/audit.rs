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
//! as a first-class invariant, per stage and per physical GPU. It
//! records both numbers in the static verifier's vocabulary, one
//! [`OccupancyBound`] per stage and GPU built by [`declared_bounds`],
//! so [`OccupancyAudit::merge_measured`] joins a run's peaks to the
//! verifier's structural triples by entity.
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
use hetpipe_des::{declared_bounds, BoundEntity, OccupancyBound, PeakFold, SimTime};
use hetpipe_schedule::{PipelineSchedule, Schedule};

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

/// The full audit of one run: one [`OccupancyBound`] per stage and
/// per physical GPU of every VW, VW by VW, each VW's stages in order
/// and then its GPUs ([`declared_bounds`]), with `measured` set and no
/// `structural` peak.
#[derive(Debug, Clone)]
pub struct OccupancyAudit {
    /// The measured and declared triples.
    pub bounds: Vec<OccupancyBound>,
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
        let peaks = &stats.peaks;
        assert_eq!(
            peaks.stages.len(),
            VirtualWorker::stage_offsets(vws)[vws.len()],
            "the audited VWs must be the run's"
        );
        let (mut stage_peaks, mut gpu_peaks) = (peaks.stages.iter(), peaks.gpus.iter());
        let mut bounds = Vec::new();
        for (vwi, vw) in vws.iter().enumerate() {
            let k = vw.stages();
            let windows: Vec<i64> = (0..k)
                .map(|s| schedule.max_in_flight(s, k, nm) as i64)
                .collect();
            for mut bound in declared_bounds(vwi, &windows, k / schedule.colocated_stages()) {
                let peaks = match bound.entity {
                    BoundEntity::Stage { .. } => &mut stage_peaks,
                    BoundEntity::Gpu { .. } => &mut gpu_peaks,
                };
                bound.measured = Some(*peaks.next().expect("one peak per stage and GPU"));
                bounds.push(bound);
            }
        }
        OccupancyAudit { bounds }
    }

    /// Every stage or GPU whose measured peak exceeds its declaration,
    /// rendered for reporting. Empty iff the run was sound.
    pub fn violations(&self) -> Vec<String> {
        self.bounds
            .iter()
            .filter_map(OccupancyBound::violation)
            .collect()
    }

    /// True when every measured peak is within its declaration.
    pub fn is_sound(&self) -> bool {
        self.bounds.iter().all(OccupancyBound::is_sound)
    }

    /// Sets the audit's measured peak on each of `bounds` whose entity
    /// the audit covers, completing the
    /// `measured ≤ structural ≤ declared` chain when the triples came
    /// from the static verifier's structural pass
    /// (`hetpipe_des::check_bounds` then judges all three at once).
    /// Entities the audit does not cover are left untouched.
    pub fn merge_measured(&self, bounds: &mut [OccupancyBound]) {
        for bound in bounds.iter_mut() {
            if let Some(audited) = self.bounds.iter().find(|b| b.entity == bound.entity) {
                bound.measured = audited.measured;
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
