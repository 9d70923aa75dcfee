//! Trace-free occupancy-bound vocabulary.
//!
//! Three layers talk about "peak activation occupancy" of a stage or a
//! GPU, and each knows a different number:
//!
//! - **measured** — the realized peak, read off a simulated span trace
//!   (`hetpipe-core`'s `OccupancyAudit`). Only exists after a run.
//! - **structural** — the peak implied by the schedule's committed op
//!   order alone (`hetpipe-verify`'s stream-graph pass). Exists
//!   *before* any run: it is a property of the stream, not of timing.
//! - **declared** — the schedule's contract
//!   (`PipelineSchedule::max_in_flight`), what the memory model
//!   charges and the executor enforces.
//!
//! Soundness is the chain `measured ≤ structural ≤ declared`: the
//! trace can never exceed what the op order permits, and the op order
//! can never exceed what was certified. This module is the shared
//! vocabulary for that chain — a plain data triple with the soundness
//! and over-reservation predicates. The dynamic audit and the static
//! verifier both record their peaks in it, both starting from the
//! declared triples of [`declared_bounds`], so they share one entity
//! order and one per-GPU sum and compose by entity without either
//! depending on the other.

use std::fmt;

/// What a bound is about: one executor stage or one physical GPU of a
/// virtual worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoundEntity {
    /// One executor (virtual) stage of a virtual worker.
    Stage {
        /// Virtual worker index.
        vw: usize,
        /// Executor stage index (0-based).
        stage: usize,
    },
    /// One physical GPU of a virtual worker (co-located interleaved
    /// chunks summed).
    Gpu {
        /// Virtual worker index.
        vw: usize,
        /// Physical GPU position within the VW (0-based).
        gpu: usize,
    },
}

impl fmt::Display for BoundEntity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BoundEntity::Stage { vw, stage } => write!(f, "vw{vw} stage {stage}"),
            BoundEntity::Gpu { vw, gpu } => write!(f, "vw{vw} gpu {gpu}"),
        }
    }
}

/// The measured / structural / declared occupancy triple of one
/// entity. `measured` and `structural` are optional because they come
/// from different passes (a static check has no trace; a dynamic audit
/// has no stream graph); `declared` always exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyBound {
    /// What the bound is about.
    pub entity: BoundEntity,
    /// Trace-measured peak, when a run's trace was audited.
    pub measured: Option<i64>,
    /// Stream-structural peak, when the static verifier ran.
    pub structural: Option<i64>,
    /// The schedule's declared (memory-charged, executor-enforced)
    /// bound.
    pub declared: i64,
}

impl OccupancyBound {
    /// True when every present component respects the chain
    /// `measured ≤ structural ≤ declared`.
    pub fn is_sound(&self) -> bool {
        self.violation().is_none()
    }

    /// The first broken link of the chain, rendered for reporting;
    /// `None` when the triple is sound.
    pub fn violation(&self) -> Option<String> {
        let e = self.entity;
        if let (Some(m), Some(s)) = (self.measured, self.structural) {
            if m > s {
                return Some(format!("{e}: measured {m} exceeds structural bound {s}"));
            }
        }
        if let Some(s) = self.structural {
            if s > self.declared {
                return Some(format!(
                    "{e}: structural peak {s} exceeds declared {}",
                    self.declared
                ));
            }
        }
        if let Some(m) = self.measured {
            if m > self.declared {
                return Some(format!(
                    "{e}: measured peak {m} exceeds declared {}",
                    self.declared
                ));
            }
        }
        None
    }

    /// True when the declaration is loose by more than `factor`×
    /// against the structural peak — the over-reservation lint
    /// (`declared > factor × structural`). Always false when no
    /// structural bound is present or the structural peak is zero
    /// (an idle entity reserves nothing worth linting).
    pub fn over_reserved(&self, factor: i64) -> bool {
        match self.structural {
            Some(s) if s > 0 => self.declared > factor * s,
            _ => false,
        }
    }
}

impl fmt::Display for OccupancyBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.entity)?;
        match self.measured {
            Some(m) => write!(f, "measured {m} ")?,
            None => write!(f, "measured - ")?,
        }
        match self.structural {
            Some(s) => write!(f, "/ structural {s} ")?,
            None => write!(f, "/ structural - ")?,
        }
        write!(f, "/ declared {}", self.declared)
    }
}

/// The declared triples of virtual worker `vw`: one per stage, its
/// declared window `windows[stage]`, then one per physical GPU of
/// `gpus`, GPU `g` declaring the sum over the stages it hosts
/// (`stage % gpus == g`). `measured` and `structural` are left for the
/// audit and the verifier to fill.
pub fn declared_bounds(vw: usize, windows: &[i64], gpus: usize) -> Vec<OccupancyBound> {
    let bound = |entity, declared| OccupancyBound {
        entity,
        measured: None,
        structural: None,
        declared,
    };
    let stages = windows
        .iter()
        .enumerate()
        .map(|(stage, &w)| bound(BoundEntity::Stage { vw, stage }, w));
    let gpus = (0..gpus).map(|gpu| {
        let hosted = windows.iter().skip(gpu).step_by(gpus).sum();
        bound(BoundEntity::Gpu { vw, gpu }, hosted)
    });
    stages.chain(gpus).collect()
}

/// Checks a batch of bounds, collecting every violation. `Ok` iff all
/// triples are sound.
pub fn check_bounds(bounds: &[OccupancyBound]) -> Result<(), Vec<String>> {
    let violations: Vec<String> = bounds
        .iter()
        .filter_map(OccupancyBound::violation)
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(measured: Option<i64>, structural: Option<i64>, declared: i64) -> OccupancyBound {
        OccupancyBound {
            entity: BoundEntity::Stage { vw: 0, stage: 1 },
            measured,
            structural,
            declared,
        }
    }

    #[test]
    fn soundness_chain() {
        assert!(b(Some(2), Some(3), 4).is_sound());
        assert!(b(Some(4), Some(4), 4).is_sound());
        assert!(b(None, Some(3), 4).is_sound());
        assert!(b(Some(3), None, 4).is_sound());
        assert!(b(None, None, 0).is_sound());
        // Each link can break independently.
        assert!(!b(Some(4), Some(3), 4).is_sound(), "measured > structural");
        assert!(!b(None, Some(5), 4).is_sound(), "structural > declared");
        assert!(!b(Some(5), None, 4).is_sound(), "measured > declared");
    }

    #[test]
    fn violation_names_the_broken_link() {
        let v = b(Some(4), Some(3), 4).violation().unwrap();
        assert!(v.contains("measured 4"), "{v}");
        let v = b(None, Some(9), 4).violation().unwrap();
        assert!(v.contains("structural peak 9"), "{v}");
    }

    #[test]
    fn over_reservation_lint() {
        // declared 4 vs structural 1: loose by 4× > 2×.
        assert!(b(None, Some(1), 4).over_reserved(2));
        // Exactly 2× is not "loose by more than 2×".
        assert!(!b(None, Some(2), 4).over_reserved(2));
        // No structural bound or an idle entity: nothing to lint.
        assert!(!b(None, None, 100).over_reserved(2));
        assert!(!b(None, Some(0), 100).over_reserved(2));
    }

    #[test]
    fn batch_check_collects_all() {
        let all = [b(Some(1), Some(2), 4), b(Some(9), Some(2), 4)];
        let errs = check_bounds(&all).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(check_bounds(&all[..1]).is_ok());
    }

    #[test]
    fn declared_bounds_sum_each_gpus_stages() {
        // Two chunks on three GPUs: GPU g hosts stages g and g + 3.
        let bounds = declared_bounds(1, &[6, 5, 4, 3, 2, 1], 3);
        let entities: Vec<String> = bounds.iter().map(|b| b.entity.to_string()).collect();
        assert_eq!(entities[..2], ["vw1 stage 0", "vw1 stage 1"]);
        assert_eq!(entities[6..], ["vw1 gpu 0", "vw1 gpu 1", "vw1 gpu 2"]);
        let declared: Vec<i64> = bounds.iter().map(|b| b.declared).collect();
        assert_eq!(declared, [6, 5, 4, 3, 2, 1, 9, 7, 5]);
        assert!(bounds
            .iter()
            .all(|b| b.measured.is_none() && b.structural.is_none()));
    }

    #[test]
    fn display_renders_gpu_entities() {
        let bound = OccupancyBound {
            entity: BoundEntity::Gpu { vw: 2, gpu: 3 },
            measured: Some(1),
            structural: None,
            declared: 5,
        };
        let s = bound.to_string();
        assert!(s.contains("vw2 gpu 3"), "{s}");
        assert!(s.contains("declared 5"), "{s}");
    }
}
