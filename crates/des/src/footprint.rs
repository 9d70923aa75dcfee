//! Declared read/write resource footprints — the vocabulary the
//! static isolation pass speaks.
//!
//! The VW-isolation claim: virtual workers interact *only* through
//! parameter-server push/pull, so each VW's event stream could run on
//! its own engine and synchronize conservatively at WSP gates. Proving that claim statically
//! (`hetpipe-verify`'s isolation pass) needs a shared language for
//! *what state an event touches*: every event class declares a
//! [`Footprint`] — the [`FootprintResource`]s it reads and writes —
//! and every resource has an [`Owner`] that decides which engine may
//! host it.
//!
//! The ownership discipline is the whole theorem:
//!
//! - [`Owner::Vw`] resources (execution slots, activation stashes,
//!   stage boundary channels, weight buffers) are keyed by their
//!   virtual worker. Two different VWs can never name the same
//!   VW-owned resource, so any dependency between their events must
//!   flow through something else.
//! - [`Owner::ParameterServer`] resources ([`FootprintResource::PsWave`])
//!   are the *only* legal something else: a wave cell written by every
//!   worker's push and read by every worker's pull gate.
//! - [`Owner::External`] resources ([`FootprintResource::Rate`]) are
//!   written by the world, not by any VW event: fault-script rate
//!   edges retune a GPU's or NIC's service rate. They carry no
//!   VW-to-VW information, which is why a fault script can simply be
//!   replicated onto every VW's resources.
//!
//! This module is deliberately dependency-free data (like
//! [`crate::bounds`]): the schedule crate and the runtime declare
//! footprints in this vocabulary, and the verifier judges dependency
//! edges against them, without any of the three depending on each
//! other.

use std::fmt;

/// Which engine owns a resource under the per-VW decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Owner {
    /// Private to one virtual worker's engine.
    Vw(usize),
    /// Shared through the parameter server — the only legal cross-VW
    /// channel.
    ParameterServer,
    /// Written by the environment (fault scripts), read by no event's
    /// dependency logic: safe to replicate into every engine.
    External,
}

/// Which hardware timeline a [`FootprintResource::Rate`] register
/// retunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RateKind {
    /// A GPU's compute service rate.
    Gpu,
    /// A NIC's transfer service rate.
    Nic,
}

/// One nameable piece of simulation state an event can read or write.
///
/// (Distinct from [`crate::resource::Resource`], the *timeline*
/// resource of the engine: this is the static-analysis name of a state
/// cell, not a reservable serial device.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FootprintResource {
    /// The serial execution slot of one execution unit (a virtual
    /// stage, or a physical GPU for composite schedules) — what
    /// program-order edges serialize on.
    ExecUnit {
        /// Virtual worker.
        vw: usize,
        /// Execution unit within the VW (stage index, or GPU index
        /// for composite per-GPU streams).
        unit: usize,
    },
    /// The activation stash of one stage (forward fills it, backward
    /// drains it, recompute rebuilds it).
    Activations {
        /// Virtual worker.
        vw: usize,
        /// Virtual stage.
        stage: usize,
    },
    /// The boundary channel between `stage` and `stage + 1`:
    /// activations flow up it (forward), gradients flow back down it
    /// (backward).
    Boundary {
        /// Virtual worker.
        vw: usize,
        /// The lower stage of the `stage ↔ stage + 1` boundary.
        stage: usize,
    },
    /// The weight buffers of one stage (gates refresh them, computes
    /// read them, backwards accumulate gradients into them).
    Weights {
        /// Virtual worker.
        vw: usize,
        /// Virtual stage.
        stage: usize,
    },
    /// The parameter server's cell for one wave's aggregated update —
    /// the sole [`Owner::ParameterServer`] resource.
    PsWave {
        /// WSP wave index.
        wave: u64,
    },
    /// The service-rate register of a GPU or NIC — what fault-script
    /// rate edges write.
    Rate {
        /// GPU or NIC.
        kind: RateKind,
        /// Cluster device / node index.
        index: usize,
    },
}

impl FootprintResource {
    /// The owner of this resource under the per-VW decomposition.
    pub fn owner(&self) -> Owner {
        match *self {
            FootprintResource::ExecUnit { vw, .. }
            | FootprintResource::Activations { vw, .. }
            | FootprintResource::Boundary { vw, .. }
            | FootprintResource::Weights { vw, .. } => Owner::Vw(vw),
            FootprintResource::PsWave { .. } => Owner::ParameterServer,
            FootprintResource::Rate { .. } => Owner::External,
        }
    }
}

impl fmt::Display for FootprintResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FootprintResource::ExecUnit { vw, unit } => write!(f, "vw{vw} exec-unit {unit}"),
            FootprintResource::Activations { vw, stage } => {
                write!(f, "vw{vw} activations s{stage}")
            }
            FootprintResource::Boundary { vw, stage } => {
                write!(f, "vw{vw} boundary s{stage}↔s{}", stage + 1)
            }
            FootprintResource::Weights { vw, stage } => write!(f, "vw{vw} weights s{stage}"),
            FootprintResource::PsWave { wave } => write!(f, "PS wave {wave}"),
            FootprintResource::Rate {
                kind: RateKind::Gpu,
                index,
            } => write!(f, "rate gpu{index}"),
            FootprintResource::Rate {
                kind: RateKind::Nic,
                index,
            } => write!(f, "rate nic{index}"),
        }
    }
}

/// The declared read/write set of one event class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Resources the event reads.
    pub reads: Vec<FootprintResource>,
    /// Resources the event writes.
    pub writes: Vec<FootprintResource>,
}

impl Footprint {
    /// Every resource the footprint touches (reads then writes,
    /// duplicates preserved — callers compare by membership).
    pub fn touches(&self) -> impl Iterator<Item = FootprintResource> + '_ {
        self.reads.iter().chain(self.writes.iter()).copied()
    }

    /// The resources on which `self` happening-before `other` is a
    /// genuine dependence: flow (`self` writes, `other` reads), output
    /// (both write), and anti (`self` reads, `other` writes)
    /// conflicts. A dependency edge between two events is *explained*
    /// by their footprints iff this is non-empty.
    pub fn conflicts_with(&self, other: &Footprint) -> Vec<FootprintResource> {
        let mut out = Vec::new();
        for &w in &self.writes {
            if (other.reads.contains(&w) || other.writes.contains(&w)) && !out.contains(&w) {
                out.push(w);
            }
        }
        for &r in &self.reads {
            if other.writes.contains(&r) && !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_partition() {
        assert_eq!(
            FootprintResource::ExecUnit { vw: 2, unit: 1 }.owner(),
            Owner::Vw(2)
        );
        assert_eq!(
            FootprintResource::Weights { vw: 0, stage: 3 }.owner(),
            Owner::Vw(0)
        );
        assert_eq!(
            FootprintResource::PsWave { wave: 7 }.owner(),
            Owner::ParameterServer
        );
        assert_eq!(
            FootprintResource::Rate {
                kind: RateKind::Nic,
                index: 1
            }
            .owner(),
            Owner::External
        );
    }

    #[test]
    fn conflicts_cover_flow_output_and_anti() {
        let a = FootprintResource::Activations { vw: 0, stage: 1 };
        let b = FootprintResource::Boundary { vw: 0, stage: 1 };
        let c = FootprintResource::Weights { vw: 0, stage: 1 };
        // Flow: writer → reader.
        let w = Footprint {
            reads: vec![],
            writes: vec![a],
        };
        let r = Footprint {
            reads: vec![a],
            writes: vec![],
        };
        assert_eq!(w.conflicts_with(&r), vec![a]);
        // Anti: reader → writer.
        assert_eq!(r.conflicts_with(&w), vec![a]);
        // Output: writer → writer.
        assert_eq!(w.conflicts_with(&w), vec![a]);
        // Disjoint footprints conflict on nothing.
        let other = Footprint {
            reads: vec![b],
            writes: vec![c],
        };
        assert!(w.conflicts_with(&other).is_empty());
    }

    #[test]
    fn vw_keyed_resources_cannot_collide_across_vws() {
        // The structural heart of the isolation theorem: the same
        // stage's resources on two VWs are different resources.
        let mine = Footprint {
            reads: vec![FootprintResource::Boundary { vw: 0, stage: 2 }],
            writes: vec![FootprintResource::Weights { vw: 0, stage: 2 }],
        };
        let theirs = Footprint {
            reads: vec![FootprintResource::Boundary { vw: 1, stage: 2 }],
            writes: vec![FootprintResource::Weights { vw: 1, stage: 2 }],
        };
        assert!(mine.conflicts_with(&theirs).is_empty());
        // ...while the PS wave cell is one shared resource.
        let push = Footprint {
            reads: vec![],
            writes: vec![FootprintResource::PsWave { wave: 0 }],
        };
        let gate = Footprint {
            reads: vec![FootprintResource::PsWave { wave: 0 }],
            writes: vec![FootprintResource::Weights { vw: 1, stage: 0 }],
        };
        let shared = push.conflicts_with(&gate);
        assert_eq!(shared, vec![FootprintResource::PsWave { wave: 0 }]);
        assert!(shared.iter().all(|r| r.owner() == Owner::ParameterServer));
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(
            FootprintResource::Boundary { vw: 1, stage: 2 }.to_string(),
            "vw1 boundary s2↔s3"
        );
        assert_eq!(
            FootprintResource::PsWave { wave: 3 }.to_string(),
            "PS wave 3"
        );
        assert_eq!(
            FootprintResource::Rate {
                kind: RateKind::Gpu,
                index: 5
            }
            .to_string(),
            "rate gpu5"
        );
    }
}
