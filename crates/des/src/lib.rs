//! A small deterministic discrete-event simulation (DES) engine.
//!
//! The HetPipe paper evaluates on real hardware; this reproduction
//! replaces the hardware with an analytic model driven by a discrete-event
//! simulation. The engine is deliberately minimal and fully
//! deterministic:
//!
//! - [`time`] — fixed-point simulated time ([`SimTime`], integer
//!   nanoseconds) so that event ordering never depends on float rounding.
//! - [`event`] — a priority queue with total `(time, sequence)` ordering:
//!   ties are broken by insertion order, which makes every run
//!   reproducible bit-for-bit.
//! - [`engine`] — the simulation driver: schedule events, pop them in
//!   order, let a handler schedule more.
//! - [`resource`] — serially-reusable timeline resources (a GPU, a NIC)
//!   with first-come-first-served reservation and busy-time accounting.
//! - [`trace`] — span recording for utilization and waiting/idle-time
//!   reports (feeds the paper's Figure 3 GPU-utilization plots and the
//!   Section 8.4 synchronization-overhead analysis).
//! - [`bounds`] — the measured / structural / declared occupancy-bound
//!   triple shared by the trace audit and the static schedule verifier
//!   (`hetpipe-verify`), with the `measured ≤ structural ≤ declared`
//!   soundness predicate.
//! - [`footprint`] — declared read/write resource footprints per event
//!   class, with per-resource ownership (VW-private / parameter-server
//!   / external): the vocabulary `hetpipe-verify`'s VW-isolation pass
//!   judges dependency edges against.

pub mod bounds;
pub mod engine;
pub mod event;
pub mod footprint;
pub mod resource;
pub mod time;
pub mod trace;

pub use bounds::{check_bounds, BoundEntity, OccupancyBound};
pub use engine::{Engine, EngineCore};
pub use event::EventQueue;
pub use footprint::{Footprint, FootprintResource, Owner, RateKind};
pub use resource::{Resource, ResourceId, ResourcePool};
pub use time::SimTime;
pub use trace::{peak_of_events, Span, Trace};
