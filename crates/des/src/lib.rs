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
//!   reproducible bit-for-bit. It is a keyed binary heap with a FIFO
//!   lane for events pushed at the instant being processed.
//! - [`engine`] — the simulation driver: schedule events, pop them in
//!   order, let a handler schedule more.
//! - [`resource`] — serially-reusable timeline resources (a GPU, a NIC)
//!   with first-come-first-served reservation and busy-time accounting.
//! - [`trace`] — span sinks: a trace that keeps every span (pins,
//!   fingerprints, chrome export), a sink that keeps none, and the
//!   running peak fold the in-run consumers use (the paper's Figure 3
//!   GPU utilization and the Section 8.4 synchronization-overhead
//!   analysis need only running sums).
//! - [`bounds`] — the measured / structural / declared occupancy-bound
//!   triple shared by the trace audit and the static schedule verifier
//!   (`hetpipe-verify`), with the `measured ≤ structural ≤ declared`
//!   soundness predicate.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod engine;
pub mod event;
pub mod resource;
pub mod time;
pub mod trace;

pub use bounds::{check_bounds, declared_bounds, BoundEntity, OccupancyBound};
pub use engine::Engine;
pub use event::EventQueue;
pub use resource::{RateTimeline, Resource, ResourceId, ResourcePool};
pub use time::SimTime;
pub use trace::{peak_of_events, Discard, PeakFold, Span, SpanSink, Trace};
