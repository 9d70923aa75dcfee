//! The HetPipe system: pipelined model parallelism within virtual
//! workers, data parallelism across them, synchronized by the Wave
//! Synchronous Parallel (WSP) model.
//!
//! This crate is the paper's primary contribution, rebuilt on the
//! simulation substrates:
//!
//! - [`sync`] — WSP clock and staleness algebra (Sections 4–5): local
//!   staleness `s_local = Nm − 1`, global staleness
//!   `s_global = (D+1)(s_local+1) + s_local − 1`, wave bookkeeping, and
//!   the minibatch start gate.
//! - [`pserver`] — sharded parameter servers with the paper's two
//!   placement policies (round-robin *default* and ED-*local*,
//!   Section 8.1) and per-path traffic accounting.
//! - [`alloc`] — the resource-allocation policies of Table 3: Node
//!   Partition (NP), Equal Distribution (ED), Hybrid Distribution (HD).
//! - [`vw`] — virtual workers: a group of (possibly heterogeneous) GPUs
//!   executing one pipeline.
//! - [`exec`] — the discrete-event executor: the Figure-1 pipeline
//!   schedule (FIFO conditions 1–3, fused forward/backward at the last
//!   stage), wave-aggregated pushes, D-bounded pulls,
//!   executor-enforced activation windows, and activation
//!   recomputation.
//! - [`audit`] — the measured ≤ declared activation-occupancy audit:
//!   per-stage/per-GPU peaks measured during the run, checked against the
//!   schedule's declared memory accounting.
//! - [`planner`] — the one virtual-worker planner, a memo of `Nm`-sweep
//!   prefixes the build and every runtime replan read, and the two
//!   `Nm` rules (the build's §8.3 objective, the replan's highest
//!   common feasible `Nm`).
//! - [`system`] — end-to-end assembly and simulation entry point.
//! - [`metrics`] — throughput, per-GPU utilization, waiting vs true
//!   idle time (Section 8.4), and traffic split.
//! - [`fingerprint`] — the process-stable FNV-1a accumulator trace
//!   digests share, and the order-independent span multiset digest
//!   [`trace_fingerprint`].
//! - [`convergence`] — composition of simulated throughput with
//!   accuracy-per-update curves into time to accuracy (Figures 5
//!   and 6).

#![forbid(unsafe_code)]

pub mod alloc;
pub mod audit;
pub mod convergence;
pub mod exec;
pub mod fingerprint;
pub mod metrics;
pub mod planner;
pub mod pserver;
pub mod sync;
pub mod system;
pub mod vw;

pub use alloc::AllocationPolicy;
pub use audit::OccupancyAudit;
pub use exec::{RateEvent, RateTarget, SegmentOpts};
pub use fingerprint::{trace_fingerprint, Fnv};
pub use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
pub use metrics::SystemReport;
pub use planner::Planner;
pub use pserver::Placement;
pub use sync::WspParams;
pub use system::{BuildCounts, BuildError, HetPipeSystem, SystemConfig};
pub use vw::VirtualWorker;
