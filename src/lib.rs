//! HetPipe: heterogeneous pipelined-model-parallel + data-parallel DNN training.
//!
//! This is the facade crate of the HetPipe workspace, a from-scratch Rust
//! reproduction of *"HetPipe: Enabling Large DNN Training on (Whimpy)
//! Heterogeneous GPU Clusters through Integration of Pipelined Model
//! Parallelism and Data Parallelism"* (Park et al., USENIX ATC 2020).
//!
//! It re-exports the component crates:
//!
//! - [`cluster`] — heterogeneous GPU cluster substrate (Table 1 testbed,
//!   PCIe/InfiniBand transfer models).
//! - [`des`] — deterministic discrete-event simulation engine.
//! - [`model`] — DNN model graphs and the ResNet-152 / VGG-19 zoo with
//!   analytic compute/memory profiles.
//! - [`partition`] — the heterogeneity- and memory-aware min–max model
//!   partitioner (the paper's CPLEX formulation, solved exactly).
//! - [`core`] — the HetPipe system itself: virtual workers, pipelined
//!   execution, the Wave Synchronous Parallel (WSP) model, parameter
//!   servers, resource-allocation policies, and end-to-end simulation.
//! - [`allreduce`] — the Horovod-like all-reduce data-parallel baseline.
//! - [`train`] — a real (threaded, lock-based) WSP/SSP/BSP/ASP parameter
//!   server and SGD trainer used for convergence experiments.
//!
//! - [`plansvc`] — an inert stand-in for the former plan cache, kept
//!   for the standalone benchmark package; every replan solves in
//!   process.
//! - [`runtime`] — fault-aware *dynamic* execution: deterministic
//!   fault/straggler injection scripts, a trace-fed runtime monitor
//!   (per-stage EWMA of observed vs planned durations), and reactive
//!   policies — `SkipStraggler` (bounded composite-stream reorder)
//!   and `Replan` (live re-partitioning from observed costs, spliced
//!   at wave boundaries with per-epoch occupancy audits).
//! - [`schedule`] — pluggable static pipeline schedules (the paper's
//!   wave schedule, GPipe fill-drain, PipeDream 1F1B, interleaved
//!   1F1B) reified as per-stage op streams, with per-schedule peak
//!   memory accounting that the executor holds every run to
//!   (trace-audited measured ≤ declared), plus boundary-only
//!   activation recomputation as an explicit compute-vs-memory knob.
//! - [`verify`] — static verification: machine-checked
//!   deadlock-freedom certificates and structural occupancy bounds
//!   from the schedules' committed op queues, closed-form lookahead
//!   witnesses, exhaustive WSP staleness proofs, and an in-tree
//!   exhaustive-interleaving model checker with sleep-set
//!   partial-order reduction proving the WSP gate protocol (the
//!   `verify_all` CI gate sweeps the standing matrix through all of
//!   these).
//!
//! # Quickstart
//!
//! ```
//! use hetpipe::prelude::*;
//!
//! // The paper's 16-GPU testbed, partitioned by the Equal-Distribution
//! // policy into 4 virtual workers with local parameter placement.
//! let cluster = Cluster::paper_testbed();
//! let model = vgg19(32);
//! let config = SystemConfig {
//!     policy: AllocationPolicy::EqualDistribution,
//!     placement: Placement::Local,
//!     staleness_bound: 0,
//!     ..SystemConfig::default()
//! };
//! let report = HetPipeSystem::build(&cluster, &model, &config)
//!     .expect("feasible configuration")
//!     .run(SimTime::from_secs(60.0));
//! assert!(report.throughput_images_per_sec() > 0.0);
//! ```
//!
//! # Choosing a pipeline schedule
//!
//! The executor is generic over the pipeline schedule; the paper's
//! wave schedule is the default, and the GPipe / PipeDream / Megatron
//! alternatives plug in through [`SystemConfig::schedule`] — same
//! cluster, same partitioner, same WSP synchronization:
//!
//! ```
//! use hetpipe::prelude::*;
//!
//! let cluster = Cluster::paper_testbed();
//! let model = vgg19(32);
//! let config = SystemConfig {
//!     // One `Schedule` variant per schedule: HetPipeWave (the
//!     // default), FillDrain, OneFOneB, or Interleaved1F1B { chunks,
//!     // composite } — `composite: true` runs Megatron's per-GPU
//!     // chunk-group order, `false` the depth-expanded variant.
//!     // `Schedule::parse` reads the CLI names ("interleaved-1f1b:2").
//!     schedule: Schedule::OneFOneB,
//!     ..SystemConfig::default()
//! };
//! let sys = HetPipeSystem::build(&cluster, &model, &config).expect("feasible");
//! // Per-schedule memory accounting: peak bytes per physical GPU.
//! let peaks = sys.per_gpu_peak_bytes(0);
//! assert_eq!(peaks.len(), 4);
//! assert!(sys.run(SimTime::from_secs(30.0)).throughput_images_per_sec() > 0.0);
//! ```
//!
//! The `schedule_compare` binary in `hetpipe-bench` sweeps all five
//! schedule forms (including both interleaved variants, so the
//! composite-vs-depth-expanded fidelity delta is a standing
//! measurement) across the paper testbed, a homogeneous cluster, and
//! an all-whimpy RTX 2060 cluster, and can export per-GPU
//! `chrome://tracing` timelines (`--trace-out`).
//!
//! [`SystemConfig::schedule`]: hetpipe_core::SystemConfig

pub use hetpipe_allreduce as allreduce;
pub use hetpipe_cluster as cluster;
pub use hetpipe_core as core;
pub use hetpipe_des as des;
pub use hetpipe_fleet as fleet;
pub use hetpipe_model as model;
pub use hetpipe_partition as partition;
pub use hetpipe_plansvc as plansvc;
pub use hetpipe_runtime as runtime;
pub use hetpipe_schedule as schedule;
pub use hetpipe_train as train;
pub use hetpipe_verify as verify;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use hetpipe_allreduce::{HorovodBaseline, RingAllreduce};
    pub use hetpipe_cluster::{Cluster, DeviceId, GpuKind, LinkKind, Node, NodeId};
    pub use hetpipe_core::{
        AllocationPolicy, HetPipeSystem, Placement, SystemConfig, SystemReport, VirtualWorker,
    };
    pub use hetpipe_des::SimTime;
    pub use hetpipe_model::{mlp, resnet152, resnet50, vgg19, LayerKind, ModelGraph};
    pub use hetpipe_partition::{PartitionPlan, PartitionSolver};
    pub use hetpipe_schedule::{PipelineSchedule, Schedule, ScheduleOp, WspParams};
}
