//! An in-process plan cache for fault-driven replans.
//!
//! HetPipe plans each virtual worker's partition offline, once per
//! configuration (§7); PipeDream's profiler and optimizer plan the same
//! way. At run time the elastic controller (`hetpipe-runtime`) re-plans
//! a virtual worker whenever its observed costs or its surviving GPUs
//! change. This crate keeps the plans of those replans so that the next
//! replan of the same or a similar instance starts warm.
//!
//! # Requests and keys
//!
//! A [`PlanRequest`] names the planning instance by value: `model_fp`
//! and `cluster_fp` are the process-stable FNV-1a fingerprints of
//! [`hetpipe_core::plankey`] (registered up front in a [`Catalog`]),
//! plus the expanded stage-device list, `Nm`, schedule, recompute
//! policy, and the observed per-stage derate vector. It resolves to a
//! [`PlanKey`]. The [`PlanReply`] carries the partition plan and its
//! [`Provenance`]:
//!
//! - [`Provenance::WarmMiss`] — solved warm-started from a cached plan
//!   via [`hetpipe_partition::PartitionSolver::solve_warm`]; claimed
//!   only when [`PartitionSolver::incumbent_bound_secs`] confirms the
//!   incumbent yields a finite pruning bound. The warm start is
//!   answer-preserving, so the reply is bit-identical to a cold solve.
//! - [`Provenance::Cold`] — solved from scratch.
//!
//! # Replans and warm starts
//!
//! [`PlanClient::replan`] always solves, on the caller's thread, and
//! stores the result under its key. Its incumbent is the key's own
//! prior plan when one is cached, otherwise the most recently stored
//! member of the key's *family*: same model and cluster fingerprints,
//! same device list, schedule, and recompute policy, but any `Nm` or
//! derate vector. Family members share the device list, hence the stage
//! count, so the incumbent is always shape-compatible. A straggler
//! replan warm-starts from the nominal plan; an `Nm` backoff
//! warm-starts from the higher-`Nm` plan (memory is monotone in `Nm`,
//! so that incumbent stays feasible).
//!
//! The cache counts key lookups as hits and misses, and stored replans
//! as publishes ([`PlanService::cache_stats`]). It is bounded, and
//! evicts its least-recently-used plan when full.
//!
//! [`PartitionSolver::incumbent_bound_secs`]: hetpipe_partition::PartitionSolver::incumbent_bound_secs

pub mod cache;
pub mod service;

pub use cache::PlanKey;
pub use service::{
    Catalog, PlanClient, PlanError, PlanReply, PlanRequest, PlanService, Provenance,
};
