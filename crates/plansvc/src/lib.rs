//! An inert stand-in for the former plan cache.
//!
//! Every runtime replan solves in process
//! ([`hetpipe_core::replan_vw_from_observed`], warm-started from the
//! virtual worker's current plan), so nothing here plans. These names
//! remain only because the standalone `e2e_bench` package still builds
//! a [`PlanService`] and hands its client to the runtime, which
//! ignores it (`RuntimeParams::planner`). The stub and that field go
//! with the next change to the benchmark (ROADMAP item 3).

use hetpipe_cluster::Cluster;
use hetpipe_model::ModelGraph;

/// Accepts models and clusters and keeps none of them.
#[derive(Debug, Default)]
pub struct Catalog;

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog
    }

    /// Accepts a model; nothing reads it.
    pub fn register_model(&mut self, _graph: ModelGraph) {}

    /// Accepts a cluster; nothing reads it.
    pub fn register_cluster(&mut self, _cluster: Cluster) {}
}

/// A service that serves nothing.
#[derive(Debug)]
pub struct PlanService;

impl PlanService {
    /// Takes the catalog and a worker count, and ignores both.
    pub fn start(_catalog: Catalog, _workers: usize) -> PlanService {
        PlanService
    }

    /// A handle the runtime accepts and ignores.
    pub fn client(&self) -> PlanClient {
        PlanClient
    }

    /// `(hits, misses, publishes)`: always zero, since nothing is
    /// cached.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Drops the service.
    pub fn shutdown(self) {}
}

/// The handle [`PlanService::client`] returns.
#[derive(Debug, Clone)]
pub struct PlanClient;

/// Empty, but it makes the benchmark's `drop(client)` a real drop
/// (Clippy denies dropping a type without `Drop`).
impl Drop for PlanClient {
    fn drop(&mut self) {}
}
