//! The cache's front end: catalog, typed requests, and the shared
//! handle that solves replans on the caller's thread.

use crate::cache::{PlanCache, PlanKey};
use hetpipe_cluster::{Cluster, DeviceId};
use hetpipe_core::plankey::{cluster_fingerprint, graph_fingerprint};
use hetpipe_core::replan_problem;
use hetpipe_model::ModelGraph;
use hetpipe_partition::{PartitionError, PartitionPlan, PartitionSolver};
use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Default plan-cache capacity (plans).
const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The models and clusters a cache can plan for, registered up front
/// and addressed by their stable fingerprints. Immutable once the
/// cache starts (requests carry fingerprints, not graphs, so a request
/// stays small and its identity process-independent).
#[derive(Debug, Default)]
pub struct Catalog {
    models: HashMap<u64, Arc<ModelGraph>>,
    clusters: HashMap<u64, Arc<Cluster>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a model; returns its [`graph_fingerprint`] — the
    /// `model_fp` requests must carry.
    pub fn register_model(&mut self, graph: ModelGraph) -> u64 {
        let fp = graph_fingerprint(&graph);
        self.models.insert(fp, Arc::new(graph));
        fp
    }

    /// Registers a cluster; returns its [`cluster_fingerprint`] — the
    /// `cluster_fp` requests must carry.
    pub fn register_cluster(&mut self, cluster: Cluster) -> u64 {
        let fp = cluster_fingerprint(&cluster);
        self.clusters.insert(fp, Arc::new(cluster));
        fp
    }
}

/// How a [`PlanReply`] was produced (see the crate docs for the exact
/// honesty contract — `WarmMiss` is claimed only when the incumbent
/// bound genuinely applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Solved from scratch.
    Cold,
    /// Solved warm-started from a cached plan, the key's own or a
    /// family neighbor's (answer-preserving: still bit-identical to a
    /// cold solve).
    WarmMiss,
}

/// One planning request, identifying the instance entirely by value.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// [`graph_fingerprint`] of a catalog-registered model.
    pub model_fp: u64,
    /// [`cluster_fingerprint`] of a catalog-registered cluster.
    pub cluster_fp: u64,
    /// Expanded virtual-stage device list in pipeline order (for
    /// interleaved schedules this already repeats physical GPUs).
    pub devices: Vec<DeviceId>,
    /// Concurrent minibatches (`Nm ≥ 1`).
    pub nm: usize,
    /// Pipeline schedule.
    pub schedule: Schedule,
    /// Recomputation policy.
    pub recompute: RecomputePolicy,
    /// Observed per-stage derate factors (observed/planned duration
    /// ratios, clamped to ≥ 1). Empty means nominal (all 1.0);
    /// otherwise must match `devices` in length.
    pub observed_derates: Vec<f64>,
}

impl PlanRequest {
    /// A nominal (underated) request.
    pub fn nominal(
        model_fp: u64,
        cluster_fp: u64,
        devices: Vec<DeviceId>,
        nm: usize,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> PlanRequest {
        PlanRequest {
            model_fp,
            cluster_fp,
            devices,
            nm,
            schedule,
            recompute,
            observed_derates: Vec::new(),
        }
    }

    /// Normalized per-stage derates: empty → all 1.0, and every factor
    /// clamped to ≥ 1 (the solver derates specs by `r.max(1.0)`, so
    /// keys normalize the same way — `0.9` and `1.0` are the same
    /// instance).
    fn normalized_derates(&self) -> Result<Vec<f64>, PlanError> {
        if self.observed_derates.is_empty() {
            return Ok(vec![1.0; self.devices.len()]);
        }
        if self.observed_derates.len() != self.devices.len() {
            return Err(PlanError::BadRequest(format!(
                "{} derates for {} stage devices",
                self.observed_derates.len(),
                self.devices.len()
            )));
        }
        if self.observed_derates.iter().any(|r| !r.is_finite()) {
            return Err(PlanError::BadRequest("non-finite derate".into()));
        }
        Ok(self.observed_derates.iter().map(|r| r.max(1.0)).collect())
    }

    /// The cache key this request resolves to.
    pub fn key(&self) -> Result<PlanKey, PlanError> {
        if self.devices.is_empty() {
            return Err(PlanError::BadRequest("empty device list".into()));
        }
        if self.nm == 0 {
            return Err(PlanError::BadRequest("nm must be >= 1".into()));
        }
        // Interleaved device lists repeat each physical GPU once per
        // chunk; any other length has no GPU for some chunk.
        if let Schedule::Interleaved1F1B { chunks: 0, .. } = self.schedule {
            return Err(PlanError::BadRequest("chunks must be >= 1".into()));
        }
        let chunks = self.schedule.colocated_stages();
        if !self.devices.len().is_multiple_of(chunks) {
            return Err(PlanError::BadRequest(format!(
                "{} stage devices do not split into {chunks} chunks",
                self.devices.len()
            )));
        }
        let derates = self.normalized_derates()?;
        Ok(PlanKey {
            model_fp: self.model_fp,
            cluster_fp: self.cluster_fp,
            devices: self.devices.clone(),
            nm: self.nm,
            schedule: self.schedule,
            recompute: self.recompute,
            derate_bits: derates.iter().map(|r| r.to_bits()).collect(),
        })
    }
}

/// A solved plan.
#[derive(Debug, Clone)]
pub struct PlanReply {
    /// The partition plan (always bit-identical to what a cold
    /// [`PartitionSolver::solve`] of the same instance returns).
    pub plan: PartitionPlan,
    /// How the plan was solved.
    pub provenance: Provenance,
}

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// `model_fp` is not in the catalog.
    UnknownModel(u64),
    /// `cluster_fp` is not in the catalog.
    UnknownCluster(u64),
    /// Malformed request (empty devices, bad derate vector, device out
    /// of range, `nm = 0`, zero interleaved chunks, or a device list
    /// that does not split into the schedule's chunks).
    BadRequest(String),
    /// The instance has no feasible partition (callers typically lower
    /// `Nm` and retry — the controller owns that loop).
    Partition(PartitionError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownModel(fp) => write!(f, "unknown model fingerprint {fp:#x}"),
            PlanError::UnknownCluster(fp) => write!(f, "unknown cluster fingerprint {fp:#x}"),
            PlanError::BadRequest(why) => write!(f, "bad request: {why}"),
            PlanError::Partition(e) => write!(f, "partition failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// State shared by the service and every client.
#[derive(Debug)]
struct Shared {
    catalog: Catalog,
    cache: Mutex<PlanCache>,
}

impl Shared {
    fn cache(&self) -> std::sync::MutexGuard<'_, PlanCache> {
        // No cache operation panics halfway through an update, so a
        // poisoned lock still guards a consistent cache.
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The owner of one plan cache. Create with [`PlanService::start`] and
/// hand out [`PlanClient`]s via [`PlanService::client`].
#[derive(Debug)]
pub struct PlanService {
    shared: Arc<Shared>,
}

impl PlanService {
    /// Creates an empty cache over `catalog`. `workers` is ignored:
    /// every replan solves on its caller's thread, and the only caller,
    /// the runtime controller, blocks on each reply anyway. The
    /// parameter stays because the standalone benchmark package calls
    /// `start(catalog, 1)`.
    pub fn start(catalog: Catalog, _workers: usize) -> PlanService {
        PlanService {
            shared: Arc::new(Shared {
                catalog,
                cache: Mutex::new(PlanCache::new(DEFAULT_CACHE_CAPACITY)),
            }),
        }
    }

    /// A new handle to this cache (cheap; clients are also `Clone`).
    pub fn client(&self) -> PlanClient {
        PlanClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Every cached plan with the key it was solved for, in no
    /// particular order.
    pub fn cached_plans(&self) -> Vec<(PlanKey, PartitionPlan)> {
        self.shared.cache().plans()
    }

    /// Lifetime cache counters: `(hits, misses, publishes)`. Each
    /// replan looks up its own key, and on a miss its family
    /// neighbor; each stored replan is a publish.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        self.shared.cache().stats()
    }

    /// Drops the service. Clients still hold the cache until they are
    /// dropped too.
    pub fn shutdown(self) {}
}

/// A cheap, clonable handle to one [`PlanService`]'s cache.
#[derive(Debug, Clone)]
pub struct PlanClient {
    shared: Arc<Shared>,
}

impl PlanClient {
    /// Solves `req` on the caller's thread — warm-started from this
    /// key's prior plan or a family neighbor when one applies — and
    /// stores the plan under the request's key.
    pub fn replan(&self, req: &PlanRequest) -> Result<PlanReply, PlanError> {
        let key = req.key()?;
        let (plan, provenance) = solve(&self.shared, req, &key)?;
        self.shared.cache().publish(&key, plan.clone());
        Ok(PlanReply { plan, provenance })
    }
}

/// Cold-or-warm solve of `req`'s [`replan_problem`], the problem
/// [`hetpipe_core::replan_vw_from_observed`] solves too, so a cached
/// replan is bit-identical to the in-process path.
fn solve(
    shared: &Shared,
    req: &PlanRequest,
    key: &PlanKey,
) -> Result<(PartitionPlan, Provenance), PlanError> {
    let graph = shared
        .catalog
        .models
        .get(&req.model_fp)
        .ok_or(PlanError::UnknownModel(req.model_fp))?;
    let cluster = shared
        .catalog
        .clusters
        .get(&req.cluster_fp)
        .ok_or(PlanError::UnknownCluster(req.cluster_fp))?;
    if let Some(&bad) = req.devices.iter().find(|d| d.0 >= cluster.device_count()) {
        return Err(PlanError::BadRequest(format!(
            "device {} out of range for cluster with {} devices",
            bad.0,
            cluster.device_count()
        )));
    }
    let derates = req.normalized_derates()?;
    let problem = replan_problem(
        cluster,
        graph,
        &req.devices,
        &derates,
        req.nm,
        req.schedule,
        req.recompute,
    );
    // Incumbent: this key's own prior plan, else the most recent
    // family neighbor (different Nm / derates, same shape).
    let incumbent = {
        let mut cache = shared.cache();
        cache.get(key).or_else(|| cache.neighbor(key))
    };
    if let Some(inc) = incumbent {
        // Claim a warm start only when the incumbent yields a finite
        // pruning bound on *this* instance (valid cover, still
        // memory-feasible, non-colocated schedule).
        if PartitionSolver::incumbent_bound_secs(&problem, &inc.ranges).is_some() {
            let plan = PartitionSolver::solve_warm(&problem, Some(&inc.ranges))
                .map_err(PlanError::Partition)?;
            return Ok((plan, Provenance::WarmMiss));
        }
    }
    let plan = PartitionSolver::solve(&problem).map_err(PlanError::Partition)?;
    Ok((plan, Provenance::Cold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_cluster::GpuKind;

    fn service() -> (PlanService, u64, u64) {
        let mut catalog = Catalog::new();
        let model_fp = catalog.register_model(hetpipe_model::resnet152(32));
        let cluster_fp = catalog.register_cluster(Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]));
        (PlanService::start(catalog, 1), model_fp, cluster_fp)
    }

    fn devices() -> Vec<DeviceId> {
        (0..4).map(DeviceId).collect()
    }

    fn nominal(model_fp: u64, cluster_fp: u64, nm: usize) -> PlanRequest {
        PlanRequest::nominal(
            model_fp,
            cluster_fp,
            devices(),
            nm,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        )
    }

    #[test]
    fn cold_then_hit_with_stable_seq() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        let req = nominal(model_fp, cluster_fp, 2);
        let first = client.replan(&req).unwrap();
        assert_eq!(first.provenance, Provenance::Cold);
        assert_eq!(svc.cache_stats(), (0, 1, 1), "a miss, then a publish");
        // The second replan finds its own key and warm-starts from it.
        let second = client.replan(&req).unwrap();
        assert_eq!(second.provenance, Provenance::WarmMiss);
        assert_eq!(svc.cache_stats(), (1, 1, 2), "a hit, then a publish");
        assert_eq!(second.plan.ranges, first.plan.ranges);
        assert_eq!(second.plan.stage_secs, first.plan.stage_secs);
        let stored = svc.cached_plans();
        assert_eq!(stored.len(), 1);
        assert_eq!(stored[0].1.ranges, first.plan.ranges);
    }

    #[test]
    fn replan_publishes_increasing_seq() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        let req = nominal(model_fp, cluster_fp, 2);
        // Each replan of one key counts one more publish and replaces
        // that key's single entry.
        for publishes in 1..=3 {
            client.replan(&req).unwrap();
            assert_eq!(svc.cache_stats().2, publishes);
            assert_eq!(svc.cached_plans().len(), 1);
        }
        // Another Nm is another key: one more publish, a second entry.
        client.replan(&nominal(model_fp, cluster_fp, 3)).unwrap();
        assert_eq!(svc.cache_stats().2, 4);
        assert_eq!(svc.cached_plans().len(), 2);
    }

    #[test]
    fn derated_miss_warm_starts_from_family_neighbor() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        let nominal = nominal(model_fp, cluster_fp, 2);
        assert_eq!(
            client.replan(&nominal).unwrap().provenance,
            Provenance::Cold
        );
        let mut derated = nominal.clone();
        derated.observed_derates = vec![1.5, 1.0, 1.0, 1.0];
        let warm = client.replan(&derated).unwrap();
        assert_eq!(warm.provenance, Provenance::WarmMiss);
        // Own key missed, the nominal neighbor hit.
        assert_eq!(svc.cache_stats(), (1, 2, 2));
        // Parity: warm-start is answer-preserving.
        let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
        let graph = hetpipe_model::resnet152(32);
        let cold = hetpipe_core::replan_vw_from_observed(
            &cluster,
            &graph,
            &devices(),
            &[1.5, 1.0, 1.0, 1.0],
            2,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
            None,
        )
        .unwrap();
        assert_eq!(warm.plan.ranges, cold.ranges);
        assert_eq!(warm.plan.stage_secs, cold.stage_secs);
    }

    #[test]
    fn unknown_fingerprints_and_bad_requests_error() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        let good = nominal(model_fp, cluster_fp, 2);
        let mut bad = good.clone();
        bad.model_fp = 0xdead;
        assert_eq!(
            client.replan(&bad).unwrap_err(),
            PlanError::UnknownModel(0xdead)
        );
        let mut bad = good.clone();
        bad.cluster_fp = 0xbeef;
        assert_eq!(
            client.replan(&bad).unwrap_err(),
            PlanError::UnknownCluster(0xbeef)
        );
        let mut bad = good.clone();
        bad.devices = vec![DeviceId(99); 4];
        assert!(matches!(
            client.replan(&bad).unwrap_err(),
            PlanError::BadRequest(_)
        ));
        let mut bad = good.clone();
        bad.observed_derates = vec![1.0; 3];
        assert!(matches!(
            client.replan(&bad).unwrap_err(),
            PlanError::BadRequest(_)
        ));
        let mut bad = good.clone();
        bad.nm = 0;
        assert!(matches!(
            client.replan(&bad).unwrap_err(),
            PlanError::BadRequest(_)
        ));
        let mut bad = good;
        bad.devices.clear();
        assert!(matches!(
            client.replan(&bad).unwrap_err(),
            PlanError::BadRequest(_)
        ));
        // Refused before any lookup: nothing counted, nothing stored.
        assert_eq!(svc.cache_stats(), (0, 0, 0));
    }

    #[test]
    fn malformed_interleaved_requests_are_refused_and_the_cache_still_serves() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        let interleaved = |devices: Vec<DeviceId>, chunks: usize| {
            PlanRequest::nominal(
                model_fp,
                cluster_fp,
                devices,
                2,
                Schedule::Interleaved1F1B {
                    chunks,
                    composite: true,
                },
                RecomputePolicy::None,
            )
        };
        let d = DeviceId;
        for bad in [
            interleaved(vec![d(0)], 2),
            interleaved(vec![d(0), d(1), d(0)], 2),
            interleaved(vec![d(0), d(1), d(2), d(3)], 0),
        ] {
            assert!(
                matches!(client.replan(&bad), Err(PlanError::BadRequest(_))),
                "{} devices x {:?} must be refused",
                bad.devices.len(),
                bad.schedule
            );
        }
        let good = interleaved(vec![d(0), d(1), d(0), d(1)], 2);
        let reply = client.replan(&good).expect("the cache still serves");
        assert_eq!(reply.plan.ranges.len(), 4);
        assert_eq!(svc.cache_stats(), (0, 1, 1));
    }

    #[test]
    fn infeasible_nm_reports_partition_error() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        // ResNet-152 on 4 whimpy RTX 2060s cannot hold hundreds of
        // concurrent minibatches.
        let req = nominal(model_fp, cluster_fp, 512);
        assert!(matches!(
            client.replan(&req).unwrap_err(),
            PlanError::Partition(PartitionError::OutOfMemory)
        ));
        // The lookup happened; nothing was stored.
        assert_eq!(svc.cache_stats(), (0, 1, 0));
        assert!(svc.cached_plans().is_empty());
    }
}
