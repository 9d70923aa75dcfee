//! The plan server: catalog, typed request/reply API, worker pool.

use crate::cache::{CachedPlan, PlanCache, PlanKey};
use hetpipe_cluster::{Cluster, DeviceId};
use hetpipe_core::plankey::{cluster_fingerprint, graph_fingerprint};
use hetpipe_core::VirtualWorker;
use hetpipe_model::ModelGraph;
use hetpipe_partition::{PartitionError, PartitionPlan, PartitionProblem, PartitionSolver};
use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};

/// Default plan-cache capacity (plans, across shards).
const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The models and clusters a service instance can plan for, registered
/// up front and addressed by their stable fingerprints. Immutable once
/// the service starts (requests carry fingerprints, not graphs, so the
/// wire type stays small and the identity stays process-independent).
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
    /// Served from the cache (bit-identical to the solve that
    /// populated it).
    CacheHit,
    /// Solved warm-started from a cached neighbor's plan
    /// (answer-preserving: still bit-identical to a cold solve).
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

/// A served plan.
#[derive(Debug, Clone)]
pub struct PlanReply {
    /// The partition plan (always bit-identical to what a cold
    /// [`PartitionSolver::solve`] of the same instance returns).
    pub plan: PartitionPlan,
    /// The key's `MatchSeq`-style version at serve time.
    pub seq: u64,
    /// Plan cost: bottleneck seconds.
    pub cost: f64,
    /// How the reply was produced.
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
    /// The service shut down while the request was in flight.
    ServiceStopped,
    /// The service did not answer within the client's deadline across
    /// every retry — it is slow, not provably dead. Callers with a
    /// local solver (the runtime controller) fall back in-process so
    /// a congested service cannot stall a wave-boundary splice.
    DeadlineExceeded,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownModel(fp) => write!(f, "unknown model fingerprint {fp:#x}"),
            PlanError::UnknownCluster(fp) => write!(f, "unknown cluster fingerprint {fp:#x}"),
            PlanError::BadRequest(why) => write!(f, "bad request: {why}"),
            PlanError::Partition(e) => write!(f, "partition failed: {e}"),
            PlanError::ServiceStopped => write!(f, "plan service stopped"),
            PlanError::DeadlineExceeded => write!(f, "plan service deadline exceeded"),
        }
    }
}

impl std::error::Error for PlanError {}

/// What a queued job asks of a worker.
#[derive(Debug)]
enum JobKind {
    /// Solve a request (`publish` distinguishes replan writes from
    /// query reads).
    Solve { req: PlanRequest, publish: bool },
    /// Occupy the worker for the duration without answering — the
    /// test hook behind [`PlanService::stall_workers`], simulating a
    /// service that is slow (congested, GC-paused) rather than dead.
    Stall(std::time::Duration),
}

/// One queued request.
#[derive(Debug)]
struct Job {
    kind: JobKind,
    reply: mpsc::Sender<Result<PlanReply, PlanError>>,
}

/// State shared by the service, its workers, and every client.
#[derive(Debug)]
struct Shared {
    catalog: Catalog,
    cache: PlanCache,
}

/// The plan server: owns the worker pool and the shared cache.
/// Create with [`PlanService::start`], hand out [`PlanClient`]s via
/// [`PlanService::client`].
#[derive(Debug)]
pub struct PlanService {
    shared: Arc<Shared>,
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl PlanService {
    /// Starts the service with `workers` solver threads (at least one)
    /// pulling from a shared mpsc request queue.
    pub fn start(catalog: Catalog, workers: usize) -> PlanService {
        let shared = Arc::new(Shared {
            catalog,
            cache: PlanCache::new(DEFAULT_CACHE_CAPACITY),
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("plansvc-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing,
                        // never while solving.
                        let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        match job {
                            Ok(job) => match job.kind {
                                JobKind::Solve { req, publish } => {
                                    let result = serve(&shared, &req, publish);
                                    // A client that gave up waiting is fine.
                                    let _ = job.reply.send(result);
                                }
                                JobKind::Stall(d) => {
                                    std::thread::sleep(d);
                                    let _ = job.reply.send(Err(PlanError::DeadlineExceeded));
                                }
                            },
                            // Queue closed: service shut down.
                            Err(_) => break,
                        }
                    })
                    .expect("spawn plansvc worker")
            })
            .collect();
        PlanService {
            shared,
            tx: Some(tx),
            workers,
        }
    }

    /// A new client handle (cheap; clients are also `Clone`). The
    /// default client blocks indefinitely — bound it with
    /// [`PlanClient::with_deadline`] / [`PlanClient::with_retry`].
    pub fn client(&self) -> PlanClient {
        PlanClient {
            shared: Arc::clone(&self.shared),
            tx: self.tx.as_ref().expect("service running").clone(),
            deadline: None,
            retries: 0,
            backoff: std::time::Duration::from_millis(10),
        }
    }

    /// Test hook: enqueue one `JobKind::Stall` per worker so the
    /// whole pool is busy (slow, not dead) for `d`. Queued solve jobs
    /// behind the stalls still complete once the stalls drain.
    pub fn stall_workers(&self, d: std::time::Duration) {
        let tx = self.tx.as_ref().expect("service running");
        for _ in 0..self.workers.len() {
            let (reply, _rx) = mpsc::channel();
            let _ = tx.send(Job {
                kind: JobKind::Stall(d),
                reply,
            });
        }
    }

    /// Number of cached plans.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Drops every cached plan (bench harnesses use this to sample
    /// cold latencies on a long-running service).
    pub fn clear_cache(&self) {
        self.shared.cache.clear();
    }

    /// Lifetime cache counters: `(hits, misses, publishes)`.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (
            self.shared.cache.hits(),
            self.shared.cache.misses(),
            self.shared.cache.publishes(),
        )
    }

    /// Stops the workers and joins them. Every [`PlanClient`] must be
    /// dropped first — a live client keeps the queue open and this
    /// would block forever.
    pub fn shutdown(mut self) {
        self.tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        // Close the queue; workers drain and exit once the last client
        // hangs up. Not joined here — `shutdown` is the blocking path.
        self.tx = None;
    }
}

/// A clonable client handle: cache hits resolve directly against the
/// shared cache (no queue round-trip); misses and replans are blocking
/// request/reply jobs through the worker pool.
///
/// By default a client waits indefinitely for its reply. Latency-bound
/// callers (the runtime controller splicing at a wave boundary) set a
/// per-attempt deadline and a bounded retry budget with exponential
/// backoff; exhausting both yields [`PlanError::DeadlineExceeded`],
/// which such callers treat as "service slow — solve in-process". An
/// abandoned attempt's late reply is simply dropped by the worker.
#[derive(Debug, Clone)]
pub struct PlanClient {
    shared: Arc<Shared>,
    tx: mpsc::Sender<Job>,
    /// Per-attempt reply deadline (`None` = block forever).
    deadline: Option<std::time::Duration>,
    /// Extra attempts after the first deadline miss.
    retries: u32,
    /// Sleep before retry `n` is `backoff << n` (exponential).
    backoff: std::time::Duration,
}

impl PlanClient {
    /// Returns this client with a per-attempt reply deadline.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> PlanClient {
        self.deadline = Some(deadline);
        self
    }

    /// Returns this client with `retries` extra attempts after a
    /// deadline miss, sleeping `backoff`, `2·backoff`, `4·backoff`, …
    /// between attempts. Meaningless without a deadline.
    pub fn with_retry(mut self, retries: u32, backoff: std::time::Duration) -> PlanClient {
        self.retries = retries;
        self.backoff = backoff;
        self
    }
    /// Read path: serve `req` from the cache when present (a
    /// [`Provenance::CacheHit`], bit-identical to the solve that
    /// populated the entry), otherwise solve it on the worker pool —
    /// warm-started from a family neighbor when one applies — and
    /// cache the result at `seq = 1` (unless a racing publisher got
    /// there first, in which case its newer entry is served).
    pub fn plan(&self, req: &PlanRequest) -> Result<PlanReply, PlanError> {
        let key = req.key()?;
        if let Some(e) = self.shared.cache.get(&key) {
            return Ok(reply_from(e, Provenance::CacheHit));
        }
        self.call(req.clone(), false)
    }

    /// Write path (fault-driven replan): always re-solve — warm-started
    /// from this key's prior plan or a family neighbor — and publish at
    /// `seq + 1`, invalidating every stale reader of this key.
    pub fn replan(&self, req: &PlanRequest) -> Result<PlanReply, PlanError> {
        req.key()?;
        self.call(req.clone(), true)
    }

    fn call(&self, req: PlanRequest, publish: bool) -> Result<PlanReply, PlanError> {
        let attempts = 1 + self.retries;
        for attempt in 0..attempts {
            let (reply_tx, reply_rx) = mpsc::channel();
            self.tx
                .send(Job {
                    kind: JobKind::Solve {
                        req: req.clone(),
                        publish,
                    },
                    reply: reply_tx,
                })
                .map_err(|_| PlanError::ServiceStopped)?;
            match self.deadline {
                None => return reply_rx.recv().map_err(|_| PlanError::ServiceStopped)?,
                Some(d) => match reply_rx.recv_timeout(d) {
                    Ok(result) => return result,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(PlanError::ServiceStopped)
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if attempt + 1 < attempts {
                            // Exponential backoff between attempts; the
                            // abandoned attempt's reply channel is
                            // dropped, so its late answer is discarded.
                            std::thread::sleep(
                                self.backoff.saturating_mul(1u32 << attempt.min(20)),
                            );
                        }
                    }
                },
            }
        }
        Err(PlanError::DeadlineExceeded)
    }
}

fn reply_from(e: CachedPlan, provenance: Provenance) -> PlanReply {
    PlanReply {
        plan: e.plan,
        seq: e.seq,
        cost: e.cost,
        provenance,
    }
}

/// Worker-side request handling: validate, solve (warm when a sound
/// incumbent exists), publish or insert, reply.
fn serve(shared: &Shared, req: &PlanRequest, publish: bool) -> Result<PlanReply, PlanError> {
    let key = req.key()?;
    if !publish {
        // Double-check: another worker (or a publisher) may have
        // installed the entry since the client's fast-path miss.
        if let Some(e) = shared.cache.get(&key) {
            return Ok(reply_from(e, Provenance::CacheHit));
        }
    }
    let (plan, provenance) = solve(shared, req, &key)?;
    let cost = plan.bottleneck_secs;
    if publish {
        let entry = shared.cache.publish(&key, plan, cost);
        Ok(reply_from(entry, provenance))
    } else {
        let (entry, fresh) = shared.cache.insert_if_absent(&key, plan, cost);
        // A lost insert race serves the concurrently published (newer)
        // entry — a hit, as far as the caller can tell.
        let provenance = if fresh {
            provenance
        } else {
            Provenance::CacheHit
        };
        Ok(reply_from(entry, provenance))
    }
}

/// Cold-or-warm solve of `req`, mirroring
/// [`hetpipe_core::replan_vw_from_observed`] exactly (same derated
/// specs, same link derivation, same problem construction), so a
/// service-backed replan is bit-identical to the in-process path.
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
    let gpus: Vec<_> = req
        .devices
        .iter()
        .zip(&derates)
        .map(|(&d, &r)| cluster.spec_of(d).derated(r))
        .collect();
    let links = VirtualWorker::links(cluster, &req.devices);
    let problem = PartitionProblem::with_schedule(graph, gpus, links, req.nm, req.schedule)
        .with_recompute(req.recompute);
    // Incumbent: this key's own prior plan (replans), else the most
    // recent family neighbor (different Nm / derates, same shape).
    let incumbent = shared.cache.get(key).or_else(|| shared.cache.neighbor(key));
    if let Some(inc) = incumbent {
        // Claim a warm start only when the incumbent yields a finite
        // pruning bound on *this* instance (valid cover, still
        // memory-feasible, non-colocated schedule).
        if PartitionSolver::incumbent_bound_secs(&problem, &inc.plan.ranges).is_some() {
            let plan = PartitionSolver::solve_warm(&problem, Some(&inc.plan.ranges))
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
        (PlanService::start(catalog, 2), model_fp, cluster_fp)
    }

    fn devices() -> Vec<DeviceId> {
        (0..4).map(DeviceId).collect()
    }

    #[test]
    fn cold_then_hit_with_stable_seq() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        let req = PlanRequest::nominal(
            model_fp,
            cluster_fp,
            devices(),
            2,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        );
        let first = client.plan(&req).unwrap();
        assert_eq!(first.provenance, Provenance::Cold);
        assert_eq!(first.seq, 1);
        let second = client.plan(&req).unwrap();
        assert_eq!(second.provenance, Provenance::CacheHit);
        assert_eq!(second.seq, 1);
        assert_eq!(second.plan.ranges, first.plan.ranges);
        assert_eq!(second.plan.stage_secs, first.plan.stage_secs);
        drop(client);
        svc.shutdown();
    }

    #[test]
    fn replan_publishes_increasing_seq() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        let req = PlanRequest::nominal(
            model_fp,
            cluster_fp,
            devices(),
            2,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        );
        let a = client.replan(&req).unwrap();
        let b = client.replan(&req).unwrap();
        assert_eq!((a.seq, b.seq), (1, 2));
        // After a publish, reads serve the latest sequence.
        assert_eq!(client.plan(&req).unwrap().seq, 2);
        drop(client);
        svc.shutdown();
    }

    #[test]
    fn derated_miss_warm_starts_from_family_neighbor() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        let nominal = PlanRequest::nominal(
            model_fp,
            cluster_fp,
            devices(),
            2,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        );
        assert_eq!(client.plan(&nominal).unwrap().provenance, Provenance::Cold);
        let mut derated = nominal.clone();
        derated.observed_derates = vec![1.5, 1.0, 1.0, 1.0];
        let warm = client.plan(&derated).unwrap();
        assert_eq!(warm.provenance, Provenance::WarmMiss);
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
        drop(client);
        svc.shutdown();
    }

    #[test]
    fn unknown_fingerprints_and_bad_requests_error() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        let good = PlanRequest::nominal(
            model_fp,
            cluster_fp,
            devices(),
            2,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        );
        let mut bad = good.clone();
        bad.model_fp = 0xdead;
        assert_eq!(
            client.plan(&bad).unwrap_err(),
            PlanError::UnknownModel(0xdead)
        );
        let mut bad = good.clone();
        bad.cluster_fp = 0xbeef;
        assert_eq!(
            client.plan(&bad).unwrap_err(),
            PlanError::UnknownCluster(0xbeef)
        );
        let mut bad = good.clone();
        bad.devices = vec![DeviceId(99); 4];
        assert!(matches!(
            client.plan(&bad).unwrap_err(),
            PlanError::BadRequest(_)
        ));
        let mut bad = good.clone();
        bad.observed_derates = vec![1.0; 3];
        assert!(matches!(
            client.plan(&bad).unwrap_err(),
            PlanError::BadRequest(_)
        ));
        let mut bad = good.clone();
        bad.nm = 0;
        assert!(matches!(
            client.plan(&bad).unwrap_err(),
            PlanError::BadRequest(_)
        ));
        let mut bad = good;
        bad.devices.clear();
        assert!(matches!(
            client.plan(&bad).unwrap_err(),
            PlanError::BadRequest(_)
        ));
        drop(client);
        svc.shutdown();
    }

    #[test]
    fn malformed_interleaved_requests_are_refused_and_the_pool_survives() {
        // One worker, so a request that panicked it would stop the
        // whole pool and fail the valid request sent afterwards.
        let mut catalog = Catalog::new();
        let model_fp = catalog.register_model(hetpipe_model::resnet152(32));
        let cluster_fp = catalog.register_cluster(Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]));
        let svc = PlanService::start(catalog, 1);
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
                matches!(client.plan(&bad), Err(PlanError::BadRequest(_))),
                "{} devices x {:?} must be refused",
                bad.devices.len(),
                bad.schedule
            );
        }
        let good = interleaved(vec![d(0), d(1), d(0), d(1)], 2);
        let reply = client.plan(&good).expect("the pool still serves");
        assert_eq!(reply.plan.ranges.len(), 4);
        drop(client);
        svc.shutdown();
    }

    #[test]
    fn stalled_pool_times_out_then_recovers() {
        use std::time::Duration;
        let (svc, model_fp, cluster_fp) = service();
        let client = svc
            .client()
            .with_deadline(Duration::from_millis(20))
            .with_retry(1, Duration::from_millis(5));
        let req = PlanRequest::nominal(
            model_fp,
            cluster_fp,
            devices(),
            2,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        );
        // Both workers busy for longer than deadline x (1 + retries):
        // the bounded client gives up instead of stalling its caller.
        svc.stall_workers(Duration::from_millis(300));
        assert_eq!(
            client.replan(&req).unwrap_err(),
            PlanError::DeadlineExceeded
        );
        // Once the stall drains, the same client is served normally —
        // slow is a transient condition, not a poisoned handle.
        let patient = svc.client();
        let reply = patient.replan(&req).unwrap();
        assert!(reply.seq >= 1);
        assert!(reply.cost > 0.0);
        drop(client);
        drop(patient);
        svc.shutdown();
    }

    #[test]
    fn infeasible_nm_reports_partition_error() {
        let (svc, model_fp, cluster_fp) = service();
        let client = svc.client();
        let req = PlanRequest::nominal(
            model_fp,
            cluster_fp,
            devices(),
            // ResNet-152 on 4 whimpy RTX 2060s cannot hold hundreds of
            // concurrent minibatches.
            512,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        );
        assert!(matches!(
            client.plan(&req).unwrap_err(),
            PlanError::Partition(PartitionError::OutOfMemory)
        ));
        drop(client);
        svc.shutdown();
    }
}
