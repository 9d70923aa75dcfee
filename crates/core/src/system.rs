//! End-to-end system assembly.
//!
//! [`HetPipeSystem::build`] performs the full setup pipeline of
//! Figure 2: allocate GPUs to virtual workers (resource allocator),
//! choose a stage order, find `Max_m` and the common `Nm`, partition the
//! model per VW (model partitioner), place parameter-server shards —
//! then [`HetPipeSystem::run`] simulates training and reports.

use crate::alloc::{AllocError, AllocationPolicy};
use crate::exec::{self, ExecParams};
use crate::metrics::SystemReport;
use crate::plankey;
use crate::pserver::{Placement, ShardMap};
use crate::sync::WspParams;
use crate::vw::VirtualWorker;
use hetpipe_cluster::{Cluster, DeviceId};
use hetpipe_des::SimTime;
use hetpipe_model::memory::nm_saturation_limit;
use hetpipe_model::ModelGraph;
use hetpipe_partition::{
    evaluate_orders, max_feasible_nm_with, NmSweep, PartitionProblem, PartitionSolver,
};
use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
use std::fmt;

/// System-level configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// How GPUs are grouped into virtual workers.
    pub policy: AllocationPolicy,
    /// Parameter-server shard placement.
    pub placement: Placement,
    /// WSP clock-distance bound `D`.
    pub staleness_bound: usize,
    /// Force a specific `Nm` instead of the automatic
    /// maximum-feasible choice.
    pub nm_override: Option<usize>,
    /// Search stage orders per VW (otherwise allocation order is kept).
    pub order_search: bool,
    /// Fraction of the horizon treated as warm-up and excluded from
    /// throughput measurement.
    pub warmup_fraction: f64,
    /// Model parameter-synchronization *transfers* (true for the full
    /// system; false measures standalone virtual workers as in the
    /// paper's Figure 3).
    pub sync_transfers: bool,
    /// The pipeline schedule every virtual worker runs (the paper's
    /// wave schedule by default). Interleaved schedules repartition
    /// the model over `chunks × GPUs` virtual stages.
    pub schedule: Schedule,
    /// Activation recomputation policy: `BoundaryOnly` stashes only
    /// boundary inputs (smaller memory charge, typically a larger
    /// feasible `Nm`) and pays one forward re-run per backward.
    pub recompute: RecomputePolicy,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            policy: AllocationPolicy::EqualDistribution,
            placement: Placement::Default,
            staleness_bound: 0,
            nm_override: None,
            order_search: true,
            warmup_fraction: 0.15,
            sync_transfers: true,
            schedule: Schedule::HetPipeWave,
            recompute: RecomputePolicy::None,
        }
    }
}

/// Why the system could not be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The allocation policy rejected the cluster shape.
    Alloc(AllocError),
    /// A virtual worker has no memory-feasible partition even at
    /// `Nm = 1`.
    NoFeasiblePartition {
        /// Index of the failing virtual worker.
        vw: usize,
    },
    /// A forced `Nm` is infeasible for some virtual worker.
    NmInfeasible {
        /// Index of the failing virtual worker.
        vw: usize,
        /// The forced value.
        nm: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Alloc(e) => write!(f, "allocation failed: {e}"),
            BuildError::NoFeasiblePartition { vw } => {
                write!(
                    f,
                    "virtual worker {vw} cannot hold the model even at Nm = 1"
                )
            }
            BuildError::NmInfeasible { vw, nm } => {
                write!(f, "virtual worker {vw} cannot run with forced Nm = {nm}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<AllocError> for BuildError {
    fn from(e: AllocError) -> Self {
        BuildError::Alloc(e)
    }
}

/// How many proxy-ranked stage orders the order search refines with a
/// short standalone simulation. Large enough to cover the proxy's
/// resolution limit (near-equal scores can hide >15% simulated
/// spread), small enough to keep `build` cheap.
const ORDER_REFINE_CANDIDATES: usize = 6;

/// Refine-pass memo, shared by *every* thread in the process —
/// `search_orders_par`'s scoped workers and repeated `build` calls
/// on any thread all hit the same entries. (The previous thread-local
/// memo left each scoped worker with an empty map, so kind-identical
/// VW refinements re-simulated once per thread.) Keyed by the public
/// [`plankey::RefineKey`]; bounded the same blunt way the thread-local
/// was (shard-wise wholesale clear at capacity).
static REFINE_CACHE: std::sync::LazyLock<plankey::ShardedCache<plankey::RefineKey, Option<f64>>> =
    std::sync::LazyLock::new(|| plankey::ShardedCache::new(REFINE_CACHE_CAP));

/// Maximum entries retained in the refine memo.
const REFINE_CACHE_CAP: usize = 4096;

#[cfg(test)]
thread_local! {
    /// Per-thread (hits, misses) observed by `memoized_standalone_rate`
    /// on *this* thread — test instrumentation only. The cache itself
    /// is global and other tests run in parallel against it, so tests
    /// must assert on their own thread's traffic, not on global
    /// counters or cache length.
    static REFINE_STATS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

#[cfg(test)]
fn refine_stats_take() -> (u64, u64) {
    REFINE_STATS.with(|s| s.replace((0, 0)))
}

/// [`simulate_standalone_rate`], memoized by [`plankey::RefineKey`] in
/// the process-wide [`REFINE_CACHE`].
fn memoized_standalone_rate(
    cluster: &Cluster,
    graph: &ModelGraph,
    devices: &[DeviceId],
    nm: usize,
    config: &SystemConfig,
) -> Option<f64> {
    let key = plankey::RefineKey::new(cluster, graph, devices, nm, config);
    if let Some(hit) = REFINE_CACHE.get(&key) {
        #[cfg(test)]
        REFINE_STATS.with(|s| {
            let (h, m) = s.get();
            s.set((h + 1, m));
        });
        return hit;
    }
    #[cfg(test)]
    REFINE_STATS.with(|s| {
        let (h, m) = s.get();
        s.set((h, m + 1));
    });
    let rate = simulate_standalone_rate(cluster, graph, devices, nm, config);
    REFINE_CACHE.insert(key, rate);
    rate
}

/// Simulated steady-state rate (minibatches/sec past warm-up) of one
/// candidate stage order running as a single virtual worker — with
/// the configured shard placement and sync-transfer mode, so the
/// score sees the NIC contention between activation transfers and
/// parameter pushes/pulls that separates otherwise-equal orders — at
/// the order's proxy-best `Nm`. `None` when no feasible plan exists
/// at that `Nm`.
fn simulate_standalone_rate(
    cluster: &Cluster,
    graph: &ModelGraph,
    devices: &[DeviceId],
    nm: usize,
    config: &SystemConfig,
) -> Option<f64> {
    let gpus: Vec<_> = devices.iter().map(|&d| cluster.spec_of(d)).collect();
    let links = VirtualWorker::links(cluster, devices);
    let plan = PartitionSolver::solve(
        &PartitionProblem::with_schedule(graph, gpus, links, nm, config.schedule)
            .with_recompute(config.recompute),
    )
    .ok()?;
    let latency: f64 = plan.stage_secs.iter().sum();
    let vw = VirtualWorker {
        index: 0,
        devices: devices.to_vec(),
        plan,
        nm,
    };
    let shards = ShardMap::build(config.placement, graph, cluster, &vw);
    let vws = [vw];
    // Long enough to amortize the pipeline fill several times over.
    let horizon = SimTime::from_secs((60.0 * latency).max(1.0));
    let stats = exec::run(
        ExecParams {
            cluster,
            graph,
            vws: &vws,
            wsp: WspParams::new(nm, config.staleness_bound),
            shards: &shards,
            sync_transfers: config.sync_transfers,
            schedule: config.schedule,
            recompute: config.recompute,
        },
        horizon,
    );
    let warmup = SimTime::from_secs(horizon.as_secs() * 0.25);
    let completed = stats.vws[0]
        .completions
        .iter()
        .filter(|&&t| t >= warmup)
        .count();
    Some(completed as f64 / (horizon.as_secs() * 0.75))
}

/// Re-solves one virtual worker's partition from *observed* per-stage
/// costs — the system rebuild entry point the fault-aware runtime
/// (`hetpipe-runtime`) calls when its monitor reports stragglers or a
/// lost GPU:
///
/// - `devices` are the *surviving* stage devices in pipeline order
///   (drop the lost GPU to shrink the pipeline);
/// - `derate[q]` is the observed/planned duration ratio of stage `q`
///   (≥ 1 for a straggler, 1 for healthy stages): each stage's GPU
///   spec is derated to the speed it actually delivers
///   ([`hetpipe_cluster::gpu::GpuSpec::derated`]), so the min–max DP
///   rebalances layers away from slowed GPUs;
/// - `incumbent` warm-starts the solver with the currently-executing
///   plan ([`PartitionSolver::solve_warm`] — answer-preserving bound
///   pruning, so online re-planning costs less than a cold solve).
///
/// Returns the re-planned partition at the requested `nm`, or the
/// partition error when the shrunk/derated configuration cannot hold
/// the model there (callers then lower `nm` — WSP requires a common
/// `Nm`, so the controller owns that decision).
#[allow(clippy::too_many_arguments)]
pub fn replan_vw_from_observed(
    cluster: &Cluster,
    graph: &ModelGraph,
    devices: &[DeviceId],
    derate: &[f64],
    nm: usize,
    schedule: Schedule,
    recompute: RecomputePolicy,
    incumbent: Option<&[std::ops::Range<usize>]>,
) -> Result<hetpipe_partition::PartitionPlan, hetpipe_partition::PartitionError> {
    assert_eq!(
        devices.len(),
        derate.len(),
        "one observed derate per stage device"
    );
    let gpus: Vec<_> = devices
        .iter()
        .zip(derate)
        .map(|(&d, &r)| cluster.spec_of(d).derated(r.max(1.0)))
        .collect();
    let links = VirtualWorker::links(cluster, devices);
    let problem =
        PartitionProblem::with_schedule(graph, gpus, links, nm, schedule).with_recompute(recompute);
    PartitionSolver::solve_warm(&problem, incumbent)
}

/// A fully-assembled HetPipe deployment, ready to simulate.
#[derive(Debug, Clone)]
pub struct HetPipeSystem<'a> {
    cluster: &'a Cluster,
    graph: &'a ModelGraph,
    config: SystemConfig,
    vws: Vec<VirtualWorker>,
    shards: ShardMap,
    nm: usize,
}

impl<'a> HetPipeSystem<'a> {
    /// Assembles the system: allocation → stage order → `Nm` → plans →
    /// shard placement.
    pub fn build(
        cluster: &'a Cluster,
        graph: &'a ModelGraph,
        config: &SystemConfig,
    ) -> Result<Self, BuildError> {
        let groups = config.policy.allocate(cluster)?;
        let schedule = config.schedule;

        // Interleaved schedules run `chunks` virtual stages per GPU:
        // the executor's stage list repeats the physical GPUs
        // round-robin (virtual stage `s` runs on GPU `s % k`).
        let expand = |ordered: &[DeviceId]| -> Vec<DeviceId> {
            let vk = schedule.virtual_stages(ordered.len());
            (0..vk).map(|s| ordered[s % ordered.len()]).collect()
        };

        // Resolve the stage order of every VW (optionally searched) and
        // this VW's Max_m.
        let mut ordered_groups: Vec<Vec<DeviceId>> = Vec::with_capacity(groups.len());
        let mut maxms: Vec<usize> = Vec::with_capacity(groups.len());
        for (i, devices) in groups.iter().enumerate() {
            let ordered = if config.order_search && devices.len() > 1 {
                // Two-pass order search. Pass 1 scores each distinct
                // kind-order with an analytic proxy — the best
                // min(1/bottleneck, Nm/latency) over the order's
                // feasible Nm range. The proxy ranks coarsely (it
                // cannot see arrival-FIFO bubble dynamics, which swing
                // real throughput between near-equal-proxy orders), so
                // pass 2 refines the leaders with a short standalone
                // simulation (the paper's Figure-3 measurement mode)
                // and keeps the simulated winner.
                //
                // The per-order Nm sweeps are independent full DP
                // solves, so pass 1 fans them across scoped worker
                // threads (`evaluate_orders`); results come back in
                // enumeration order, keeping the candidate list — and
                // therefore the refined winner — bit-identical to the
                // serial search.
                let gpus: Vec<_> = devices.iter().map(|&d| cluster.spec_of(d)).collect();
                let limit = nm_saturation_limit(schedule.virtual_stages(devices.len()));
                let scored = evaluate_orders(&gpus, |order| {
                    let stage_devices: Vec<DeviceId> = order.iter().map(|&j| devices[j]).collect();
                    let devs = expand(&stage_devices);
                    let ordered_gpus: Vec<_> = devs.iter().map(|&d| cluster.spec_of(d)).collect();
                    let links = VirtualWorker::links(cluster, &devs);
                    // One incremental DP sweep serves both the
                    // feasibility probe and the rate scoring (memory
                    // is monotone in Nm, so the first infeasible Nm
                    // ends the sweep; NmSweep reuses the previous
                    // Nm's optimum wherever that is provably still
                    // optimal).
                    let mut sweep =
                        NmSweep::new(graph, &ordered_gpus, &links, schedule, config.recompute);
                    let mut best: Option<(f64, usize)> = None;
                    for nm in 1..=limit {
                        let Ok(plan) = sweep.solve(nm) else {
                            break;
                        };
                        let latency: f64 = plan.stage_secs.iter().sum();
                        let rate = (1.0 / plan.bottleneck_secs).min(nm as f64 / latency);
                        if best.is_none_or(|(r, _)| rate > r) {
                            best = Some((rate, nm));
                        }
                    }
                    let (rate, nm) = best?;
                    Some((stage_devices, rate, nm))
                });
                // (unexpanded stage devices, proxy score, proxy-best Nm)
                let mut candidates: Vec<(Vec<DeviceId>, f64, usize)> =
                    scored.into_iter().filter_map(|(_, r)| r).collect();
                if candidates.is_empty() {
                    return Err(BuildError::NoFeasiblePartition { vw: i });
                }
                // Stable sort: proxy ties keep enumeration order, so
                // the refinement set is deterministic.
                candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
                let mut winner: Option<(Vec<DeviceId>, f64)> = None;
                for (stage_devices, _proxy, nm) in
                    candidates.into_iter().take(ORDER_REFINE_CANDIDATES)
                {
                    // Memoized by (kind-order, node pattern, placement,
                    // …): kind-identical VWs — every group under ED,
                    // most groups on big clusters — share one
                    // simulation, as do repeated `build` calls.
                    let rate = memoized_standalone_rate(
                        cluster,
                        graph,
                        &expand(&stage_devices),
                        nm,
                        config,
                    );
                    let Some(rate) = rate else { continue };
                    if winner.as_ref().is_none_or(|(_, r)| rate > *r) {
                        winner = Some((stage_devices, rate));
                    }
                }
                winner.ok_or(BuildError::NoFeasiblePartition { vw: i })?.0
            } else {
                devices.clone()
            };

            let ordered = expand(&ordered);
            let gpus: Vec<_> = ordered.iter().map(|&d| cluster.spec_of(d)).collect();
            let links = VirtualWorker::links(cluster, &ordered);
            let limit = nm_saturation_limit(ordered.len());
            let (maxm, _plan) =
                max_feasible_nm_with(graph, &gpus, &links, limit, schedule, config.recompute)
                    .ok_or(BuildError::NoFeasiblePartition { vw: i })?;
            maxms.push(maxm);
            ordered_groups.push(ordered);
        }

        // Nm must be identical across VWs (Section 4) and is "set such
        // that performance is maximized" (Section 8.3): probe every
        // feasible Nm up to the smallest per-VW Max_m and keep the one
        // with the best estimated system throughput. Under the
        // distance-D bound the slowest VW paces the system, so the
        // estimate is N times the slowest VW's pipeline rate
        // min(1/bottleneck, Nm/latency).
        let max_nm = maxms.iter().copied().min().unwrap_or(1);
        let nm = match config.nm_override {
            Some(forced) => {
                if let Some(vw) = maxms.iter().position(|&m| m < forced) {
                    return Err(BuildError::NmInfeasible { vw, nm: forced });
                }
                forced
            }
            None => {
                // One incremental sweep per VW across the probed Nm
                // range — the per-VW instance is fixed, so NmSweep's
                // answer-preserving reuse applies.
                let mut sweeps: Vec<NmSweep<'_>> = ordered_groups
                    .iter()
                    .map(|devices| {
                        let gpus: Vec<_> = devices.iter().map(|&d| cluster.spec_of(d)).collect();
                        let links = VirtualWorker::links(cluster, devices);
                        NmSweep::new(graph, &gpus, &links, schedule, config.recompute)
                    })
                    .collect();
                let mut best = (1usize, 0.0f64);
                for nm in 1..=max_nm {
                    let mut slowest = f64::INFINITY;
                    let mut feasible = true;
                    for sweep in &mut sweeps {
                        match sweep.solve(nm) {
                            Ok(plan) => {
                                let latency: f64 = plan.stage_secs.iter().sum();
                                let rate = (1.0 / plan.bottleneck_secs).min(nm as f64 / latency);
                                slowest = slowest.min(rate);
                            }
                            Err(_) => {
                                feasible = false;
                                break;
                            }
                        }
                    }
                    if feasible && slowest > best.1 {
                        best = (nm, slowest);
                    }
                }
                best.0
            }
        };

        // Final plans at the chosen Nm.
        let mut vws = Vec::with_capacity(ordered_groups.len());
        for (i, devices) in ordered_groups.into_iter().enumerate() {
            let gpus: Vec<_> = devices.iter().map(|&d| cluster.spec_of(d)).collect();
            let links = VirtualWorker::links(cluster, &devices);
            let plan = PartitionSolver::solve(
                &PartitionProblem::with_schedule(graph, gpus, links, nm, schedule)
                    .with_recompute(config.recompute),
            )
            .map_err(|_| BuildError::NmInfeasible { vw: i, nm })?;
            vws.push(VirtualWorker {
                index: i,
                devices,
                plan,
                nm,
            });
        }

        let shards = ShardMap::build(config.placement, graph, cluster, &vws[0]);
        Ok(HetPipeSystem {
            cluster,
            graph,
            config: config.clone(),
            vws,
            shards,
            nm,
        })
    }

    /// The common pipeline concurrency `Nm`.
    pub fn nm(&self) -> usize {
        self.nm
    }

    /// The assembled virtual workers.
    pub fn virtual_workers(&self) -> &[VirtualWorker] {
        &self.vws
    }

    /// The shard placement in effect.
    pub fn shards(&self) -> &ShardMap {
        &self.shards
    }

    /// The schedule in effect.
    pub fn schedule(&self) -> Schedule {
        self.config.schedule
    }

    /// Peak training-memory bytes per physical GPU of a virtual
    /// worker, under the configured schedule (sums the virtual-stage
    /// chunks an interleaved schedule co-locates).
    pub fn per_gpu_peak_bytes(&self, vw: usize) -> Vec<u64> {
        let v = &self.vws[vw];
        let gpus = v.stages() / self.config.schedule.colocated_stages();
        hetpipe_model::memory::TrainingMemoryModel::per_gpu_peak_bytes_with(
            self.graph,
            &v.plan.ranges,
            gpus,
            self.nm,
            self.config.schedule,
            self.config.recompute,
        )
    }

    /// Simulates training until `horizon` and reports.
    pub fn run(&self, horizon: SimTime) -> SystemReport {
        let (report, _) = self.run_with_stats(horizon);
        report
    }

    /// Simulates and returns both the report and the raw statistics
    /// (for trace-level analyses such as Section 8.4).
    pub fn run_with_stats(&self, horizon: SimTime) -> (SystemReport, exec::RunStats) {
        let wsp = WspParams::new(self.nm, self.config.staleness_bound);
        let stats = exec::run(
            ExecParams {
                cluster: self.cluster,
                graph: self.graph,
                vws: &self.vws,
                wsp,
                shards: &self.shards,
                sync_transfers: self.config.sync_transfers,
                schedule: self.config.schedule,
                recompute: self.config.recompute,
            },
            horizon,
        );
        let warmup = SimTime::from_secs(horizon.as_secs() * self.config.warmup_fraction);
        let vw_devices: Vec<Vec<DeviceId>> = self.vws.iter().map(|v| v.devices.clone()).collect();
        let report = SystemReport::from_stats(
            &stats,
            self.cluster,
            self.graph.batch_size,
            warmup,
            &vw_devices,
        );
        (report, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: AllocationPolicy, placement: Placement, d: usize) -> SystemConfig {
        SystemConfig {
            policy,
            placement,
            staleness_bound: d,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn builds_all_three_policies_for_vgg() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        for policy in [
            AllocationPolicy::NodePartition,
            AllocationPolicy::EqualDistribution,
            AllocationPolicy::HybridDistribution,
        ] {
            let sys = HetPipeSystem::build(
                &cluster,
                &graph,
                &cfg(policy.clone(), Placement::Default, 0),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
            assert_eq!(sys.virtual_workers().len(), 4);
            assert!(sys.nm() >= 1);
        }
    }

    #[test]
    fn ed_runs_and_reports_throughput() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let sys = HetPipeSystem::build(
            &cluster,
            &graph,
            &cfg(AllocationPolicy::EqualDistribution, Placement::Local, 0),
        )
        .unwrap();
        let report = sys.run(SimTime::from_secs(30.0));
        let tput = report.throughput_images_per_sec();
        assert!(tput > 100.0, "ED-local VGG-19 throughput = {tput:.0}");
    }

    #[test]
    fn nm_override_respected_and_validated() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let mut config = cfg(AllocationPolicy::EqualDistribution, Placement::Local, 0);
        config.nm_override = Some(2);
        let sys = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
        assert_eq!(sys.nm(), 2);
        config.nm_override = Some(1000);
        assert!(matches!(
            HetPipeSystem::build(&cluster, &graph, &config),
            Err(BuildError::NmInfeasible { .. })
        ));
    }

    #[test]
    fn resnet_feasible_on_whimpy_cluster_via_pmp() {
        // The paper's headline capability: ResNet-152 cannot run on a
        // single RTX 2060, but a GGGG virtual worker (NP) holds it as a
        // 4-stage pipeline.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::resnet152(32);
        let sys = HetPipeSystem::build(
            &cluster,
            &graph,
            &cfg(AllocationPolicy::NodePartition, Placement::Default, 0),
        )
        .unwrap();
        assert_eq!(sys.virtual_workers().len(), 4);
        let report = sys.run(SimTime::from_secs(20.0));
        assert!(report.throughput_images_per_sec() > 0.0);
    }

    #[test]
    fn all_schedules_build_and_run() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        for schedule in Schedule::ALL {
            let config = SystemConfig {
                schedule,
                order_search: false,
                ..cfg(AllocationPolicy::EqualDistribution, Placement::Local, 0)
            };
            let sys = HetPipeSystem::build(&cluster, &graph, &config)
                .unwrap_or_else(|e| panic!("{schedule}: {e}"));
            let expected_stages = schedule.virtual_stages(4);
            for vw in sys.virtual_workers() {
                assert_eq!(vw.stages(), expected_stages, "{schedule}");
            }
            let report = sys.run(SimTime::from_secs(20.0));
            let tput = report.throughput_images_per_sec();
            assert!(tput > 50.0, "{schedule} throughput = {tput:.0}");
        }
    }

    #[test]
    fn interleaved_round_robins_devices() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let config = SystemConfig {
            schedule: Schedule::Interleaved1F1B {
                chunks: 2,
                composite: true,
            },
            order_search: false,
            ..cfg(AllocationPolicy::EqualDistribution, Placement::Local, 0)
        };
        let sys = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
        let vw = &sys.virtual_workers()[0];
        assert_eq!(vw.devices.len(), 8);
        // Virtual stage s runs on GPU s % 4.
        for s in 0..8 {
            assert_eq!(vw.devices[s], vw.devices[s % 4]);
        }
        assert!(vw.plan.is_valid_cover(graph.len()));
    }

    #[test]
    fn interleaved_runs_deterministically() {
        // The one schedule where two virtual stages race on one GPU
        // timeline; two full runs must agree exactly.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let config = SystemConfig {
            schedule: Schedule::Interleaved1F1B {
                chunks: 2,
                composite: true,
            },
            order_search: false,
            ..cfg(AllocationPolicy::EqualDistribution, Placement::Local, 0)
        };
        let sys = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
        let (_, a) = sys.run_with_stats(SimTime::from_secs(10.0));
        let (_, b) = sys.run_with_stats(SimTime::from_secs(10.0));
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.spans().iter().zip(b.trace.spans()) {
            assert_eq!(x, y);
        }
        for (x, y) in a.vws.iter().zip(&b.vws) {
            assert_eq!(x.completions, y.completions);
            assert_eq!(x.waves_pushed, y.waves_pushed);
        }
    }

    #[test]
    fn per_gpu_peaks_fit_their_gpus() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        for schedule in Schedule::ALL {
            let config = SystemConfig {
                schedule,
                order_search: false,
                ..cfg(AllocationPolicy::EqualDistribution, Placement::Local, 0)
            };
            let sys = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
            for (i, vw) in sys.virtual_workers().iter().enumerate() {
                let peaks = sys.per_gpu_peak_bytes(i);
                assert_eq!(peaks.len(), 4, "{schedule}");
                // Holds for interleaved chunks too: the solver splits
                // each GPU's budget across its co-located stages
                // (PipelineSchedule::colocated_stages), so certified
                // plans fit the per-GPU *sum*.
                for (g, &peak) in peaks.iter().enumerate() {
                    let cap = cluster.spec_of(vw.devices[g]).memory_bytes;
                    assert!(peak <= cap, "{schedule} vw{i} gpu{g}: {peak} > {cap}");
                }
            }
        }
    }

    #[test]
    fn order_refine_pass_is_memoized() {
        // ED groups are kind-identical (one GPU of each node's kind,
        // same co-location pattern), so the simulation-refined second
        // pass must run its handful of candidate simulations ONCE and
        // share them across all four VWs — and a repeated build must
        // simulate nothing at all. The cache is process-global and
        // other tests run concurrently against it, so assertions use
        // this thread's own hit/miss stats (`refine_stats_take`) and a
        // staleness bound no other test uses (part of the RefineKey),
        // keeping the observed keys private to this test.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::resnet152(32);
        let config = SystemConfig {
            order_search: true,
            ..cfg(AllocationPolicy::EqualDistribution, Placement::Local, 7)
        };
        refine_stats_take();
        let first = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
        let (hits, misses) = refine_stats_take();
        assert!(
            misses > 0 && misses <= ORDER_REFINE_CANDIDATES as u64,
            "4 kind-identical VWs must share one refine set, got {misses} simulations"
        );
        assert!(
            hits >= 3 * misses,
            "the other three VWs must reuse the leader set ({hits} hits / {misses} misses)"
        );
        let second = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
        let (_, misses2) = refine_stats_take();
        assert_eq!(misses2, 0, "a repeated build must be fully memoized");
        // Memoization must not change the outcome.
        for (a, b) in first.virtual_workers().iter().zip(second.virtual_workers()) {
            assert_eq!(a.devices, b.devices);
            assert_eq!(a.plan.ranges, b.plan.ranges);
        }
        assert_eq!(first.nm(), second.nm());
    }

    #[test]
    fn refine_memo_is_shared_across_threads() {
        // The satellite pin for the old thread-local REFINE_CACHE bug:
        // a build on a *different* thread must hit the entries this
        // thread populated (previously each thread started cold).
        // Staleness bound 9 keeps the keys private to this test.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let config = SystemConfig {
            order_search: true,
            ..cfg(AllocationPolicy::EqualDistribution, Placement::Local, 9)
        };
        refine_stats_take();
        let first = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
        let (_, misses) = refine_stats_take();
        assert!(misses > 0, "first build must populate the memo");
        let (worker_stats, second) = std::thread::scope(|s| {
            s.spawn(|| {
                refine_stats_take();
                let sys = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
                (refine_stats_take(), sys)
            })
            .join()
            .unwrap()
        });
        let (worker_hits, worker_misses) = worker_stats;
        assert_eq!(
            worker_misses, 0,
            "cross-thread build must hit the shared memo"
        );
        assert!(worker_hits > 0, "cross-thread build must consult the memo");
        for (a, b) in first.virtual_workers().iter().zip(second.virtual_workers()) {
            assert_eq!(a.devices, b.devices);
            assert_eq!(a.plan.ranges, b.plan.ranges);
        }
    }

    #[test]
    fn order_search_does_not_hurt() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::resnet152(32);
        let mut with = cfg(AllocationPolicy::EqualDistribution, Placement::Local, 0);
        with.order_search = true;
        let mut without = with.clone();
        without.order_search = false;
        let t_with = HetPipeSystem::build(&cluster, &graph, &with)
            .unwrap()
            .run(SimTime::from_secs(20.0))
            .throughput_images_per_sec();
        let t_without = HetPipeSystem::build(&cluster, &graph, &without)
            .unwrap()
            .run(SimTime::from_secs(20.0))
            .throughput_images_per_sec();
        assert!(
            t_with >= t_without * 0.95,
            "order search regressed: {t_with:.0} vs {t_without:.0}"
        );
    }
}
