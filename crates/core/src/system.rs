//! End-to-end system assembly.
//!
//! [`HetPipeSystem::build`] performs the full setup pipeline of
//! Figure 2: allocate GPUs to virtual workers (resource allocator),
//! choose a stage order, find `Max_m` and the common `Nm`, partition the
//! model per VW (model partitioner), place parameter-server shards —
//! then [`HetPipeSystem::run`] simulates training and reports.
//!
//! Planning solves each distinct instance (GPU kinds in stage order
//! plus links) once per build: one [`NmSweep`] over `Nm = 1, 2, …`
//! up to the first infeasible `Nm`. The order scan scores these
//! prefixes; the refine simulations, `Max_m` (the prefix length), the
//! common-`Nm` choice and the final plans index them. Each refine
//! candidate is simulated once per build too. The table holding all of
//! this is dropped when `build` returns: the crate keeps no state
//! between builds, so a build's result depends on its inputs alone.

use crate::alloc::{AllocError, AllocationPolicy};
use crate::exec::{self, ExecParams, RunStats, SegmentOpts, SpanTag};
use crate::metrics::SystemReport;
use crate::pserver::{Placement, ShardMap};
use crate::sync::WspParams;
use crate::vw::VirtualWorker;
use hetpipe_cluster::network::LinkKind;
use hetpipe_cluster::{Cluster, DeviceId};
use hetpipe_des::{Discard, SimTime, SpanSink, Trace};
use hetpipe_model::memory::nm_saturation_limit;
use hetpipe_model::ModelGraph;
use hetpipe_partition::order::distinct_kind_orders;
use hetpipe_partition::{NmSweep, PartitionPlan, PartitionProblem, PartitionSolver};
use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
use std::collections::HashMap;
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

#[cfg(test)]
thread_local! {
    /// This thread's refine-memo (hits, misses) and `PlanTable` sweeps —
    /// test instrumentation only: a build plans on its caller's thread,
    /// and tests run in parallel, so they read their own thread's counts.
    static REFINE_STATS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    static SWEEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The analytic pipeline rate of `plan` at `nm`,
/// min(1/bottleneck, Nm/latency) minibatches per second. It is the
/// order scan's proxy score and the common-`Nm` objective.
fn pipeline_rate(plan: &PartitionPlan, nm: usize) -> f64 {
    let latency: f64 = plan.stage_secs.iter().sum();
    (1.0 / plan.bottleneck_secs).min(nm as f64 / latency)
}

/// One planning instance: the GPU kinds in stage order plus the
/// inter-stage links. Graph, schedule and recompute policy are fixed
/// within one build, so nothing else tells two of its problems apart.
type InstanceKey = (Vec<&'static str>, Vec<LinkKind>);

/// One refine simulation: the GPU kinds in stage order, the node
/// pattern ([`PlanTable::node_pattern`]) and the candidate `Nm`. The
/// rest of a simulation's inputs is fixed within one build.
type RefineId = (Vec<&'static str>, Vec<usize>, usize);

/// The per-build plan table: each instance's [`NmSweep`] prefix, the
/// plans at `Nm = 1, 2, …` up to the first infeasible `Nm` or the
/// saturation limit, and the order search's refine memo. Every
/// instance is swept once and every refine candidate simulated once;
/// kind- and link-identical virtual workers share its rows. The table
/// is dropped when `build` returns.
struct PlanTable<'a> {
    cluster: &'a Cluster,
    graph: &'a ModelGraph,
    config: &'a SystemConfig,
    /// Every swept instance's best [`pipeline_rate`] over its prefix
    /// and that rate's `Nm`; `None` when even `Nm = 1` is infeasible.
    proxies: HashMap<InstanceKey, Option<(f64, usize)>>,
    /// The prefixes a later phase may still read.
    prefixes: HashMap<InstanceKey, Vec<PartitionPlan>>,
    /// Every simulated refine candidate's standalone rate.
    rates: HashMap<RefineId, f64>,
}

impl PlanTable<'_> {
    fn key(&self, devices: &[DeviceId]) -> InstanceKey {
        let kinds = devices.iter().map(|&d| self.cluster.spec_of(d).name);
        (kinds.collect(), VirtualWorker::links(self.cluster, devices))
    }

    /// The node layout a refine simulation sees. Under ED-style
    /// *local* shard placement only the co-location pattern matters
    /// (it decides the links, and every shard sits on its stage's own
    /// node), so nodes become first-appearance ranks and kind-identical
    /// VWs on different nodes share one simulation. Under the
    /// round-robin *default* placement the absolute nodes decide which
    /// shard transfers stay on-node, so they count verbatim.
    fn node_pattern(&self, devices: &[DeviceId]) -> Vec<usize> {
        let nodes = devices.iter().map(|&d| self.cluster.node_of(d));
        match self.config.placement {
            Placement::Local => {
                let mut seen = Vec::new();
                nodes
                    .map(|node| {
                        seen.iter().position(|&n| n == node).unwrap_or_else(|| {
                            seen.push(node);
                            seen.len() - 1
                        })
                    })
                    .collect()
            }
            Placement::Default => nodes.map(|node| node.0).collect(),
        }
    }

    fn sweep(&self, devices: &[DeviceId]) -> Vec<PartitionPlan> {
        let gpus: Vec<_> = devices.iter().map(|&d| self.cluster.spec_of(d)).collect();
        let links = VirtualWorker::links(self.cluster, devices);
        let (schedule, recompute) = (self.config.schedule, self.config.recompute);
        let mut sweep = NmSweep::new(self.graph, &gpus, &links, schedule, recompute);
        (1..=nm_saturation_limit(devices.len()))
            .map_while(|nm| sweep.solve(nm).ok())
            .collect()
    }

    fn insert(&mut self, key: InstanceKey, prefix: Vec<PartitionPlan>) {
        #[cfg(test)]
        SWEEPS.with(|s| s.set(s.get() + 1));
        let rates = (1..)
            .zip(&prefix)
            .map(|(nm, plan)| (pipeline_rate(plan, nm), nm));
        let proxy = rates.reduce(|best, c| if c.0 > best.0 { c } else { best });
        self.proxies.insert(key.clone(), proxy);
        self.prefixes.insert(key, prefix);
    }

    /// The proxy score of `devices`' instance, swept now if unseen.
    fn proxy(&mut self, devices: &[DeviceId]) -> Option<(f64, usize)> {
        let key = self.key(devices);
        if !self.proxies.contains_key(&key) {
            let prefix = self.sweep(devices);
            self.insert(key.clone(), prefix);
        }
        self.proxies[&key]
    }

    /// Drops the prefix of `devices`' instance; its proxy stays.
    fn release(&mut self, devices: &[DeviceId]) {
        self.prefixes.remove(&self.key(devices));
    }

    /// The prefix of `devices`' instance, swept now if not held.
    fn prefix(&mut self, devices: &[DeviceId]) -> &[PartitionPlan] {
        let key = self.key(devices);
        if !self.prefixes.contains_key(&key) {
            let prefix = self.sweep(devices);
            self.insert(key.clone(), prefix);
        }
        &self.prefixes[&key]
    }

    /// Simulated steady-state rate (minibatches/sec past warm-up) of
    /// one candidate stage order running as a single virtual worker at
    /// `nm` (the order's proxy-best `Nm`), memoized by [`RefineId`].
    /// The run uses the configured shard placement and sync-transfer
    /// mode, so the score sees the NIC contention between activation
    /// transfers and parameter pushes/pulls that separates
    /// otherwise-equal orders.
    fn standalone_rate(&mut self, devices: &[DeviceId], nm: usize) -> f64 {
        let kinds = devices.iter().map(|&d| self.cluster.spec_of(d).name);
        let id = (kinds.collect(), self.node_pattern(devices), nm);
        let hit = self.rates.get(&id).copied();
        #[cfg(test)]
        REFINE_STATS.with(|s| {
            let (h, m) = s.get();
            s.set((h + hit.is_some() as u64, m + hit.is_none() as u64));
        });
        if let Some(rate) = hit {
            return rate;
        }
        let plan = self.prefix(devices)[nm - 1].clone();
        let (cluster, graph, config) = (self.cluster, self.graph, self.config);
        // Long enough to amortize the pipeline fill several times over.
        let horizon = SimTime::from_secs((60.0 * plan.stage_secs.iter().sum::<f64>()).max(1.0));
        let vw = VirtualWorker {
            index: 0,
            devices: devices.to_vec(),
            plan,
            nm,
        };
        let shards = ShardMap::build(config.placement, graph, cluster, &vw);
        let (_, stats) = exec::run_with_sink::<Discard>(
            ExecParams {
                cluster,
                graph,
                vws: std::slice::from_ref(&vw),
                wsp: WspParams::new(nm, config.staleness_bound),
                shards: &shards,
                sync_transfers: config.sync_transfers,
                schedule: config.schedule,
                recompute: config.recompute,
            },
            SegmentOpts::default(),
            horizon,
            SimTime::ZERO,
        );
        let warmup = SimTime::from_secs(horizon.as_secs() * 0.25);
        let completed = stats.vws[0].completions.iter().filter(|&&t| t >= warmup);
        let rate = completed.count() as f64 / (horizon.as_secs() * 0.75);
        self.rates.insert(id, rate);
        rate
    }
}

/// Re-solves one virtual worker's partition from *observed* per-stage
/// costs — the system rebuild entry point the fault-aware runtime
/// (`hetpipe-runtime`) calls when its monitor reports stragglers or a
/// lost GPU. `devices` are the *surviving* stage devices in pipeline
/// order (drop the lost GPU to shrink the pipeline), and `derate[q]`
/// is the observed/planned duration ratio of stage `q`. Each stage's
/// GPU spec is derated to the speed it actually delivers
/// ([`hetpipe_cluster::gpu::GpuSpec::derated`], ratios below 1 count
/// as 1), so the min–max DP rebalances layers away from slowed GPUs.
/// `incumbent` warm-starts the solver with the currently-executing
/// plan ([`PartitionSolver::solve_warm`] — answer-preserving bound
/// pruning, so online re-planning costs less than a cold solve).
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
) -> Result<PartitionPlan, hetpipe_partition::PartitionError> {
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
    /// shard placement. Every planning phase reads one per-build table
    /// of `Nm`-sweep prefixes (see the module docs), dropped on return.
    pub fn build(
        cluster: &'a Cluster,
        graph: &'a ModelGraph,
        config: &SystemConfig,
    ) -> Result<Self, BuildError> {
        let groups = config.policy.allocate(cluster)?;

        // Interleaved schedules run `chunks` virtual stages per GPU:
        // the executor's stage list repeats the physical GPUs
        // round-robin (virtual stage `s` runs on GPU `s % k`).
        let expand = |ordered: &[DeviceId]| -> Vec<DeviceId> {
            let vk = config.schedule.virtual_stages(ordered.len());
            (0..vk).map(|s| ordered[s % ordered.len()]).collect()
        };

        // Resolve the (expanded) stage order of every VW, optionally
        // searched, with its prefix.
        let mut table = PlanTable {
            cluster,
            graph,
            config,
            proxies: HashMap::new(),
            prefixes: HashMap::new(),
            rates: HashMap::new(),
        };
        let mut chosen: Vec<(Vec<DeviceId>, Vec<PartitionPlan>)> = Vec::new();
        for (i, devices) in groups.iter().enumerate() {
            let ordered = if config.order_search && devices.len() > 1 {
                // Two-pass order search. Pass 1 scores each distinct
                // kind-order with an analytic proxy — the best
                // `pipeline_rate` over the order's feasible Nm range.
                // The proxy ranks coarsely (it cannot see arrival-FIFO
                // bubble dynamics, which swing real throughput between
                // near-equal-proxy orders), so pass 2 refines the
                // leaders with a short standalone simulation (the
                // paper's Figure-3 measurement mode) and keeps the
                // simulated winner.
                let gpus: Vec<_> = devices.iter().map(|&d| cluster.spec_of(d)).collect();
                let orders: Vec<Vec<DeviceId>> = distinct_kind_orders(&gpus)
                    .iter()
                    .map(|order| expand(&order.iter().map(|&j| devices[j]).collect::<Vec<_>>()))
                    .collect();
                // (expanded stage devices, proxy score, proxy-best Nm)
                let mut candidates: Vec<(&[DeviceId], f64, usize)> = orders
                    .iter()
                    .filter_map(|devs| table.proxy(devs).map(|(r, nm)| (devs.as_slice(), r, nm)))
                    .collect();
                // Stable sort: proxy ties keep enumeration order, so
                // the refinement set is deterministic. Only the
                // refinement set's prefixes are read again.
                candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
                for &(devs, ..) in candidates.iter().skip(ORDER_REFINE_CANDIDATES) {
                    table.release(devs);
                }
                candidates.truncate(ORDER_REFINE_CANDIDATES);
                let mut winner: Option<(&[DeviceId], f64)> = None;
                for (devs, _proxy, nm) in candidates {
                    // Kind-identical VWs share one simulation.
                    let rate = table.standalone_rate(devs, nm);
                    if winner.is_none_or(|(_, r)| rate > r) {
                        winner = Some((devs, rate));
                    }
                }
                let (winner, _) = winner.ok_or(BuildError::NoFeasiblePartition { vw: i })?;
                winner.to_vec()
            } else {
                expand(devices)
            };
            let prefix = table.prefix(&ordered).to_vec();
            if prefix.is_empty() {
                return Err(BuildError::NoFeasiblePartition { vw: i });
            }
            chosen.push((ordered, prefix));
        }

        // Each VW's Max_m is its prefix length. Nm must be identical
        // across VWs (Section 4) and is "set such that performance is
        // maximized" (Section 8.3): probe every Nm up to the smallest
        // Max_m and keep the one with the best estimated system
        // throughput. Under the distance-D bound the slowest VW paces
        // the system, so the estimate is N times the slowest VW's
        // `pipeline_rate`.
        let nm = match config.nm_override {
            Some(nm) => match chosen
                .iter()
                .position(|(_, p)| !(1..=p.len()).contains(&nm))
            {
                Some(vw) => return Err(BuildError::NmInfeasible { vw, nm }),
                None => nm,
            },
            None => {
                let max_nm = chosen.iter().map(|(_, p)| p.len()).min().unwrap_or(1);
                let mut best = (1usize, 0.0f64);
                for nm in 1..=max_nm {
                    let slowest = chosen
                        .iter()
                        .map(|(_, p)| pipeline_rate(&p[nm - 1], nm))
                        .fold(f64::INFINITY, f64::min);
                    if slowest > best.1 {
                        best = (nm, slowest);
                    }
                }
                best.0
            }
        };

        let vws: Vec<VirtualWorker> = chosen
            .into_iter()
            .enumerate()
            .map(|(index, (devices, mut prefix))| VirtualWorker {
                index,
                devices,
                plan: prefix.swap_remove(nm - 1),
                nm,
            })
            .collect();
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
        self.run_with_stats(horizon).0
    }

    /// Simulates and returns both the report and the raw statistics.
    /// The run keeps no span trace (`RunStats::trace` is empty): its
    /// report and its occupancy peaks fold while it executes, and it
    /// skips whole periods of its steady state
    /// ([`RunStats::fast_forward`]) with results equal to a full
    /// simulation's bit for bit. [`HetPipeSystem::run_traced`] keeps
    /// every span and simulates every event.
    pub fn run_with_stats(&self, horizon: SimTime) -> (SystemReport, RunStats) {
        self.simulate::<Discard>(horizon)
    }

    /// [`HetPipeSystem::run_with_stats`] keeping every span in
    /// `RunStats::trace`, for analyses that need the spans themselves:
    /// chrome export, trace fingerprints, per-span schedule checks.
    pub fn run_traced(&self, horizon: SimTime) -> (SystemReport, RunStats) {
        self.simulate::<Trace<SpanTag>>(horizon)
    }

    fn simulate<S: SpanSink<SpanTag> + Default>(
        &self,
        horizon: SimTime,
    ) -> (SystemReport, RunStats) {
        let wsp = WspParams::new(self.nm, self.config.staleness_bound);
        let warmup = SimTime::from_secs(horizon.as_secs() * self.config.warmup_fraction);
        exec::run_with_sink::<S>(
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
            SegmentOpts::default(),
            horizon,
            warmup,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refine_stats_take() -> (u64, u64) {
        REFINE_STATS.with(|s| s.replace((0, 0)))
    }

    fn sweeps_take() -> u64 {
        SWEEPS.with(|s| s.replace(0))
    }

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
        config.nm_override = Some(0);
        assert_eq!(
            HetPipeSystem::build(&cluster, &graph, &config).err(),
            Some(BuildError::NmInfeasible { vw: 0, nm: 0 })
        );
    }

    #[test]
    fn each_planning_instance_is_swept_once() {
        // Under ED on the paper testbed every VW holds one V, R, G and
        // Q GPU on four different nodes, so all four VWs share the same
        // 24 kind-orders with all-InfiniBand links: 24 instances, not
        // 4 × 24. Without order search all four share one instance.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let config = SystemConfig::default();
        sweeps_take();
        let sys = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
        assert_eq!(sys.virtual_workers().len(), 4);
        assert_eq!(sweeps_take(), 24);
        let config = SystemConfig {
            order_search: false,
            ..config
        };
        HetPipeSystem::build(&cluster, &graph, &config).unwrap();
        assert_eq!(sweeps_take(), 1);
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
        let (_, a) = sys.run_traced(SimTime::from_secs(10.0));
        let (_, b) = sys.run_traced(SimTime::from_secs(10.0));
        assert!(a.trace.len() > 100, "trivial trace proves nothing");
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
        // share them across all four VWs.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::resnet152(32);
        let config = cfg(AllocationPolicy::EqualDistribution, Placement::Local, 0);
        refine_stats_take();
        HetPipeSystem::build(&cluster, &graph, &config).unwrap();
        let (hits, misses) = refine_stats_take();
        assert!(
            misses > 0 && misses <= ORDER_REFINE_CANDIDATES as u64,
            "4 kind-identical VWs must share one refine set, got {misses} simulations"
        );
        assert!(
            hits >= 3 * misses,
            "the other three VWs must reuse the leader set ({hits} hits / {misses} misses)"
        );
    }

    #[test]
    fn build_is_independent_of_earlier_builds() {
        // A build keeps nothing for the next: the same config built
        // again, on another thread, simulates every refine candidate
        // again and plans the same system.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let config = cfg(AllocationPolicy::EqualDistribution, Placement::Local, 0);
        refine_stats_take();
        let first = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
        let (_, misses) = refine_stats_take();
        assert!(misses > 0, "the build must refine its leaders");
        let (second, second_misses) = std::thread::scope(|s| {
            s.spawn(|| {
                let sys = HetPipeSystem::build(&cluster, &graph, &config).unwrap();
                (sys, refine_stats_take().1)
            })
            .join()
            .unwrap()
        });
        assert_eq!(second_misses, misses, "refine simulations per build");
        assert_eq!(first.nm(), second.nm());
        assert_eq!(first.virtual_workers().len(), 4);
        assert_eq!(second.virtual_workers().len(), 4);
        for (a, b) in first.virtual_workers().iter().zip(second.virtual_workers()) {
            assert_eq!((&a.devices, &a.plan, a.nm), (&b.devices, &b.plan, b.nm));
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
