//! The five workloads, each run as one sample: build the inputs, run
//! every query, check the outputs, and — when traced — time the
//! pieces a single public call hides by calling the layer's public
//! functions again on the same inputs, outside the query spans.

use crate::tracer::{self, Tracer};
use hetpipe_allreduce::HorovodBaseline;
use hetpipe_cluster::{Cluster, DeviceId, GpuKind, Node};
use hetpipe_core::exec::{self, ExecParams, RunStats, SegmentOpts, SpanTag};
use hetpipe_core::pserver::{Placement, ShardMap};
use hetpipe_core::{
    AllocationPolicy, HetPipeSystem, OccupancyAudit, SystemConfig, SystemReport, VirtualWorker,
    WspParams,
};
use hetpipe_des::{SimTime, Trace};
use hetpipe_fleet::{run_fleet, FleetConfig, FleetReport, FleetTopology};
use hetpipe_model::memory::nm_saturation_limit;
use hetpipe_model::ModelGraph;
use hetpipe_partition::{
    evaluate_orders, max_feasible_nm_with, NmSweep, PartitionProblem, PartitionSolver,
};
use hetpipe_plansvc::{Catalog, PlanService};
use hetpipe_runtime::{
    self as runtime, Fault, MonitorConfig, Policy, RuntimeParams, ScenarioEvent, ScenarioScript,
};
use hetpipe_schedule::{Dispatch, PipelineSchedule, RecomputePolicy, Schedule};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// A benchmark workload. Each is fixed in code; `--seed` drives only
/// the chaos scripts of [`Workload::ElasticChaos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline deployment: VGG-19 on the 16-GPU testbed.
    PaperEd,
    /// ResNet-152 on 16 RTX 2060s under interleaved 1F1B + recompute.
    WhimpyInterleaved,
    /// 256 two-node cells through the parallel fleet engine.
    Fleet256,
    /// Seeded lease/slowdown scripts through the elastic runtime.
    ElasticChaos,
    /// 128 cold planner configurations with short simulations.
    PlanSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::PaperEd,
        Workload::WhimpyInterleaved,
        Workload::Fleet256,
        Workload::ElasticChaos,
        Workload::PlanSweep,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEd => "paper-ed",
            Workload::WhimpyInterleaved => "whimpy-interleaved",
            Workload::Fleet256 => "fleet-256",
            Workload::ElasticChaos => "elastic-chaos",
            Workload::PlanSweep => "plan-sweep",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperEd => {
                "paper deployment, long horizon: the DES, the arrival-FIFO handler and span recording do the work"
            }
            Workload::WhimpyInterleaved => {
                "composite per-GPU streams with recompute: stream generation and the stream-order handler do the work"
            }
            Workload::Fleet256 => {
                "256 virtual workers on the fleet engine: the WSP gate bus and per-VW engines do the work"
            }
            Workload::ElasticChaos => {
                "seeded lease and slowdown scripts: runtime splices, the monitor and plan-service hits and misses"
            }
            Workload::PlanSweep => {
                "128 cold configurations: the partition DP, order search and Nm sweep do the work, the DES little"
            }
        }
    }
}

/// What one sample measured and checked.
#[derive(Debug, Default)]
pub struct Sample {
    /// Seconds to build the inputs and plan (every `HetPipeSystem::build`;
    /// on fleet-256 the fastest of [`FLEET_SETUPS`] set-ups).
    pub setup_s: f64,
    /// Seconds from the start of the sample to the last check.
    pub wall_s: f64,
    /// Wall seconds of every query (one configuration built, run and
    /// checked; one fleet run; or one scenario script).
    pub queries: Vec<f64>,
    /// One line per failed query.
    pub failures: Vec<String>,
    /// FNV-1a digest of the simulated outputs.
    pub digest: u64,
    /// Counters and simulated-design numbers, by per-layer metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Simulated outputs folded into `sim.*` (they are averaged).
    sim_outputs: usize,
}

impl Sample {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_insert(0.0) += v;
    }

    /// The sample as the one JSON line a child process prints.
    pub fn to_json(&self, spans: &[tracer::Span], peak_rss_mb: f64) -> Value {
        let mut layers = serde_json::Map::new();
        for (k, v) in &self.layers {
            layers.insert(*k, Value::Number(*v));
        }
        json!({
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "queries": self.queries.clone(),
            "failures": self.failures.clone(),
            "digest": format!("{:016x}", self.digest),
            "peak_rss_mb": peak_rss_mb,
            "layers": Value::Object(layers),
            "spans": tracer::to_json(spans),
        })
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Runs one sample of `w`. `scale` shrinks horizons and counts (1 is
/// the benchmark; the smoke tests use about 0.01).
pub fn run(w: Workload, seed: u64, scale: f64, tr: &mut Tracer) -> Sample {
    let start = Instant::now();
    let mut s = Sample::default();
    let mut fnv = Fnv::new();
    match w {
        Workload::PaperEd => {
            let config = system_config(
                AllocationPolicy::EqualDistribution,
                Placement::Local,
                "hetpipe-wave",
                "none",
            );
            let inputs = [(Cluster::paper_testbed(), hetpipe_model::vgg19(32), config)];
            s.setup_s = start.elapsed().as_secs_f64();
            system_queries(tr, &inputs, 10_000.0 * scale, &mut s, &mut fnv);
        }
        Workload::WhimpyInterleaved => {
            let config = system_config(
                AllocationPolicy::EqualDistribution,
                Placement::Default,
                "interleaved-1f1b:2",
                "boundary-only",
            );
            let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
            let inputs = [(cluster, hetpipe_model::resnet152(32), config)];
            s.setup_s = start.elapsed().as_secs_f64();
            system_queries(tr, &inputs, 3_000.0 * scale, &mut s, &mut fnv);
        }
        Workload::Fleet256 => fleet(tr, scale, &mut s, &mut fnv),
        Workload::ElasticChaos => elastic(tr, seed, scale, start, &mut s, &mut fnv),
        Workload::PlanSweep => {
            let inputs = plan_sweep_inputs(scale);
            s.setup_s = start.elapsed().as_secs_f64();
            system_queries(tr, &inputs, 30.0, &mut s, &mut fnv);
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s.digest = fnv.0;
    if s.sim_outputs > 1 {
        let n = s.sim_outputs as f64;
        for (k, v) in s.layers.iter_mut() {
            if k.starts_with("sim.") {
                *v /= n;
            }
        }
    }
    s
}

/// A schedule and recompute policy named by their CLI strings, so a
/// change in what a name means shows up as a changed workload rather
/// than a silent one.
fn named(schedule: &str, recompute: &str) -> (Schedule, RecomputePolicy) {
    (
        Schedule::parse(schedule).expect("a known schedule name"),
        RecomputePolicy::parse(recompute).expect("a known recompute name"),
    )
}

/// A system configuration; see [`named`].
fn system_config(
    policy: AllocationPolicy,
    placement: Placement,
    schedule: &str,
    recompute: &str,
) -> SystemConfig {
    let (schedule, recompute) = named(schedule, recompute);
    SystemConfig {
        policy,
        placement,
        schedule,
        recompute,
        ..SystemConfig::default()
    }
}

/// The Table-4 GPU sets (4[V], 8[VR], 12[VRQ], 16[VRQG]) × {VGG-19,
/// ResNet-152} × {ED, NP} × four schedules × {no recompute,
/// boundary-only}: 128 configurations. Below scale 1 an evenly spaced
/// subset is kept.
fn plan_sweep_inputs(scale: f64) -> Vec<(Cluster, ModelGraph, SystemConfig)> {
    use GpuKind::*;
    let sets: [&[GpuKind]; 4] = [
        &[TitanV],
        &[TitanV, TitanRtx],
        &[TitanV, TitanRtx, QuadroP4000],
        &[TitanV, TitanRtx, QuadroP4000, Rtx2060],
    ];
    let mut inputs = Vec::new();
    for kinds in sets {
        let cluster = Cluster::testbed_subset(kinds);
        for graph in [hetpipe_model::vgg19(32), hetpipe_model::resnet152(32)] {
            for policy in [
                AllocationPolicy::EqualDistribution,
                AllocationPolicy::NodePartition,
            ] {
                for schedule in ["hetpipe-wave", "fill-drain", "1f1b", "interleaved-1f1b:2"] {
                    for recompute in ["none", "boundary-only"] {
                        let config =
                            system_config(policy.clone(), Placement::Default, schedule, recompute);
                        inputs.push((cluster.clone(), graph.clone(), config));
                    }
                }
            }
        }
    }
    let step = (1.0 / scale).round().max(1.0) as usize;
    inputs.into_iter().step_by(step).collect()
}

/// One query per configuration: build, simulate to `horizon_secs`,
/// audit, and check. Traced samples then replay the planner phases,
/// stream generation, report and chrome export on the same inputs.
fn system_queries(
    tr: &mut Tracer,
    inputs: &[(Cluster, ModelGraph, SystemConfig)],
    horizon_secs: f64,
    s: &mut Sample,
    fnv: &mut Fnv,
) {
    let horizon = SimTime::from_secs(horizon_secs);
    for (cluster, graph, config) in inputs {
        let label = format!(
            "{} GPUs {} {} {} {}",
            cluster.device_count(),
            graph.name,
            config.policy.name(),
            config.schedule,
            config.recompute
        );
        let q = Instant::now();
        tr.open("query");
        let built = Instant::now();
        let sys = tr.time("plan.build", || {
            HetPipeSystem::build(cluster, graph, config)
        });
        s.setup_s += built.elapsed().as_secs_f64();
        let sys = match sys {
            Ok(sys) => sys,
            Err(e) => {
                tr.close();
                s.queries.push(q.elapsed().as_secs_f64());
                s.failures.push(format!("{label}: build failed: {e}"));
                continue;
            }
        };
        let (report, stats) = tr.time("exec.run", || sys.run_with_stats(horizon));
        let audit = tr.time("audit.measure", || {
            OccupancyAudit::measure(&stats, sys.virtual_workers(), &config.schedule, sys.nm())
        });
        let mut problems = audit.violations();
        if let Some(vw) = report.minibatches_per_vw.iter().position(|&m| m == 0) {
            problems.push(format!("vw{vw} completed no minibatch"));
        }
        fold_stats(fnv, &stats);
        tr.close();
        s.queries.push(q.elapsed().as_secs_f64());
        if !problems.is_empty() {
            s.failures.push(format!("{label}: {}", problems.join("; ")));
        }

        fold_report(s, &report, sys.nm());
        horovod(s, cluster, graph, report.throughput_images_per_sec());
        if tr.on() {
            exec_counters(s, &stats);
            replay_plan(tr, s, cluster, graph, config, &sys);
            let d = config.staleness_bound;
            let ops = tr.time("schedule.stream_gen", || {
                stream_ops(config, &sys, d, &stats)
            });
            s.add("schedule.ops", ops as f64);
            let warmup = SimTime::from_secs(horizon_secs * config.warmup_fraction);
            let devices: Vec<Vec<DeviceId>> = sys
                .virtual_workers()
                .iter()
                .map(|v| v.devices.clone())
                .collect();
            tr.time("metrics.report", || {
                SystemReport::from_stats(&stats, cluster, graph.batch_size, warmup, &devices)
            });
            let bytes = tr.time("export.chrome", || chrome_bytes(&stats.trace));
            s.add("export.chrome_mb", bytes as f64 / MIB);
        }
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Digest of one executor run: events, per-VW completions, waves and
/// pull wait, and the end instant.
fn fold_stats(fnv: &mut Fnv, stats: &RunStats) {
    fnv.word(stats.events);
    for v in &stats.vws {
        fnv.word(v.completions.len() as u64);
        fnv.word(v.waves_pushed);
        fnv.word(v.pull_wait.as_nanos());
    }
    fnv.word(stats.end.as_nanos());
}

/// The modelled design's numbers (§8.3–8.4 of the paper).
fn fold_report(s: &mut Sample, report: &SystemReport, nm: usize) {
    s.sim_outputs += 1;
    s.add("sim.images_per_s", report.throughput_images_per_sec());
    s.add("sim.nm", nm as f64);
    s.add("sim.pull_wait_s", report.total_pull_wait_secs());
    s.add("sim.idle_in_wait_s", report.total_idle_in_wait_secs());
    s.add(
        "sim.idle_fraction_of_wait",
        report.idle_fraction_of_wait().unwrap_or(0.0),
    );
    let util = &report.gpu_utilization;
    s.add(
        "sim.gpu_util_mean",
        util.iter().map(|(_, u)| u).sum::<f64>() / util.len().max(1) as f64,
    );
    s.add("sim.sync_inter_gb", report.sync_bytes_inter as f64 / 1e9);
    s.add("sim.act_inter_gb", report.act_bytes_inter as f64 / 1e9);
}

/// The Horovod BSP baseline on the same cluster and model (0 where no
/// GPU can hold the model, as for ResNet-152 on RTX 2060s).
fn horovod(s: &mut Sample, cluster: &Cluster, graph: &ModelGraph, sim_images_per_s: f64) {
    if let Ok(h) = HorovodBaseline::evaluate_all(cluster, graph) {
        s.add("sim.horovod_images_per_s", h.images_per_sec);
        s.add(
            "sim.speedup_over_horovod",
            sim_images_per_s / h.images_per_sec,
        );
    }
}

/// Event and span counts of one executor run.
fn exec_counters(s: &mut Sample, stats: &RunStats) {
    s.add("des.events", stats.events as f64);
    let spans = stats.trace.spans();
    s.add("exec.spans", spans.len() as f64);
    s.add("exec.trace_mb", std::mem::size_of_val(spans) as f64 / MIB);
    let kinds = ["forward", "backward", "recompute", "activation", "sync"];
    let mut counts = [0u64; 5];
    for span in spans {
        let category = span.tag.category();
        counts[kinds.iter().position(|&k| k == category).unwrap_or(4)] += 1;
    }
    let names = [
        "exec.spans_forward",
        "exec.spans_backward",
        "exec.spans_recompute",
        "exec.spans_activation",
        "exec.spans_sync",
    ];
    for (name, n) in names.into_iter().zip(counts) {
        s.add(name, n as f64);
    }
}

/// Bytes of the chrome-trace export, written to a counting sink.
fn chrome_bytes(trace: &Trace<SpanTag>) -> u64 {
    struct Count(u64);
    impl std::io::Write for Count {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0 += b.len() as u64;
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut sink = Count(0);
    trace
        .write_chrome_trace(
            &mut sink,
            |r| format!("res{}", r.0),
            SpanTag::label,
            SpanTag::category,
        )
        .expect("a counting sink cannot fail");
    sink.0
}

/// Replays `HetPipeSystem::build`'s phases with the public partition
/// functions, each in its own span: allocation, the order scan (the
/// proxy-scored `Nm` sweep of every distinct kind-order), `Max_m`, the
/// common-`Nm` choice, and the final solves. What `plan.build` spends
/// beyond them is the private refine simulations.
fn replay_plan(
    tr: &mut Tracer,
    s: &mut Sample,
    cluster: &Cluster,
    graph: &ModelGraph,
    config: &SystemConfig,
    sys: &HetPipeSystem<'_>,
) {
    let (schedule, recompute) = (config.schedule, config.recompute);
    let specs =
        |devices: &[DeviceId]| -> Vec<_> { devices.iter().map(|&d| cluster.spec_of(d)).collect() };
    let expand = |ordered: &[DeviceId]| -> Vec<DeviceId> {
        let k = schedule.virtual_stages(ordered.len());
        (0..k).map(|i| ordered[i % ordered.len()]).collect()
    };
    let Ok(groups) = tr.time("plan.alloc", || config.policy.allocate(cluster)) else {
        return;
    };
    for devices in groups.iter().filter(|d| config.order_search && d.len() > 1) {
        let gpus = specs(devices);
        let limit = nm_saturation_limit(schedule.virtual_stages(devices.len()));
        let scored = tr.time("plan.order_scan", || {
            evaluate_orders(&gpus, |order| {
                let stages: Vec<DeviceId> = order.iter().map(|&j| devices[j]).collect();
                let devs = expand(&stages);
                let links = VirtualWorker::links(cluster, &devs);
                let mut sweep = NmSweep::new(graph, &specs(&devs), &links, schedule, recompute);
                let mut best: Option<f64> = None;
                for nm in 1..=limit {
                    let Ok(plan) = sweep.solve(nm) else { break };
                    let latency: f64 = plan.stage_secs.iter().sum();
                    let rate = (1.0 / plan.bottleneck_secs).min(nm as f64 / latency);
                    best = Some(best.map_or(rate, |b: f64| b.max(rate)));
                }
                best
            })
        });
        s.add("plan.orders_scored", scored.len() as f64);
    }
    let vws = sys.virtual_workers();
    let max_nm = tr.time("plan.maxm", || {
        vws.iter()
            .filter_map(|vw| {
                let links = VirtualWorker::links(cluster, &vw.devices);
                let limit = nm_saturation_limit(vw.devices.len());
                max_feasible_nm_with(
                    graph,
                    &specs(&vw.devices),
                    &links,
                    limit,
                    schedule,
                    recompute,
                )
                .map(|(m, _)| m)
            })
            .min()
            .unwrap_or(1)
    });
    if config.nm_override.is_none() {
        tr.time("plan.nm_choice", || {
            let mut sweeps: Vec<NmSweep<'_>> = vws
                .iter()
                .map(|vw| {
                    let links = VirtualWorker::links(cluster, &vw.devices);
                    NmSweep::new(graph, &specs(&vw.devices), &links, schedule, recompute)
                })
                .collect();
            for nm in 1..=max_nm {
                for sweep in &mut sweeps {
                    if sweep.solve(nm).is_err() {
                        break;
                    }
                }
            }
        });
    }
    tr.time("plan.final_solve", || {
        for vw in vws {
            let links = VirtualWorker::links(cluster, &vw.devices);
            let problem = PartitionProblem::with_schedule(
                graph,
                specs(&vw.devices),
                links,
                sys.nm(),
                schedule,
            )
            .with_recompute(recompute);
            std::hint::black_box(PartitionSolver::solve(&problem).ok());
        }
    });
}

/// Generates the op streams the executor consumed — per-GPU composite
/// streams or per-stage streams, none for arrival-FIFO — pulled for as
/// many minibatches as each virtual worker completed. Returns the ops.
fn stream_ops(config: &SystemConfig, sys: &HetPipeSystem<'_>, d: usize, stats: &RunStats) -> u64 {
    let (schedule, recompute, nm) = (config.schedule, config.recompute, sys.nm());
    let wsp = WspParams::new(nm, d);
    let pull = |ops: &mut dyn Iterator<Item = Option<u64>>, done: u64| -> u64 {
        ops.take_while(|mb| mb.is_none_or(|m| m <= done)).count() as u64
    };
    let mut total = 0;
    for (vw, v) in sys.virtual_workers().iter().zip(&stats.vws) {
        let (k, done) = (vw.stages(), v.completions.len() as u64);
        match schedule.dispatch() {
            Dispatch::ArrivalFifo => {}
            Dispatch::StreamOrder => {
                for stage in 0..k {
                    let policy = if schedule.recomputes_at(stage, k, nm, recompute) {
                        recompute
                    } else {
                        RecomputePolicy::None
                    };
                    let stream = schedule.stream(stage, k, wsp).with_recompute(policy);
                    total += pull(&mut stream.map(|op| op.minibatch()), done);
                }
            }
            Dispatch::GpuStreamOrder => {
                let gpus = k / schedule.colocated_stages();
                for stream in schedule
                    .gpu_streams_with(gpus, wsp, recompute)
                    .unwrap_or_default()
                {
                    total += pull(&mut stream.map(|g| g.op.minibatch()), done);
                }
            }
        }
    }
    total
}

/// Concurrent minibatches per fleet cell.
const FLEET_NM: usize = 4;

/// Simulated seconds of a fleet-256 run.
const FLEET_HORIZON_S: f64 = 60.0;

/// Set-ups fleet-256 times in each sample; see [`fleet`].
const FLEET_SETUPS: usize = 16;

/// fleet-256's inputs: the model, the fleet of identical cells, each
/// cell's virtual worker, and the VW-local shard map.
struct FleetInputs {
    graph: ModelGraph,
    schedule: Schedule,
    recompute: RecomputePolicy,
    topo: FleetTopology,
    cell_vws: Vec<VirtualWorker>,
    shards: ShardMap,
}

/// Plans one two-node RTX 2060 cell for ResNet-50 at `Nm = 4` and
/// replicates it 256 times (fewer below scale 1).
fn fleet_inputs(tr: &mut Tracer, scale: f64) -> Result<FleetInputs, String> {
    let graph = hetpipe_model::resnet50(32);
    let mut cell = Cluster::new();
    for _ in 0..2 {
        cell.add_node(Node::new(GpuKind::Rtx2060, 1));
    }
    let (schedule, recompute) = named("hetpipe-wave", "none");
    let devices: Vec<DeviceId> = cell.devices().collect();
    let problem = PartitionProblem::with_schedule(
        &graph,
        devices.iter().map(|&d| cell.spec_of(d)).collect(),
        VirtualWorker::links(&cell, &devices),
        FLEET_NM,
        schedule,
    )
    .with_recompute(recompute);
    let plan = tr
        .time("plan.final_solve", || PartitionSolver::solve(&problem))
        .map_err(|e| format!("fleet cell has no plan: {e:?}"))?;
    let vw = VirtualWorker {
        index: 0,
        devices,
        plan,
        nm: FLEET_NM,
    };
    let n_vws = ((256.0 * scale).round() as usize).max(2);
    let topo = FleetTopology::new(cell, vw, n_vws);
    let cell_vws = topo.cell_vws();
    let shards = ShardMap::build_vw_local(&graph);
    Ok(FleetInputs {
        graph,
        schedule,
        recompute,
        topo,
        cell_vws,
        shards,
    })
}

/// Runs [`fleet_inputs`] [`FLEET_SETUPS`] times, tracing only the
/// last, and returns the last one's inputs with the fastest time.
fn fleet_setups(tr: &mut Tracer, scale: f64) -> (Result<FleetInputs, String>, f64) {
    let mut fastest = f64::INFINITY;
    let mut inputs = None;
    for i in 1..=FLEET_SETUPS {
        drop(inputs.take());
        let mut untraced = Tracer::new(false);
        let tr = if i == FLEET_SETUPS {
            &mut *tr
        } else {
            &mut untraced
        };
        let t = Instant::now();
        inputs = Some(fleet_inputs(tr, scale));
        fastest = fastest.min(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("FLEET_SETUPS is not 0");
    (inputs, fastest)
}

/// fleet-256: 256 replicas of a two-node RTX 2060 cell running
/// ResNet-50 through one fleet engine thread. Traced samples also run
/// the legacy single-engine loop on the same events (and check it
/// matches per VW) and the fleet at twice the horizon.
///
/// One set-up takes about 25 µs, short enough that one interrupt
/// inflates it by half, so the sample reports the fastest of
/// [`FLEET_SETUPS`] set-ups.
fn fleet(tr: &mut Tracer, scale: f64, s: &mut Sample, fnv: &mut Fnv) {
    let (inputs, fastest) = fleet_setups(tr, scale);
    s.setup_s = fastest;
    let FleetInputs {
        graph,
        schedule,
        recompute,
        topo,
        cell_vws,
        shards,
    } = match inputs {
        Ok(inputs) => inputs,
        Err(e) => {
            s.queries.push(0.0);
            s.failures.push(e);
            return;
        }
    };
    let wsp = WspParams::new(FLEET_NM, 0);
    let fleet_config = FleetConfig {
        cluster: topo.cell(),
        graph: &graph,
        vws: &cell_vws,
        wsp,
        shards: &shards,
        sync_transfers: true,
        schedule,
        recompute,
        opts: SegmentOpts::default(),
        threads: 1,
        keep_traces: false,
    };
    let horizon = SimTime::from_secs(FLEET_HORIZON_S * scale);

    let q = Instant::now();
    tr.open("query");
    let report = tr.time("fleet.run", || run_fleet(&fleet_config, horizon));
    let idle: Vec<usize> = report
        .partials
        .iter()
        .filter(|p| p.completions == 0)
        .map(|p| p.vw)
        .collect();
    fnv.word(report.events);
    for p in &report.partials {
        fnv.word(p.completions);
        fnv.word(p.waves_pushed);
        fnv.word(p.pull_wait.as_nanos());
    }
    fnv.word(report.end.as_nanos());
    tr.close();
    s.queries.push(q.elapsed().as_secs_f64());
    if !idle.is_empty() {
        s.failures
            .push(format!("fleet: VWs {idle:?} completed no minibatch"));
    }

    let completed: u64 = report.partials.iter().map(|p| p.completions).sum();
    let images_per_s = (completed * graph.batch_size as u64) as f64 / horizon.as_secs();
    s.sim_outputs += 1;
    s.add("sim.images_per_s", images_per_s);
    s.add("sim.nm", FLEET_NM as f64);
    s.add(
        "sim.pull_wait_s",
        report.partials.iter().map(|p| p.pull_wait.as_secs()).sum(),
    );
    let busy: Vec<f64> = report
        .partials
        .iter()
        .flat_map(|p| p.gpu_busy.iter().map(|b| b.as_secs() / horizon.as_secs()))
        .collect();
    s.add(
        "sim.gpu_util_mean",
        busy.iter().sum::<f64>() / busy.len().max(1) as f64,
    );
    if tr.on() {
        s.add("fleet.events", report.events as f64);
        let (cluster, vws) = topo.expanded();
        let params = ExecParams {
            cluster: &cluster,
            graph: &graph,
            vws: &vws,
            wsp,
            shards: &shards,
            sync_transfers: true,
            schedule,
            recompute,
        };
        let legacy = tr.time("fleet.legacy_run", || exec::run(params, horizon));
        if let Some(diff) = fleet_vs_legacy(&report, &legacy) {
            s.failures.push(format!("fleet: {diff}"));
        }
        drop(legacy);
        horovod(s, &cluster, &graph, images_per_s);
        tr.time("fleet.x2_run", || {
            run_fleet(&fleet_config, horizon + horizon)
        });
    }
}

/// The first per-VW difference between a fleet run and the legacy
/// loop over the same events, if any.
fn fleet_vs_legacy(report: &FleetReport, legacy: &RunStats) -> Option<String> {
    for (p, v) in report.partials.iter().zip(&legacy.vws) {
        if p.completions != v.completions.len() as u64
            || p.waves_pushed != v.waves_pushed
            || p.pull_wait != v.pull_wait
        {
            return Some(format!("vw{} diverged from the legacy loop", p.vw));
        }
    }
    (report.end != legacy.end).then(|| "end instant diverged from the legacy loop".into())
}

/// Chaos scripts per elastic-chaos sample at scale 1.
const CHAOS_SCRIPTS: u64 = 8;

/// elastic-chaos: four ED-built virtual workers on 16 RTX 2060s
/// (ResNet-152, boundary-only recompute) under seeded lease/slowdown
/// scripts, re-planning through a one-worker plan service.
fn elastic(tr: &mut Tracer, seed: u64, scale: f64, start: Instant, s: &mut Sample, fnv: &mut Fnv) {
    let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
    let graph = hetpipe_model::resnet152(32);
    let config = system_config(
        AllocationPolicy::EqualDistribution,
        Placement::Default,
        "hetpipe-wave",
        "boundary-only",
    );
    let sys = match tr.time("plan.build", || {
        HetPipeSystem::build(&cluster, &graph, &config)
    }) {
        Ok(sys) => sys,
        Err(e) => {
            s.queries.push(0.0);
            s.failures.push(format!("elastic build failed: {e}"));
            return;
        }
    };
    let mut catalog = Catalog::new();
    catalog.register_model(graph.clone());
    catalog.register_cluster(cluster.clone());
    let service = PlanService::start(catalog, 1);
    let client = service.client();
    let horizon_secs = 600.0 * scale;
    let horizon = SimTime::from_secs(horizon_secs);
    let n_scripts = ((CHAOS_SCRIPTS as f64 * scale).round() as u64).max(1);
    let scripts: Vec<ScenarioScript> = (0..n_scripts)
        .map(|i| {
            let draw = seed.wrapping_mul(CHAOS_SCRIPTS).wrapping_add(i);
            chaos_script(draw, i, horizon_secs, &cluster)
        })
        .collect();
    s.setup_s = start.elapsed().as_secs_f64();

    let (hits0, misses0, publishes0) = service.cache_stats();
    let hysteresis = MonitorConfig::default().lease_hysteresis_secs;
    for script in scripts {
        let q = Instant::now();
        tr.open("query");
        let params = RuntimeParams {
            cluster: &cluster,
            graph: &graph,
            vws: sys.virtual_workers().to_vec(),
            wsp: WspParams::new(sys.nm(), config.staleness_bound),
            placement: config.placement,
            sync_transfers: config.sync_transfers,
            schedule: config.schedule,
            recompute: config.recompute,
            script: script.clone(),
            policy: Policy::Replan,
            monitor: MonitorConfig::default(),
            max_reactions: 8,
            planner: Some(client.clone()),
        };
        let report = tr.time("runtime.run", || runtime::run(params, horizon));
        let mut problems = Vec::new();
        if !report.audits_sound() {
            problems.push("an epoch's occupancy audit failed".to_string());
        }
        // Once the last preemption has settled (plus the controller's
        // hysteresis and a splice's worth of slack), every VW must be
        // completing minibatches again.
        let settle = script
            .lease_transitions()
            .iter()
            .filter(|t| !t.available)
            .map(|t| t.at + SimTime::from_secs(hysteresis + 3.0))
            .max()
            .unwrap_or(SimTime::ZERO);
        for (vw, done) in report.completions.iter().enumerate() {
            if done.is_empty() {
                problems.push(format!("vw{vw} completed no minibatch"));
            } else if settle < horizon && !done.iter().any(|&t| t >= settle) {
                problems.push(format!("vw{vw} stalled after the leases settled"));
            }
        }
        for done in &report.completions {
            fnv.word(done.len() as u64);
            fnv.word(done.last().map_or(0, |t| t.as_nanos()));
        }
        fnv.word(report.epochs.len() as u64);
        fnv.word(report.final_nm as u64);
        fnv.word(report.trace.len() as u64);
        tr.close();
        s.queries.push(q.elapsed().as_secs_f64());
        if !problems.is_empty() {
            s.failures
                .push(format!("{}: {}", script.name, problems.join("; ")));
        }

        s.sim_outputs += 1;
        s.add("sim.images_per_s", report.throughput_images_per_sec(0.15));
        s.add("sim.nm", report.final_nm as f64);
        s.add("runtime.epochs", report.epochs.len() as f64);
        s.add("runtime.signals", report.signals.len() as f64);
        s.add("runtime.script_events", script.events.len() as f64);
        s.add("runtime.completed_mb", report.total_completed() as f64);
        if tr.on() {
            let bytes = tr.time("export.chrome", || chrome_bytes(&report.trace));
            s.add("export.chrome_mb", bytes as f64 / MIB);
        }
    }
    if tr.on() {
        replay_plan(tr, s, &cluster, &graph, &config, &sys);
    }
    let (hits, misses, publishes) = service.cache_stats();
    let (hits, misses, publishes) = (hits - hits0, misses - misses0, publishes - publishes0);
    s.add("plansvc.requests", (hits + misses + publishes) as f64);
    s.add("plansvc.publishes", publishes as f64);
    if hits + misses > 0 {
        s.add("plansvc.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    drop(client);
    service.shutdown();
}

/// The per-layer metrics of a traced sample: the counters it
/// collected, plus the span-derived times and ratios.
pub fn layer_metrics(
    layers: &BTreeMap<String, f64>,
    spans: &[tracer::Span],
) -> BTreeMap<String, f64> {
    let mut out = layers.clone();
    let by_name = tracer::self_time_by_name(spans);
    let time = |span: &str| by_name.get(span).copied().unwrap_or(0.0);
    let count = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    for span in [
        "plan.build",
        "plan.alloc",
        "plan.order_scan",
        "plan.maxm",
        "plan.nm_choice",
        "plan.final_solve",
        "schedule.stream_gen",
        "metrics.report",
        "audit.measure",
        "export.chrome",
        "fleet.run",
        "fleet.legacy_run",
        "fleet.x2_run",
        "runtime.run",
    ] {
        out.insert(format!("{span}_s"), time(span));
    }
    // `run_with_stats` builds the report too; the replayed report span
    // times that part on its own.
    let exec_s = (time("exec.run") - time("metrics.report")).max(0.0);
    out.insert("exec.run_s".into(), exec_s);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.insert(
        "des.events_per_s".into(),
        ratio(count("des.events"), exec_s),
    );
    out.insert(
        "fleet.events_per_s".into(),
        ratio(count("fleet.events"), time("fleet.run")),
    );
    out.insert(
        "fleet.vs_legacy".into(),
        ratio(time("fleet.legacy_run"), time("fleet.run")),
    );
    let phases: f64 = [
        "plan.alloc",
        "plan.order_scan",
        "plan.maxm",
        "plan.nm_choice",
        "plan.final_solve",
    ]
    .iter()
    .map(|p| time(p))
    .sum();
    let build = time("plan.build");
    let residual = if build > 0.0 { build - phases } else { 0.0 };
    out.insert("plan.refine_residual_s".into(), residual);
    out.insert("trace.coverage".into(), tracer::coverage(spans));
    out
}

/// One elastic-chaos script: a preemption and its re-grant, two GPU
/// slowdowns and a link degradation. The seed picks the GPUs and the
/// node. The script's index `i` sets the rest: the times, fixed
/// fractions of the horizon staggered by `i % 4`, and the factor of
/// every slowdown, 1.25× plus 0.25× per `i / 4`. Drawing kinds, times and factors
/// per seed, as `ScenarioScript::chaos` does, changed the number of
/// splices and re-plans from seed to seed and spread run time and peak
/// memory by 15–23% (interquartile range over ten seeds). As in
/// `ScenarioScript::chaos`, GPU 0 is never preempted and the preempted
/// GPU is back before 95% of the horizon.
fn chaos_script(seed: u64, i: u64, horizon_secs: f64, cluster: &Cluster) -> ScenarioScript {
    // SplitMix64.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let gpus = cluster.device_count() as u64;
    let mut gpu = |from: u64| (from + next() % (gpus - from)) as usize;
    let preempted = gpu(1);
    let (slow_a, slow_b) = (gpu(0), gpu(0));
    let node = (next() % cluster.node_count() as u64) as usize;
    let factor = 1.25 + 0.25 * (i / 4 % 4) as f64;
    let at = |fraction: f64| (fraction + 0.05 * (i % 4) as f64) * horizon_secs;
    let slowdown = |gpu: usize, from: f64, until: f64| {
        ScenarioEvent::Fault(Fault::GpuSlowdown {
            gpu,
            factor,
            from_secs: at(from),
            until_secs: Some(at(until)),
        })
    };
    ScenarioScript {
        name: format!("chaos-{seed}"),
        events: vec![
            ScenarioEvent::GpuPreempted {
                gpu: preempted,
                at_secs: at(0.3),
            },
            ScenarioEvent::GpuGranted {
                gpu: preempted,
                at_secs: at(0.55),
            },
            slowdown(slow_a, 0.1, 0.25),
            slowdown(slow_b, 0.5, 0.65),
            ScenarioEvent::Fault(Fault::LinkDegrade {
                node,
                factor,
                from_secs: at(0.6),
                until_secs: Some(at(0.8)),
            }),
        ],
    }
}
