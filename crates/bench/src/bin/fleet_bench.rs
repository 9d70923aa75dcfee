//! The fleet simulator's perf harness: events/sec and parallel
//! scaling vs the single-engine executor, with in-bin parity gates.
//!
//! For each fleet size (16 / 64 / 256 VWs; 4 / 16 / 64 under `--quick`)
//! the harness times three simulations of the *same* workload — a
//! fleet of two-node replicated cells running ResNet-50 under the
//! wave schedule with timed parameter sync:
//!
//! - **legacy** — the single-engine executor over the expanded flat
//!   cluster (the O(V²)-fanout baseline loop);
//! - **fleet ×1** — one engine per VW driven by a single thread
//!   through the WSP gate bus;
//! - **fleet ×T** — the same engines on all available cores.
//!
//! Parity is enforced in-bin: at the smallest fleet size the merged
//! fleet trace must fingerprint bit-identical to the legacy trace
//! (over a short dedicated run, so the trace stays bounded), and at
//! *every* size the per-VW statistics (completions, waves, pull
//! wait, end instant) must match legacy and be identical between
//! thread counts. The timing runs use per-size horizons (simulated
//! work scaled inversely with fleet size) so every wall time is
//! measurable, and each wall is timed `REPS` times. The derived rates
//! and ratios use the minimum — virtualized hosts charge wildly
//! variable page-fault service time (system time can exceed
//! simulation time tenfold between identical runs), and the minimum is
//! the run the fault storms missed — while every row also records the
//! repeat count and each wall's min and max as its spread. Rows carry
//! the gate bus's verdict counters for both fleet runs (see
//! `BusCounters`: only `ready` and `announces` are thread-invariant).
//! Scaling gates apply only where the machine can express them:
//! parallel efficiency ≥ 0.5 at 16 VWs needs ≥ 4 cores, and the ≥ 3×
//! events/sec speedup over legacy at 64 VWs needs ≥ 8 cores and a full
//! (not `--quick`) run — the measured core count is recorded either
//! way. Any violated gate exits non-zero (the CI smoke contract).
//!
//! Flags: `--quick` (small fleets, CI smoke), `--out <path>` (default
//! `BENCH_fleet.json`), `--trace <path>` (merged chrome trace of the
//! smallest fleet). An output file that cannot be written exits 1.

use hetpipe_bench::{arg_value, check_args, usage_error};
use hetpipe_cluster::{Cluster, DeviceId, GpuKind, Node};
use hetpipe_core::exec::{run, ExecParams, RunStats, SegmentOpts};
use hetpipe_core::pserver::ShardMap;
use hetpipe_core::{VirtualWorker, WspParams};
use hetpipe_des::{SimTime, Trace};
use hetpipe_fleet::{
    merged_spans, run_fleet, trace_fingerprint, BusCounters, FleetConfig, FleetReport,
    FleetTopology,
};
use hetpipe_model::ModelGraph;
use hetpipe_schedule::{RecomputePolicy, Schedule};
use serde_json::json;
use std::time::Instant;

const NM: usize = 4;
const D: usize = 0;
const SCHEDULE: Schedule = Schedule::HetPipeWave;

/// Timing repeats per configuration; the derived rates use the
/// minimum wall (see the module doc on virtualized-host fault noise).
const REPS: usize = 3;

/// The fastest and slowest of `REPS` timed repeats, in seconds.
#[derive(Clone, Copy)]
struct Walls {
    min: f64,
    max: f64,
}

/// Runs `f` `REPS` times; returns the last result and the walls.
fn best_of<R>(mut f: impl FnMut() -> (R, f64)) -> (R, Walls) {
    let (mut r, w) = f();
    let mut walls = Walls { min: w, max: w };
    for _ in 1..REPS {
        let (r2, w2) = f();
        r = r2;
        walls.min = walls.min.min(w2);
        walls.max = walls.max.max(w2);
    }
    (r, walls)
}

/// A bus counter block as a JSON row field.
fn bus_json(c: &BusCounters) -> serde_json::Value {
    json!({
        "polls": c.polls(),
        "ready": c.ready,
        "not_before": c.not_before,
        "wait": c.wait,
        "quiescent": c.quiescent,
        "announces": c.announces,
    })
}

/// A two-node single-GPU-per-node cell (pipeline activations cross
/// the NIC) replicated `n_vws` times.
fn topology(graph: &ModelGraph, n_vws: usize) -> FleetTopology {
    let mut cell = Cluster::new();
    for _ in 0..2 {
        cell.add_node(Node::new(GpuKind::Rtx2060, 1));
    }
    let devices: Vec<DeviceId> = cell.devices().collect();
    let gpus = devices.iter().map(|&d| cell.spec_of(d)).collect();
    let links = VirtualWorker::links(&cell, &devices);
    let plan = hetpipe_partition::PartitionSolver::solve(
        &hetpipe_partition::PartitionProblem::new(graph, gpus, links, NM),
    )
    .expect("feasible cell");
    let vw = VirtualWorker {
        index: 0,
        devices,
        plan,
        nm: NM,
    };
    FleetTopology::new(cell, vw, n_vws)
}

fn fleet(
    topo: &FleetTopology,
    graph: &ModelGraph,
    shards: &ShardMap,
    threads: usize,
    keep_traces: bool,
    horizon: SimTime,
) -> (FleetReport, f64) {
    let vws = topo.cell_vws();
    let cfg = FleetConfig {
        cluster: topo.cell(),
        graph,
        vws: &vws,
        wsp: WspParams::new(NM, D),
        shards,
        sync_transfers: true,
        schedule: SCHEDULE,
        recompute: RecomputePolicy::None,
        opts: SegmentOpts::default(),
        threads,
        keep_traces,
    };
    let t = Instant::now();
    let report = run_fleet(&cfg, horizon);
    (report, t.elapsed().as_secs_f64())
}

fn legacy(
    topo: &FleetTopology,
    graph: &ModelGraph,
    shards: &ShardMap,
    horizon: SimTime,
) -> (RunStats, f64) {
    let (cluster, vws) = topo.expanded();
    let t = Instant::now();
    let stats = run(
        ExecParams {
            cluster: &cluster,
            graph,
            vws: &vws,
            wsp: WspParams::new(NM, D),
            shards,
            sync_transfers: true,
            schedule: SCHEDULE,
            recompute: RecomputePolicy::None,
        },
        horizon,
    );
    (stats, t.elapsed().as_secs_f64())
}

/// Per-VW stats parity between a fleet report and the legacy oracle.
fn check_stats_parity(
    n: usize,
    report: &FleetReport,
    stats: &RunStats,
    violations: &mut Vec<String>,
) {
    for (p, v) in report.partials.iter().zip(&stats.vws) {
        if p.completions != v.completions.len() as u64
            || p.waves_pushed != v.waves_pushed
            || p.pull_wait != v.pull_wait
        {
            violations.push(format!(
                "{n} VWs: vw {} stats diverged from legacy (completions {} vs {}, \
                 waves {} vs {}, pull wait {:?} vs {:?})",
                p.vw,
                p.completions,
                v.completions.len(),
                p.waves_pushed,
                v.waves_pushed,
                p.pull_wait,
                v.pull_wait
            ));
        }
    }
    if report.end != stats.end {
        violations.push(format!(
            "{n} VWs: end instant diverged ({:?} fleet vs {:?} legacy)",
            report.end, stats.end
        ));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, &["--out", "--trace"], &["--quick"]).unwrap_or_else(|e| usage_error(&e));
    let quick = args.iter().any(|a| a == "--quick");
    let out: String = arg_value("--out")
        .unwrap_or_else(|e| usage_error(&e))
        .unwrap_or_else(|| "BENCH_fleet.json".into());
    let trace_out: Option<String> = arg_value("--trace").unwrap_or_else(|e| usage_error(&e));
    let counts: &[usize] = if quick { &[4, 16, 64] } else { &[16, 64, 256] };
    // Per-size timing horizon: simulated work scales inversely with
    // fleet size so every wall time is measurable without the large
    // fleets dominating the run.
    let sim_budget = if quick { 1_600.0 } else { 32_000.0 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let graph = hetpipe_model::resnet50(32);
    let shards = ShardMap::build_vw_local(&graph);
    let mut violations: Vec<String> = Vec::new();
    let mut trace_written = true;
    let mut rows = Vec::new();

    println!("fleet_bench: ResNet-50, 2-node cells, Nm={NM} D={D}, {cores} core(s)");

    // Trace parity at the smallest size over a short dedicated run
    // (bounds the span sets and the exported chrome trace).
    {
        let n = counts[0];
        let fp_horizon = SimTime::from_secs(20.0);
        let topo = topology(&graph, n);
        let (stats, _) = legacy(&topo, &graph, &shards, fp_horizon);
        let (one, _) = fleet(&topo, &graph, &shards, 1, true, fp_horizon);
        let merged = merged_spans(&topo, &one);
        let fleet_fp = trace_fingerprint(&merged);
        let legacy_fp = trace_fingerprint(stats.trace.spans());
        if fleet_fp != legacy_fp {
            violations.push(format!(
                "{n} VWs: merged fleet trace != legacy trace \
                 ({fleet_fp:#018x} vs {legacy_fp:#018x})"
            ));
        }
        if let Some(path) = &trace_out {
            let mut t: Trace<_> = Trace::new();
            for s in &merged {
                t.record(s.resource, s.start, s.end, s.tag);
            }
            let devs = topo.devices_per_cell();
            let nodes = topo.nodes_per_cell();
            let named = t.write_chrome_trace_file(
                path,
                |rid| {
                    if rid.0 < n * devs {
                        format!("vw{} gpu{}", rid.0 / devs, rid.0 % devs)
                    } else {
                        let j = rid.0 - n * devs;
                        format!("vw{} nic{}", j / nodes, j % nodes)
                    }
                },
                |tag| tag.label(),
                |tag| tag.category(),
            );
            match named {
                Ok(()) => println!("(merged trace written to {path})"),
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    trace_written = false;
                }
            }
        }
    }

    for &n in counts {
        let horizon = SimTime::from_secs(sim_budget / n as f64);
        let topo = topology(&graph, n);
        let (stats, legacy_walls) = best_of(|| legacy(&topo, &graph, &shards, horizon));
        let (one, one_walls) = best_of(|| fleet(&topo, &graph, &shards, 1, false, horizon));
        let (many, many_walls) = best_of(|| fleet(&topo, &graph, &shards, cores, false, horizon));
        let (legacy_wall, one_wall, many_wall) = (legacy_walls.min, one_walls.min, many_walls.min);

        // Parity: per-VW stats vs legacy, and thread-count
        // determinism, at every size.
        check_stats_parity(n, &one, &stats, &mut violations);
        check_stats_parity(n, &many, &stats, &mut violations);
        if one.partials != many.partials {
            violations.push(format!(
                "{n} VWs: partials differ between 1 and {} threads",
                many.threads
            ));
        }

        let threads_used = many.threads.min(n);
        let self_speedup = one_wall / many_wall;
        let efficiency = self_speedup / threads_used as f64;
        let speedup_vs_legacy = legacy_wall / many_wall;
        println!(
            "{n:>4} VWs  legacy {:>8.0} ev/s ({legacy_wall:>6.2}s)  fleet x1 {:>8.0} ev/s \
             ({one_wall:>6.2}s)  fleet x{threads_used} {:>8.0} ev/s ({many_wall:>6.2}s)  \
             speedup {speedup_vs_legacy:>5.2}x  eff {efficiency:>4.2}",
            stats.events as f64 / legacy_wall,
            one.events as f64 / one_wall,
            many.events as f64 / many_wall,
        );
        let b = &one.bus;
        println!(
            "          bus x1: {} polls = {} ready + {} not-before + {} wait \
             ({} quiescent), {} announces",
            b.polls(),
            b.ready,
            b.not_before,
            b.wait,
            b.quiescent,
            b.announces
        );
        rows.push(json!({
            "vws": n,
            "threads": threads_used,
            "horizon_secs": horizon.as_secs(),
            "reps": REPS,
            "legacy_wall_min_secs": legacy_wall,
            "legacy_wall_max_secs": legacy_walls.max,
            "legacy_events": stats.events,
            "legacy_events_per_sec": stats.events as f64 / legacy_wall,
            "fleet1_wall_min_secs": one_wall,
            "fleet1_wall_max_secs": one_walls.max,
            "fleet1_events": one.events,
            "fleet1_events_per_sec": one.events as f64 / one_wall,
            "fleet1_bus": bus_json(&one.bus),
            "fleetN_wall_min_secs": many_wall,
            "fleetN_wall_max_secs": many_walls.max,
            "fleetN_events": many.events,
            "fleetN_events_per_sec": many.events as f64 / many_wall,
            "fleetN_bus": bus_json(&many.bus),
            "speedup_vs_legacy": speedup_vs_legacy,
            "self_speedup": self_speedup,
            "parallel_efficiency": efficiency,
        }));

        // Scaling gates, applied only where the machine can express
        // them; the JSON records the cores so absent gates are
        // auditable.
        if n == 16 && cores >= 4 && efficiency < 0.5 {
            violations.push(format!(
                "16 VWs: parallel efficiency {efficiency:.2} < 0.5 on {cores} cores"
            ));
        }
        if n == 64 && cores >= 8 && !quick && speedup_vs_legacy < 3.0 {
            violations.push(format!(
                "64 VWs: speedup over legacy {speedup_vs_legacy:.2}x < 3x on {cores} cores"
            ));
        }
    }

    let doc = json!({
        "quick": quick,
        "cores": cores,
        "model": "ResNet-50/32",
        "cell": "2 nodes x 1 RTX 2060",
        "nm": NM,
        "d": D,
        "schedule": format!("{SCHEDULE}"),
        "rows": rows,
        "gates": {
            "parity": "always",
            "efficiency_at_16_vws": { "target": 0.5, "applies": cores >= 4 },
            "speedup_vs_legacy_at_64_vws": { "target": 3.0, "applies": cores >= 8 && !quick },
        },
        "parity_ok": violations.is_empty(),
        "violations": violations.clone(),
    });
    match std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    ) {
        Ok(()) => println!("(json written to {out})"),
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
    }

    if !violations.is_empty() {
        eprintln!("\nACCEPTANCE FAILURES ({}):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    if !trace_written {
        std::process::exit(1);
    }
}
