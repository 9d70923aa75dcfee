//! The planner's perf harness: baseline vs optimized plan-time, with
//! in-bin parity checks.
//!
//! The plan→simulate pipeline is the system's hot path (the order
//! search alone runs hundreds of DP solves per build), and the
//! Criterion benches are gated off in this offline workspace
//! (`autobenches = false`). This dependency-free bin keeps the perf
//! trajectory measurable anyway: it times
//!
//! - **solve** — one interval-DP partition solve
//!   ([`PartitionSolver::solve`]: O(1) prefix-sum probes + frontier
//!   prune) against [`PartitionSolver::solve_reference`] (naive
//!   per-probe layer re-summation, no prune — the pre-optimization
//!   planner);
//! - **nm-search** — the binary-searched `Max_m`
//!   ([`max_feasible_nm_with`]) against the linear rescan
//!   ([`max_feasible_nm_linear`]);
//! - **order-search** — the paper's 4-node heterogeneous cluster
//!   configuration (a VRGQ virtual worker, `order_search = true`):
//!   every distinct kind-order scored by its best proxy rate over the
//!   feasible `Nm` range, optimized (parallel fan-out + fast solver)
//!   vs baseline (serial + reference solver);
//! - **timetable** — the interleaved composite streams: one shared
//!   joint timetable per virtual worker ([`GpuStream::shared_set`])
//!   vs G independent per-GPU replays;
//! - **end-to-end** — wall-clock `HetPipeSystem::build` (+ a short
//!   simulate) on the paper and whimpy clusters, and the cold build of
//!   the whole 128-cell plan-sweep matrix, recorded for the trajectory
//!   (no baseline counterpart). Each matrix sample runs in a fresh
//!   child process (`--matrix-once`), so the process-wide refine memo
//!   starts empty as in the `plan-sweep` benchmark workload; the row
//!   keeps n, median and quartiles.
//!
//! Every timed pair is also a **parity check**: identical plans,
//! identical `Max_m`, identical winning order, identical op
//! sequences. Any parity violation exits non-zero — this is the CI
//! smoke contract.
//!
//! Flags: `--quick` (fewer repetitions, CI smoke), `--out <path>`
//! (default `BENCH_planner.json`), `--matrix-once` (build the matrix
//! once and print the seconds it took; the matrix row's child mode).

use hetpipe_bench::{arg_value, check_args, plan_sweep_matrix, usage_error};
use hetpipe_cluster::{Cluster, GpuKind, LinkKind};
use hetpipe_core::{AllocationPolicy, HetPipeSystem, Placement, SystemConfig};
use hetpipe_des::SimTime;
use hetpipe_model::memory::nm_saturation_limit;
use hetpipe_model::{resnet152, vgg19, ModelGraph};
use hetpipe_partition::order::{search_orders, search_orders_par};
use hetpipe_partition::{
    max_feasible_nm_linear, max_feasible_nm_with, PartitionProblem, PartitionSolver,
};
use hetpipe_schedule::{GpuOp, GpuStream, PipelineSchedule, RecomputePolicy, Schedule, WspParams};
use serde_json::json;
use std::time::Instant;

/// Times `f` as the best (minimum) per-call seconds over `reps`
/// repetitions, returning `(secs_per_call, last_result)`.
fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        result = Some(r);
    }
    (best, result.unwrap())
}

/// Builds every matrix cell once and returns the seconds it took.
fn build_matrix() -> f64 {
    let cells = plan_sweep_matrix();
    let t = Instant::now();
    for (cluster, graph, config) in &cells {
        std::hint::black_box(HetPipeSystem::build(cluster, graph, config).ok());
    }
    t.elapsed().as_secs_f64()
}

/// Median and first/third quartiles of `values` (quartiles by
/// Python's `statistics.quantiles(values, n=4)`, as `e2e_bench`
/// reports them).
fn median_and_quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let cut = |i: usize| {
        if n < 2 {
            return v[0];
        }
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (median, cut(1), cut(3))
}

/// The paper's heterogeneous virtual worker: one GPU of each testbed
/// kind (the ED allocation on the 4-node cluster).
fn vrgq() -> Vec<hetpipe_cluster::gpu::GpuSpec> {
    vec![
        GpuKind::TitanV.spec(),
        GpuKind::TitanRtx.spec(),
        GpuKind::QuadroP4000.spec(),
        GpuKind::Rtx2060.spec(),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, &["--out"], &["--quick", "--matrix-once"])
        .unwrap_or_else(|e| usage_error(&e));
    if args.iter().any(|a| a == "--matrix-once") {
        println!("{}", build_matrix());
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out: String = arg_value("--out")
        .unwrap_or_else(|e| usage_error(&e))
        .unwrap_or_else(|| "BENCH_planner.json".into());
    let (solve_reps, search_reps, tt_reps) = if quick { (5, 2, 2) } else { (60, 8, 6) };

    let mut parity_failures: Vec<String> = Vec::new();
    let mut parity = |ok: bool, what: String| {
        if !ok {
            eprintln!("PARITY VIOLATION: {what}");
            parity_failures.push(what);
        }
    };

    // ------------------------------------------------------------------
    // 1. Plain DP solves.
    // ------------------------------------------------------------------
    let models: Vec<(&str, ModelGraph)> =
        vec![("VGG-19", vgg19(32)), ("ResNet-152", resnet152(32))];
    let mut solve_rows = Vec::new();
    let mut solve_speedups = Vec::new();
    for (name, graph) in &models {
        let problem = PartitionProblem::new(graph, vrgq(), vec![LinkKind::Pcie; 3], 4);
        let (base_secs, base_plan) =
            time_best_of(solve_reps, || PartitionSolver::solve_reference(&problem));
        let (opt_secs, opt_plan) = time_best_of(solve_reps, || PartitionSolver::solve(&problem));
        let (base_plan, opt_plan) = (base_plan.unwrap(), opt_plan.unwrap());
        let same = base_plan.ranges == opt_plan.ranges
            && (base_plan.bottleneck_secs - opt_plan.bottleneck_secs).abs()
                <= 1e-9 * opt_plan.bottleneck_secs.abs();
        parity(
            same,
            format!("solve {name}: reference and optimized plans differ"),
        );
        let speedup = base_secs / opt_secs;
        solve_speedups.push(speedup);
        println!(
            "solve        paper-vrgq {name:<11} baseline {:>9.1}µs  optimized {:>9.1}µs  {speedup:>5.1}x",
            base_secs * 1e6,
            opt_secs * 1e6
        );
        solve_rows.push(json!({
            "cluster": "paper-vrgq",
            "model": name,
            "nm": 4,
            "baseline_secs": base_secs,
            "optimized_secs": opt_secs,
            "speedup": speedup,
            "parity": same,
        }));
    }

    // ------------------------------------------------------------------
    // 2. Max_m searches (binary vs linear), paper + whimpy clusters.
    // ------------------------------------------------------------------
    let mut nm_rows = Vec::new();
    let whimpy_gpus = vec![GpuKind::Rtx2060.spec(); 4];
    let rn64 = resnet152(64);
    let nm_configs: Vec<(&str, &ModelGraph, Vec<_>)> = vec![
        ("paper-vrgq/VGG-19", &models[0].1, vrgq()),
        ("paper-vrgq/ResNet-152", &models[1].1, vrgq()),
        ("whimpy-gggg/ResNet-152@64", &rn64, whimpy_gpus),
    ];
    for (label, graph, gpus) in &nm_configs {
        let links = vec![LinkKind::Pcie; 3];
        let limit = nm_saturation_limit(4);
        let (base_secs, base) = time_best_of(search_reps, || {
            max_feasible_nm_linear(
                graph,
                gpus,
                &links,
                limit,
                Schedule::HetPipeWave,
                RecomputePolicy::None,
            )
        });
        let (opt_secs, opt) = time_best_of(search_reps, || {
            max_feasible_nm_with(
                graph,
                gpus,
                &links,
                limit,
                Schedule::HetPipeWave,
                RecomputePolicy::None,
            )
        });
        let same = match (&base, &opt) {
            (None, None) => true,
            (Some((a, pa)), Some((b, pb))) => a == b && pa.ranges == pb.ranges,
            _ => false,
        };
        parity(same, format!("nm-search {label}: binary != linear"));
        let speedup = base_secs / opt_secs;
        println!(
            "nm-search    {label:<27} baseline {:>9.1}µs  optimized {:>9.1}µs  {speedup:>5.1}x",
            base_secs * 1e6,
            opt_secs * 1e6
        );
        nm_rows.push(json!({
            "config": label,
            "limit": limit,
            "max_m": opt.as_ref().map(|(nm, _)| *nm),
            "baseline_secs": base_secs,
            "optimized_secs": opt_secs,
            "speedup": speedup,
            "parity": same,
        }));
    }

    // ------------------------------------------------------------------
    // 3. The acceptance configuration: order search over the paper's
    //    4-node heterogeneous cluster (order_search=true — every
    //    distinct kind-order of a VRGQ virtual worker scored by its
    //    best proxy rate over the feasible Nm range, exactly the
    //    system builder's pass-1 objective).
    // ------------------------------------------------------------------
    let gpus = vrgq();
    let limit = nm_saturation_limit(4);
    let rate_of = |plan: &hetpipe_partition::PartitionPlan, nm: usize| {
        let latency: f64 = plan.stage_secs.iter().sum();
        (1.0 / plan.bottleneck_secs).min(nm as f64 / latency)
    };
    // The pre-optimization pass-1 objective: a fresh naive solve per
    // Nm (memory is monotone in Nm, so the first infeasible Nm ends
    // the sweep).
    let baseline_proxy = |order: &[usize], graph: &ModelGraph| -> Option<f64> {
        let ordered: Vec<_> = order.iter().map(|&i| gpus[i].clone()).collect();
        let links = vec![LinkKind::Pcie; 3];
        let mut best: Option<f64> = None;
        for nm in 1..=limit {
            let problem = PartitionProblem::new(graph, ordered.clone(), links.clone(), nm);
            let Some(plan) = PartitionSolver::solve_reference(&problem).ok() else {
                break;
            };
            let rate = rate_of(&plan, nm);
            if best.is_none_or(|r| rate > r) {
                best = Some(rate);
            }
        }
        best
    };
    // The optimized pass-1 objective: an incremental NmSweep (O(1)
    // probes, frontier prune, answer-preserving reuse across Nm).
    let optimized_proxy = |order: &[usize], graph: &ModelGraph| -> Option<f64> {
        let ordered: Vec<_> = order.iter().map(|&i| gpus[i].clone()).collect();
        let links = vec![LinkKind::Pcie; 3];
        let mut sweep = hetpipe_partition::NmSweep::new(
            graph,
            &ordered,
            &links,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
        );
        let mut best: Option<f64> = None;
        for nm in 1..=limit {
            let Ok(plan) = sweep.solve(nm) else { break };
            let rate = rate_of(&plan, nm);
            if best.is_none_or(|r| rate > r) {
                best = Some(rate);
            }
        }
        best
    };
    let mut order_rows = Vec::new();
    let mut order_speedups = Vec::new();
    for (name, graph) in &models {
        let (base_secs, base) = time_best_of(search_reps, || {
            search_orders(&gpus, |order| baseline_proxy(order, graph))
        });
        let (opt_secs, opt) = time_best_of(search_reps, || {
            search_orders_par(&gpus, |order| optimized_proxy(order, graph))
        });
        let (base, opt) = (base.unwrap(), opt.unwrap());
        let same =
            base.0 == opt.0 && (base.1 - opt.1).abs() <= 1e-9 * opt.1.abs() && base.2 == opt.2;
        parity(
            same,
            format!("order-search {name}: serial+reference != parallel+optimized"),
        );
        let speedup = base_secs / opt_secs;
        order_speedups.push(speedup);
        println!(
            "order-search paper-vrgq {name:<11} baseline {:>9.1}ms  optimized {:>9.1}ms  {speedup:>5.1}x",
            base_secs * 1e3,
            opt_secs * 1e3
        );
        order_rows.push(json!({
            "cluster": "paper-vrgq",
            "model": name,
            "order_search": true,
            "orders": opt.2,
            "baseline_secs": base_secs,
            "optimized_secs": opt_secs,
            "speedup": speedup,
            "parity": same,
        }));
    }

    // ------------------------------------------------------------------
    // 4. Shared joint timetable vs per-GPU independent replays.
    // ------------------------------------------------------------------
    let mut timetable_rows = Vec::new();
    for (gpus_n, chunks, nm, ops_per_gpu) in [(4usize, 2usize, 8usize, 4000usize), (8, 3, 8, 4000)]
    {
        let sched = Schedule::Interleaved1F1B {
            chunks,
            composite: true,
        };
        let wsp = WspParams::new(nm, 0);
        let k = sched.virtual_stages(gpus_n);
        let caps: Vec<u64> = (0..k)
            .map(|s| sched.max_in_flight(s, k, nm) as u64)
            .collect();
        let (base_secs, base_ops) = time_best_of(tt_reps, || {
            // The pre-optimization form: every GPU's stream replays the
            // whole joint timetable independently (G× the slot work).
            let mut all: Vec<Vec<GpuOp>> = Vec::new();
            for g in 0..gpus_n {
                let stream = GpuStream::new(g, gpus_n, chunks, wsp, caps.clone());
                all.push(stream.take(ops_per_gpu).collect());
            }
            all
        });
        let (opt_secs, opt_ops) = time_best_of(tt_reps, || {
            let mut set = GpuStream::shared_set(gpus_n, chunks, wsp, caps.clone(), vec![false; k]);
            let mut all: Vec<Vec<GpuOp>> = vec![Vec::with_capacity(ops_per_gpu); gpus_n];
            // Round-robin consumption, as the executor's event loop does.
            for _ in 0..ops_per_gpu {
                for (g, stream) in set.iter_mut().enumerate() {
                    all[g].push(stream.next().unwrap());
                }
            }
            all
        });
        let same = base_ops == opt_ops;
        parity(
            same,
            format!("timetable {gpus_n}x{chunks}: shared set diverged from independent replays"),
        );
        let speedup = base_secs / opt_secs;
        println!(
            "timetable    {gpus_n} GPUs x {chunks} chunks      baseline {:>9.1}ms  optimized {:>9.1}ms  {speedup:>5.1}x",
            base_secs * 1e3,
            opt_secs * 1e3
        );
        timetable_rows.push(json!({
            "gpus": gpus_n,
            "chunks": chunks,
            "nm": nm,
            "ops_per_gpu": ops_per_gpu,
            "baseline_secs": base_secs,
            "optimized_secs": opt_secs,
            "speedup": speedup,
            "parity": same,
        }));
    }

    // ------------------------------------------------------------------
    // 5. Online re-planning: warm-started solve (incumbent-bounded DP,
    //    what the fault-aware runtime runs at a splice) vs a cold
    //    solve of the same derated instance. Parity: identical plans.
    // ------------------------------------------------------------------
    let mut replan_rows = Vec::new();
    for (name, graph) in &models {
        // The replan shape: the incumbent plan was solved at nominal
        // specs; a 30% straggler derates one GPU and the planner
        // re-solves with observed costs.
        let links = vec![LinkKind::Pcie; 3];
        let nominal = PartitionProblem::new(graph, vrgq(), links.clone(), 4);
        let incumbent = PartitionSolver::solve(&nominal).expect("feasible");
        let mut derated = vrgq();
        derated[0] = derated[0].derated(1.3);
        let problem = PartitionProblem::new(graph, derated, links, 4);
        let (cold_secs, cold) = time_best_of(solve_reps, || PartitionSolver::solve(&problem));
        let (warm_secs, warm) = time_best_of(solve_reps, || {
            PartitionSolver::solve_warm(&problem, Some(&incumbent.ranges))
        });
        let (cold, warm) = (cold.unwrap(), warm.unwrap());
        let same = cold.ranges == warm.ranges
            && (cold.bottleneck_secs - warm.bottleneck_secs).abs()
                <= 1e-9 * warm.bottleneck_secs.abs();
        parity(
            same,
            format!("replan {name}: warm-started and cold plans differ"),
        );
        let speedup = cold_secs / warm_secs;
        println!(
            "replan       paper-vrgq {name:<11} cold     {:>9.1}µs  warm      {:>9.1}µs  {speedup:>5.1}x",
            cold_secs * 1e6,
            warm_secs * 1e6
        );
        replan_rows.push(json!({
            "cluster": "paper-vrgq",
            "model": name,
            "nm": 4,
            "derate": 1.3,
            "cold_secs": cold_secs,
            "warm_secs": warm_secs,
            "speedup": speedup,
            "parity": same,
        }));
    }

    // ------------------------------------------------------------------
    // 6. End-to-end plan + short simulate on the paper and whimpy
    //    clusters (trajectory rows; no baseline counterpart).
    // ------------------------------------------------------------------
    let mut e2e_rows = Vec::new();
    let clusters: Vec<(&str, Cluster)> = vec![
        ("paper", Cluster::paper_testbed()),
        ("whimpy", Cluster::testbed_subset(&[GpuKind::Rtx2060; 4])),
    ];
    for (cluster_name, cluster) in &clusters {
        let graph = vgg19(32);
        let config = SystemConfig {
            policy: AllocationPolicy::EqualDistribution,
            placement: Placement::Local,
            order_search: true,
            ..SystemConfig::default()
        };
        let (build_secs, sys) = time_best_of(if quick { 1 } else { 3 }, || {
            HetPipeSystem::build(cluster, &graph, &config).expect("buildable")
        });
        let (sim_secs, _) = time_best_of(if quick { 1 } else { 3 }, || {
            sys.run(SimTime::from_secs(10.0))
        });
        println!(
            "end-to-end   {cluster_name:<7} VGG-19 ED      build {:>9.1}ms  simulate(10s) {:>7.1}ms",
            build_secs * 1e3,
            sim_secs * 1e3
        );
        e2e_rows.push(json!({
            "cluster": cluster_name,
            "model": "VGG-19",
            "order_search": true,
            "build_secs": build_secs,
            "simulate_horizon_secs": 10.0,
            "simulate_secs": sim_secs,
            "nm": sys.nm(),
        }));
    }

    // The plan-sweep matrix, one cold build per child process.
    let exe = std::env::current_exe().expect("the running bin's path");
    let mut matrix_secs = Vec::new();
    for _ in 0..if quick { 3 } else { 9 } {
        let child = std::process::Command::new(&exe)
            .arg("--matrix-once")
            .output()
            .expect("a matrix child process");
        let secs = String::from_utf8_lossy(&child.stdout).trim().parse::<f64>();
        match secs {
            Ok(secs) if child.status.success() => matrix_secs.push(secs),
            _ => {
                eprintln!("matrix child failed: {}", child.status);
                std::process::exit(1);
            }
        }
    }
    let (median, q1, q3) = median_and_quartiles(&matrix_secs);
    println!(
        "end-to-end   plan-sweep matrix, 128 cells  build median {:>7.1}ms  (q1 {:.1}, q3 {:.1}, n {})",
        median * 1e3,
        q1 * 1e3,
        q3 * 1e3,
        matrix_secs.len()
    );
    e2e_rows.push(json!({
        "cluster": "plan-sweep-matrix",
        "cells": plan_sweep_matrix().len(),
        "build_secs": { "n": matrix_secs.len(), "median": median, "q1": q1, "q3": q3 },
    }));

    let min_order = order_speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let min_solve = solve_speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\nacceptance: order-search speedup {min_order:.1}x (target ≥5x), \
         plain solve speedup {min_solve:.1}x (target ≥2x), parity {}",
        if parity_failures.is_empty() {
            "ok"
        } else {
            "VIOLATED"
        }
    );

    let doc = json!({
        "bench": "planner",
        "quick": quick,
        "threads": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "solve": solve_rows,
        "nm_search": nm_rows,
        "order_search": order_rows,
        "timetable": timetable_rows,
        "replan": replan_rows,
        "end_to_end": e2e_rows,
        "acceptance": {
            "order_search_min_speedup": min_order,
            "order_search_target": 5.0,
            "solve_min_speedup": min_solve,
            "solve_target": 2.0,
            "parity_ok": parity_failures.is_empty(),
            "parity_failures": parity_failures.clone(),
        },
    });
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("(json written to {out})");

    if !parity_failures.is_empty() {
        eprintln!("\nPARITY FAILURES ({}):", parity_failures.len());
        for f in &parity_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
