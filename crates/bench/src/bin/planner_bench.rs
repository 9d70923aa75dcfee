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
//! - **nm-sweep** — one instance walked over `Nm = 1, 2, …` up to the
//!   first infeasible `Nm`, the one `Max_m` search: an [`NmSweep`]
//!   ([`NmSweep::feasible_prefix`]), which reuses each memory mode's
//!   optimum while it provably stays optimal, against a cold
//!   [`PartitionSolver::solve`] per `Nm`. Flat rows run the wave
//!   schedule on a VRGQ virtual worker (VGG-19, ResNet-152) and on four
//!   RTX 2060s (ResNet-152 at batch 64); co-located rows run a VRGQ
//!   virtual worker × 2 interleaved chunks, each under both recompute
//!   policies;
//! - **timetable** — the interleaved composite streams: one joint
//!   timetable per virtual worker, pulled round-robin from its
//!   [`Lanes`], vs G standalone per-GPU replays
//!   ([`PipelineSchedule::gpu_streams_with`]);
//! - **end-to-end** — wall-clock `HetPipeSystem::build` (+ a short
//!   simulate) on the paper and whimpy clusters, and the build of the
//!   whole 128-cell plan-sweep matrix, recorded for the trajectory (no
//!   baseline counterpart). A build keeps no state for the next, so
//!   every repeat is as cold as the first;
//! - **counts** — exact counts of one matrix pass, summed over its
//!   builds' [`BuildCounts`](hetpipe_core::BuildCounts): the row pairs
//!   the builds' layer tables built (prefix rows per GPU kind, comm rows
//!   per link kind), and the refine simulations with the events they
//!   simulated.
//!
//! Every timing, each side of a pair included, records its sample
//! count, median and quartiles (`{n, median, q1, q3}`); a pair's
//! `speedup` is the ratio of its medians. Every timed pair is also a
//! **parity check**: identical plans, identical `Max_m`, identical op
//! sequences. Any parity violation exits non-zero — this is the CI
//! smoke contract.
//!
//! Flags: `--quick` (fewer repetitions, CI smoke), `--out <path>`
//! (default `BENCH_planner.json`).

use hetpipe_bench::{arg_value, check_args, median_and_quartiles, plan_sweep_matrix, usage_error};
use hetpipe_cluster::{Cluster, GpuKind, LinkKind};
use hetpipe_core::{AllocationPolicy, HetPipeSystem, Placement, SystemConfig};
use hetpipe_des::SimTime;
use hetpipe_model::memory::nm_saturation_limit;
use hetpipe_model::{resnet152, vgg19, ModelGraph};
use hetpipe_partition::{NmSweep, PartitionPlan, PartitionProblem, PartitionSolver};
use hetpipe_schedule::{GpuOp, Lanes, PipelineSchedule, RecomputePolicy, Schedule, WspParams};
use serde_json::json;
use std::time::Instant;

/// Times `n` calls of `f`, returning each call's seconds and the last
/// result.
fn time_each<R>(n: usize, mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut secs = Vec::with_capacity(n);
    let mut result = None;
    for _ in 0..n {
        let t = Instant::now();
        result = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (secs, result.expect("at least one call"))
}

/// `secs` as a row's `{n, median, q1, q3}`.
fn summary(secs: &[f64]) -> serde_json::Value {
    let (median, q1, q3) = median_and_quartiles(secs);
    json!({ "n": secs.len(), "median": median, "q1": q1, "q3": q3 })
}

/// The median of `secs`.
fn median(secs: &[f64]) -> f64 {
    median_and_quartiles(secs).0
}

/// Whether two plans are the same bit for bit: ranges, `stage_secs`
/// and bottleneck.
fn same_bits(a: &PartitionPlan, b: &PartitionPlan) -> bool {
    let bits = |p: &PartitionPlan| {
        let mut v: Vec<u64> = p.stage_secs.iter().map(|s| s.to_bits()).collect();
        v.push(p.bottleneck_secs.to_bits());
        v
    };
    a.ranges == b.ranges && bits(a) == bits(b)
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
    check_args(&args, &["--out"], &["--quick"]).unwrap_or_else(|e| usage_error(&e));
    let quick = args.iter().any(|a| a == "--quick");
    let out: String = arg_value("--out")
        .unwrap_or_else(|e| usage_error(&e))
        .unwrap_or_else(|| "BENCH_planner.json".into());
    let (solve_reps, tt_reps, sweep_reps) = if quick { (5, 2, 3) } else { (60, 6, 30) };

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
            time_each(solve_reps, || PartitionSolver::solve_reference(&problem));
        let (opt_secs, opt_plan) = time_each(solve_reps, || PartitionSolver::solve(&problem));
        let (base_plan, opt_plan) = (base_plan.unwrap(), opt_plan.unwrap());
        let same = base_plan.ranges == opt_plan.ranges
            && (base_plan.bottleneck_secs - opt_plan.bottleneck_secs).abs()
                <= 1e-9 * opt_plan.bottleneck_secs.abs();
        parity(
            same,
            format!("solve {name}: reference and optimized plans differ"),
        );
        let speedup = median(&base_secs) / median(&opt_secs);
        solve_speedups.push(speedup);
        println!(
            "solve        paper-vrgq {name:<11} baseline {:>9.1}µs  optimized {:>9.1}µs  {speedup:>5.1}x",
            median(&base_secs) * 1e6,
            median(&opt_secs) * 1e6
        );
        solve_rows.push(json!({
            "cluster": "paper-vrgq",
            "model": name,
            "nm": 4,
            "baseline_secs": summary(&base_secs),
            "optimized_secs": summary(&opt_secs),
            "speedup": speedup,
            "parity": same,
        }));
    }

    // ------------------------------------------------------------------
    // 2. Nm sweeps: every Nm up to the first infeasible one, solved
    //    cold per Nm (baseline) or walked by one NmSweep (optimized).
    //    Flat wave rows on the paper and whimpy clusters, co-located
    //    rows on a VRGQ virtual worker × 2 interleaved chunks. Parity:
    //    the same Max_m and the same plan at every Nm, bit for bit.
    // ------------------------------------------------------------------
    let (rn64, whimpy) = (resnet152(64), vec![GpuKind::Rtx2060.spec(); 4]);
    let wave = Schedule::HetPipeWave;
    let mut sweep_configs: Vec<(&str, &str, &ModelGraph, Vec<_>, Schedule)> = vec![
        ("paper-vrgq", "VGG-19", &models[0].1, vrgq(), wave),
        ("paper-vrgq", "ResNet-152", &models[1].1, vrgq(), wave),
        ("whimpy-gggg", "ResNet-152@64", &rn64, whimpy, wave),
    ];
    for (name, graph) in models.iter().rev() {
        for schedule in ["interleaved-1f1b:2", "interleaved-1f1b-depth:2"] {
            let schedule = Schedule::parse(schedule).expect("a known schedule");
            sweep_configs.push(("paper-vrgq", name, graph, vrgq(), schedule));
        }
    }
    let mut sweep_rows = Vec::new();
    for (cluster, name, graph, phys, schedule) in &sweep_configs {
        let schedule = *schedule;
        for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
            let k = schedule.virtual_stages(phys.len());
            let gpus: Vec<_> = (0..k).map(|s| phys[s % phys.len()].clone()).collect();
            let links = vec![LinkKind::Pcie; k - 1];
            let limit = nm_saturation_limit(k);
            let (base_secs, base) = time_each(sweep_reps, || {
                (1..=limit)
                    .map_while(|nm| {
                        let problem = PartitionProblem::with_schedule(
                            graph,
                            gpus.clone(),
                            links.clone(),
                            nm,
                            schedule,
                        )
                        .with_recompute(recompute);
                        PartitionSolver::solve(&problem).ok()
                    })
                    .collect::<Vec<_>>()
            });
            let (opt_secs, opt) = time_each(sweep_reps, || {
                NmSweep::new(graph, &gpus, &links, schedule, recompute).feasible_prefix(limit)
            });
            let same =
                base.len() == opt.len() && base.iter().zip(&opt).all(|(a, b)| same_bits(a, b));
            let label = format!("{cluster} {name} {schedule} {recompute}");
            parity(same, format!("nm-sweep {label}: sweep != cold solves"));
            let speedup = median(&base_secs) / median(&opt_secs);
            println!(
                "nm-sweep     {label:<60} baseline {:>9.1}µs  optimized {:>9.1}µs  {speedup:>5.1}x",
                median(&base_secs) * 1e6,
                median(&opt_secs) * 1e6
            );
            sweep_rows.push(json!({
                "cluster": cluster,
                "model": name,
                "schedule": schedule.to_string(),
                "recompute": recompute.to_string(),
                "limit": limit,
                "max_m": opt.len(),
                "baseline_secs": summary(&base_secs),
                "optimized_secs": summary(&opt_secs),
                "speedup": speedup,
                "parity": same,
            }));
        }
    }

    // ------------------------------------------------------------------
    // 3. One joint timetable per virtual worker vs per-GPU replays.
    // ------------------------------------------------------------------
    let mut timetable_rows = Vec::new();
    for (gpus_n, chunks, nm, ops_per_gpu) in [(4usize, 2usize, 8usize, 4000usize), (8, 3, 8, 4000)]
    {
        let sched = Schedule::Interleaved1F1B {
            chunks,
            composite: true,
        };
        let wsp = WspParams::new(nm, 0);
        let recompute = RecomputePolicy::None;
        let (base_secs, base_ops) = time_each(tt_reps, || {
            // Every GPU's standalone stream replays the whole joint
            // timetable on its own (G× the slot work).
            sched
                .gpu_streams_with(gpus_n, wsp, recompute)
                .expect("composite schedule")
                .into_iter()
                .map(|stream| stream.take(ops_per_gpu).collect())
                .collect::<Vec<Vec<GpuOp>>>()
        });
        let (opt_secs, opt_ops) = time_each(tt_reps, || {
            let mut lanes = Lanes::new(sched, gpus_n, wsp, recompute);
            let mut all: Vec<Vec<GpuOp>> = vec![Vec::with_capacity(ops_per_gpu); gpus_n];
            // Round-robin consumption, as the executor's event loop does.
            for _ in 0..ops_per_gpu {
                for (g, ops) in all.iter_mut().enumerate() {
                    ops.push(lanes.next(g));
                }
            }
            all
        });
        let same = base_ops == opt_ops;
        parity(
            same,
            format!("timetable {gpus_n}x{chunks}: lanes diverged from standalone replays"),
        );
        let speedup = median(&base_secs) / median(&opt_secs);
        println!(
            "timetable    {gpus_n} GPUs x {chunks} chunks      baseline {:>9.1}ms  optimized {:>9.1}ms  {speedup:>5.1}x",
            median(&base_secs) * 1e3,
            median(&opt_secs) * 1e3
        );
        timetable_rows.push(json!({
            "gpus": gpus_n,
            "chunks": chunks,
            "nm": nm,
            "ops_per_gpu": ops_per_gpu,
            "baseline_secs": summary(&base_secs),
            "optimized_secs": summary(&opt_secs),
            "speedup": speedup,
            "parity": same,
        }));
    }

    // ------------------------------------------------------------------
    // 4. End-to-end plan + short simulate on the paper and whimpy
    //    clusters (trajectory rows; no baseline counterpart).
    // ------------------------------------------------------------------
    let mut e2e_rows = Vec::new();
    let e2e_reps = if quick { 3 } else { 15 };
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
        let (build_secs, sys) = time_each(e2e_reps, || {
            HetPipeSystem::build(cluster, &graph, &config).expect("buildable")
        });
        let (sim_secs, _) = time_each(e2e_reps, || sys.run_with_stats(SimTime::from_secs(10.0)));
        println!(
            "end-to-end   {cluster_name:<7} VGG-19 ED      build median {:>7.2}ms  simulate(10s) median {:>7.2}ms  (n {e2e_reps})",
            median(&build_secs) * 1e3,
            median(&sim_secs) * 1e3
        );
        e2e_rows.push(json!({
            "cluster": cluster_name,
            "model": "VGG-19",
            "order_search": true,
            "build_secs": summary(&build_secs),
            "simulate_horizon_secs": 10.0,
            "simulate_secs": summary(&sim_secs),
            "nm": sys.nm(),
        }));
    }

    let cells = plan_sweep_matrix();
    let (matrix_secs, ()) = time_each(if quick { 3 } else { 15 }, || {
        for (cluster, graph, config) in &cells {
            std::hint::black_box(HetPipeSystem::build(cluster, graph, config).ok());
        }
    });
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
        "cells": cells.len(),
        "build_secs": summary(&matrix_secs),
    }));

    // ------------------------------------------------------------------
    // 5. Exact counts of one matrix pass.
    // ------------------------------------------------------------------
    let (mut prefix_rows, mut comm_rows, mut refine_runs, mut refine_events) = (0, 0, 0, 0);
    for (cluster, graph, config) in &cells {
        if let Ok(sys) = HetPipeSystem::build(cluster, graph, config) {
            let c = sys.build_counts();
            prefix_rows += c.prefix_rows;
            comm_rows += c.comm_rows;
            refine_runs += c.refine_runs;
            refine_events += c.refine_events_simulated;
        }
    }
    println!(
        "counts       plan-sweep matrix pass: {prefix_rows} prefix-row + {comm_rows} comm-row pairs built, \
         {refine_runs} refine simulations simulating {refine_events} events"
    );
    let count_rows = vec![
        json!({
            "cluster": "plan-sweep-matrix",
            "count": "row_pairs_built_per_pass",
            "prefix_row_pairs": prefix_rows,
            "comm_row_pairs": comm_rows,
        }),
        json!({
            "cluster": "plan-sweep-matrix",
            "count": "refine_events_simulated_per_pass",
            "refine_runs": refine_runs,
            "events_simulated": refine_events,
        }),
    ];

    let min_solve = solve_speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\nacceptance: plain solve speedup {min_solve:.1}x (target ≥2x), parity {}",
        if parity_failures.is_empty() {
            "ok"
        } else {
            "VIOLATED"
        }
    );

    let doc = json!({
        "bench": "planner",
        "quick": quick,
        "solve": solve_rows,
        "nm_sweep": sweep_rows,
        "timetable": timetable_rows,
        "end_to_end": e2e_rows,
        "counts": count_rows,
        "acceptance": {
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
