//! Fault-aware runtime smoke: the canonical straggler and GPU-loss
//! scripts on the acceptance configuration (whimpy 4×RTX 2060,
//! ResNet-152), across all three reactive policies, with chrome-trace
//! export.
//!
//! Checks (non-zero exit on violation — the CI contract):
//!
//! 1. **Zero-fault parity**: under the empty script every policy's
//!    merged trace is bit-identical to the plain one-shot executor.
//! 2. **Per-epoch occupancy audits**: every committed plan segment of
//!    every cell satisfies measured ≤ declared.
//! 3. **Reaction sanity**: under the canonical straggler, `Replan`
//!    completes at least as much as `Static` (the ≥ 15% acceptance
//!    bar itself is pinned in `tests/runtime_faults.rs`).
//!
//! Flags:
//! - `--horizon <secs>`: simulated horizon (default 40).
//! - `--trace-out <prefix>`: write one chrome trace per
//!   (script, policy) cell, fault edges / signals / splices included
//!   as instant markers.

use hetpipe_bench::{arg_value, print_table, usage_error};
use hetpipe_cluster::{Cluster, DeviceId, GpuKind};
use hetpipe_core::exec::{self, ExecParams};
use hetpipe_core::pserver::{Placement, ShardMap};
use hetpipe_core::{RecomputePolicy, Schedule, VirtualWorker, WspParams};
use hetpipe_des::SimTime;
use hetpipe_partition::{PartitionProblem, PartitionSolver};
use hetpipe_runtime::{self as runtime, FaultScript, MonitorConfig, Policy, RuntimeParams};

fn main() {
    let horizon_secs: f64 = arg_value("--horizon")
        .unwrap_or_else(|e| usage_error(&e))
        .unwrap_or(40.0);
    let horizon = SimTime::from_secs(horizon_secs);
    let trace_prefix: Option<String> = arg_value("--trace-out").unwrap_or_else(|e| usage_error(&e));

    // The acceptance configuration: one whimpy 4×RTX 2060 node,
    // ResNet-152, boundary-only recompute (the lever that buys the
    // 6 GB GPUs a balanced partition), standalone measurement mode.
    let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
    let graph = hetpipe_model::resnet152(32);
    let devices: Vec<_> = (0..4).map(DeviceId).collect();
    let recompute = RecomputePolicy::BoundaryOnly;
    let nm = 4;
    let schedule = Schedule::HetPipeWave;
    let gpus: Vec<_> = devices.iter().map(|&d| cluster.spec_of(d)).collect();
    let links = VirtualWorker::links(&cluster, &devices);
    let plan = PartitionSolver::solve(
        &PartitionProblem::with_schedule(&graph, gpus, links, nm, schedule)
            .with_recompute(recompute),
    )
    .expect("whimpy ResNet-152 must be feasible with recompute");
    let vw = VirtualWorker {
        index: 0,
        devices: devices.clone(),
        plan,
        nm,
    };

    let onset = (horizon.as_secs() * 0.125).min(5.0);
    let scripts = vec![
        FaultScript::none(),
        FaultScript::canonical_straggler(0, onset),
        FaultScript::canonical_gpu_loss(2, onset),
    ];
    let policies = [
        Policy::Static,
        Policy::SkipStraggler { window: 8 },
        Policy::Replan,
    ];

    // The plain one-shot run: the zero-fault parity oracle.
    let shards = ShardMap::build(Placement::Default, &graph, &cluster, &vw);
    let vws = vec![vw.clone()];
    let plain = exec::run(
        ExecParams {
            cluster: &cluster,
            graph: &graph,
            vws: &vws,
            wsp: WspParams::new(nm, 0),
            shards: &shards,
            sync_transfers: false,
            schedule,
            recompute,
        },
        horizon,
    );

    let mut failures: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    let mut static_straggler_completed = None;
    for script in &scripts {
        for policy in policies {
            let report = runtime::run(
                RuntimeParams {
                    cluster: &cluster,
                    graph: &graph,
                    vws: vec![vw.clone()],
                    wsp: WspParams::new(nm, 0),
                    placement: Placement::Default,
                    sync_transfers: false,
                    schedule,
                    recompute,
                    script: script.clone().into(),
                    policy,
                    monitor: MonitorConfig::default(),
                    max_reactions: 8,
                    planner: None,
                },
                horizon,
            );
            let cell = format!("{}/{}", script.name, policy.name());
            if !report.audits_sound() {
                failures.push(format!("{cell}: per-epoch occupancy audit violated"));
            }
            if script.faults.is_empty() {
                let identical = plain.trace.len() == report.trace.len()
                    && plain
                        .trace
                        .spans()
                        .iter()
                        .zip(report.trace.spans())
                        .all(|(a, b)| a == b);
                if !identical {
                    failures.push(format!(
                        "{cell}: zero-fault trace diverged from the one-shot executor"
                    ));
                }
            }
            let completed = report.total_completed();
            if script.name == "canonical-straggler" {
                match policy {
                    Policy::Static => static_straggler_completed = Some(completed),
                    Policy::Replan => {
                        if let Some(st) = static_straggler_completed {
                            if completed < st {
                                failures.push(format!(
                                    "{cell}: replan completed {completed} < static {st}"
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
            rows.push(vec![
                script.name.clone(),
                policy.name().into(),
                completed.to_string(),
                format!("{:.0}", report.throughput_images_per_sec(0.15)),
                report.epochs.len().to_string(),
                report.signals.len().to_string(),
                if report.audits_sound() {
                    "ok"
                } else {
                    "VIOLATED"
                }
                .into(),
            ]);
            if let Some(prefix) = &trace_prefix {
                let path = format!("{prefix}-{}-{}.json", script.name, policy.name());
                match report.write_chrome_trace(&path) {
                    Ok(()) => println!("(trace written to {path})"),
                    Err(e) => eprintln!("cannot write {path}: {e}"),
                }
            }
        }
    }

    print_table(
        &format!(
            "Fault-aware runtime (whimpy 4xRTX 2060, ResNet-152, Nm={nm}, \
             recompute on, horizon {horizon})"
        ),
        &[
            "script", "policy", "mb done", "img/s", "epochs", "signals", "audit",
        ],
        &rows,
    );
    println!(
        "\nReading guide: `static` rides every fault out; `skip-straggler` lets a blocked \
         composite GPU stream serve ready backwards out of line (composite schedules only — \
         identical to static here on the wave schedule); `replan` re-partitions from observed \
         costs at the next wave boundary (and drops dead GPUs, shrinking the pipeline). \
         Epochs > 1 means the controller spliced; per-epoch occupancy audits keep the \
         measured <= declared memory invariant live under perturbation."
    );

    if !failures.is_empty() {
        eprintln!("\nRUNTIME SMOKE FAILURES ({}):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
