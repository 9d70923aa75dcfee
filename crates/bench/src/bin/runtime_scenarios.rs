//! Elastic scenario chaos gate: seeded randomized scenario scripts —
//! lease preemption/re-grant pairs, GPU slowdowns, link degradations —
//! on the acceptance configuration (whimpy 4×RTX 2060, ResNet-152),
//! with chrome-trace export.
//!
//! Checks (non-zero exit on violation — the CI contract):
//!
//! 1. **Zero-scenario parity**: under the empty scenario every
//!    policy's merged trace is bit-identical to the plain one-shot
//!    executor.
//! 2. **Per-epoch occupancy audits**: every committed plan segment of
//!    every scenario run satisfies measured ≤ declared.
//! 3. **Liveness**: every scenario run keeps completing minibatches,
//!    including after the last lease transition has settled (the
//!    chaos generator guarantees every preemption is re-granted by
//!    95% of the horizon and at least two GPUs stay available).
//! 4. **Canonical-lease sanity**: `Replan` completes at least as much
//!    as `Static` on the canonical grant → preempt → re-grant trace
//!    (the ≥ 15% acceptance bar itself is pinned in
//!    `tests/runtime_scenarios.rs`).
//!
//! Flags:
//! - `--seeds <n>`: number of chaos scripts (default 32).
//! - `--horizon <secs>`: simulated horizon (default 60).
//! - `--trace-out <prefix>`: write chrome traces for the canonical
//!   lease cells and the first few chaos seeds.

use hetpipe_bench::{arg_value, print_table, usage_error};
use hetpipe_cluster::{Cluster, DeviceId, GpuKind};
use hetpipe_core::exec::{self, ExecParams};
use hetpipe_core::pserver::{Placement, ShardMap};
use hetpipe_core::{RecomputePolicy, Schedule, VirtualWorker, WspParams};
use hetpipe_des::SimTime;
use hetpipe_fleet::trace_fingerprint;
use hetpipe_partition::{PartitionProblem, PartitionSolver};
use hetpipe_runtime::{self as runtime, MonitorConfig, Policy, RuntimeParams, ScenarioScript};

fn main() {
    let horizon_secs: f64 = arg_value("--horizon")
        .unwrap_or_else(|e| usage_error(&e))
        .unwrap_or(60.0);
    let horizon = SimTime::from_secs(horizon_secs);
    let seeds: u64 = arg_value("--seeds")
        .unwrap_or_else(|e| usage_error(&e))
        .unwrap_or(32);
    let trace_prefix: Option<String> = arg_value("--trace-out").unwrap_or_else(|e| usage_error(&e));

    // The acceptance configuration: one whimpy 4×RTX 2060 node,
    // ResNet-152, boundary-only recompute.
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

    let run_scenario = |script: ScenarioScript, policy: Policy| {
        runtime::run(
            RuntimeParams {
                cluster: &cluster,
                graph: &graph,
                vws: vec![vw.clone()],
                wsp: WspParams::new(nm, 0),
                placement: Placement::Default,
                sync_transfers: false,
                schedule,
                recompute,
                script,
                policy,
                monitor: MonitorConfig::default(),
                max_reactions: 8,
                planner: None,
            },
            horizon,
        )
    };

    let mut failures: Vec<String> = Vec::new();
    let mut rows = Vec::new();

    // ---- 1. Zero-scenario parity against the one-shot executor. ----
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
    // The golden fingerprint is hoisted out of the loop: the oracle
    // trace is the same for every policy (and every chaos seed), so
    // it reduces to a hash once and each run compares against that.
    let golden_fp = trace_fingerprint(plain.trace.spans());
    for policy in [
        Policy::Static,
        Policy::SkipStraggler { window: 8 },
        Policy::Replan,
    ] {
        let report = run_scenario(ScenarioScript::none(), policy);
        if trace_fingerprint(report.trace.spans()) != golden_fp {
            failures.push(format!(
                "none/{}: zero-scenario trace diverged from the one-shot executor",
                policy.name()
            ));
        }
    }

    // ---- 4. Canonical lease: Replan >= Static, plus the table. ----
    let onset = (horizon_secs * 0.1).min(8.0);
    let regrant = horizon_secs * 0.5;
    let lease = ScenarioScript::canonical_lease(2, onset, regrant);
    let mut lease_static = None;
    for policy in [Policy::Static, Policy::Replan] {
        let report = run_scenario(lease.clone(), policy);
        let cell = format!("{}/{}", lease.name, policy.name());
        if !report.audits_sound() {
            failures.push(format!("{cell}: per-epoch occupancy audit violated"));
        }
        let completed = report.total_completed();
        match policy {
            Policy::Static => lease_static = Some(completed),
            Policy::Replan => {
                if let Some(st) = lease_static {
                    if completed < st {
                        failures.push(format!(
                            "{cell}: replan completed {completed} < static {st}"
                        ));
                    }
                }
            }
            _ => {}
        }
        rows.push(vec![
            lease.name.clone(),
            policy.name().into(),
            completed.to_string(),
            report.epochs.len().to_string(),
            report.signals.len().to_string(),
            if report.audits_sound() {
                "ok"
            } else {
                "VIOLATED"
            }
            .into(),
            "-".into(),
        ]);
        if let Some(prefix) = &trace_prefix {
            let path = format!("{prefix}-{}-{}.json", lease.name, policy.name());
            match report.write_chrome_trace(&path) {
                Ok(()) => println!("(trace written to {path})"),
                Err(e) => eprintln!("cannot write {path}: {e}"),
            }
        }
    }

    // ---- 2 + 3. Seeded chaos sweep under Replan. ----
    let hysteresis = MonitorConfig::default().lease_hysteresis_secs;
    for seed in 1..=seeds {
        let script = ScenarioScript::chaos(seed, horizon_secs, 4, 1, 3);
        let events = script.events.len();
        let report = run_scenario(script.clone(), Policy::Replan);
        let cell = format!("{}/replan", script.name);
        if !report.audits_sound() {
            failures.push(format!("{cell}: per-epoch occupancy audit violated"));
        }
        let completed = report.total_completed();
        if completed == 0 {
            failures.push(format!("{cell}: no minibatch ever completed"));
        }
        // Tail liveness: once the last *preemption* has settled (plus
        // the controller's hysteresis and a splice's worth of slack),
        // the pipeline must be completing again — a preempted GPU must
        // never wedge the survivors. Preemptions are the wedge risk;
        // re-grants only ever add capacity.
        let settle = script
            .lease_transitions()
            .iter()
            .filter(|t| !t.available)
            .map(|t| t.at)
            .max()
            .map(|t| t + SimTime::from_secs(hysteresis + 3.0));
        let live = match settle {
            Some(s) if s < horizon => {
                let after = report.completions[0].iter().filter(|&&t| t >= s).count();
                if after == 0 {
                    failures.push(format!(
                        "{cell}: no completions after leases settled at {:.1}s",
                        s.as_secs()
                    ));
                }
                if after > 0 {
                    "live"
                } else {
                    "WEDGED"
                }
            }
            _ => "n/a",
        };
        rows.push(vec![
            format!("chaos-{seed}"),
            "replan".into(),
            completed.to_string(),
            report.epochs.len().to_string(),
            report.signals.len().to_string(),
            if report.audits_sound() {
                "ok"
            } else {
                "VIOLATED"
            }
            .into(),
            format!("{live} ({events} ev)"),
        ]);
        if let Some(prefix) = &trace_prefix {
            if seed <= 4 {
                let path = format!("{prefix}-chaos-{seed}-replan.json");
                match report.write_chrome_trace(&path) {
                    Ok(()) => println!("(trace written to {path})"),
                    Err(e) => eprintln!("cannot write {path}: {e}"),
                }
            }
        }
    }

    print_table(
        &format!(
            "Elastic scenario chaos gate (whimpy 4xRTX 2060, ResNet-152, Nm={nm}, \
             {seeds} seeds, horizon {horizon})"
        ),
        &[
            "script", "policy", "mb done", "epochs", "signals", "audit", "liveness",
        ],
        &rows,
    );
    println!(
        "\nReading guide: every chaos script mixes lease preemption/re-grant pairs with \
         slowdown faults under the invariants the generator enforces (GPU 0 is never \
         preempted, at least two GPUs stay available, every preemption is re-granted by \
         95% of the horizon). `replan` evicts preempted GPUs at wave boundaries and \
         re-admits them after the lease hysteresis; per-epoch occupancy audits keep the \
         measured <= declared memory invariant live across every splice."
    );

    if !failures.is_empty() {
        eprintln!("\nSCENARIO CHAOS FAILURES ({}):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
