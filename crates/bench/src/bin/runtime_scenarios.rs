//! Scenario runtime gate: the canonical straggler, GPU-loss and lease
//! scripts plus seeded chaos scripts — lease preemption/re-grant
//! pairs, GPU slowdowns, link degradations — on the acceptance
//! configuration (whimpy 4×RTX 2060, ResNet-152), with chrome-trace
//! export.
//!
//! Checks (non-zero exit on violation — the CI contract):
//!
//! 1. **Zero-scenario parity**: under the empty scenario every
//!    policy's merged trace is bit-identical to the plain one-shot
//!    executor.
//! 2. **Per-epoch occupancy audits**: every committed plan segment of
//!    every scenario run satisfies measured ≤ declared.
//! 3. **Liveness**: every chaos run keeps completing minibatches,
//!    including after the last lease transition has settled (the
//!    chaos generator guarantees every preemption is re-granted by
//!    95% of the horizon and at least two GPUs stay available).
//! 4. **Reaction sanity**: `Replan` completes at least as much as
//!    `Static` on the canonical straggler and on the canonical
//!    grant → preempt → re-grant trace (the ≥ 15% acceptance bars
//!    themselves are pinned in `tests/runtime_scenarios.rs`).
//! 5. **Trace export**: every `--trace-out` file is written.
//!
//! Flags:
//! - `--seeds <n>`: number of chaos scripts (default 32, at least 1).
//! - `--horizon <secs>`: simulated horizon (default 60, at most
//!   `hetpipe_bench::MAX_HORIZON_SECS`).
//! - `--trace-out <prefix>`: write chrome traces for the canonical
//!   cells and the first few chaos seeds, script events, signals and
//!   splices included as instant markers.

use hetpipe_bench::{arg_value, check_args, check_horizon, check_seeds, print_table, usage_error};
use hetpipe_cluster::{Cluster, DeviceId, GpuKind};
use hetpipe_core::exec::{self, ExecParams};
use hetpipe_core::pserver::{Placement, ShardMap};
use hetpipe_core::{trace_fingerprint, RecomputePolicy, Schedule, VirtualWorker, WspParams};
use hetpipe_des::SimTime;
use hetpipe_partition::{PartitionProblem, PartitionSolver};
use hetpipe_runtime::{
    self as runtime, MonitorConfig, Policy, RuntimeParams, RuntimeReport, ScenarioScript,
};

const POLICIES: [Policy; 3] = [
    Policy::Static,
    Policy::SkipStraggler { window: 8 },
    Policy::Replan,
];

/// The table, the failures, and the trace sink of one gate run.
struct Gate {
    rows: Vec<Vec<String>>,
    failures: Vec<String>,
    trace_prefix: Option<String>,
}

impl Gate {
    /// Audits one cell, adds its table row, and writes its trace when
    /// `trace` is set and a prefix was given.
    fn record(
        &mut self,
        script: &str,
        policy: Policy,
        report: &RuntimeReport,
        liveness: String,
        trace: bool,
    ) {
        let audit = if report.audits_sound() {
            "ok"
        } else {
            self.failures.push(format!(
                "{script}/{}: per-epoch occupancy audit violated",
                policy.name()
            ));
            "VIOLATED"
        };
        self.rows.push(vec![
            script.into(),
            policy.name().into(),
            report.total_completed().to_string(),
            report.epochs.len().to_string(),
            report.signals.len().to_string(),
            audit.into(),
            liveness,
        ]);
        if let Some(prefix) = self.trace_prefix.as_ref().filter(|_| trace) {
            let path = format!("{prefix}-{script}-{}.json", policy.name());
            match report.write_chrome_trace(&path) {
                Ok(()) => println!("(trace written to {path})"),
                Err(e) => self.failures.push(format!("cannot write {path}: {e}")),
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, &["--horizon", "--seeds", "--trace-out"], &[])
        .unwrap_or_else(|e| usage_error(&e));
    let horizon_secs = arg_value("--horizon")
        .and_then(|h| check_horizon(h.unwrap_or(60.0)))
        .unwrap_or_else(|e| usage_error(&e));
    let horizon = SimTime::from_secs(horizon_secs);
    let seeds = arg_value("--seeds")
        .and_then(|n| check_seeds(n.unwrap_or(32)))
        .unwrap_or_else(|e| usage_error(&e));
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

    let mut gate = Gate {
        rows: Vec::new(),
        failures: Vec::new(),
        trace_prefix,
    };

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
    // trace is the same for every policy, so it reduces to a hash
    // once and each run compares against that.
    let golden_fp = trace_fingerprint(plain.trace.spans());
    for policy in POLICIES {
        let report = run_scenario(ScenarioScript::none(), policy);
        if trace_fingerprint(report.trace.spans()) != golden_fp {
            gate.failures.push(format!(
                "none/{}: zero-scenario trace diverged from the one-shot executor",
                policy.name()
            ));
        }
        gate.record("none", policy, &report, "-".into(), false);
    }

    // ---- 4. Canonical scripts: Replan >= Static, plus the table. ----
    let onset = (horizon_secs * 0.125).min(5.0);
    let lease_onset = (horizon_secs * 0.1).min(8.0);
    let canonical = [
        (
            ScenarioScript::canonical_lease(2, lease_onset, horizon_secs * 0.5),
            &[Policy::Static, Policy::Replan][..],
            true,
        ),
        (
            ScenarioScript::canonical_straggler(0, onset),
            &POLICIES[..],
            true,
        ),
        (
            ScenarioScript::canonical_gpu_loss(2, onset),
            &POLICIES[..],
            false,
        ),
    ];
    for (script, policies, replan_floor) in canonical {
        let mut static_completed = None;
        for &policy in policies {
            let report = run_scenario(script.clone(), policy);
            let completed = report.total_completed();
            match (policy, static_completed) {
                (Policy::Static, _) => static_completed = Some(completed),
                (Policy::Replan, Some(st)) if replan_floor && completed < st => {
                    gate.failures.push(format!(
                        "{}/replan: completed {completed} < static {st}",
                        script.name
                    ));
                }
                _ => {}
            }
            gate.record(&script.name, policy, &report, "-".into(), true);
        }
    }

    // ---- 2 + 3. Seeded chaos sweep under Replan. ----
    let hysteresis = MonitorConfig::default().lease_hysteresis_secs;
    for seed in 1..=seeds {
        let script = ScenarioScript::chaos(seed, horizon_secs, 4, 1, 3);
        let events = script.events.len();
        let report = run_scenario(script.clone(), Policy::Replan);
        let cell = format!("{}/replan", script.name);
        if report.total_completed() == 0 {
            gate.failures
                .push(format!("{cell}: no minibatch ever completed"));
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
                if after > 0 {
                    "live"
                } else {
                    gate.failures.push(format!(
                        "{cell}: no completions after leases settled at {:.1}s",
                        s.as_secs()
                    ));
                    "WEDGED"
                }
            }
            _ => "n/a",
        };
        gate.record(
            &script.name,
            Policy::Replan,
            &report,
            format!("{live} ({events} ev)"),
            seed <= 4,
        );
    }

    print_table(
        &format!(
            "Scenario runtime gate (whimpy 4xRTX 2060, ResNet-152, Nm={nm}, recompute on, \
             {seeds} chaos seeds, horizon {horizon})"
        ),
        &[
            "script", "policy", "mb done", "epochs", "signals", "audit", "liveness",
        ],
        &gate.rows,
    );
    println!(
        "\nReading guide: `static` rides every script out; `skip-straggler` lets a blocked \
         composite GPU stream serve ready backwards out of line, so it reacts only on \
         composite interleaved schedules — here, on the wave schedule, it never splices and \
         matches `static` exactly; `replan` re-partitions from observed costs at the next \
         wave boundary, drops dead or preempted GPUs (shrinking the pipeline) and re-admits \
         re-granted ones after the lease hysteresis. Every chaos script mixes lease \
         preemption/re-grant pairs with slowdown faults under the invariants the generator \
         enforces (GPU 0 is never preempted, at least two GPUs stay available, every \
         preemption is re-granted by 95% of the horizon). Epochs > 1 means the controller \
         spliced; per-epoch occupancy audits keep the measured <= declared memory invariant \
         live across every splice."
    );

    if !gate.failures.is_empty() {
        eprintln!("\nSCENARIO GATE FAILURES ({}):", gate.failures.len());
        for f in &gate.failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
