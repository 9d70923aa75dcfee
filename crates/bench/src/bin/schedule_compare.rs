//! Schedule ablation: how much of HetPipe's profile comes from the
//! *schedule*, as opposed to WSP or the partitioner?
//!
//! Sweeps all five pipeline schedules (HetPipe wave, GPipe
//! fill-drain, PipeDream 1F1B, and interleaved 1F1B in both its
//! depth-expanded and composite per-GPU forms) × activation
//! recomputation {off, boundary-only} over {paper testbed,
//! homogeneous TITAN V cluster, whimpy 4×4 RTX 2060 cluster} ×
//! {VGG-19, ResNet-152}, holding the allocation policy, partitioner,
//! and WSP parameters fixed, and reports throughput plus peak per-GPU
//! training memory for each cell — the compute-vs-memory frontier
//! recomputation trades along, and the depth-expanded vs composite
//! interleaved rows measure the fidelity delta of per-GPU composite
//! streams (on the whimpy cluster, ResNet-152 with chunks = 2 is the
//! paper configuration where the composite stream's warmup handover
//! pays off most).
//!
//! Every simulated cell is audited: measured peak activation
//! occupancy must not exceed the declared memory accounting
//! (per stage and per GPU). Any violation fails the run with a
//! non-zero exit code — this is the CI memory-soundness smoke test.
//!
//! Flags:
//! - `--json <path>`: machine-readable dump. Each cell also records
//!   `ff_period_s`, the steady-state period its run fast-forwarded
//!   with (`null` when it skipped none), and `ff_extrapolated_share`,
//!   the share of the horizon skipped.
//! - `--trace-out <prefix>`: write one `chrome://tracing` JSON file
//!   per (cluster, model, schedule, recompute) cell, named
//!   `<prefix>-<cluster>-<model>-<schedule>[-ckpt].json`. Only these
//!   runs keep their span trace, and so never fast-forward. A file
//!   that cannot be written fails the run (exit 1) once the sweep
//!   finishes.
//! - `--horizon <secs>`: simulated horizon (default 60, at most
//!   `hetpipe_bench::MAX_HORIZON_SECS`).
//! - `--faults <spec>`: add a perturbed column — every cell re-run
//!   under the fault script with the *static* (non-reactive) policy,
//!   so the composite-vs-depth-expanded adaptivity gap (and every
//!   other schedule delta) is a standing measurement under
//!   perturbation too. `<spec>` is a script JSON path, or
//!   `canonical-straggler` (device 0 ×1.3 from 5 s — the acceptance
//!   scenario's shape), or `seeded:<n>` (a deterministic random
//!   script).

use hetpipe_bench::{
    arg_value, check_args, check_horizon, maybe_write_json, print_table, usage_error,
};
use hetpipe_cluster::{Cluster, GpuKind};
use hetpipe_core::WspParams;
use hetpipe_core::{
    trace_fingerprint, AllocationPolicy, HetPipeSystem, OccupancyAudit, Placement, RecomputePolicy,
    Schedule, SystemConfig,
};
use hetpipe_des::{Discard, SimTime, Trace};
use hetpipe_model::{resnet152, vgg19, ModelGraph};
use hetpipe_runtime::{MonitorConfig, Policy, RuntimeParams, ScenarioScript};
use serde_json::json;

fn homogeneous_testbed() -> Cluster {
    // Four 4-GPU TITAN V nodes: the "rich" cluster HetPipe's whimpy
    // testbed is usually compared against.
    Cluster::testbed_subset(&[GpuKind::TitanV; 4])
}

fn whimpy_testbed() -> Cluster {
    // Four 4-GPU RTX 2060 nodes: the all-whimpy end of the paper's
    // spectrum (ResNet-152 does not even fit one of these GPUs), where
    // pipeline-schedule quality matters most.
    Cluster::testbed_subset(&[GpuKind::Rtx2060; 4])
}

/// Resolves the `--faults` spec: a named canonical script, a seeded
/// generator, or a JSON file path (an `events` or `faults` document).
fn load_script(spec: &str, horizon_secs: f64) -> Result<ScenarioScript, String> {
    // Canonical onsets land 10% into the run (capped at the acceptance
    // scenario's 5 s) so short CI horizons still see the perturbation.
    let onset = (horizon_secs * 0.1).min(5.0);
    Ok(match spec {
        "canonical-straggler" => ScenarioScript::canonical_straggler(0, onset),
        "canonical-gpu-loss" => ScenarioScript::canonical_gpu_loss(0, onset),
        // Preempt GPU 0 a tenth into the run, re-grant at 60% of the
        // horizon: the elastic acceptance scenario's lease shape.
        "canonical-lease" => ScenarioScript::canonical_lease(0, onset, horizon_secs * 0.6),
        other => {
            if let Some(seed) = other.strip_prefix("seeded:") {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("--faults seeded:<n> needs an integer, got {seed:?}"))?;
                return Ok(ScenarioScript::seeded(seed, horizon_secs, 16, 4, 4));
            }
            let text = std::fs::read_to_string(other)
                .map_err(|e| format!("cannot read fault script {other}: {e}"))?;
            ScenarioScript::from_json(&text)
                .map_err(|e| format!("cannot parse fault script {other}: {e}"))?
        }
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(
        &args,
        &["--horizon", "--trace-out", "--faults", "--json"],
        &[],
    )
    .unwrap_or_else(|e| usage_error(&e));
    let horizon_secs = arg_value("--horizon")
        .and_then(|h| check_horizon(h.unwrap_or(60.0)))
        .unwrap_or_else(|e| usage_error(&e));
    let horizon = SimTime::from_secs(horizon_secs);
    let trace_prefix: Option<String> = arg_value("--trace-out").unwrap_or_else(|e| usage_error(&e));
    let script = arg_value::<String>("--faults")
        .unwrap_or_else(|e| usage_error(&e))
        .map(|spec| load_script(&spec, horizon.as_secs()).unwrap_or_else(|e| usage_error(&e)));

    let clusters: Vec<(&str, Cluster)> = vec![
        ("paper", Cluster::paper_testbed()),
        ("homogeneous", homogeneous_testbed()),
        ("whimpy", whimpy_testbed()),
    ];
    if let Some(script) = &script {
        for (cluster_name, cluster) in &clusters {
            script.check_devices(cluster).unwrap_or_else(|e| {
                usage_error(&format!("--faults {}: {e} ({cluster_name})", script.name))
            });
        }
    }
    let models: Vec<(&str, ModelGraph)> =
        vec![("VGG-19", vgg19(32)), ("ResNet-152", resnet152(32))];

    let mut dump = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut unwritten_traces = 0usize;
    // trace fingerprint -> path already written (serialize-once dedupe).
    let mut written_traces: std::collections::HashMap<u64, String> =
        std::collections::HashMap::new();
    for (cluster_name, cluster) in &clusters {
        for (model_name, graph) in &models {
            let mut rows = Vec::new();
            for schedule in Schedule::ALL {
                for recompute in RecomputePolicy::ALL {
                    let config = SystemConfig {
                        policy: AllocationPolicy::EqualDistribution,
                        placement: Placement::Local,
                        staleness_bound: 0,
                        order_search: false,
                        schedule,
                        recompute,
                        ..SystemConfig::default()
                    };
                    let ckpt = if recompute.is_on() { "on" } else { "off" };
                    match HetPipeSystem::build(cluster, graph, &config) {
                        Ok(sys) => {
                            let (report, stats, trace) = if trace_prefix.is_some() {
                                sys.run_into(horizon, Trace::new())
                            } else {
                                let (report, stats) = sys.run_with_stats(horizon);
                                (report, stats, Trace::new())
                            };
                            let ips = report.throughput_images_per_sec();
                            // Peak per-GPU memory across every VW, GiB.
                            let peak_bytes = (0..sys.virtual_workers().len())
                                .flat_map(|i| sys.per_gpu_peak_bytes(i))
                                .max()
                                .unwrap_or(0);
                            let peak_gib = peak_bytes as f64 / (1u64 << 30) as f64;
                            // The memory-soundness smoke check: the
                            // measured occupancy must stay within the
                            // declared accounting for every stage and
                            // GPU.
                            let audit = OccupancyAudit::measure(
                                &stats,
                                sys.virtual_workers(),
                                &schedule,
                                sys.nm(),
                            );
                            let cell = format!(
                                "{cluster_name}/{model_name}/{schedule}/recompute-{recompute}"
                            );
                            for v in audit.violations() {
                                violations.push(format!("{cell}: {v}"));
                            }
                            // The perturbed column: the same cell under
                            // the fault script with the non-reactive
                            // (static) policy — what each schedule's
                            // structure alone does with a straggler.
                            // Nothing reads its spans, so it keeps none.
                            let faulted_ips = script.as_ref().map(|script| {
                                let (fr, _) = hetpipe_runtime::run_into(
                                    RuntimeParams {
                                        cluster,
                                        graph,
                                        vws: sys.virtual_workers().to_vec(),
                                        wsp: WspParams::new(sys.nm(), 0),
                                        placement: Placement::Local,
                                        sync_transfers: true,
                                        schedule,
                                        recompute,
                                        script: script.clone(),
                                        policy: Policy::Static,
                                        monitor: MonitorConfig::default(),
                                        max_reactions: 0,
                                        planner: None,
                                    },
                                    horizon,
                                    Discard,
                                );
                                if !fr.audits_sound() {
                                    violations
                                        .push(format!("{cell} (faulted): occupancy violation"));
                                }
                                fr.throughput_images_per_sec(0.15)
                            });
                            rows.push(vec![
                                schedule.to_string(),
                                ckpt.into(),
                                sys.nm().to_string(),
                                format!("{ips:.0}"),
                                faulted_ips.map_or("-".into(), |f| format!("{f:.0}")),
                                format!("{peak_gib:.2}"),
                                if audit.is_sound() { "ok" } else { "VIOLATED" }.into(),
                            ]);
                            dump.push(json!({
                                "cluster": *cluster_name,
                                "model": *model_name,
                                "schedule": schedule.to_string(),
                                "recompute": recompute.to_string(),
                                "nm": sys.nm(),
                                "images_per_sec": ips,
                                "faulted_images_per_sec": faulted_ips
                                    .map(serde_json::Value::Number)
                                    .unwrap_or(serde_json::Value::Null),
                                "peak_gpu_bytes": peak_bytes,
                                "pull_wait_secs": report.total_pull_wait_secs(),
                                "memory_sound": audit.is_sound(),
                                // Untraced runs fast-forward through their
                                // steady state: the period found, and the
                                // share of the horizon skipped.
                                "ff_period_s": stats.fast_forward.map(|ff| ff.period.as_secs()),
                                "ff_extrapolated_share": stats
                                    .fast_forward
                                    .map_or(0.0, |ff| ff.extrapolated_share(horizon)),
                            }));
                            if let Some(prefix) = &trace_prefix {
                                // "interleaved-1f1b:2" → ':' is not a
                                // valid filename character everywhere.
                                let path = format!(
                                    "{prefix}-{cluster_name}-{}-{}{}.json",
                                    model_name.to_lowercase().replace('-', ""),
                                    schedule.to_string().replace(':', "-"),
                                    if recompute.is_on() { "-ckpt" } else { "" },
                                );
                                // Serialize each distinct trace once:
                                // a cell whose trace is byte-identical
                                // to an earlier cell's (recompute
                                // on/off with no checkpointing stage,
                                // for instance) copies the file
                                // instead of re-serializing.
                                match written_traces.entry(trace_fingerprint(trace.spans())) {
                                    std::collections::hash_map::Entry::Occupied(prev) => {
                                        match std::fs::copy(prev.get(), &path) {
                                            Ok(_) => println!(
                                                "(trace copied to {path}, identical to {})",
                                                prev.get()
                                            ),
                                            Err(e) => {
                                                eprintln!("cannot copy to {path}: {e}");
                                                unwritten_traces += 1;
                                            }
                                        }
                                    }
                                    std::collections::hash_map::Entry::Vacant(slot) => {
                                        let names = stats.resource_names();
                                        match trace.write_chrome_trace_file(
                                            &path,
                                            |rid| names[rid.index()].clone(),
                                            |tag| tag.label(),
                                            |tag| tag.category(),
                                        ) {
                                            Ok(()) => {
                                                // Record the path only on a
                                                // successful write — later
                                                // identical cells copy this
                                                // file, which must exist.
                                                slot.insert(path.clone());
                                                println!("(trace written to {path})");
                                            }
                                            Err(e) => {
                                                eprintln!("cannot write {path}: {e}");
                                                unwritten_traces += 1;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            rows.push(vec![
                                schedule.to_string(),
                                ckpt.into(),
                                "-".into(),
                                e.to_string(),
                                "-".into(),
                                "-".into(),
                                "-".into(),
                            ]);
                            dump.push(json!({
                                "cluster": *cluster_name,
                                "model": *model_name,
                                "schedule": schedule.to_string(),
                                "recompute": recompute.to_string(),
                                "error": e.to_string(),
                            }));
                        }
                    }
                }
            }
            let fault_col = script.as_ref().map_or("img/s@fault(-)".to_string(), |s| {
                format!("img/s@fault({})", s.name)
            });
            print_table(
                &format!(
                    "Schedule comparison ({cluster_name} cluster, {model_name}, ED-local, D=0)"
                ),
                &[
                    "schedule",
                    "ckpt",
                    "Nm",
                    "img/s",
                    &fault_col,
                    "peak GPU GiB",
                    "mem",
                ],
                &rows,
            );
        }
    }

    println!(
        "\nReading guide: the wave schedule trades memory (weight stashing, deep occupancy) \
         for arrival-driven overlap; fill-drain saves weight versions but pays pipeline \
         bubbles; 1F1B bounds memory by depth and double-buffers weights (PipeDream-2BW: one \
         shadow copy instead of one per in-flight minibatch); interleaving shrinks bubbles \
         at the cost of more boundary traffic. The two interleaved rows measure stream \
         fidelity: `interleaved-1f1b` executes one composite per-GPU stream (Megatron's \
         actual chunk-group order — warmup hands the GPU over after one chunk group), while \
         `interleaved-1f1b-depth` is the depth-expanded variant whose co-located chunks \
         merge by arrival order. Boundary-only recomputation pays one forward re-run per \
         backward to shrink the activation stash — on memory-bound clusters that buys a \
         deeper feasible Nm — and is skipped at window-1 stages where it reclaims nothing. \
         The `mem` column is the trace-audited measured ≤ declared occupancy invariant."
    );
    maybe_write_json(&json!(dump));

    if !violations.is_empty() {
        eprintln!("\nMEMORY SOUNDNESS VIOLATIONS ({}):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
    }
    if unwritten_traces > 0 {
        eprintln!("\n{unwritten_traces} chrome trace file(s) could not be written");
    }
    if !violations.is_empty() || unwritten_traces > 0 {
        std::process::exit(1);
    }
}
