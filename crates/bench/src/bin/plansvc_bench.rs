//! The plan service's perf harness: cold vs cache-hit vs warm-miss
//! latency histograms, and sustained plans/sec under concurrent
//! clients — with in-bin parity checks against a cold solve oracle.
//!
//! Three per-request latency populations, sampled per replan instance
//! on a running [`PlanService`]:
//!
//! - **cold** — cache cleared before every request, so each reply is
//!   a from-scratch solve plus the full request/reply round-trip;
//! - **hit** — the same key requested repeatedly; served from the
//!   client's read-through fast path against the shared cache;
//! - **warm** — a nominal plan seeds the family, then each request
//!   carries a fresh derate vector: every reply is a `WarmMiss`
//!   (neighbor-seeded [`PartitionSolver::solve_warm`]) paying the
//!   same round-trip as cold.
//!
//! Then a throughput phase drives 1 / 8 / 64 concurrent clients with
//! a deterministic 90% hot-key / 10% fresh-derate mix and reports
//! sustained plans/sec. **Every** reply from both phases is checked
//! bit-identical against a cold oracle solve of its instance; any
//! parity violation — or a warm-miss median slower than cold — exits
//! non-zero (the CI smoke contract). The measured section is merged
//! into `BENCH_planner.json` under `"plansvc"` (the file's other
//! sections are preserved).
//!
//! Flags: `--quick` (fewer samples, CI smoke), `--out <path>`
//! (default `BENCH_planner.json`).

use hetpipe_bench::{arg_value, check_args, usage_error};
use hetpipe_cluster::{Cluster, DeviceId, GpuKind};
use hetpipe_core::VirtualWorker;
use hetpipe_model::ModelGraph;
use hetpipe_partition::{PartitionPlan, PartitionProblem, PartitionSolver};
use hetpipe_plansvc::{Catalog, PlanKey, PlanRequest, PlanService, Provenance};
use hetpipe_schedule::{RecomputePolicy, Schedule};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::time::Instant;

/// One benchmarked planning instance.
struct Instance {
    label: &'static str,
    cluster: Cluster,
    graph: ModelGraph,
    model_fp: u64,
    cluster_fp: u64,
    devices: Vec<DeviceId>,
    nm: usize,
    schedule: Schedule,
    recompute: RecomputePolicy,
    /// Counted toward the warm-vs-cold acceptance ratio (the replan
    /// instances: ResNet-depth solves where online re-planning runs).
    replan_acceptance: bool,
}

impl Instance {
    fn request(&self, derates: Vec<f64>) -> PlanRequest {
        PlanRequest {
            model_fp: self.model_fp,
            cluster_fp: self.cluster_fp,
            devices: self.devices.clone(),
            nm: self.nm,
            schedule: self.schedule,
            recompute: self.recompute,
            observed_derates: derates,
        }
    }

    /// The `i`-th observation of a drifting straggler on stage 0 —
    /// the replan stream the runtime controller emits as its EWMA
    /// derate estimate evolves. Distinct `i` ⇒ distinct key, and each
    /// key's nearest family neighbor (the previous observation) is a
    /// near-optimal warm-start incumbent, as in a real replan run.
    fn derate_vector(&self, i: usize) -> Vec<f64> {
        let mut v = vec![1.0; self.devices.len()];
        v[0] = 1.05 + 0.005 * (i as f64);
        v
    }
}

/// Cold oracle: a from-scratch solve of exactly the instance the
/// service builds from a request.
fn cold_oracle(inst: &Instance, derates: &[f64]) -> Result<PartitionPlan, String> {
    // An empty derate vector means nominal, as in the service.
    let nominal = vec![1.0; inst.devices.len()];
    let derates = if derates.is_empty() {
        &nominal
    } else {
        derates
    };
    let gpus = inst
        .devices
        .iter()
        .zip(derates)
        .map(|(&d, &r)| inst.cluster.spec_of(d).derated(r.max(1.0)))
        .collect();
    let links = VirtualWorker::links(&inst.cluster, &inst.devices);
    PartitionSolver::solve(
        &PartitionProblem::with_schedule(&inst.graph, gpus, links, inst.nm, inst.schedule)
            .with_recompute(inst.recompute),
    )
    .map_err(|e| format!("{e}"))
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Power-of-two microsecond buckets: `[0,1µs) [1,2µs) [2,4µs) … [8.192ms, ∞)`.
fn histogram(samples: &[f64]) -> Vec<Value> {
    const BUCKETS: usize = 15;
    let mut counts = [0u64; BUCKETS];
    for &s in samples {
        let us = s * 1e6;
        let mut b = 0;
        while b + 1 < BUCKETS && us >= (1u64 << b) as f64 {
            b += 1;
        }
        counts[b] += 1;
    }
    counts
        .iter()
        .enumerate()
        .map(|(b, &n)| {
            let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
            let hi = if b + 1 == BUCKETS {
                Value::Null
            } else {
                json!(1u64 << b)
            };
            json!({ "lo_us": lo, "hi_us": hi, "count": n })
        })
        .collect()
}

fn summarize(mut samples: Vec<f64>) -> (f64, Value) {
    samples.sort_by(f64::total_cmp);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let p50 = percentile(&samples, 0.50);
    let summary = json!({
        "n": samples.len(),
        "p50_us": p50 * 1e6,
        "p90_us": percentile(&samples, 0.90) * 1e6,
        "p99_us": percentile(&samples, 0.99) * 1e6,
        "mean_us": mean * 1e6,
        "histogram": histogram(&samples),
    });
    (p50, summary)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, &["--out"], &["--quick"]).unwrap_or_else(|e| usage_error(&e));
    let quick = args.iter().any(|a| a == "--quick");
    let out: String = arg_value("--out")
        .unwrap_or_else(|e| usage_error(&e))
        .unwrap_or_else(|| "BENCH_planner.json".into());
    let lat_samples = if quick { 200 } else { 600 };
    let requests_per_client = if quick { 40 } else { 150 };

    let mut violations: Vec<String> = Vec::new();

    // ------------------------------------------------------------------
    // Catalog and instances.
    // ------------------------------------------------------------------
    let paper = Cluster::paper_testbed();
    let whimpy = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
    let vgg = hetpipe_model::vgg19(32);
    let resnet = hetpipe_model::resnet152(32);
    let mut catalog = Catalog::new();
    let paper_fp = catalog.register_cluster(paper.clone());
    let whimpy_fp = catalog.register_cluster(whimpy.clone());
    let vgg_fp = catalog.register_model(vgg.clone());
    let resnet_fp = catalog.register_model(resnet.clone());
    // One GPU of each kind across the paper testbed's nodes (the VRGQ
    // heterogeneous pipeline), plus the whimpy replan acceptance
    // configuration from tests/runtime_faults.rs.
    let vrgq: Vec<DeviceId> = vec![DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)];
    let instances = vec![
        Instance {
            label: "paper-vrgq/VGG-19",
            cluster: paper.clone(),
            graph: vgg.clone(),
            model_fp: vgg_fp,
            cluster_fp: paper_fp,
            devices: vrgq.clone(),
            nm: 4,
            schedule: Schedule::HetPipeWave,
            recompute: RecomputePolicy::None,
            replan_acceptance: false,
        },
        Instance {
            label: "paper-vrgq/ResNet-152",
            cluster: paper.clone(),
            graph: resnet.clone(),
            model_fp: resnet_fp,
            cluster_fp: paper_fp,
            devices: vrgq.clone(),
            nm: 4,
            schedule: Schedule::HetPipeWave,
            recompute: RecomputePolicy::None,
            replan_acceptance: false,
        },
        // The two configurations online replanning actually solves in
        // tests/runtime_faults.rs: the canonical-straggler instance
        // (all four whimpy GPUs) and the post-GPU-loss instance (the
        // surviving three after device 2 dies). These carry the
        // warm-vs-cold acceptance gate.
        Instance {
            label: "whimpy-gggg/ResNet-152",
            cluster: whimpy.clone(),
            graph: resnet.clone(),
            model_fp: resnet_fp,
            cluster_fp: whimpy_fp,
            devices: (0..4).map(DeviceId).collect(),
            nm: 4,
            schedule: Schedule::HetPipeWave,
            recompute: RecomputePolicy::BoundaryOnly,
            replan_acceptance: true,
        },
        Instance {
            label: "whimpy-ggg-lost/ResNet-152",
            cluster: whimpy.clone(),
            graph: resnet.clone(),
            model_fp: resnet_fp,
            cluster_fp: whimpy_fp,
            devices: [0, 1, 3].map(DeviceId).to_vec(),
            nm: 4,
            schedule: Schedule::HetPipeWave,
            recompute: RecomputePolicy::BoundaryOnly,
            replan_acceptance: true,
        },
    ];

    let svc = PlanService::start(catalog, 2);
    let client = svc.client();

    // Memoized oracle: every reply across both phases is verified
    // against a cold solve of its key's instance.
    let mut oracle_memo: HashMap<PlanKey, PartitionPlan> = HashMap::new();
    let verify = |memo: &mut HashMap<PlanKey, PartitionPlan>,
                  inst: &Instance,
                  req: &PlanRequest,
                  plan: &PartitionPlan,
                  what: &str,
                  violations: &mut Vec<String>| {
        let key = req.key().expect("benchmark requests are well-formed");
        let oracle = memo
            .entry(key)
            .or_insert_with(|| cold_oracle(inst, &req.observed_derates).expect("oracle feasible"));
        let same = plan.ranges == oracle.ranges && plan.stage_secs == oracle.stage_secs;
        if !same {
            let msg = format!("{}: {what}: reply != cold oracle", inst.label);
            eprintln!("PARITY VIOLATION: {msg}");
            violations.push(msg);
        }
    };

    // ------------------------------------------------------------------
    // Phase A: latency histograms per instance and provenance.
    //
    // The three populations are sampled *interleaved* — every
    // iteration times one cold solve, then one warm miss, then one
    // cache hit — so slow drift in the machine (frequency scaling,
    // neighboring load) hits all three equally instead of biasing
    // whichever phase ran last. The warm-not-slower gate uses the
    // median of the per-iteration (cold − warm) deltas, which cancels
    // that drift entirely.
    // ------------------------------------------------------------------
    let mut latency_rows = Vec::new();
    let mut hit_ratios: Vec<(f64, &str)> = Vec::new();
    let mut warm_ratios: Vec<(f64, &str, bool)> = Vec::new();
    let mut warm_deltas: Vec<(f64, &str)> = Vec::new();
    for inst in &instances {
        let mut cold = Vec::with_capacity(lat_samples);
        let mut warm = Vec::with_capacity(lat_samples);
        let mut hit = Vec::with_capacity(lat_samples);
        let mut deltas = Vec::with_capacity(lat_samples);
        for i in 0..lat_samples {
            // Cold: fully cleared cache, a fresh drift observation.
            svc.clear_cache();
            let cold_req = inst.request(inst.derate_vector(2 * i));
            let t = Instant::now();
            let reply = client.plan(&cold_req).expect("cold plan");
            let cold_secs = t.elapsed().as_secs_f64();
            cold.push(cold_secs);
            if reply.provenance != Provenance::Cold {
                violations.push(format!(
                    "{}: cleared-cache request served {:?}",
                    inst.label, reply.provenance
                ));
            }
            verify(
                &mut oracle_memo,
                inst,
                &cold_req,
                &reply.plan,
                "cold",
                &mut violations,
            );
            // Warm: the next drift observation; its nearest family
            // neighbor is the plan the cold request just published.
            let warm_req = inst.request(inst.derate_vector(2 * i + 1));
            let t = Instant::now();
            let reply = client.plan(&warm_req).expect("warm plan");
            let warm_secs = t.elapsed().as_secs_f64();
            warm.push(warm_secs);
            deltas.push(cold_secs - warm_secs);
            if reply.provenance != Provenance::WarmMiss {
                violations.push(format!(
                    "{}: derated family miss served {:?}",
                    inst.label, reply.provenance
                ));
            }
            verify(
                &mut oracle_memo,
                inst,
                &warm_req,
                &reply.plan,
                "warm",
                &mut violations,
            );
            // Hit: the warm key again, served read-through.
            let t = Instant::now();
            let reply = client.plan(&warm_req).expect("hit plan");
            hit.push(t.elapsed().as_secs_f64());
            if reply.provenance != Provenance::CacheHit {
                violations.push(format!(
                    "{}: repeated request served {:?}",
                    inst.label, reply.provenance
                ));
            }
            verify(
                &mut oracle_memo,
                inst,
                &warm_req,
                &reply.plan,
                "hit",
                &mut violations,
            );
        }
        let (cold_p50, cold_summary) = summarize(cold);
        let (hit_p50, hit_summary) = summarize(hit);
        let (warm_p50, warm_summary) = summarize(warm);
        deltas.sort_by(f64::total_cmp);
        let paired_delta_p50 = percentile(&deltas, 0.50);
        let hit_ratio = cold_p50 / hit_p50;
        let warm_ratio = cold_p50 / warm_p50;
        hit_ratios.push((hit_ratio, inst.label));
        warm_ratios.push((warm_ratio, inst.label, inst.replan_acceptance));
        warm_deltas.push((paired_delta_p50, inst.label));
        println!(
            "latency      {:<26} cold {:>8.1}µs  hit {:>7.2}µs ({hit_ratio:>5.1}x)  warm {:>8.1}µs ({warm_ratio:>4.2}x, paired Δ {:>+6.1}µs)",
            inst.label,
            cold_p50 * 1e6,
            hit_p50 * 1e6,
            warm_p50 * 1e6,
            paired_delta_p50 * 1e6,
        );
        latency_rows.push(json!({
            "instance": inst.label,
            "nm": inst.nm,
            "cold": cold_summary,
            "hit": hit_summary,
            "warm": warm_summary,
            "hit_speedup_vs_cold_p50": hit_ratio,
            "warm_speedup_vs_cold_p50": warm_ratio,
            "paired_cold_minus_warm_p50_us": paired_delta_p50 * 1e6,
            "replan_acceptance_instance": inst.replan_acceptance,
        }));
    }

    // ------------------------------------------------------------------
    // Phase B: sustained plans/sec at 1 / 8 / 64 concurrent clients,
    // deterministic 90% hot / 10% fresh-derate mix. Parity is checked
    // after the timed window (the oracle must not distort timing).
    // ------------------------------------------------------------------
    const HOT_VARIANTS: usize = 8;
    svc.clear_cache();
    for inst in &instances {
        for v in 0..HOT_VARIANTS {
            let derates = if v == 0 {
                Vec::new()
            } else {
                inst.derate_vector(v - 1)
            };
            client.plan(&inst.request(derates)).expect("hot-set seed");
        }
    }
    let mut throughput_rows = Vec::new();
    for clients in [1usize, 8, 64] {
        let wall = Instant::now();
        let replies: Vec<Vec<(usize, PlanRequest, PartitionPlan, Provenance)>> =
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let client = svc.client();
                        let instances = &instances;
                        s.spawn(move || {
                            let mut got = Vec::with_capacity(requests_per_client);
                            for q in 0..requests_per_client {
                                let tag = c * 7919 + q * 31;
                                let inst_idx = tag % instances.len();
                                let inst = &instances[inst_idx];
                                let req = if q % 10 == 9 {
                                    // Fresh derate: unique to (c, q), far
                                    // past the hot-set variants.
                                    inst.request(
                                        inst.derate_vector(1000 + c * requests_per_client + q),
                                    )
                                } else {
                                    let v = tag % HOT_VARIANTS;
                                    let derates = if v == 0 {
                                        Vec::new()
                                    } else {
                                        inst.derate_vector(v - 1)
                                    };
                                    inst.request(derates)
                                };
                                let reply = client.plan(&req).expect("throughput plan");
                                got.push((inst_idx, req, reply.plan, reply.provenance));
                            }
                            got
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        let wall = wall.elapsed().as_secs_f64();
        let total = clients * requests_per_client;
        let plans_per_sec = total as f64 / wall;
        let mut by_provenance = [0u64; 3];
        for (inst_idx, req, plan, provenance) in replies.iter().flatten() {
            by_provenance[match provenance {
                Provenance::Cold => 0,
                Provenance::CacheHit => 1,
                Provenance::WarmMiss => 2,
            }] += 1;
            verify(
                &mut oracle_memo,
                &instances[*inst_idx],
                req,
                plan,
                "throughput",
                &mut violations,
            );
        }
        println!(
            "throughput   {clients:>2} client(s)            {plans_per_sec:>10.0} plans/s  ({total} requests: {} hit / {} warm / {} cold)",
            by_provenance[1], by_provenance[2], by_provenance[0]
        );
        throughput_rows.push(json!({
            "clients": clients,
            "requests": total,
            "wall_secs": wall,
            "plans_per_sec": plans_per_sec,
            "cache_hits": by_provenance[1],
            "warm_misses": by_provenance[2],
            "cold_solves": by_provenance[0],
        }));
    }
    let (cache_hits, cache_misses, publishes) = svc.cache_stats();

    // ------------------------------------------------------------------
    // Acceptance gates.
    // ------------------------------------------------------------------
    let min_hit_ratio = hit_ratios
        .iter()
        .map(|(r, _)| *r)
        .fold(f64::INFINITY, f64::min);
    let min_warm_ratio_replan = warm_ratios
        .iter()
        .filter(|(_, _, acc)| *acc)
        .map(|(r, _, _)| *r)
        .fold(f64::INFINITY, f64::min);
    let min_paired_delta = warm_deltas
        .iter()
        .map(|(d, _)| *d)
        .fold(f64::INFINITY, f64::min);
    if min_hit_ratio < 10.0 {
        violations.push(format!(
            "cache-hit p50 only {min_hit_ratio:.1}x faster than cold (target >= 10x)"
        ));
    }
    for (d, label) in &warm_deltas {
        if *d < 0.0 {
            violations.push(format!(
                "{label}: warm-miss slower than cold (paired median delta {:.1}us)",
                d * 1e6
            ));
        }
    }
    if min_warm_ratio_replan < 1.3 {
        violations.push(format!(
            "replan-instance warm-miss p50 only {min_warm_ratio_replan:.2}x faster than cold (target >= 1.3x)"
        ));
    }
    println!(
        "\nacceptance: hit {min_hit_ratio:.1}x (target ≥10x), warm {min_warm_ratio_replan:.2}x on replan instances \
         (target ≥1.3x; min paired cold−warm Δ {:+.1}µs, must be ≥0), parity {}",
        min_paired_delta * 1e6,
        if violations.is_empty() { "ok" } else { "VIOLATED" }
    );

    // ------------------------------------------------------------------
    // Merge into BENCH_planner.json under "plansvc", preserving the
    // planner_bench sections.
    // ------------------------------------------------------------------
    let section = json!({
        "quick": quick,
        "threads": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "workers": 2,
        "latency": latency_rows,
        "throughput": throughput_rows,
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "publishes": publishes,
            "len": svc.cache_len(),
        },
        "acceptance": {
            "hit_min_speedup_p50": min_hit_ratio,
            "hit_target": 10.0,
            "warm_min_speedup_p50_replan_instances": min_warm_ratio_replan,
            "warm_target": 1.3,
            "warm_min_paired_delta_us": min_paired_delta * 1e6,
            "parity_ok": violations.is_empty(),
            "violations": violations.clone(),
        },
    });
    let merged = match std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
    {
        Some(Value::Object(existing)) => {
            // The vendored Value has no in-place object mutation;
            // rebuild the map with the section appended/replaced.
            let mut doc = serde_json::Map::new();
            for (k, v) in existing.iter() {
                if k != "plansvc" {
                    doc.insert(k, v.clone());
                }
            }
            doc.insert("plansvc", section);
            Value::Object(doc)
        }
        _ => json!({ "plansvc": section }),
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&merged).expect("serializable"),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!("(json merged into {out})");

    drop(client);
    svc.shutdown();

    if !violations.is_empty() {
        eprintln!("\nACCEPTANCE FAILURES ({}):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
