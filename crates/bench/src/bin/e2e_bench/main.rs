//! `e2e_bench`: the repository's end-to-end benchmark, with a traced
//! per-layer split.
//!
//! HetPipe's evaluation (§8 of the paper) judges a deployment by its
//! training throughput and by how much of its synchronization wait is
//! real idle time. This repository answers those questions with a
//! planner plus a simulator, so its users pay host time and memory for
//! every configuration they ask about. This bench measures that cost
//! from the inputs of a configuration to its checked report, and
//! splits it by layer.
//!
//! # Running it
//!
//! ```text
//! cargo run --release -p hetpipe-bench --bin e2e_bench -- --seed 1
//! cargo run --release --manifest-path crates/bench/src/bin/e2e_bench/Cargo.toml -- \
//!     --workload paper-ed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The directory is also a package of its own: its `Cargo.toml` makes
//! it a one-package workspace with path dependencies on the crates, so
//! the second form builds the bench without the repository's workspace
//! manifest. Both forms compile the same `main.rs`.
//!
//! Flags: `--workload <name>` (default: all five, in turn), `--seed <n>`
//! (default 1), `--seconds <s>` (sampling time per workload, default
//! 20), `--trace <0|1>` (0: untraced samples only, end-to-end metrics;
//! 1: traced samples, per-layer metrics; omitted: both), `--out <dir>`
//! (write `<workload>.json` rows and a `<workload>.trace.json` chrome
//! trace there; defaults to `target/e2e_bench` when every workload
//! runs). An unknown flag, an unknown workload or a value that does
//! not parse exits with status 2 and a usage message.
//!
//! Every sample is a fresh child process (the bench re-runs itself with
//! a hidden `--sample <workload>` flag), one at a time, so the
//! process-wide order-refine cache and the peak-RSS high-water mark
//! start cold in each. Before each sample a second child runs the
//! calibration kernel (hidden `--calibrate` flag; see below). Samples
//! are taken until `--seconds` have passed (at least three untraced).
//! Metrics print as `workload metric value unit` lines with their
//! sample count and quartiles, followed by a `query_s` row, the
//! normalized time per query pooled over the samples with the highest
//! percentile that has at least ten queries beyond it, and a
//! `calibration_s` row, the kernel's own times. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit status is 1 when any
//! check failed.
//!
//! # End-to-end metrics
//!
//! Measured with tracing off; each is the median over the samples of a
//! run. The bound is the share of the parent's median by which a metric
//! may worsen before a change counts as a regression. Times are
//! normalized to host speed (below): they read as seconds on the
//! reference host when its neighbours are quiet.
//!
//! | name | unit | better | bound | meaning |
//! |---|---|---|---|---|
//! | `wall_s` | s | lower | 25% | one sample, from building the inputs to the report plus its checks |
//! | `setup_s` | s | lower | 25% | building the inputs and every `HetPipeSystem::build` (GPU groups, stage order, `Nm`, partition) |
//! | `run_s` | s | lower | 25% | `wall_s − setup_s`: simulating, building the report, auditing, checking |
//! | `peak_rss_mb` | MiB | lower | 5% | `VmHWM` of the sample process |
//!
//! On a shared 2-vCPU host, co-tenants contend for caches, memory
//! bandwidth and page-fault service, so the same sample runs up to
//! 1.5× slower for minutes at a time. Raw wall times of ten 20 s runs
//! spread by 10–13% of their median in a quiet hour and by 20–30% under
//! load, more than a bound can absorb. So a child process runs
//! [`measure::calibration_kernel`], a fixed event loop in the bench
//! that no change to the system moves, just before each sample, and
//! the sample's times are multiplied by
//! [`measure::REFERENCE_CALIBRATION_S`] over the kernel's time. The
//! kernel slows with the host, so the product mostly stays put: over
//! ten 24 s runs per workload the normalized times spread by 1–6% of
//! their median (`baseline.json` holds two such sets). The kernel
//! tracks the heaviest spells less well on whimpy-interleaved, whose
//! normalized times then rise by 10–15% and spread by up to 10%. A
//! change to the system moves the normalized times as it moves the raw
//! ones. Peak memory does not depend on the host and is not
//! normalized; its spread stays under 1%.
//!
//! `setup_s` is the cold set-up in a fresh process on every workload
//! but fleet-256: about 3–4 ms on paper-ed and elastic-chaos, 20 ms on
//! whimpy-interleaved and 0.8 s on plan-sweep. fleet-256's set-up —
//! the model, one `PartitionSolver::solve` for its cell, and the
//! 256-cell topology — takes about 25 µs, so short that one interrupt
//! inflates it by half; the sample times 16 set-ups and reports the
//! fastest (see the `fleet` workload).
//!
//! Samples run with glibc's mmap threshold pinned at its 128 KiB
//! default (`MALLOC_MMAP_THRESHOLD_`), so freed large blocks go back to
//! the system and `VmHWM` tracks the live working set. With the
//! adaptive default, elastic-chaos's peak moved by 8% between seeds
//! that ask for the same work, depending on how much freed memory the
//! heap kept; pinned, it moves by under 1%. The price is page faults:
//! elastic-chaos, which allocates a fresh trace for every epoch, takes
//! 2.5× the page faults and runs 10–15% slower than with the adaptive
//! default, and plan-sweep about 4% slower; the other workloads do not
//! move. Pinning the threshold at glibc's 32 MiB ceiling instead kept
//! that time but held freed blocks in the heap, adding 17–33 MiB to
//! paper-ed's and fleet-256's peaks.
//!
//! A query — one operation — is one configuration built, run and
//! checked; one fleet run; or one scenario script. A query that fails a
//! check counts once in `failed`. The checks: the build returns `Ok`;
//! the occupancy audit is sound (measured ≤ declared); every virtual
//! worker completes a minibatch; on elastic-chaos every epoch's audit
//! holds and minibatches keep completing after the leases settle; the
//! traced fleet run matches the legacy loop per VW; and every sample of
//! a workload yields the same digest of its simulated outputs (an
//! FNV-1a hash over events, per-VW completions, waves, pull wait and
//! end instant), so a change to the modelled design shows as a changed
//! digest.
//!
//! # Workloads
//!
//! Each is fixed in code; `--seed` drives only elastic-chaos.
//!
//! - `paper-ed` — the paper's testbed (4×TITAN V, 4×TITAN RTX,
//!   4×RTX 2060, 4×Quadro P4000), VGG-19 at batch 32, ED allocation,
//!   local placement, `D = 0`, `hetpipe-wave`, 10,000 s simulated.
//!   Planning is about 1%; the DES, the arrival-FIFO handler and span
//!   recording do the work, and memory grows with the horizon because
//!   every span is kept.
//! - `whimpy-interleaved` — 16×RTX 2060, ResNet-152, ED,
//!   `interleaved-1f1b:2`, `boundary-only` recompute, 3,000 s. The
//!   same executor used differently: composite per-GPU streams,
//!   timetable stream generation and recompute spans; the arrival-FIFO
//!   path does nothing.
//! - `fleet-256` — 256 two-node RTX 2060 cells running ResNet-50,
//!   `Nm = 4`, `run_fleet` on one thread without traces, 60 s. The WSP
//!   gate bus and the per-VW engines do the work; planning is one cell.
//! - `elastic-chaos` — four ED-built virtual workers on 16×RTX 2060,
//!   ResNet-152, `boundary-only`, 8 lease/slowdown scripts per sample,
//!   600 s each, `Policy::Replan` through a one-worker `PlanService`.
//!   Each script preempts and re-grants one GPU, slows two GPUs and
//!   degrades one node's link; the seed picks the GPUs and the node,
//!   and the script's index the times and factors, so every seed asks
//!   for the same number of splices and re-plans. The only workload
//!   with runtime splices, the monitor, plan-service hits and warm
//!   misses, and per-epoch audits; its planning is warm.
//! - `plan-sweep` — 128 cold configurations with 30 s horizons: the
//!   Table-4 GPU sets × {VGG-19, ResNet-152} × {ED, NP} × {wave,
//!   fill-drain, 1f1b, interleaved-1f1b:2} × {none, boundary-only}.
//!   The partition DP, the order search with its refine simulations
//!   and the `Nm` sweep take most of the time; the DES little.
//!
//! # Reading the per-layer output
//!
//! A traced sample records spans (name, start, end, parent) in the
//! bench around each public call; a layer's self time is its span
//! minus its child spans. The `query` span holds `plan.build`,
//! `exec.run` (`run_with_stats`), `audit.measure`, `fleet.run` or
//! `runtime.run`. Pieces a single call hides are timed as separate
//! spans outside the query, by calling the layer's public functions
//! again on the same inputs: the planner phases (`plan.alloc`,
//! `plan.order_scan`, `plan.maxm`, `plan.nm_choice`,
//! `plan.final_solve`; `plan.refine_residual_s` is the build minus
//! them, i.e. the private refine simulations), stream generation
//! (`schedule.stream_gen`, zero under arrival-FIFO), the report
//! (`metrics.report`, subtracted from `exec.run_s`), chrome export
//! (`export.chrome`, to a counting sink), the fleet's legacy loop and
//! ×2 horizon, and the Horovod baseline. Counters (`des.events`,
//! `exec.spans*`, `runtime.*`, `plansvc.*` as deltas of `cache_stats`)
//! and the modelled design (`sim.*`, averaged over queries) come with
//! them; a layer a workload does not touch reads 0. `trace.coverage`
//! is the share of query wall time the layer spans cover (≥ 0.95
//! expected) and `trace.overhead_ratio` the traced query wall over the
//! untraced median. Which end-to-end metric each layer should move:
//! `plan.*` moves `setup_s` on plan-sweep and whimpy-interleaved, and
//! nothing on fleet-256; `schedule.*` moves `run_s` on
//! whimpy-interleaved and nothing on paper-ed; `exec.*`, `des.*`,
//! `metrics.*` and `audit.*` move `run_s` on paper-ed and
//! whimpy-interleaved, and `exec.trace_mb` moves `peak_rss_mb`;
//! `fleet.*` moves `run_s` on fleet-256; `runtime.*` and `plansvc.*`
//! move `run_s` on elastic-chaos; `sim.*` is the modelled design itself
//! (the paper reports an 18% `sim.idle_fraction_of_wait`), moved by no
//! performance change.
//!
//! Caveats: `fleet.x2_run_s` grows superlinearly with the horizon
//! (several times `fleet.run_s` at twice the horizon), and
//! `export.chrome_s` is opt-in for users and too noisy between runs to
//! gate, so neither feeds an end-to-end metric.
//!
//! # What the bench depends on
//!
//! It is a client of these public entry points only, which later
//! changes have to keep compiling: `HetPipeSystem::{build,
//! run_with_stats, virtual_workers, nm}`, `SystemConfig`,
//! `SystemReport` (`from_stats` and its accessors),
//! `OccupancyAudit::measure`, `runtime::run` with `RuntimeParams`,
//! `ScenarioScript` / `ScenarioEvent` / `Fault` and
//! `lease_transitions`, `PlanService`
//! (`start`, `client`, `cache_stats`, `shutdown`), `run_fleet` with
//! `FleetConfig` and `FleetTopology`, `exec::run` (the fleet's legacy
//! baseline only), `ShardMap::build_vw_local` and
//! `PartitionSolver::solve` (the fleet cell's plan), the other public
//! partition functions (`evaluate_orders`, `NmSweep`,
//! `max_feasible_nm_with`) and schedule streams (`stream`,
//! `gpu_streams_with`) in the traced breakdown only,
//! `Trace::write_chrome_trace`, and `HorovodBaseline`. Schedules and
//! recompute policies are named by their CLI strings through
//! `Schedule::parse` / `RecomputePolicy::parse`, so a change in what a
//! name means changes the workload visibly.

mod measure;
mod tracer;
mod workloads;

use measure::Summary;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use tracer::{Span, Tracer};
use workloads::Workload;

/// A reported metric. `bound` is set for end-to-end metrics only.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Metric {
    /// Metric name.
    name: &'static str,
    /// Unit.
    unit: &'static str,
    /// `lower` or `higher`.
    better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    bound: Option<f64>,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

/// The end-to-end metrics, measured with tracing off.
const END_TO_END: [Metric; 4] = [
    gated("wall_s", "s", 0.25),
    gated("setup_s", "s", 0.25),
    gated("run_s", "s", 0.25),
    gated("peak_rss_mb", "MiB", 0.05),
];

/// The per-layer metrics, from traced samples.
const PER_LAYER: [Metric; 50] = [
    metric("plan.build_s", "s", "lower"),
    metric("plan.alloc_s", "s", "lower"),
    metric("plan.order_scan_s", "s", "lower"),
    metric("plan.orders_scored", "count", "lower"),
    metric("plan.maxm_s", "s", "lower"),
    metric("plan.nm_choice_s", "s", "lower"),
    metric("plan.final_solve_s", "s", "lower"),
    metric("plan.refine_residual_s", "s", "lower"),
    metric("schedule.stream_gen_s", "s", "lower"),
    metric("schedule.ops", "count", "lower"),
    metric("exec.run_s", "s", "lower"),
    metric("des.events", "count", "lower"),
    metric("des.events_per_s", "1/s", "higher"),
    metric("exec.spans", "count", "lower"),
    metric("exec.trace_mb", "MiB", "lower"),
    metric("exec.spans_forward", "count", "lower"),
    metric("exec.spans_backward", "count", "lower"),
    metric("exec.spans_recompute", "count", "lower"),
    metric("exec.spans_activation", "count", "lower"),
    metric("exec.spans_sync", "count", "lower"),
    metric("metrics.report_s", "s", "lower"),
    metric("audit.measure_s", "s", "lower"),
    metric("export.chrome_s", "s", "lower"),
    metric("export.chrome_mb", "MiB", "lower"),
    metric("fleet.run_s", "s", "lower"),
    metric("fleet.events", "count", "lower"),
    metric("fleet.events_per_s", "1/s", "higher"),
    metric("fleet.legacy_run_s", "s", "lower"),
    metric("fleet.vs_legacy", "ratio", "higher"),
    metric("fleet.x2_run_s", "s", "lower"),
    metric("runtime.run_s", "s", "lower"),
    metric("runtime.epochs", "count", "lower"),
    metric("runtime.signals", "count", "lower"),
    metric("runtime.script_events", "count", "lower"),
    metric("runtime.completed_mb", "count", "higher"),
    metric("plansvc.requests", "count", "lower"),
    metric("plansvc.hit_ratio", "ratio", "higher"),
    metric("plansvc.publishes", "count", "lower"),
    metric("sim.images_per_s", "img/s", "higher"),
    metric("sim.nm", "count", "higher"),
    metric("sim.pull_wait_s", "sim_s", "lower"),
    metric("sim.idle_in_wait_s", "sim_s", "lower"),
    metric("sim.idle_fraction_of_wait", "ratio", "lower"),
    metric("sim.gpu_util_mean", "ratio", "higher"),
    metric("sim.sync_inter_gb", "GB", "lower"),
    metric("sim.act_inter_gb", "GB", "lower"),
    metric("sim.horovod_images_per_s", "img/s", "higher"),
    metric("sim.speedup_over_horovod", "ratio", "higher"),
    metric("trace.coverage", "ratio", "higher"),
    metric("trace.overhead_ratio", "ratio", "lower"),
];

const USAGE: &str = "usage: e2e_bench [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--out <dir>]
workloads: paper-ed, whimpy-interleaved, fleet-256, elastic-chaos, plan-sweep";

/// Untraced samples per run at the least.
const MIN_SAMPLES: usize = 3;

/// Which samples a run takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tracing {
    /// Untraced samples only: end-to-end metrics.
    Off,
    /// Untraced and traced samples in pairs: per-layer metrics.
    On,
    /// Untraced samples, then one traced sample: both.
    Both,
}

#[derive(Debug, PartialEq)]
enum Cli {
    Help,
    Bench {
        workloads: Vec<Workload>,
        seed: u64,
        seconds: f64,
        tracing: Tracing,
        out: Option<PathBuf>,
    },
    Sample {
        workload: Workload,
        seed: u64,
        traced: bool,
    },
    Calibrate,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let (mut workload, mut sample, mut out) = (None, None, None);
    let (mut seed, mut seconds, mut trace) = (1u64, 20.0f64, None);
    if args == ["--calibrate"] {
        return Ok(Cli::Calibrate);
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let workload_named =
            |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"));
        match flag.as_str() {
            "-h" | "--help" => return Ok(Cli::Help),
            "--workload" => workload = Some(workload_named(value()?)?),
            "--sample" => sample = Some(workload_named(value()?)?),
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds `{v}` is not a duration"))?;
            }
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace `{v}` is neither 0 nor 1")),
                });
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(workload) = sample {
        return Ok(Cli::Sample {
            workload,
            seed,
            traced: trace.unwrap_or(false),
        });
    }
    let tracing = match trace {
        Some(false) => Tracing::Off,
        Some(true) => Tracing::On,
        None => Tracing::Both,
    };
    let out = out.or_else(|| {
        workload
            .is_none()
            .then(|| PathBuf::from("target/e2e_bench"))
    });
    Ok(Cli::Bench {
        workloads: workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed,
        seconds,
        tracing,
        out,
    })
}

/// Runs one sample in this process and renders its JSON line. `scale`
/// is 1 for the benchmark; the smoke tests shrink the workloads.
fn sample_line(workload: Workload, seed: u64, traced: bool, scale: f64) -> String {
    let mut tr = Tracer::new(traced);
    let sample = workloads::run(workload, seed, scale, &mut tr);
    let rss = measure::peak_rss_mib().unwrap_or(0.0);
    sample.to_json(tr.spans(), rss).to_string()
}

/// One sample as read back from its JSON line.
struct Parsed {
    setup_s: f64,
    wall_s: f64,
    /// The calibration kernel's seconds just before the sample.
    calibration_s: f64,
    queries: Vec<f64>,
    failures: Vec<String>,
    digest: String,
    peak_rss_mb: f64,
    layers: BTreeMap<String, f64>,
    spans: Vec<Span>,
}

impl Parsed {
    /// What the sample's times are multiplied by to read as seconds on
    /// the quiet reference host.
    fn host_factor(&self) -> f64 {
        measure::REFERENCE_CALIBRATION_S / self.calibration_s
    }
}

fn parse_sample(v: &Value, calibration_s: f64) -> Result<Parsed, String> {
    let numbers = |key: &str| -> Result<Vec<f64>, String> {
        match measure::field(v, key)? {
            Value::Array(xs) => xs
                .iter()
                .map(|x| match x {
                    Value::Number(n) => Ok(*n),
                    _ => Err(format!("`{key}` holds a non-number")),
                })
                .collect(),
            _ => Err(format!("`{key}` is not an array")),
        }
    };
    let text = |x: &Value| match x {
        Value::String(s) => Ok(s.clone()),
        _ => Err(format!("{x} is not a string")),
    };
    let failures = match measure::field(v, "failures")? {
        Value::Array(xs) => xs.iter().map(text).collect::<Result<_, String>>()?,
        _ => return Err("`failures` is not an array".into()),
    };
    let layers = match measure::field(v, "layers")? {
        Value::Object(map) => map
            .iter()
            .map(|(k, x)| match x {
                Value::Number(n) => Ok((k.to_string(), *n)),
                _ => Err(format!("layer `{k}` is not a number")),
            })
            .collect::<Result<_, String>>()?,
        _ => return Err("`layers` is not an object".into()),
    };
    Ok(Parsed {
        setup_s: measure::number(v, "setup_s")?,
        wall_s: measure::number(v, "wall_s")?,
        calibration_s,
        queries: numbers("queries")?,
        failures,
        digest: text(measure::field(v, "digest")?)?,
        peak_rss_mb: measure::number(v, "peak_rss_mb")?,
        layers,
        spans: tracer::from_json(measure::field(v, "spans")?)?,
    })
}

/// What a workload's samples add up to.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// `(metric, reported value, distribution)`, end-to-end first.
    metrics: Vec<(Metric, f64, Summary)>,
    /// Time per query, pooled over the untraced samples and normalized.
    queries: Option<Summary>,
    /// The calibration kernel's time before each untraced sample.
    calibration: Option<Summary>,
    /// Spans of every traced sample.
    spans: Vec<Vec<Span>>,
}

/// One sample's JSON line and the calibration kernel's seconds just
/// before it.
type Taken = Result<(Value, f64), String>;

/// Samples `w` for `seconds` and folds the samples into metrics.
/// `sample(traced)` yields one sample (child processes in the bench,
/// the same code in-process in the tests).
fn measure_workload(
    seconds: f64,
    tracing: Tracing,
    min_samples: usize,
    sample: &mut dyn FnMut(bool) -> Taken,
) -> Outcome {
    let mut taken: Vec<(bool, Taken)> = Vec::new();
    match tracing {
        Tracing::Off | Tracing::Both => {
            for r in measure::sample_for(seconds, min_samples, || sample(false)) {
                taken.push((false, r));
            }
            if tracing == Tracing::Both {
                taken.push((true, sample(true)));
            }
        }
        Tracing::On => {
            for (plain, traced) in measure::sample_for(seconds, 1, || (sample(false), sample(true)))
            {
                taken.push((false, plain));
                taken.push((true, traced));
            }
        }
    }

    let mut out = Outcome::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut digest: Option<String> = None;
    for (is_traced, r) in taken {
        let parsed = r.and_then(|(v, calibration_s)| parse_sample(&v, calibration_s));
        let p = match parsed {
            Ok(p) => p,
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.errors.push(e);
                continue;
            }
        };
        out.attempted += p.queries.len().max(1) as u64;
        out.failed += p.failures.len() as u64;
        out.errors.extend(p.failures.iter().cloned());
        match &digest {
            None => digest = Some(p.digest.clone()),
            Some(d) if *d != p.digest => {
                out.failed += 1;
                out.errors.push(format!(
                    "simulated outputs changed between samples ({d} vs {})",
                    p.digest
                ));
            }
            Some(_) => {}
        }
        if is_traced {
            traced.push(p);
        } else {
            plain.push(p);
        }
    }
    out.failed = out.failed.min(out.attempted);

    let query_sums = |ps: &[Parsed]| {
        ps.iter()
            .map(|p| p.queries.iter().sum())
            .collect::<Vec<f64>>()
    };
    if tracing != Tracing::On && !plain.is_empty() {
        let column = |f: &dyn Fn(&Parsed) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
        let columns = [
            column(&|p| p.wall_s * p.host_factor()),
            column(&|p| p.setup_s * p.host_factor()),
            column(&|p| (p.wall_s - p.setup_s) * p.host_factor()),
            column(&|p| p.peak_rss_mb),
        ];
        for (m, values) in END_TO_END.iter().zip(columns) {
            let summary = Summary::of(&values);
            out.metrics.push((*m, summary.median, summary));
        }
        let pooled: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.queries.iter().map(|q| q * p.host_factor()))
            .collect();
        out.queries = Some(Summary::of(&pooled));
        out.calibration = Some(Summary::of(&column(&|p| p.calibration_s)));
    }
    if !traced.is_empty() {
        let untraced = measure::median(&query_sums(&plain));
        let per_sample: Vec<BTreeMap<String, f64>> = traced
            .iter()
            .zip(query_sums(&traced))
            .map(|(p, wall)| {
                let mut m = workloads::layer_metrics(&p.layers, &p.spans);
                let overhead = if untraced > 0.0 { wall / untraced } else { 0.0 };
                m.insert("trace.overhead_ratio".into(), overhead);
                m
            })
            .collect();
        for m in PER_LAYER {
            let values: Vec<f64> = per_sample
                .iter()
                .map(|s| s.get(m.name).copied().unwrap_or(0.0))
                .collect();
            let summary = Summary::of(&values);
            out.metrics.push((m, summary.median, summary));
        }
        out.spans = traced.into_iter().map(|p| p.spans).collect();
    }
    out
}

/// Prints one workload's metrics and writes its files under `out`.
fn report(w: Workload, seed: u64, o: &Outcome, out: Option<&PathBuf>) -> Result<(), String> {
    println!("# {}: {}", w.name(), w.why());
    let info = [("query_s", &o.queries), ("calibration_s", &o.calibration)];
    let info = info
        .into_iter()
        .filter_map(|(name, s)| s.as_ref().map(|s| (name, "s", s.median, s)));
    let rows = o.metrics.iter().map(|(m, v, s)| (m.name, m.unit, *v, s));
    for (name, unit, value, s) in rows.clone().chain(info.clone()) {
        let tail = s
            .tail
            .map_or(String::new(), |(p, v)| format!(" p{p}={v:.6}"));
        println!(
            "{:<18} {name:<26} {value:>14.6} {unit:<6} n={} q1={:.6} q3={:.6}{tail}",
            w.name(),
            s.n,
            s.q1,
            s.q3
        );
    }
    for e in &o.errors {
        println!("{:<18} FAILED: {e}", w.name());
    }
    let Some(dir) = out else { return Ok(()) };
    let mut json_rows = serde_json::Map::new();
    for (name, unit, value, s) in rows.chain(info) {
        let mut row = s.row(unit);
        if let Value::Object(map) = &mut row {
            map.insert("value", Value::Number(value));
        }
        json_rows.insert(name, row);
    }
    let doc = json!({
        "workload": w.name(),
        "seed": seed,
        "attempted": o.attempted,
        "failed": o.failed,
        "errors": o.errors.clone(),
        "metrics": Value::Object(json_rows),
    });
    let write = |name: String, v: &Value| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            serde_json::to_string_pretty(v).expect("serializable"),
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    write(format!("{}.json", w.name()), &doc)?;
    if !o.spans.is_empty() {
        write(
            format!("{}.trace.json", w.name()),
            &tracer::chrome_trace(&o.spans),
        )?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (workloads, seed, seconds, tracing, out) = match cli {
        Cli::Help => {
            println!("{USAGE}");
            return;
        }
        Cli::Sample {
            workload,
            seed,
            traced,
        } => {
            println!("{}", sample_line(workload, seed, traced, 1.0));
            return;
        }
        Cli::Calibrate => {
            let seconds = measure::calibration_kernel(measure::CALIBRATION_EVENTS);
            println!("{}", json!({ "calibration_s": seconds }));
            return;
        }
        Cli::Bench {
            workloads,
            seed,
            seconds,
            tracing,
            out,
        } => (workloads, seed, seconds, tracing, out),
    };

    let single = workloads.len() == 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = serde_json::Map::new();
    for w in workloads {
        let mut sample = |traced: bool| {
            let trace = if traced { "1" } else { "0" };
            let args = [
                "--sample",
                w.name(),
                "--seed",
                &seed.to_string(),
                "--trace",
                trace,
            ];
            let calibration = measure::sample_in_child(&["--calibrate".to_string()])?;
            let calibration_s = measure::number(&calibration, "calibration_s")?;
            Ok((
                measure::sample_in_child(&args.map(String::from))?,
                calibration_s,
            ))
        };
        let o = measure_workload(seconds, tracing, MIN_SAMPLES, &mut sample);
        if let Err(e) = report(w, seed, &o, out.as_ref()) {
            eprintln!("e2e_bench: {e}");
            failed += 1;
        }
        attempted += o.attempted;
        failed += o.failed;
        for (m, value, _) in &o.metrics {
            let key = if single {
                m.name.to_string()
            } else {
                format!("{}.{}", w.name(), m.name)
            };
            metrics.insert(key, json!({ "value": *value, "unit": m.unit }));
        }
    }
    let correct = failed == 0;
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": Value::Object(metrics),
        })
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_rejects_bad_input_and_parses_the_benchmark_form() {
        for bad in [
            "--bogus",
            "--workload nope",
            "--seed x",
            "--seed -1",
            "--seconds soon",
            "--trace 2",
            "--seed",
            "--scale 0.5",
            "--calibrate --seed 1",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad} must be rejected");
        }
        assert_eq!(
            parse_cli(&args(
                "--workload fleet-256 --seed 7 --seconds 10 --trace 1"
            )),
            Ok(Cli::Bench {
                workloads: vec![Workload::Fleet256],
                seed: 7,
                seconds: 10.0,
                tracing: Tracing::On,
                out: None,
            })
        );
        assert_eq!(
            parse_cli(&args("--sample plan-sweep --trace 1")),
            Ok(Cli::Sample {
                workload: Workload::PlanSweep,
                seed: 1,
                traced: true,
            })
        );
        assert_eq!(parse_cli(&args("--calibrate")), Ok(Cli::Calibrate));
        let Ok(Cli::Bench { workloads, out, .. }) = parse_cli(&[]) else {
            panic!("no arguments run every workload");
        };
        assert_eq!(workloads, Workload::ALL.to_vec());
        assert_eq!(out, Some(PathBuf::from("target/e2e_bench")));
    }

    /// Runs every workload at about 1% of its size in this process
    /// (one untraced and one traced sample) and checks that every
    /// metric BENCHMARK.json names is emitted with its unit and that no
    /// check failed.
    fn smoke(w: Workload) {
        let mut sample = |traced: bool| {
            serde_json::from_str(&sample_line(w, 2, traced, 0.01))
                .map(|v| (v, measure::REFERENCE_CALIBRATION_S))
                .map_err(|e| e.to_string())
        };
        let o = measure_workload(0.0, Tracing::Both, 1, &mut sample);
        assert!(o.attempted >= 1, "{}: nothing attempted", w.name());
        assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.errors);
        let emitted: Vec<(&str, &str)> =
            o.metrics.iter().map(|(m, _, _)| (m.name, m.unit)).collect();
        let expected: Vec<(&str, &str)> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| (m.name, m.unit))
            .collect();
        assert_eq!(emitted, expected, "{}", w.name());
        let coverage = o
            .metrics
            .iter()
            .find(|(m, _, _)| m.name == "trace.coverage")
            .unwrap()
            .1;
        assert!(
            coverage > 0.0 && coverage <= 1.0,
            "{}: coverage {coverage}",
            w.name()
        );
        for (m, value, _) in &o.metrics {
            assert!(value.is_finite(), "{} {}", w.name(), m.name);
            if m.bound.is_some() {
                assert!(*value > 0.0, "{}: end-to-end {} is 0", w.name(), m.name);
            }
        }
    }

    #[test]
    fn smoke_paper_ed() {
        smoke(Workload::PaperEd);
    }

    #[test]
    fn smoke_whimpy_interleaved() {
        smoke(Workload::WhimpyInterleaved);
    }

    #[test]
    fn smoke_fleet_256() {
        smoke(Workload::Fleet256);
    }

    #[test]
    fn smoke_elastic_chaos() {
        smoke(Workload::ElasticChaos);
    }

    #[test]
    fn smoke_plan_sweep() {
        smoke(Workload::PlanSweep);
    }

    /// BENCHMARK.json lists exactly the workloads and metrics the bin
    /// emits, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_bin() {
        let doc = serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| match measure::field(&doc, key) {
            Ok(Value::Array(items)) => items.clone(),
            other => panic!("`{key}` is not a list: {other:?}"),
        };
        let text = |v: &Value, key: &str| match measure::field(v, key) {
            Ok(Value::String(s)) => s.clone(),
            other => panic!("`{key}` is not a string: {other:?}"),
        };
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, expected);
        for (key, registry) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<_> = list(key)
                .iter()
                .map(|m| {
                    let bound = measure::number(m, "bound").ok();
                    (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
                })
                .collect();
            let expected: Vec<_> = registry
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
                .collect::<Vec<(String, String, String, Option<f64>)>>();
            assert_eq!(listed, expected, "{key}");
        }
        let Value::Object(top) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            list("paths"),
            vec![Value::String("crates/bench/src/bin/e2e_bench".into())]
        );
    }
}
