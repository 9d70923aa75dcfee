//! Parity of the report fold and the occupancy audit with naive
//! references.
//!
//! A run folds its report and its occupancy peaks while it executes
//! (`exec::run_into` given a warm-up, `HetPipeSystem::run_with_stats`),
//! keeping no trace. `SystemReport::from_stats` replays a kept trace through the
//! same report fold, at any warm-up. The naive report reference asks
//! [`Trace::busy_within`] and [`Trace::utilization_within`]
//! (full-trace scans) once per (device, window); the naive audit
//! reference keys one `BTreeMap` entry per span per keying and folds
//! each through [`peak_of_events`]. Every `f64` field is compared by
//! `to_bits`.
//!
//! This is a dynamically audited invariant: it holds for the runs
//! below (hand-picked configurations, a seeded sample of schedule ×
//! recompute × (Nm, D) × cluster, rate-edge and draining segments, a
//! hand-built overlapping trace, and its wait windows over an empty
//! trace) and is evidence, not proof, for other configurations.

use hetpipe::cluster::{Cluster, DeviceId, GpuKind};
use hetpipe::core::exec::{
    self, ExecParams, RateEvent, RateTarget, RunStats, SegmentOpts, SpanTag, VwStats,
};
use hetpipe::core::pserver::{Placement, ShardMap};
use hetpipe::core::{
    AllocationPolicy, HetPipeSystem, OccupancyAudit, Planner, RecomputePolicy, Schedule,
    SystemConfig, SystemReport, VirtualWorker, WspParams,
};
use hetpipe::des::{
    declared_bounds, peak_of_events, BoundEntity, Discard, ResourceId, ResourcePool, SimTime, Trace,
};
use hetpipe::schedule::PipelineSchedule;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The report as one windowed full-trace query per (device, window).
fn naive_report(
    stats: &RunStats,
    cluster: &Cluster,
    batch_size: usize,
    warmup: SimTime,
    vw_devices: &[Vec<DeviceId>],
) -> SystemReport {
    let horizon = stats.horizon;
    let gpu_utilization: Vec<(DeviceId, f64)> = cluster
        .devices()
        .map(|d| {
            let rid = stats.gpu_resources[d.0];
            (d, stats.trace.utilization_within(rid, warmup, horizon))
        })
        .collect();
    let max_stage_utilization = vw_devices
        .iter()
        .map(|devs| {
            devs.iter()
                .map(|d| gpu_utilization[d.0].1)
                .fold(0.0, f64::max)
        })
        .collect();
    let idle_in_wait_per_vw = stats
        .vws
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let devs = &vw_devices[i];
            let mut idle = SimTime::ZERO;
            for &(from, to) in &v.wait_windows {
                if devs.is_empty() {
                    continue;
                }
                let busy_avg: f64 = devs
                    .iter()
                    .map(|d| {
                        let rid = stats.gpu_resources[d.0];
                        stats.trace.busy_within(rid, from, to).as_secs()
                    })
                    .sum::<f64>()
                    / devs.len() as f64;
                let window = (to - from).as_secs();
                idle += SimTime::from_secs((window - busy_avg).max(0.0));
            }
            idle
        })
        .collect();
    SystemReport {
        batch_size,
        warmup,
        horizon,
        minibatches_per_vw: stats
            .vws
            .iter()
            .map(|v| v.completions.iter().filter(|&&t| t > warmup).count() as u64)
            .collect(),
        waves_per_vw: stats.vws.iter().map(|v| v.waves_pushed).collect(),
        gpu_utilization,
        max_stage_utilization,
        pull_wait_per_vw: stats.vws.iter().map(|v| v.pull_wait).collect(),
        idle_in_wait_per_vw,
        sync_bytes_inter: stats.sync_bytes_inter,
        sync_bytes_intra: stats.sync_bytes_intra,
        act_bytes_inter: stats.act_bytes_inter,
        act_bytes_intra: stats.act_bytes_intra,
    }
}

/// The audit with both keyings as maps, filled per span.
fn naive_audit(
    stats: &RunStats,
    vws: &[VirtualWorker],
    schedule: &Schedule,
    nm: usize,
) -> OccupancyAudit {
    let fused = schedule.fused_last_stage();
    let colocated = schedule.colocated_stages();
    let mut stage_evs: BTreeMap<(usize, usize), Vec<(SimTime, i64)>> = BTreeMap::new();
    let mut gpu_evs: BTreeMap<(usize, usize), Vec<(SimTime, i64)>> = BTreeMap::new();
    for span in stats.trace.spans() {
        let evs = match span.tag {
            SpanTag::Forward { vw, stage, .. } => vec![((vw as usize, stage as usize), 1)],
            SpanTag::Backward { vw, stage, .. } => {
                let key = (vw as usize, stage as usize);
                let mut evs = vec![(key, -1)];
                if fused && key.1 + 1 == vws[key.0].stages() {
                    evs.push((key, 1));
                }
                evs
            }
            _ => Vec::new(),
        };
        for ((vw, stage), delta) in evs {
            let gpus = vws[vw].stages() / colocated;
            stage_evs
                .entry((vw, stage))
                .or_default()
                .push((span.end, delta));
            gpu_evs
                .entry((vw, stage % gpus))
                .or_default()
                .push((span.end, delta));
        }
    }
    let peak = |evs: &mut BTreeMap<(usize, usize), Vec<(SimTime, i64)>>, key| {
        evs.remove(&key).map_or(0, peak_of_events)
    };
    let mut bounds = Vec::new();
    for (vwi, vw) in vws.iter().enumerate() {
        let k = vw.stages();
        let windows: Vec<i64> = (0..k)
            .map(|s| schedule.max_in_flight(s, k, nm) as i64)
            .collect();
        for mut bound in declared_bounds(vwi, &windows, k / colocated) {
            bound.measured = Some(match bound.entity {
                BoundEntity::Stage { vw, stage } => peak(&mut stage_evs, (vw, stage)),
                BoundEntity::Gpu { vw, gpu } => peak(&mut gpu_evs, (vw, gpu)),
            });
            bounds.push(bound);
        }
    }
    OccupancyAudit { bounds }
}

fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
    xs.into_iter().map(f64::to_bits).collect()
}

/// Every field of two reports equal, `f64`s bit for bit.
fn assert_reports_identical(label: &str, got: &SystemReport, want: &SystemReport) {
    assert_eq!(got.batch_size, want.batch_size, "{label}");
    assert_eq!(
        (got.warmup, got.horizon),
        (want.warmup, want.horizon),
        "{label}"
    );
    assert_eq!(got.minibatches_per_vw, want.minibatches_per_vw, "{label}");
    assert_eq!(got.waves_per_vw, want.waves_per_vw, "{label}");
    let devices = |r: &SystemReport| r.gpu_utilization.iter().map(|u| u.0).collect::<Vec<_>>();
    assert_eq!(devices(got), devices(want), "{label}");
    assert_eq!(
        bits(got.gpu_utilization.iter().map(|u| u.1)),
        bits(want.gpu_utilization.iter().map(|u| u.1)),
        "{label}: gpu utilization"
    );
    assert_eq!(
        bits(got.max_stage_utilization.iter().copied()),
        bits(want.max_stage_utilization.iter().copied()),
        "{label}: max stage utilization"
    );
    assert_eq!(got.pull_wait_per_vw, want.pull_wait_per_vw, "{label}");
    assert_eq!(
        got.idle_in_wait_per_vw, want.idle_in_wait_per_vw,
        "{label}: idle in wait"
    );
    assert_eq!(
        [
            got.sync_bytes_inter,
            got.sync_bytes_intra,
            got.act_bytes_inter,
            got.act_bytes_intra
        ],
        [
            want.sync_bytes_inter,
            want.sync_bytes_intra,
            want.act_bytes_inter,
            want.act_bytes_intra
        ],
        "{label}"
    );
}

/// The simulated results of two runs of one configuration agree: the
/// sink must not change a simulated number.
/// Every field of [`RunStats`] but the trace is compared.
fn assert_same_run(label: &str, got: &RunStats, want: &RunStats) {
    assert_eq!((got.events, got.end), (want.events, want.end), "{label}");
    assert_eq!(got.horizon, want.horizon, "{label}");
    assert_eq!(got.vws.len(), want.vws.len(), "{label}");
    for (a, b) in got.vws.iter().zip(&want.vws) {
        assert_eq!(a.completions, b.completions, "{label}");
        assert_eq!(a.wait_windows, b.wait_windows, "{label}");
        assert_eq!(a.inject_blocked, b.inject_blocked, "{label}");
        assert_eq!(a.waves_pushed, b.waves_pushed, "{label}");
        assert_eq!(a.pull_wait, b.pull_wait, "{label}");
    }
    assert_eq!(got.pool.len(), want.pool.len(), "{label}");
    let pools = got.pool.iter().zip(want.pool.iter());
    for (((_, a), (_, b)), name) in pools.zip(got.resource_names()) {
        assert_eq!(a.busy_time(), b.busy_time(), "{label}: {name} busy");
        assert_eq!(a.reservations(), b.reservations(), "{label}: {name}");
        assert_eq!(a.free_at(), b.free_at(), "{label}: {name} free_at");
    }
    let bytes = |s: &RunStats| {
        [
            s.sync_bytes_inter,
            s.sync_bytes_intra,
            s.act_bytes_inter,
            s.act_bytes_intra,
        ]
    };
    assert_eq!(bytes(got), bytes(want), "{label}: byte counters");
    assert_eq!(got.peaks, want.peaks, "{label}: peaks");
    assert_eq!(
        (&got.gpu_resources, &got.nic_resources),
        (&want.gpu_resources, &want.nic_resources),
        "{label}"
    );
    assert_eq!(
        (&got.planned_fwd, &got.planned_bwd),
        (&want.planned_fwd, &want.planned_bwd),
        "{label}"
    );
}

/// One executor run: `schedule` over one VW per device group, its GPUs
/// repeated round-robin over virtual stages.
struct Run {
    cluster: Cluster,
    groups: Vec<Vec<DeviceId>>,
    nm: usize,
    d: usize,
    placement: Placement,
    schedule: Schedule,
    recompute: RecomputePolicy,
    secs: f64,
}

impl Run {
    /// A fast VW and a slow one on the paper testbed, so the fast one
    /// waits at its pull gates.
    fn hetero(schedule: Schedule, recompute: RecomputePolicy) -> Run {
        Run {
            cluster: Cluster::paper_testbed(),
            groups: vec![
                (0..4).map(DeviceId).collect(),
                (12..16).map(DeviceId).collect(),
            ],
            nm: 4,
            d: 0,
            placement: Placement::Default,
            schedule,
            recompute,
            secs: 8.0,
        }
    }

    /// Runs the configuration with a kept trace and checks the
    /// kept-trace report (at several warm-ups, including one past the
    /// horizon) and the audit against the naive references; then runs
    /// it again keeping no trace and checks the in-run report and
    /// audit against the same references. Returns the kept-trace run
    /// and its report from warm-up 0.
    fn check(&self, label: &str, opts: SegmentOpts) -> (RunStats, SystemReport) {
        let graph = hetpipe::model::vgg19(32);
        let cluster = &self.cluster;
        let mut planner = Planner::new(cluster, &graph, self.schedule, self.recompute);
        let vws: Vec<VirtualWorker> = (self.groups.iter().enumerate())
            .map(|(index, group)| planner.worker(index, group, self.nm))
            .map(|vw| vw.unwrap_or_else(|| panic!("{label}: infeasible")))
            .collect();
        let shards = ShardMap::build(self.placement, &graph, cluster, &vws[0]);
        let params = ExecParams {
            cluster,
            graph: &graph,
            vws: &vws,
            wsp: WspParams::new(self.nm, self.d),
            shards: &shards,
            sync_transfers: true,
            schedule: self.schedule,
            recompute: self.recompute,
        };
        let horizon = SimTime::from_secs(self.secs);
        let (mut kept, trace, _) =
            exec::run_into(params.clone(), opts.clone(), horizon, Trace::new(), None);
        kept.trace = trace;
        assert!(
            kept.trace.len() > 100,
            "{label}: trivial trace proves nothing ({} spans)",
            kept.trace.len()
        );

        let devices: Vec<Vec<DeviceId>> = vws.iter().map(|v| v.devices.clone()).collect();
        for fraction in [0.0, 0.15, 0.5, 2.0] {
            let warmup = SimTime::from_secs(self.secs * fraction);
            let got = SystemReport::from_stats(&kept, cluster, 32, warmup, &devices);
            let want = naive_report(&kept, cluster, 32, warmup, &devices);
            assert_reports_identical(&format!("{label} warmup {warmup}"), &got, &want);
        }
        let want_audit = naive_audit(&kept, &vws, &self.schedule, self.nm);
        let got = OccupancyAudit::measure(&kept, &vws, &self.schedule, self.nm);
        assert_eq!(
            got.bounds, want_audit.bounds,
            "{label}: stage and gpu peaks"
        );
        assert!(
            got.bounds
                .iter()
                .any(|b| matches!(b.entity, BoundEntity::Stage { .. }) && b.measured > Some(1)),
            "{label}: no stage ever held two activation sets"
        );

        for fraction in [0.15, 2.0] {
            let warmup = SimTime::from_secs(self.secs * fraction);
            let (untraced, _, got) =
                exec::run_into(params.clone(), opts.clone(), horizon, Discard, Some(warmup));
            let got = got.expect("a run given a warm-up folds its report");
            let label = format!("{label} in-run warmup {warmup}");
            assert!(untraced.trace.is_empty(), "{label}: kept spans");
            assert_same_run(&label, &untraced, &kept);
            let want = naive_report(&kept, cluster, 32, warmup, &devices);
            assert_reports_identical(&label, &got, &want);
            let audit = OccupancyAudit::measure(&untraced, &vws, &self.schedule, self.nm);
            assert_eq!(
                audit.bounds, want_audit.bounds,
                "{label}: stage and gpu peaks"
            );
        }

        let report = SystemReport::from_stats(&kept, cluster, 32, SimTime::ZERO, &devices);
        (kept, report)
    }

    /// [`Run::check`] for a configuration in which every VW waits at
    /// its pull gate at least once.
    fn check_waiting(&self, label: &str, opts: SegmentOpts) -> SystemReport {
        let (stats, report) = self.check(label, opts);
        assert!(
            stats.vws.iter().all(|v| !v.wait_windows.is_empty()),
            "{label}: every VW must wait at least once"
        );
        report
    }
}

/// Whether some GPU worked inside some wait window of the run.
fn busy_in_wait(report: &SystemReport) -> bool {
    report
        .idle_in_wait_per_vw
        .iter()
        .zip(&report.pull_wait_per_vw)
        .any(|(idle, wait)| idle < wait)
}

#[test]
fn golden_wave_config_matches_naive() {
    // ED-local VGG-19, Nm = 4, D = 0: the first trace pin.
    let report = Run {
        cluster: Cluster::paper_testbed(),
        groups: (0..4)
            .map(|j| (0..4).map(|n| DeviceId(n * 4 + j)).collect())
            .collect(),
        nm: 4,
        d: 0,
        placement: Placement::Local,
        schedule: Schedule::HetPipeWave,
        recompute: RecomputePolicy::None,
        secs: 15.0,
    }
    .check_waiting("ED-local wave", SegmentOpts::default());
    assert!(busy_in_wait(&report), "no GPU worked inside a wait window");
}

#[test]
fn one_f_one_b_matches_naive() {
    Run::hetero(Schedule::OneFOneB, RecomputePolicy::None)
        .check_waiting("1f1b", SegmentOpts::default());
}

#[test]
fn interleaved_with_recompute_matches_naive() {
    for composite in [false, true] {
        let schedule = Schedule::Interleaved1F1B {
            chunks: 2,
            composite,
        };
        Run::hetero(schedule, RecomputePolicy::BoundaryOnly)
            .check_waiting(&format!("{schedule} boundary-only"), SegmentOpts::default());
    }
}

#[test]
fn faulted_draining_segment_matches_naive() {
    // Drains at the second wave boundary under a 2x slowdown of the
    // first VW's second GPU one second in.
    let opts = SegmentOpts {
        stop_after_mb: Some(8),
        rate_events: vec![RateEvent {
            at: SimTime::from_secs(1.0),
            target: RateTarget::Gpu(1),
            rate: 0.5,
        }],
        ..SegmentOpts::default()
    };
    for schedule in [Schedule::HetPipeWave, Schedule::OneFOneB] {
        Run::hetero(schedule, RecomputePolicy::None)
            .check_waiting(&format!("{schedule} drain"), opts.clone());
    }
}

/// The two clusters of the seeded sample, each with two VWs of unequal
/// speed: the paper testbed with cross-node pipelines (TITAN V / TITAN
/// RTX against RTX 2060 / P4000), and a TITAN RTX node against a P4000
/// node with node-local pipelines.
fn sample_clusters() -> [(&'static str, Cluster, Vec<Vec<DeviceId>>); 2] {
    let ids = |ids: &[usize]| ids.iter().map(|&d| DeviceId(d)).collect::<Vec<_>>();
    [
        (
            "paper",
            Cluster::paper_testbed(),
            vec![ids(&[0, 4, 1, 5]), ids(&[12, 8, 13, 9])],
        ),
        (
            "rtx+p4000",
            Cluster::testbed_subset(&[GpuKind::TitanRtx, GpuKind::QuadroP4000]),
            vec![ids(&[0, 1, 2, 3]), ids(&[4, 5, 6, 7])],
        ),
    ]
}

#[test]
fn seeded_sample_matches_naive() {
    // Schedule::ALL x recompute x (Nm, D) x cluster is 60 cells; the
    // test checks a seeded draw of 24 distinct ones.
    const SAMPLE: usize = 24;
    let nm_d = [(2, 0), (4, 0), (4, 1)];
    let cells = Schedule::ALL.len() * RecomputePolicy::ALL.len() * nm_d.len() * 2;
    let mut rng = SmallRng::seed_from_u64(0x5eed_f01d);
    let mut drawn: Vec<usize> = Vec::new();
    while drawn.len() < SAMPLE {
        let cell = rng.gen_range(0..cells);
        if !drawn.contains(&cell) {
            drawn.push(cell);
        }
    }
    let mut busy_waits = 0;
    for cell in drawn {
        let schedule = Schedule::ALL[cell % Schedule::ALL.len()];
        let rest = cell / Schedule::ALL.len();
        let recompute = RecomputePolicy::ALL[rest % 2];
        let (nm, d) = nm_d[rest / 2 % nm_d.len()];
        let (name, cluster, groups) = sample_clusters()
            .into_iter()
            .nth(rest / 2 / nm_d.len())
            .expect("two clusters");
        let label = format!("{name} {schedule} {recompute} Nm={nm} D={d}");
        let run = Run {
            cluster,
            groups,
            nm,
            d,
            placement: Placement::Default,
            schedule,
            recompute,
            secs: 8.0,
        };
        busy_waits += busy_in_wait(&run.check(&label, SegmentOpts::default()).1) as usize;
    }
    assert!(
        busy_waits * 2 >= SAMPLE,
        "only {busy_waits} of {SAMPLE} runs had GPU work inside a wait window"
    );
}

#[test]
fn rate_edge_and_drained_segments_match_naive() {
    // A slowdown of the fast VW's first GPU that recovers mid-run: spans
    // straddle both rate edges.
    let rate_edges = SegmentOpts {
        rate_events: vec![
            RateEvent {
                at: SimTime::from_secs(1.0),
                target: RateTarget::Gpu(0),
                rate: 0.25,
            },
            RateEvent {
                at: SimTime::from_secs(2.5),
                target: RateTarget::Gpu(0),
                rate: 1.0,
            },
        ],
        ..SegmentOpts::default()
    };
    Run::hetero(Schedule::OneFOneB, RecomputePolicy::BoundaryOnly)
        .check_waiting("1f1b rate edges", rate_edges);
    // A GPU lost for good: the spans reserved on it end far past the
    // horizon, and arrival-FIFO keeps reserving behind them.
    let lost = SegmentOpts {
        rate_events: vec![RateEvent {
            at: SimTime::from_secs(2.0),
            target: RateTarget::Gpu(1),
            rate: 0.0,
        }],
        ..SegmentOpts::default()
    };
    Run::hetero(Schedule::HetPipeWave, RecomputePolicy::BoundaryOnly)
        .check_waiting("wave lost gpu", lost);
    // A fault-free drain at the third wave boundary: its end is the
    // latest span end, kept trace or not.
    let drain = SegmentOpts {
        stop_after_mb: Some(12),
        ..SegmentOpts::default()
    };
    let run = Run::hetero(
        Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        },
        RecomputePolicy::None,
    );
    run.check_waiting("interleaved drain", drain.clone());
    let graph = hetpipe::model::vgg19(32);
    let sys = HetPipeSystem::build(
        &run.cluster,
        &graph,
        &SystemConfig {
            policy: AllocationPolicy::Custom(run.groups.clone()),
            order_search: false,
            nm_override: Some(run.nm),
            schedule: run.schedule,
            ..SystemConfig::default()
        },
    )
    .expect("builds");
    let vws = sys.virtual_workers();
    let shards = ShardMap::build(Placement::Default, &graph, &run.cluster, &vws[0]);
    let params = ExecParams {
        cluster: &run.cluster,
        graph: &graph,
        vws,
        wsp: WspParams::new(run.nm, 0),
        shards: &shards,
        sync_transfers: true,
        schedule: run.schedule,
        recompute: run.recompute,
    };
    let horizon = SimTime::from_secs(run.secs);
    let (kept, trace, _) =
        exec::run_into(params.clone(), drain.clone(), horizon, Trace::new(), None);
    let (untraced, ..) = exec::run_into(params, drain, horizon, Discard, None);
    let last_span_end = trace.spans().iter().map(|s| s.end).max();
    assert_eq!(
        Some(kept.end),
        last_span_end,
        "the drain ends with its work"
    );
    assert!(kept.end < horizon, "the drain must end early");
    assert_same_run("interleaved drain", &untraced, &kept);
}

#[test]
fn run_with_stats_keeps_no_trace() {
    let cluster = Cluster::paper_testbed();
    let graph = hetpipe::model::vgg19(32);
    let sys = HetPipeSystem::build(&cluster, &graph, &SystemConfig::default()).expect("builds");
    let horizon = SimTime::from_secs(5.0);
    let (report, stats) = sys.run_with_stats(horizon);
    assert!(stats.trace.is_empty(), "run_with_stats kept spans");
    assert!(stats.events > 0, "the run did no work");
    let (traced_report, mut traced, trace) = sys.run_into(horizon, Trace::new());
    assert!(traced.trace.is_empty(), "run_into kept spans in its stats");
    assert!(trace.len() > 100, "trivial trace proves nothing");
    traced.trace = trace;
    assert_same_run("run_into", &stats, &traced);
    assert_reports_identical("run_into", &report, &traced_report);
    let devices: Vec<Vec<DeviceId>> = sys
        .virtual_workers()
        .iter()
        .map(|v| v.devices.clone())
        .collect();
    let warmup = report.warmup;
    let kept = SystemReport::from_stats(&traced, &cluster, graph.batch_size, warmup, &devices);
    assert_reports_identical("kept trace", &report, &kept);
    assert_eq!(stats.peaks, traced.peaks);
}

#[test]
fn overlapping_out_of_order_fixture_matches_full_scans() {
    // Overlapping spans recorded out of order on device 0, a sparse
    // resource id on device 1 (shared by both VWs), a device with no
    // spans, a zero-length span and a NIC span: the replayed report
    // must answer exactly like the full scans.
    let ns = SimTime::from_nanos;
    let fwd = |vw, stage| SpanTag::Forward { vw, stage, mb: 1 };
    let (a, b) = (ResourceId(0), ResourceId(7));
    let nic = ResourceId(9);
    let mut trace = Trace::new();
    trace.record(a, ns(20), ns(90), fwd(0, 0));
    trace.record(a, ns(0), ns(10), fwd(0, 0));
    trace.record(a, ns(5), ns(8), fwd(0, 2));
    trace.record(a, ns(50), ns(50), fwd(0, 0));
    trace.record(b, ns(40), ns(60), fwd(1, 0));
    trace.record(nic, ns(0), ns(100), fwd(0, 0));
    // Devices 0, 1, 2 on resources 0, 7, 3; the rest past the NIC.
    let gpu_resources = [0, 7, 3]
        .into_iter()
        .chain(20..33)
        .map(ResourceId)
        .collect();
    // Windows touching span edges, zero-length windows, and one
    // spanning a gap between spans.
    let vw = |wait_windows: &[(u64, u64)]| VwStats {
        completions: vec![ns(4), ns(30), ns(70)],
        waves_pushed: 2,
        pull_wait: ns(wait_windows.iter().map(|&(f, t)| t - f).sum()),
        wait_windows: wait_windows.iter().map(|&(f, t)| (ns(f), ns(t))).collect(),
        inject_blocked: SimTime::ZERO,
    };
    let mut stats = RunStats {
        horizon: SimTime::ZERO,
        peaks: Default::default(),
        vws: vec![
            vw(&[(0, 5), (5, 5), (10, 20), (25, 60), (90, 100)]),
            vw(&[(0, 40), (60, 60), (60, 95)]),
        ],
        trace: Trace::new(),
        gpu_resources,
        nic_resources: vec![nic],
        pool: ResourcePool::new(),
        sync_bytes_inter: 1,
        sync_bytes_intra: 2,
        act_bytes_inter: 3,
        act_bytes_intra: 4,
        planned_fwd: Vec::new(),
        planned_bwd: Vec::new(),
        end: SimTime::ZERO,
        events: 0,
        fast_forward: None,
    };
    let cluster = Cluster::paper_testbed();
    // VW 0 repeats device 0 like an interleaved pipeline; VW 1 shares
    // device 1 and adds the span-less device 2.
    let devices = vec![
        vec![DeviceId(0), DeviceId(1), DeviceId(0)],
        vec![DeviceId(1), DeviceId(2)],
    ];
    // An empty trace first: `run_with_stats` keeps no spans, so that
    // is what `e2e_bench`'s replay hands `from_stats`. It must read
    // zero busy time, with every wait window idle throughout.
    for trace in [Trace::new(), trace] {
        let spans = trace.len();
        stats.trace = trace;
        for horizon in [0u64, 7, 25, 60, 100] {
            stats.horizon = ns(horizon);
            for warmup in [0u64, 5, 9, 30, 95] {
                let got = SystemReport::from_stats(&stats, &cluster, 8, ns(warmup), &devices);
                let want = naive_report(&stats, &cluster, 8, ns(warmup), &devices);
                let label = format!("{spans} spans, window {warmup}..{horizon}");
                assert_reports_identical(&label, &got, &want);
            }
        }
    }
    // The windows saw real busy time: VW 0's (25, 60) holds 35 ns on
    // device 0 and 20 ns on device 1.
    let report = SystemReport::from_stats(&stats, &cluster, 8, SimTime::ZERO, &devices);
    assert!(report.idle_in_wait_per_vw[0] < report.pull_wait_per_vw[0]);
}
