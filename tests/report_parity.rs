//! Parity of the one-pass run report and occupancy audit with naive
//! references.
//!
//! `SystemReport::from_stats` folds the span trace once; the reference
//! here asks [`Trace::busy_within`] and [`Trace::utilization_within`]
//! (full-trace scans) once per (device, window) and compares every
//! `f64` field by `to_bits`. `OccupancyAudit::measure` folds the trace
//! into dense per-stage vectors; the reference is the keyed audit it
//! replaced (one `BTreeMap` entry per span per keying).
//!
//! This is a dynamically audited invariant: it holds for the runs
//! below (the golden wave config, 1F1B, depth-expanded and composite
//! interleaved with recompute, a faulted draining segment, and a
//! hand-built overlapping trace) and is evidence, not proof, for other
//! configurations.

use hetpipe::cluster::{Cluster, DeviceId};
use hetpipe::core::audit::{GpuOccupancy, StageOccupancy};
use hetpipe::core::exec::{
    self, ExecParams, RateEvent, RateTarget, RunStats, SegmentOpts, SpanTag, VwStats,
};
use hetpipe::core::pserver::{Placement, ShardMap};
use hetpipe::core::{
    OccupancyAudit, RecomputePolicy, Schedule, SystemReport, VirtualWorker, WspParams,
};
use hetpipe::des::{peak_of_events, ResourceId, ResourcePool, SimTime, Trace};
use hetpipe::partition::{PartitionProblem, PartitionSolver};
use hetpipe::schedule::PipelineSchedule;
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
    let mut stages = Vec::new();
    let mut gpus = Vec::new();
    for (vwi, vw) in vws.iter().enumerate() {
        let k = vw.stages();
        let physical = k / colocated;
        for stage in 0..k {
            stages.push(StageOccupancy {
                vw: vwi,
                stage,
                measured: peak(&mut stage_evs, (vwi, stage)),
                declared: schedule.max_in_flight(stage, k, nm) as i64,
            });
        }
        for gpu in 0..physical {
            gpus.push(GpuOccupancy {
                vw: vwi,
                gpu,
                measured: peak(&mut gpu_evs, (vwi, gpu)),
                declared: (0..k)
                    .filter(|s| s % physical == gpu)
                    .map(|s| schedule.max_in_flight(s, k, nm) as i64)
                    .sum(),
            });
        }
    }
    OccupancyAudit { stages, gpus }
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

/// One executor run on the paper testbed: `schedule` over one VW per
/// device group, its GPUs repeated round-robin over virtual stages.
struct Run {
    groups: Vec<Vec<DeviceId>>,
    nm: usize,
    placement: Placement,
    schedule: Schedule,
    recompute: RecomputePolicy,
    secs: f64,
}

impl Run {
    fn hetero(schedule: Schedule, recompute: RecomputePolicy) -> Run {
        Run {
            groups: vec![
                (0..4).map(DeviceId).collect(),
                (12..16).map(DeviceId).collect(),
            ],
            nm: 4,
            placement: Placement::Default,
            schedule,
            recompute,
            secs: 8.0,
        }
    }

    /// Runs the configuration and checks the report (at several
    /// warm-ups, including one past the horizon) and the audit
    /// against the naive references.
    fn check(&self, label: &str, opts: Option<SegmentOpts>) {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe::model::vgg19(32);
        let vws: Vec<VirtualWorker> = self
            .groups
            .iter()
            .enumerate()
            .map(|(index, group)| {
                let k = self.schedule.virtual_stages(group.len());
                let devices: Vec<DeviceId> = (0..k).map(|s| group[s % group.len()]).collect();
                let gpus = devices.iter().map(|&d| cluster.spec_of(d)).collect();
                let links = VirtualWorker::links(&cluster, &devices);
                let problem =
                    PartitionProblem::with_schedule(&graph, gpus, links, self.nm, self.schedule)
                        .with_recompute(self.recompute);
                let plan = PartitionSolver::solve(&problem).expect("feasible");
                VirtualWorker {
                    index,
                    devices,
                    plan,
                    nm: self.nm,
                }
            })
            .collect();
        let shards = ShardMap::build(self.placement, &graph, &cluster, &vws[0]);
        let params = ExecParams {
            cluster: &cluster,
            graph: &graph,
            vws: &vws,
            wsp: WspParams::new(self.nm, 0),
            shards: &shards,
            sync_transfers: true,
            schedule: self.schedule,
            recompute: self.recompute,
        };
        let horizon = SimTime::from_secs(self.secs);
        let stats = match opts {
            None => exec::run(params, horizon),
            Some(opts) => exec::run_segment(params, opts, horizon),
        };
        assert!(
            stats.vws.iter().all(|v| !v.wait_windows.is_empty()),
            "{label}: every VW must wait at least once"
        );

        let devices: Vec<Vec<DeviceId>> = vws.iter().map(|v| v.devices.clone()).collect();
        for fraction in [0.0, 0.15, 0.5, 2.0] {
            let warmup = SimTime::from_secs(self.secs * fraction);
            let got = SystemReport::from_stats(&stats, &cluster, 32, warmup, &devices);
            let want = naive_report(&stats, &cluster, 32, warmup, &devices);
            assert_reports_identical(&format!("{label} warmup {warmup}"), &got, &want);
        }
        let got = OccupancyAudit::measure(&stats, &vws, &self.schedule, self.nm);
        let want = naive_audit(&stats, &vws, &self.schedule, self.nm);
        assert_eq!(got.stages, want.stages, "{label}: stage peaks");
        assert_eq!(got.gpus, want.gpus, "{label}: gpu peaks");
        assert!(
            got.stages.iter().any(|s| s.measured > 1),
            "{label}: no stage ever held two activation sets"
        );
    }
}

#[test]
fn golden_wave_config_matches_naive() {
    // ED-local VGG-19, Nm = 4, D = 0: the first trace pin.
    Run {
        groups: (0..4)
            .map(|j| (0..4).map(|n| DeviceId(n * 4 + j)).collect())
            .collect(),
        nm: 4,
        placement: Placement::Local,
        schedule: Schedule::HetPipeWave,
        recompute: RecomputePolicy::None,
        secs: 15.0,
    }
    .check("ED-local wave", None);
}

#[test]
fn one_f_one_b_matches_naive() {
    Run::hetero(Schedule::OneFOneB, RecomputePolicy::None).check("1f1b", None);
}

#[test]
fn interleaved_with_recompute_matches_naive() {
    for composite in [false, true] {
        let schedule = Schedule::Interleaved1F1B {
            chunks: 2,
            composite,
        };
        Run::hetero(schedule, RecomputePolicy::BoundaryOnly)
            .check(&format!("{schedule} boundary-only"), None);
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
            .check(&format!("{schedule} drain"), Some(opts.clone()));
    }
}

#[test]
fn overlapping_out_of_order_fixture_matches_full_scans() {
    // Overlapping spans recorded out of order on device 0, a sparse
    // resource id on device 1 (shared by both VWs), a device with no
    // spans, a zero-length span and a NIC span: the one-pass report
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
        vws: vec![
            vw(&[(0, 5), (5, 5), (10, 20), (25, 60), (90, 100)]),
            vw(&[(0, 40), (60, 60), (60, 95)]),
        ],
        trace,
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
    };
    let cluster = Cluster::paper_testbed();
    // VW 0 repeats device 0 like an interleaved pipeline; VW 1 shares
    // device 1 and adds the span-less device 2.
    let devices = vec![
        vec![DeviceId(0), DeviceId(1), DeviceId(0)],
        vec![DeviceId(1), DeviceId(2)],
    ];
    for horizon in [0u64, 7, 25, 60, 100] {
        stats.horizon = ns(horizon);
        for warmup in [0u64, 5, 9, 30, 95] {
            let got = SystemReport::from_stats(&stats, &cluster, 8, ns(warmup), &devices);
            let want = naive_report(&stats, &cluster, 8, ns(warmup), &devices);
            assert_reports_identical(&format!("window {warmup}..{horizon}"), &got, &want);
        }
    }
    // The windows saw real busy time: VW 0's (25, 60) holds 35 ns on
    // device 0 and 20 ns on device 1.
    let report = SystemReport::from_stats(&stats, &cluster, 8, SimTime::ZERO, &devices);
    assert!(report.idle_in_wait_per_vw[0] < report.pull_wait_per_vw[0]);
}
