//! Fast-forward on/off equality.
//!
//! A run whose sink keeps no spans (`exec::run_into` with `Discard`)
//! fast-forwards through its steady state; a run that keeps every span
//! (`Trace`) simulates each event. Both must produce the same
//! `SystemReport`, the same `RunStats` apart from the trace and the
//! fast-forward record, and the same `OccupancyAudit`, bit for bit
//! (compared through their `Debug` forms, which print every `f64`
//! exactly).
//!
//! Covered: every pinned wave-schedule configuration of
//! `tests/trace_pins.rs`, the standing matrix (`Schedule::ALL` ×
//! depths {3, 4} × (Nm, D) ∈ {(2, 0), (4, 0), (4, 1)}), rate-edge
//! scripts, drained segments and the pinned segments, all at 600 s
//! horizons, long enough to engage, and warm-up fractions {0, 0.15,
//! 0.5, 2.0}; and a 64-cell fleet's expanded topology, the run
//! `hetpipe_fleet::run_fleet` makes. The paper-ed configuration's
//! period and simulated events are pinned too; an empty fast-forward
//! store runs the standing matrix in `exec::fastforward::tests`.
//!
//! This is a dynamically audited invariant: evidence for the runs
//! below, not a proof for other configurations.

use hetpipe::cluster::{Cluster, DeviceId, GpuKind, Node};
use hetpipe::core::exec::{self, ExecParams, RateEvent, RateTarget, RunStats, SegmentOpts};
use hetpipe::core::pserver::{Placement, ShardMap};
use hetpipe::core::{
    AllocationPolicy, HetPipeSystem, OccupancyAudit, Planner, RecomputePolicy, Schedule,
    SystemConfig, SystemReport, VirtualWorker, WspParams,
};
use hetpipe::des::{Discard, SimTime, Trace};
use hetpipe::fleet::FleetTopology;
use hetpipe::model::ModelGraph;
use hetpipe::schedule::{Dispatch, PipelineSchedule};

const WARMUPS: [f64; 4] = [0.0, 0.15, 0.5, 2.0];

/// Long enough for every run below to reach its steady state.
const HORIZON_SECS: f64 = 600.0;

/// One executor configuration on the paper testbed.
struct Run {
    graph: ModelGraph,
    groups: Vec<Vec<DeviceId>>,
    wsp: WspParams,
    placement: Placement,
    sync_transfers: bool,
    schedule: Schedule,
    recompute: RecomputePolicy,
    opts: SegmentOpts,
}

impl Run {
    fn wave(groups: Vec<Vec<DeviceId>>, nm: usize, d: usize, placement: Placement) -> Run {
        Run {
            graph: hetpipe::model::vgg19(32),
            groups,
            wsp: WspParams::new(nm, d),
            placement,
            sync_transfers: true,
            schedule: Schedule::HetPipeWave,
            recompute: RecomputePolicy::None,
            opts: SegmentOpts::default(),
        }
    }

    /// [`check`]s the configuration on the paper testbed at
    /// [`HORIZON_SECS`].
    fn check(&self, label: &str, warmups: &[f64]) -> Vec<RunStats> {
        let cluster = Cluster::paper_testbed();
        let nm = self.wsp.nm;
        let mut planner = Planner::new(&cluster, &self.graph, self.schedule, self.recompute);
        let vws: Vec<VirtualWorker> = (self.groups.iter().enumerate())
            .map(|(index, group)| planner.worker(index, group, nm).expect("feasible"))
            .collect();
        let shards = ShardMap::build(self.placement, &self.graph, &cluster, &vws[0]);
        let params = ExecParams {
            cluster: &cluster,
            graph: &self.graph,
            vws: &vws,
            wsp: self.wsp,
            shards: &shards,
            sync_transfers: self.sync_transfers,
            schedule: self.schedule,
            recompute: self.recompute,
        };
        check(label, params, &self.opts, HORIZON_SECS, warmups)
    }
}

/// Runs `params` to `horizon_secs` with fast-forward on (no span kept)
/// and off (every span kept) at each warm-up fraction, and requires
/// bit-identical results. Returns the fast-forwarded runs' stats.
fn check(
    label: &str,
    params: ExecParams<'_>,
    opts: &SegmentOpts,
    horizon_secs: f64,
    warmups: &[f64],
) -> Vec<RunStats> {
    let (cluster, vws, schedule, nm) = (params.cluster, params.vws, params.schedule, params.wsp.nm);
    let horizon = SimTime::from_secs(horizon_secs);
    let devices: Vec<Vec<DeviceId>> = vws.iter().map(|v| v.devices.clone()).collect();
    let (mut traced, trace, _) =
        exec::run_into(params.clone(), opts.clone(), horizon, Trace::new(), None);
    assert!(trace.len() > 100, "{label}: trivial trace");
    traced.trace = trace;
    assert_eq!(
        traced.fast_forward, None,
        "{label}: a kept trace never skips"
    );
    let want_audit = audit(&traced, vws, schedule, nm);
    let mut fast = Vec::new();
    for &fraction in warmups {
        let warmup = SimTime::from_secs(horizon_secs * fraction);
        let label = format!("{label} warm-up {fraction}");
        let want_report =
            SystemReport::from_stats(&traced, cluster, params.graph.batch_size, warmup, &devices);
        let (stats, _, report) =
            exec::run_into(params.clone(), opts.clone(), horizon, Discard, Some(warmup));
        assert_eq!(
            format!(
                "{:?}",
                report.expect("a run given a warm-up folds its report")
            ),
            format!("{want_report:?}"),
            "{label}: report"
        );
        assert_eq!(stripped(&stats), stripped(&traced), "{label}: run stats");
        assert_eq!(
            audit(&stats, vws, schedule, nm),
            want_audit,
            "{label}: audit"
        );
        fast.push(stats);
    }
    fast
}

/// `stats` without its trace and fast-forward record, as `Debug` text.
fn stripped(stats: &RunStats) -> String {
    let mut s = stats.clone();
    s.trace = Trace::new();
    s.fast_forward = None;
    format!("{s:?}")
}

fn audit(stats: &RunStats, vws: &[VirtualWorker], schedule: Schedule, nm: usize) -> String {
    format!("{:?}", OccupancyAudit::measure(stats, vws, &schedule, nm))
}

/// Events a fast-forwarded run skipped.
fn skipped(stats: &RunStats) -> u64 {
    stats
        .fast_forward
        .map_or(0, |ff| stats.events - ff.events_simulated)
}

fn ed_groups() -> Vec<Vec<DeviceId>> {
    (0..4)
        .map(|j| (0..4).map(|n| DeviceId(n * 4 + j)).collect())
        .collect()
}

fn np_groups() -> Vec<Vec<DeviceId>> {
    (0..4)
        .map(|n| (0..4).map(|j| DeviceId(n * 4 + j)).collect())
        .collect()
}

/// A 2× slowdown of device 4 over `[200 s, 260 s)`, then a loss of
/// device 1 over `[400 s, 430 s)`: fast-forward must stop short of each
/// edge and re-engage past it.
fn rate_edges() -> Vec<RateEvent> {
    let at = SimTime::from_secs;
    vec![
        RateEvent {
            at: at(200.0),
            target: RateTarget::Gpu(4),
            rate: 0.5,
        },
        RateEvent {
            at: at(260.0),
            target: RateTarget::Gpu(4),
            rate: 1.0,
        },
        RateEvent {
            at: at(400.0),
            target: RateTarget::Gpu(1),
            rate: 0.0,
        },
        RateEvent {
            at: at(430.0),
            target: RateTarget::Gpu(1),
            rate: 1.0,
        },
    ]
}

#[test]
fn pinned_wave_configs_match_with_fast_forward() {
    let single = vec![vec![DeviceId(0)], vec![DeviceId(12)]];
    let runs = [
        (
            "ED-local VGG-19 Nm=4 D=0",
            Run::wave(ed_groups(), 4, 0, Placement::Local),
        ),
        (
            "NP-default VGG-19 Nm=2 D=2",
            Run::wave(np_groups(), 2, 2, Placement::Default),
        ),
        (
            "NP-default ResNet-152 Nm=2 D=0",
            Run {
                graph: hetpipe::model::resnet152(32),
                ..Run::wave(np_groups(), 2, 0, Placement::Default)
            },
        ),
        (
            "standalone VVVV VGG-19 Nm=4",
            Run {
                sync_transfers: false,
                ..Run::wave(
                    vec![(0..4).map(DeviceId).collect()],
                    4,
                    0,
                    Placement::Default,
                )
            },
        ),
        (
            "two single-GPU VWs Nm=1",
            Run::wave(single, 1, 0, Placement::Default),
        ),
    ];
    for (label, run) in runs {
        let fast = run.check(label, &WARMUPS);
        assert!(
            fast.iter().all(|s| skipped(s) > s.events / 2),
            "{label}: fast-forward skipped too little: {:?}",
            fast.iter().map(|s| s.fast_forward).collect::<Vec<_>>()
        );
    }
}

/// The standing matrix: every schedule × depths {3, 4} × (Nm, D) ∈
/// {(2, 0), (4, 0), (4, 1)} on two VWs of different stage orders, one
/// warm-up fraction per cell in turn (all four on the wave schedule).
/// Every run must skip periods, so none passes vacuously.
#[test]
fn standing_matrix_matches_with_fast_forward() {
    let mut cell = 0;
    for schedule in Schedule::ALL {
        for k in [3usize, 4] {
            for (nm, d) in [(2, 0), (4, 0), (4, 1)] {
                for recompute in RecomputePolicy::ALL {
                    let groups = vec![
                        (0..k).map(|n| DeviceId(n * 4 + 1)).collect(),
                        (0..k).rev().map(|n| DeviceId(n * 4 + 2)).collect(),
                    ];
                    let run = Run {
                        schedule,
                        recompute,
                        ..Run::wave(groups, nm, d, Placement::Default)
                    };
                    let label = format!("{schedule} {recompute} k={k} Nm={nm} D={d}");
                    let warmups = if schedule.dispatch() == Dispatch::ArrivalFifo {
                        &WARMUPS[..]
                    } else {
                        &WARMUPS[cell % 4..cell % 4 + 1]
                    };
                    cell += 1;
                    for stats in run.check(&label, warmups) {
                        assert!(skipped(&stats) > 0, "{label}: no period skipped");
                    }
                }
            }
        }
    }
}

#[test]
fn rate_edges_and_drains_match_with_fast_forward() {
    let edges = Run {
        opts: SegmentOpts {
            rate_events: rate_edges(),
            ..SegmentOpts::default()
        },
        ..Run::wave(ed_groups(), 4, 0, Placement::Local)
    };
    let fast = edges.check("ED-local with rate edges", &WARMUPS);
    assert!(
        fast.iter().all(|s| skipped(s) > 0),
        "no leg between the edges"
    );
    // A slowdown that never recovers: the run may not skip past it.
    let stuck = Run {
        opts: SegmentOpts {
            rate_events: rate_edges()[..1].to_vec(),
            initial_rates: vec![(RateTarget::Nic(3), 0.75)],
            ..SegmentOpts::default()
        },
        ..Run::wave(np_groups(), 2, 2, Placement::Default)
    };
    stuck.check("NP-default with lasting slowdowns", &WARMUPS[1..2]);
    // Drains stop short of their stop point.
    for stop in [400, 2000, 1_000_000] {
        let drain = Run {
            opts: SegmentOpts {
                stop_after_mb: Some(stop),
                ..SegmentOpts::default()
            },
            ..Run::wave(ed_groups(), 4, 0, Placement::Local)
        };
        drain.check(&format!("ED-local draining at mb {stop}"), &WARMUPS[1..3]);
    }
    // Every schedule's pinned drain at mb 8 under a slowdown, and its
    // strict-order run under the recovering rate edges, which must
    // fast-forward between and past them.
    for schedule in Schedule::ALL {
        let drain = SegmentOpts {
            stop_after_mb: Some(8),
            rate_events: vec![RateEvent {
                at: SimTime::from_secs(1.0),
                target: RateTarget::Gpu(1),
                rate: 0.5,
            }],
            ..SegmentOpts::default()
        };
        let strict = SegmentOpts {
            rate_events: rate_edges(),
            ..SegmentOpts::default()
        };
        for (kind, opts) in [("drain", drain), ("strict", strict)] {
            let run = Run {
                groups: vec![
                    (0..4).map(DeviceId).collect(),
                    (12..16).map(DeviceId).collect(),
                ],
                schedule,
                opts,
                ..Run::wave(Vec::new(), 4, 0, Placement::Default)
            };
            let label = format!("{schedule} {kind} segment");
            for stats in run.check(&label, &WARMUPS[..1]) {
                assert!(
                    kind == "drain" || skipped(&stats) > 0,
                    "{label}: no period skipped"
                );
            }
        }
    }
}

/// paper-ed, `e2e_bench`'s long-horizon workload: the state recurs with
/// a 40-wave period, and nearly every event is extrapolated. The
/// simulated events are pinned: 35,045 of 2,252,645.
#[test]
fn paper_ed_fast_forwards_its_steady_state() {
    let cluster = Cluster::paper_testbed();
    let graph = hetpipe::model::vgg19(32);
    let config = SystemConfig {
        policy: AllocationPolicy::EqualDistribution,
        placement: Placement::Local,
        schedule: Schedule::HetPipeWave,
        recompute: RecomputePolicy::None,
        ..SystemConfig::default()
    };
    let sys = HetPipeSystem::build(&cluster, &graph, &config).expect("paper-ed builds");
    let (_, stats) = sys.run_with_stats(SimTime::from_secs(10_000.0));
    let ff = stats.fast_forward.expect("paper-ed fast-forwards");
    assert_eq!(ff.period, SimTime::from_nanos(44_747_841_527), "{ff:?}");
    assert_eq!(ff.period_waves, 40, "{ff:?}");
    // One period to confirm before the warm-up and one after it; each
    // confirms at the state's first recurrence.
    assert_eq!(ff.events_simulated, 35_045, "{ff:?}");
    assert!(
        skipped(&stats) * 10 >= stats.events * 9,
        "only {} of {} events extrapolated",
        skipped(&stats),
        stats.events
    );
}

/// A 64-cell fleet (`hetpipe_fleet::run_fleet`'s expanded topology):
/// two-node RTX 2060 cells running ResNet-50 at `Nm = 4`, `D = 0`,
/// with VW-local shards. Every VW completes a wave each 0.76 s, so a
/// 30 s horizon leaves dozens of periods to skip.
#[test]
fn fleet_expanded_topology_matches_with_fast_forward() {
    let graph = hetpipe::model::resnet50(32);
    let mut cell = Cluster::new();
    for _ in 0..2 {
        cell.add_node(Node::new(GpuKind::Rtx2060, 1));
    }
    let devices: Vec<DeviceId> = cell.devices().collect();
    let vw = Planner::new(&cell, &graph, Schedule::HetPipeWave, RecomputePolicy::None)
        .worker(0, &devices, 4)
        .expect("feasible cell");
    let (cluster, vws) = FleetTopology::new(cell, vw, 64).expanded();
    let shards = ShardMap::build_vw_local(&graph);
    let params = ExecParams {
        cluster: &cluster,
        graph: &graph,
        vws: &vws,
        wsp: WspParams::new(4, 0),
        shards: &shards,
        sync_transfers: true,
        schedule: Schedule::HetPipeWave,
        recompute: RecomputePolicy::None,
    };
    let label = "64-cell fleet";
    for stats in check(label, params, &SegmentOpts::default(), 30.0, &WARMUPS[..3]) {
        assert!(skipped(&stats) > 0, "{label}: no period skipped");
    }
}
