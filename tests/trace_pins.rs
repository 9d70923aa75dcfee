//! Trace pins: committed digests of whole executor runs.
//!
//! Each pinned configuration runs the executor and reduces everything
//! the run reports to one FNV-1a digest: the ordered span trace (one
//! `Debug` line per span), every VW's completions, pushed waves, pull
//! waits, wait windows and blocked-injection time, the four traffic
//! byte counters, the end instant and event count, and every
//! resource's busy time and reservation count. A refactor of the
//! executor must leave every pin unchanged; update a constant only for
//! a deliberate change of simulated behaviour.
//!
//! Pinned configurations:
//!
//! - the paper's wave schedule on five paper-testbed configurations
//!   (ED and NP allocations, staleness, ResNet-152, a standalone VW
//!   without sync transfers, single-GPU VWs) plus the ED-local VGG-19
//!   run `planner_parity` checks;
//! - every stream-order schedule (fill-drain, 1F1B, depth-expanded
//!   and composite interleaved) × recompute {none, boundary-only} ×
//!   (Nm, D) ∈ {(4, 0), (2, 1)} on two heterogeneous VWs;
//! - per schedule, one segment that drains at the second wave boundary
//!   under a GPU slowdown, and one that runs with a reorder window of 4
//!   under the same slowdown.
//!
//! On a mismatch the failure lists the moved pins in [`PINS`] form.

use hetpipe::cluster::{Cluster, DeviceId};
use hetpipe::core::exec::{self, ExecParams, RateEvent, RateTarget, RunStats, SegmentOpts};
use hetpipe::core::pserver::{Placement, ShardMap};
use hetpipe::core::{Fnv, RecomputePolicy, Schedule, VirtualWorker, WspParams};
use hetpipe::des::SimTime;
use hetpipe::model::ModelGraph;
use hetpipe::partition::{PartitionProblem, PartitionSolver};
use hetpipe::schedule::PipelineSchedule;

/// Byte-wise FNV-1a fed field by field, little-endian.
trait Fields {
    fn u64(&mut self, v: u64);
    fn time(&mut self, t: SimTime);
}

impl Fields for Fnv {
    fn u64(&mut self, v: u64) {
        self.mix_bytes(&v.to_le_bytes());
    }

    fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }
}

/// The digest of everything a run reports (see the module docs).
fn digest(stats: &RunStats) -> u64 {
    let mut h = Fnv::default();
    h.u64(stats.trace.len() as u64);
    for span in stats.trace.spans() {
        h.mix_bytes(format!("{span:?}\n").as_bytes());
    }
    h.u64(stats.vws.len() as u64);
    for vw in &stats.vws {
        h.u64(vw.completions.len() as u64);
        for &t in &vw.completions {
            h.time(t);
        }
        h.u64(vw.waves_pushed);
        h.time(vw.pull_wait);
        h.u64(vw.wait_windows.len() as u64);
        for &(from, to) in &vw.wait_windows {
            h.time(from);
            h.time(to);
        }
        h.time(vw.inject_blocked);
    }
    for bytes in [
        stats.sync_bytes_inter,
        stats.sync_bytes_intra,
        stats.act_bytes_inter,
        stats.act_bytes_intra,
    ] {
        h.u64(bytes);
    }
    h.time(stats.end);
    h.u64(stats.events);
    h.u64(stats.pool.len() as u64);
    for (_, resource) in stats.pool.iter() {
        h.time(resource.busy_time());
        h.u64(resource.reservations());
    }
    h.0
}

/// Every pinned run: label, span count, digest.
#[rustfmt::skip]
const PINS: &[(&str, usize, u64)] = &[
    ("ED-local VGG-19 Nm=4 D=0",                                 3887, 0x8907dd28c473cd45),
    ("NP-default VGG-19 Nm=2 D=2",                               3985, 0xe0ed2ca40874cdc7),
    ("NP-default ResNet-152 Nm=2 D=0",                           3376, 0x47567dff73ab0cfd),
    ("standalone VVVV VGG-19 Nm=4",                              627,  0x86fb1e0d8282ff60),
    ("two single-GPU VWs Nm=1",                                  274,  0x2f4dd4d44aa67a39),
    ("ED-local VGG-19 Nm=4 D=0 10s",                             2613, 0x6e4f3c74c8e3f6fd),
    ("fill-drain none Nm=4 D=0",                                 726,  0x0fb33f8b2620c6d2),
    ("fill-drain none Nm=2 D=1",                                 798,  0xaa1607b162975d73),
    ("fill-drain boundary-only Nm=4 D=0",                        690,  0x107d3e915ee76a69),
    ("fill-drain boundary-only Nm=2 D=1",                        693,  0x2bc3f74de2c42ef6),
    ("fill-drain drain at mb 8 with slowdown",                   272,  0xcd99aa1ddbb62f8a),
    ("fill-drain reorder window 4 with slowdown",                690,  0x6a235b132465be59),
    ("1f1b none Nm=4 D=0",                                       923,  0x6f3435707d3b64ea),
    ("1f1b none Nm=2 D=1",                                       678,  0x29685b29bec43085),
    ("1f1b boundary-only Nm=4 D=0",                              917,  0xd4009e289f3b6a07),
    ("1f1b boundary-only Nm=2 D=1",                              596,  0x612ef70445b92100),
    ("1f1b drain at mb 8 with slowdown",                         272,  0xd37d669b79e8e245),
    ("1f1b reorder window 4 with slowdown",                      917,  0x2da9b946a18cb41a),
    ("interleaved-1f1b-depth:2 none Nm=4 D=0",                   630,  0x90499a4e7a56cec6),
    ("interleaved-1f1b-depth:2 none Nm=2 D=1",                   703,  0x607c8255cd23e6f2),
    ("interleaved-1f1b-depth:2 boundary-only Nm=4 D=0",          631,  0x2304bdc8d26240f9),
    ("interleaved-1f1b-depth:2 boundary-only Nm=2 D=1",          625,  0xce707e5a642e1e80),
    ("interleaved-1f1b-depth:2 drain at mb 8 with slowdown",     440,  0x03ec464fa37b1e34),
    ("interleaved-1f1b-depth:2 reorder window 4 with slowdown",  629,  0x3a4c8e235a3520d6),
    ("interleaved-1f1b:2 none Nm=4 D=0",                         1230, 0x9e7a1e468ca24776),
    ("interleaved-1f1b:2 none Nm=2 D=1",                         1184, 0xd0a05d1cb0a07131),
    ("interleaved-1f1b:2 boundary-only Nm=4 D=0",                975,  0xcb43e09f026c66e4),
    ("interleaved-1f1b:2 boundary-only Nm=2 D=1",                972,  0x6224c3ac27f0c9aa),
    ("interleaved-1f1b:2 drain at mb 8 with slowdown",           440,  0xf8498c24a9c55361),
    ("interleaved-1f1b:2 reorder window 4 with slowdown",        976,  0xab65536a822c89d6),
    ("hetpipe-wave drain at mb 8 with slowdown",                 256,  0x5e56a1a509015127),
    ("hetpipe-wave reorder window 4 with slowdown",              815,  0x4f2d394acc080484),
];

/// Asserts every labelled run matches its entry in [`PINS`], listing
/// all moved pins at once.
fn assert_pins(runs: Vec<(String, RunStats)>) {
    let mut moved = Vec::new();
    for (label, stats) in &runs {
        assert!(
            stats.trace.len() > 100,
            "{label}: trivial trace ({} spans) pins nothing",
            stats.trace.len()
        );
        let got = (label.as_str(), stats.trace.len(), digest(stats));
        if !PINS.contains(&got) {
            moved.push(format!("(\"{label}\", {}, {:#018x}),", got.1, got.2));
        }
    }
    assert!(moved.is_empty(), "pins moved:\n{}", moved.join("\n"));
}

/// One executor run on the paper testbed: `schedule` over one VW per
/// device group (interleaved schedules repeat the group's GPUs
/// round-robin over their virtual stages).
struct Run {
    graph: ModelGraph,
    groups: Vec<Vec<DeviceId>>,
    wsp: WspParams,
    placement: Placement,
    sync_transfers: bool,
    schedule: Schedule,
    recompute: RecomputePolicy,
    secs: f64,
}

impl Run {
    /// [`exec::run`] without options, [`exec::run_segment`] with them.
    fn exec(&self, opts: Option<SegmentOpts>) -> RunStats {
        let cluster = Cluster::paper_testbed();
        let nm = self.wsp.nm;
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
                    PartitionProblem::with_schedule(&self.graph, gpus, links, nm, self.schedule)
                        .with_recompute(self.recompute);
                let plan = PartitionSolver::solve(&problem).expect("feasible");
                VirtualWorker {
                    index,
                    devices,
                    plan,
                    nm,
                }
            })
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
        let horizon = SimTime::from_secs(self.secs);
        match opts {
            None => exec::run(params, horizon),
            Some(opts) => exec::run_segment(params, opts, horizon),
        }
    }
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

/// A 15-second wave-schedule VGG-19 run with sync transfers: the
/// shape of the original golden configurations.
fn wave(groups: Vec<Vec<DeviceId>>, nm: usize, d: usize, placement: Placement) -> Run {
    Run {
        graph: hetpipe::model::vgg19(32),
        groups,
        wsp: WspParams::new(nm, d),
        placement,
        sync_transfers: true,
        schedule: Schedule::HetPipeWave,
        recompute: RecomputePolicy::None,
        secs: 15.0,
    }
}

/// Pins one plain run under `label`.
fn pin(label: &str, run: Run) {
    assert_pins(vec![(label.to_string(), run.exec(None))]);
}

#[test]
fn golden_ed_local_vgg() {
    pin(
        "ED-local VGG-19 Nm=4 D=0",
        wave(ed_groups(), 4, 0, Placement::Local),
    );
}

#[test]
fn golden_np_default_vgg_with_staleness() {
    pin(
        "NP-default VGG-19 Nm=2 D=2",
        wave(np_groups(), 2, 2, Placement::Default),
    );
}

#[test]
fn golden_np_resnet() {
    let run = Run {
        graph: hetpipe::model::resnet152(32),
        ..wave(np_groups(), 2, 0, Placement::Default)
    };
    pin("NP-default ResNet-152 Nm=2 D=0", run);
}

#[test]
fn golden_standalone_vw_no_sync_transfers() {
    // The Figure-3 measurement mode (sync transfers free).
    let run = Run {
        sync_transfers: false,
        secs: 10.0,
        ..wave(
            vec![(0..4).map(DeviceId).collect()],
            4,
            0,
            Placement::Default,
        )
    };
    pin("standalone VVVV VGG-19 Nm=4", run);
}

#[test]
fn golden_single_gpu_vws() {
    let groups = vec![vec![DeviceId(0)], vec![DeviceId(12)]];
    let run = Run {
        secs: 10.0,
        ..wave(groups, 1, 0, Placement::Default)
    };
    pin("two single-GPU VWs Nm=1", run);
}

#[test]
fn planner_parity_wave_config() {
    // The configuration `planner_parity` simulates from optimized and
    // reference plans.
    let run = Run {
        secs: 10.0,
        ..wave(ed_groups(), 4, 0, Placement::Local)
    };
    pin("ED-local VGG-19 Nm=4 D=0 10s", run);
}

/// An 8-second VGG-19 run of `schedule` on two heterogeneous VWs
/// (VVVV and QQQQ) with default shard placement.
fn hetero(schedule: Schedule, nm: usize, d: usize, recompute: RecomputePolicy) -> Run {
    Run {
        groups: vec![
            (0..4).map(DeviceId).collect(),
            (12..16).map(DeviceId).collect(),
        ],
        schedule,
        recompute,
        secs: 8.0,
        ..wave(Vec::new(), nm, d, Placement::Default)
    }
}

/// `schedule` as a segment draining at the second wave boundary, and
/// as a segment with a reorder window of 4, both under a 2× slowdown
/// of the first VW's second GPU one second in.
fn segment_runs(schedule: Schedule) -> Vec<(String, RunStats)> {
    let slowdown = vec![RateEvent {
        at: SimTime::from_secs(1.0),
        target: RateTarget::Gpu(1),
        rate: 0.5,
    }];
    let drain = SegmentOpts {
        stop_after_mb: Some(8),
        rate_events: slowdown.clone(),
        ..SegmentOpts::default()
    };
    let reorder = SegmentOpts {
        rate_events: slowdown,
        reorder_window: 4,
        ..SegmentOpts::default()
    };
    vec![
        (
            format!("{schedule} drain at mb 8 with slowdown"),
            hetero(schedule, 4, 0, RecomputePolicy::None).exec(Some(drain)),
        ),
        (
            format!("{schedule} reorder window 4 with slowdown"),
            hetero(schedule, 4, 0, RecomputePolicy::BoundaryOnly).exec(Some(reorder)),
        ),
    ]
}

/// Pins a stream-order schedule over recompute × (Nm, D) ∈
/// {(4, 0), (2, 1)}, plus its two segments.
fn pin_stream_schedule(schedule: Schedule) {
    let mut runs = Vec::new();
    for recompute in RecomputePolicy::ALL {
        for (nm, d) in [(4, 0), (2, 1)] {
            let label = format!("{schedule} {recompute} Nm={nm} D={d}");
            runs.push((label, hetero(schedule, nm, d, recompute).exec(None)));
        }
    }
    runs.extend(segment_runs(schedule));
    assert_pins(runs);
}

#[test]
fn fill_drain_pins() {
    pin_stream_schedule(Schedule::FillDrain);
}

#[test]
fn one_f_one_b_pins() {
    pin_stream_schedule(Schedule::OneFOneB);
}

#[test]
fn interleaved_depth_pins() {
    pin_stream_schedule(Schedule::Interleaved1F1B {
        chunks: 2,
        composite: false,
    });
}

#[test]
fn interleaved_composite_pins() {
    pin_stream_schedule(Schedule::Interleaved1F1B {
        chunks: 2,
        composite: true,
    });
}

#[test]
fn wave_segment_pins() {
    // The arrival-FIFO schedule under the same segment options: the
    // oracle for folding arrival-FIFO dispatch into lanes.
    assert_pins(segment_runs(Schedule::HetPipeWave));
}
