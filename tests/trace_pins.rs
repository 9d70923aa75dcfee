//! Trace pins: committed digests of whole executor runs.
//!
//! Each pinned configuration runs the executor and reduces everything
//! the run reports to one FNV-1a digest: the ordered span trace (one
//! `Debug` line per span), every VW's completions, pushed waves, pull
//! waits, wait windows and blocked-injection time, the four traffic
//! byte counters, the end instant, and every resource's busy time and
//! reservation count. The DES event count is pinned in its own column:
//! it counts the executor's bookkeeping, not the modelled run, so an
//! event-mix change moves that column and leaves the digest. A
//! refactor of the executor must leave every digest unchanged; update
//! one only for a deliberate change of simulated behaviour.
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
//!   under a GPU slowdown, and one boundary-only segment under the same
//!   slowdown.
//!
//! On a mismatch the failure lists the moved pins in [`PINS`] form.

use hetpipe::cluster::{Cluster, DeviceId};
use hetpipe::core::exec::{self, ExecParams, RateEvent, RateTarget, RunStats, SegmentOpts};
use hetpipe::core::pserver::{Placement, ShardMap};
use hetpipe::core::{Fnv, Planner, RecomputePolicy, Schedule, VirtualWorker, WspParams};
use hetpipe::des::{SimTime, Trace};
use hetpipe::model::ModelGraph;

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
    h.u64(stats.pool.len() as u64);
    for (_, resource) in stats.pool.iter() {
        h.time(resource.busy_time());
        h.u64(resource.reservations());
    }
    h.0
}

/// Every pinned run: label, span count, DES events, digest.
#[rustfmt::skip]
const PINS: &[(&str, usize, u64, u64)] = &[
    ("ED-local VGG-19 Nm=4 D=0",                                 3887, 3202,   0x7497979d44b9c230),
    ("NP-default VGG-19 Nm=2 D=2",                               3985, 2643,   0xf258c7353178606e),
    ("NP-default ResNet-152 Nm=2 D=0",                           3376, 1888,   0x3056a792fbdfa577),
    ("standalone VVVV VGG-19 Nm=4",                              627,  1359,   0x8a14fc90ec6587b8),
    ("two single-GPU VWs Nm=1",                                  274,  129,    0x4906f18e43a460d6),
    ("ED-local VGG-19 Nm=4 D=0 10s",                             2613, 2132,   0xdc6c010ac3c1b106),
    ("fill-drain none Nm=4 D=0",                                 726,  667,    0x24ca31fdfbad5f7c),
    ("fill-drain none Nm=2 D=1",                                 798,  526,    0x849b667dbe9d2544),
    ("fill-drain boundary-only Nm=4 D=0",                        690,  497,    0x6ce60271ec6b376a),
    ("fill-drain boundary-only Nm=2 D=1",                        693,  402,    0xdf2cc7c07ee607ea),
    ("fill-drain drain at mb 8 with slowdown",                   272,  239,    0x4e427b1d7b90767e),
    ("fill-drain boundary-only with slowdown",                   690,  498,    0x972636b2941eebd9),
    ("1f1b none Nm=4 D=0",                                       923,  863,    0xa9c7238c357dbff5),
    ("1f1b none Nm=2 D=1",                                       678,  465,    0x0d08e188703167de),
    ("1f1b boundary-only Nm=4 D=0",                              917,  754,    0x171c0f05a0488d9d),
    ("1f1b boundary-only Nm=2 D=1",                              596,  362,    0xced31014dc0d904d),
    ("1f1b drain at mb 8 with slowdown",                         272,  239,    0x3027a92155aa895d),
    ("1f1b boundary-only with slowdown",                         917,  753,    0xf64896b730d716b1),
    ("interleaved-1f1b-depth:2 none Nm=4 D=0",                   630,  808,    0xe429f5328db94139),
    ("interleaved-1f1b-depth:2 none Nm=2 D=1",                   703,  655,    0x9c45eb7a63971130),
    ("interleaved-1f1b-depth:2 boundary-only Nm=4 D=0",          631,  653,    0x2c13e87e0d7c5fa2),
    ("interleaved-1f1b-depth:2 boundary-only Nm=2 D=1",          625,  536,    0xa13503678e7b533f),
    ("interleaved-1f1b-depth:2 drain at mb 8 with slowdown",     440,  495,    0xd0638a5125f56f2d),
    ("interleaved-1f1b-depth:2 boundary-only with slowdown",     629,  652,    0xa2211652104bd6c8),
    ("interleaved-1f1b:2 none Nm=4 D=0",                         1230, 1466,   0x757a5180811396c6),
    ("interleaved-1f1b:2 none Nm=2 D=1",                         1184, 1054,   0x8590f3b8423ddb24),
    ("interleaved-1f1b:2 boundary-only Nm=4 D=0",                975,  991,    0x41c1d6088fe7b4c5),
    ("interleaved-1f1b:2 boundary-only Nm=2 D=1",                972,  787,    0x245ff7b21dd798e6),
    ("interleaved-1f1b:2 drain at mb 8 with slowdown",           440,  495,    0x5819a961f096a388),
    ("interleaved-1f1b:2 boundary-only with slowdown",           962,  972,    0x5fd17840526fcf2a),
    ("hetpipe-wave drain at mb 8 with slowdown",                 256,  255,    0x0f0cb7a61d0c6f57),
    ("hetpipe-wave boundary-only with slowdown",                 815,  746,    0xfce4b6515f0d8e35),
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
        let got = (
            label.as_str(),
            stats.trace.len(),
            stats.events,
            digest(stats),
        );
        if !PINS.contains(&got) {
            let (_, spans, events, digest) = got;
            moved.push(format!("(\"{label}\", {spans}, {events}, {digest:#018x}),"));
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
    /// [`exec::run`] without options, [`exec::run_into`] keeping every
    /// span with them.
    fn exec(&self, opts: Option<SegmentOpts>) -> RunStats {
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
        let horizon = SimTime::from_secs(self.secs);
        match opts {
            None => exec::run(params, horizon),
            Some(opts) => {
                let (mut stats, trace, _) =
                    exec::run_into(params, opts, horizon, Trace::new(), None);
                stats.trace = trace;
                stats
            }
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
/// as a boundary-only segment, both under a 2× slowdown of the first
/// VW's second GPU one second in.
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
    let slowed = SegmentOpts {
        rate_events: slowdown,
        ..SegmentOpts::default()
    };
    vec![
        (
            format!("{schedule} drain at mb 8 with slowdown"),
            hetero(schedule, 4, 0, RecomputePolicy::None).exec(Some(drain)),
        ),
        (
            format!("{schedule} boundary-only with slowdown"),
            hetero(schedule, 4, 0, RecomputePolicy::BoundaryOnly).exec(Some(slowed)),
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
