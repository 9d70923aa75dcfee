//! Drains resumed from wave checkpoints equal drains run from the
//! segment start.
//!
//! The elastic runtime commits a reaction's drained epoch by resuming
//! from its probe's latest checkpoint before the stop point
//! (`exec::resume_into`), not by re-running the segment. Here every
//! wave-boundary stop of a probe is drained both ways: from the
//! checkpoint `Checkpoints::for_stop` picks, and from scratch through
//! `exec::run_into`, the oracle. The two must agree on every span
//! from the checkpoint on (the spans before it are the probe's) and on
//! every `RunStats` field: completions, wait windows, pull wait,
//! injection-blocked time, waves pushed, end, events, peaks, every
//! resource's busy time, reservations and free instant, and the byte
//! counters (compared through `Debug`, which prints every field
//! exactly). Each stop resumes twice from its checkpoint, and the two
//! drains must agree. A second probe of each cell halts at its
//! judgement after 2, 5 and 9 whole waves (or its last whole wave, if
//! earlier), and the drain at the first
//! wave boundary no stop query has passed must resume from that halt
//! state and equal the drain from the start too.
//!
//! Matrix: the wave schedule (arrival-FIFO), 1F1B (one lane per stage)
//! and composite interleaved 1F1B with two chunks, each fault-free,
//! under the canonical GPU loss (a rate-0 window the runtime's outage
//! guard splices before) and under a GPU slowdown plus a link degrade.
//! Two ED virtual workers over four nodes, so activations, pushes and
//! pulls cross the NICs.
//!
//! Tier: dynamically audited (evidence for the runs below).

use hetpipe::cluster::{Cluster, DeviceId, GpuKind};
use hetpipe::core::exec::{self, ExecParams, Progress, RunStats, SegmentOpts, SpanTag};
use hetpipe::core::pserver::{Placement, ShardMap};
use hetpipe::core::{Planner, RecomputePolicy, Schedule, VirtualWorker, WspParams};
use hetpipe::des::{SimTime, Span, Trace};
use hetpipe::model::ModelGraph;
use hetpipe::runtime::{Fault, ScenarioEvent, ScenarioScript};
use std::ops::ControlFlow;

const NM: usize = 4;

/// Two ED virtual workers on 4×4 RTX 2060s: VW `j` takes GPU `j` of
/// every node.
fn ed_vws(
    cluster: &Cluster,
    graph: &ModelGraph,
    schedule: Schedule,
    recompute: RecomputePolicy,
) -> Vec<VirtualWorker> {
    let mut planner = Planner::new(cluster, graph, schedule, recompute);
    (0..2)
        .map(|j| planner.worker(j, &[0, 4, 8, 12].map(|d| DeviceId(d + j)), NM))
        .map(|vw| vw.expect("feasible"))
        .collect()
}

/// One schedule's runs: its cluster, model, VWs and shard map.
struct Setup {
    cluster: Cluster,
    graph: ModelGraph,
    vws: Vec<VirtualWorker>,
    shards: ShardMap,
    schedule: Schedule,
    recompute: RecomputePolicy,
}

impl Setup {
    fn new(schedule: Schedule, recompute: RecomputePolicy) -> Setup {
        let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
        let graph = hetpipe::model::resnet152(32);
        let vws = ed_vws(&cluster, &graph, schedule, recompute);
        let shards = ShardMap::build(Placement::Default, &graph, &cluster, &vws[0]);
        Setup {
            cluster,
            graph,
            vws,
            shards,
            schedule,
            recompute,
        }
    }

    fn params(&self) -> ExecParams<'_> {
        ExecParams {
            cluster: &self.cluster,
            graph: &self.graph,
            vws: &self.vws,
            wsp: WspParams::new(NM, 0),
            shards: &self.shards,
            sync_transfers: true,
            schedule: self.schedule,
            recompute: self.recompute,
        }
    }
}

fn scripts() -> Vec<ScenarioScript> {
    let degraded = ScenarioScript {
        name: "slowdown+link".into(),
        events: vec![
            ScenarioEvent::Fault(Fault::GpuSlowdown {
                gpu: 5,
                factor: 1.75,
                from_secs: 4.0,
                until_secs: Some(11.0),
            }),
            ScenarioEvent::Fault(Fault::LinkDegrade {
                node: 1,
                factor: 3.0,
                from_secs: 8.0,
                until_secs: Some(16.0),
            }),
        ],
    };
    vec![
        ScenarioScript {
            name: "none".into(),
            events: Vec::new(),
        },
        ScenarioScript::canonical_gpu_loss(4, 12.0),
        degraded,
    ]
}

/// A probe's judge that never halts it.
fn run(_: Progress, _: &Trace<SpanTag>) -> ControlFlow<()> {
    ControlFlow::Continue(())
}

/// Every field of `stats`, printed exactly.
fn fields(stats: &RunStats) -> String {
    format!("{stats:?}")
}

/// What one cell checked.
#[derive(Default)]
struct Checked {
    stops: usize,
    /// Stops resumed from a checkpoint past the segment start.
    resumed_mid: usize,
    /// Drains resumed from a halted probe's halt state.
    halts: usize,
    /// Spans compared, from the checkpoints on.
    spans: usize,
    /// Events the drains ran, and those the resumed ones simulated.
    events: u64,
    tails: u64,
}

/// Drains the probe of one cell at every wave boundary both ways.
fn check_cell(
    schedule: Schedule,
    recompute: RecomputePolicy,
    script: &ScenarioScript,
    horizon: SimTime,
) -> Checked {
    let setup = Setup::new(schedule, recompute);
    let params = setup.params();
    let (initial_rates, rate_events) = script.segment_rates(SimTime::ZERO);
    let opts = |stop_after_mb| SegmentOpts {
        stop_after_mb,
        initial_rates: initial_rates.clone(),
        rate_events: rate_events.clone(),
    };
    let name = format!("{schedule}/{}", script.name);

    let (probe, probe_trace, checkpoints) =
        exec::run_into_checkpointed(params.clone(), opts(None), horizon, Trace::new(), run);
    // Checkpointing leaves the probe itself alone.
    let (plain, plain_trace, _) =
        exec::run_into(params.clone(), opts(None), horizon, Trace::new(), None);
    assert_eq!(probe_trace.spans(), plain_trace.spans(), "{name}: probe");
    assert_eq!(fields(&probe), fields(&plain), "{name}: probe");
    assert!(probe_trace.len() > 100, "{name}: a non-trivial probe");

    let full_waves = probe
        .vws
        .iter()
        .map(|v| v.completions.len() / NM)
        .min()
        .unwrap_or(0) as u64;
    let mut checked = Checked::default();
    // One stop past the last whole wave: a drain that never reaches
    // its stop point.
    for wave in 0..=full_waves + 1 {
        let stop = wave * NM as u64;
        let from = checkpoints.for_stop(stop);
        assert!(from.queried() <= stop, "{name} stop {stop}");
        let (oracle, oracle_trace, _) = exec::run_into(
            params.clone(),
            opts(Some(stop)),
            horizon,
            Trace::new(),
            None,
        );
        // Resumed twice: restoring leaves the checkpoint intact, and
        // forked lanes do not alias the saved ones.
        let [(resumed, tail), (again, again_tail)] =
            [(); 2].map(|()| exec::resume_into(params.clone(), stop, Trace::new(), from, &probe));
        assert_eq!(again_tail.spans(), tail.spans(), "{name} stop {stop}");
        assert_eq!(fields(&again), fields(&resumed), "{name} stop {stop}");
        let cut = from.spans();
        let spans: &[Span<SpanTag>] = oracle_trace.spans();
        assert_eq!(
            &spans[..cut],
            &probe_trace.spans()[..cut],
            "{name} stop {stop}: the oracle left the probe before the checkpoint"
        );
        assert_eq!(tail.spans(), &spans[cut..], "{name} stop {stop}: spans");
        checked.events += oracle.events;
        checked.tails += resumed.events - from.events();
        checked.spans += tail.len();
        assert_eq!(fields(&resumed), fields(&oracle), "{name} stop {stop}");
        checked.stops += 1;
        checked.resumed_mid += (from.events() > 0) as usize;
    }
    assert!(full_waves >= 8, "{name}: only {full_waves} whole waves");

    // A probe halted at a judgement: the drain at the first wave
    // boundary no stop query has passed resumes from the halt state.
    // (The composite cell under the GPU loss completes 8 whole waves.)
    for waves in [2, 5, 9.min(full_waves)] {
        let name = format!("{name} halted after {waves} waves");
        let mut queried = 0;
        let (halted, halted_trace, checkpoints) = exec::run_into_checkpointed(
            params.clone(),
            opts(None),
            horizon,
            Trace::new(),
            |at, _| {
                queried = at.queried;
                if at.waves >= waves {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        let stop = queried.div_ceil(NM as u64) * NM as u64;
        let from = checkpoints.for_stop(stop);
        assert_eq!(from.events(), halted.events, "{name}: the halt state");
        assert_eq!(from.spans(), halted_trace.len(), "{name}: the halt state");
        let (oracle, oracle_trace, _) = exec::run_into(
            params.clone(),
            opts(Some(stop)),
            horizon,
            Trace::new(),
            None,
        );
        let (resumed, tail) = exec::resume_into(params.clone(), stop, Trace::new(), from, &halted);
        let spans: &[Span<SpanTag>] = oracle_trace.spans();
        assert_eq!(&spans[..from.spans()], halted_trace.spans(), "{name}");
        assert_eq!(tail.spans(), &spans[from.spans()..], "{name}: spans");
        assert_eq!(fields(&resumed), fields(&oracle), "{name}");
        checked.halts += 1;
        checked.spans += tail.len();
    }
    checked
}

#[test]
fn resumed_drains_equal_drains_from_the_segment_start() {
    let horizon = SimTime::from_secs(24.0);
    let composite = Schedule::Interleaved1F1B {
        chunks: 2,
        composite: true,
    };
    let schedules = [
        (Schedule::HetPipeWave, RecomputePolicy::BoundaryOnly),
        (Schedule::OneFOneB, RecomputePolicy::BoundaryOnly),
        (composite, RecomputePolicy::None),
    ];
    let mut total = Checked::default();
    for (schedule, recompute) in schedules {
        for script in scripts() {
            let c = check_cell(schedule, recompute, &script, horizon);
            let name = format!("{schedule}/{}", script.name);
            // All but the first few stops resume past the start.
            assert!(
                c.resumed_mid + 3 >= c.stops,
                "{name}: {} of {} stops resumed mid-segment",
                c.resumed_mid,
                c.stops
            );
            total.stops += c.stops;
            total.halts += c.halts;
            total.spans += c.spans;
            total.events += c.events;
            total.tails += c.tails;
        }
    }
    eprintln!(
        "{} stops and {} halts, {} spans compared; tails {} of {} drain events",
        total.stops, total.halts, total.spans, total.tails, total.events
    );
    assert!(total.stops > 9 * 10, "{} stops", total.stops);
    assert_eq!(total.halts, 9 * 3, "halted probes");
    assert!(total.spans > 1000, "{} spans", total.spans);
    // The resumed tails are a small part of what the drains ran.
    assert!(
        total.tails * 4 < total.events,
        "tails {} of {} events",
        total.tails,
        total.events
    );
}

/// A long probe thins its checkpoints to a bounded list, and drains
/// from the thinned list still equal drains from the start.
#[test]
fn a_long_probe_keeps_a_bounded_checkpoint_list() {
    let setup = Setup::new(Schedule::HetPipeWave, RecomputePolicy::BoundaryOnly);
    let params = setup.params();
    let horizon = SimTime::from_secs(300.0);
    let (probe, _, checkpoints) = exec::run_into_checkpointed(
        params.clone(),
        SegmentOpts::default(),
        horizon,
        Trace::new(),
        run,
    );
    let waves = probe.vws[0].waves_pushed;
    assert!(waves > 200, "{waves} waves");
    // Evenly spread over the run, far fewer than one per wave.
    assert!(
        checkpoints.len() * 4 < waves as usize,
        "{}",
        checkpoints.len()
    );
    let queried: Vec<u64> = checkpoints.iter().map(|c| c.queried()).collect();
    assert_eq!(queried[0], 0, "the segment start stays");
    assert!(queried.windows(2).all(|w| w[0] < w[1]), "{queried:?}");
    assert!(*queried.last().unwrap() * 10 > waves * NM as u64 * 8);
    for wave in [1, waves / 3, waves / 2 + 1, waves - 2] {
        let stop = wave * NM as u64;
        let opts = SegmentOpts {
            stop_after_mb: Some(stop),
            ..SegmentOpts::default()
        };
        let from = checkpoints.for_stop(stop);
        let (oracle, kept, _) = exec::run_into(params.clone(), opts, horizon, Trace::new(), None);
        let (resumed, tail) = exec::resume_into(params.clone(), stop, Trace::new(), from, &probe);
        assert_eq!(tail.spans(), &kept.spans()[from.spans()..], "stop {stop}");
        assert_eq!(fields(&resumed), fields(&oracle), "stop {stop}");
    }
}
