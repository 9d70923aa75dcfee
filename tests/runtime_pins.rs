//! Runtime pins: one FNV-1a digest per `RuntimeReport` of the elastic
//! runtime, over the cells the scenario gate runs.
//!
//! Each digest covers the committed span trace (every span's `Debug`
//! line, in recording order), each epoch's start, end, `Nm`, completed
//! counts and action, every logged signal, the final `Nm` and every
//! VW's completion instants. So a change to how the controller
//! probes, drains, splices or merges segments that moves any of them
//! fails here.
//!
//! Cells: the canonical straggler, GPU-loss and lease scripts under
//! each policy, and seeded chaos scripts under `Replan`, on the whimpy
//! 4×RTX 2060 ResNet-152 configuration (boundary-only recompute,
//! `Nm` = 4) that `tests/runtime_scenarios.rs` uses; plus the canonical
//! straggler under each policy on composite interleaved 1F1B. Those
//! cells run without sync transfers.
//! One more group runs with them, in the elastic-chaos benchmark's
//! shape: four ED-built VWs on 16 RTX 2060s, seeded chaos scripts,
//! `Replan`, so that parameter-server pushes and pulls contend on the
//! NICs and a drain can end mid-transfer at the horizon.
//!
//! The same cells, and the scenario gate's 32 chaos scripts, also hold
//! a report that keeps no span (`runtime::run_into` with `Discard`)
//! equal to the traced report in every field but the trace.
//!
//! Tier: dynamically audited (evidence for the cells that ran).

use hetpipe::cluster::{Cluster, DeviceId, GpuKind};
use hetpipe::core::pserver::Placement;
use hetpipe::core::{
    AllocationPolicy, Fnv, HetPipeSystem, Planner, RecomputePolicy, Schedule, SystemConfig,
    WspParams,
};
use hetpipe::des::{Discard, SimTime, Trace};
use hetpipe::model::ModelGraph;
use hetpipe::runtime::{self, MonitorConfig, Policy, RuntimeParams, RuntimeReport, ScenarioScript};

const HORIZON_SECS: f64 = 40.0;
const NM: usize = 4;

const POLICIES: [Policy; 2] = [Policy::Static, Policy::Replan];

fn whimpy() -> (Cluster, ModelGraph) {
    (
        Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]),
        hetpipe::model::resnet152(32),
    )
}

/// Hands `f` the runtime inputs of a standalone-VW cell.
fn with_cell<R>(
    schedule: Schedule,
    recompute: RecomputePolicy,
    nm: usize,
    script: ScenarioScript,
    policy: Policy,
    f: impl FnOnce(RuntimeParams<'_>) -> R,
) -> R {
    let (cluster, graph) = whimpy();
    // One standalone VW over the four GPUs, planned at `nm`.
    let vw = Planner::new(&cluster, &graph, schedule, recompute)
        .worker(0, &[0, 1, 2, 3].map(DeviceId), nm)
        .expect("feasible");
    f(RuntimeParams {
        cluster: &cluster,
        graph: &graph,
        vws: vec![vw],
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
    })
}

fn run_cell(
    schedule: Schedule,
    recompute: RecomputePolicy,
    nm: usize,
    script: ScenarioScript,
    policy: Policy,
) -> RuntimeReport {
    let horizon = SimTime::from_secs(HORIZON_SECS);
    with_cell(schedule, recompute, nm, script, policy, |p| {
        runtime::run(p, horizon)
    })
}

/// The report's digest: spans, epochs, signals, final `Nm`,
/// completions.
fn digest(r: &RuntimeReport) -> u64 {
    let mut h = Fnv::default();
    assert!(r.trace.len() > 100, "a non-trivial trace");
    for span in r.trace.spans() {
        h.mix_bytes(format!("{span:?}").as_bytes());
    }
    for e in &r.epochs {
        h.mix(e.start.as_nanos());
        h.mix(e.end.as_nanos());
        h.mix(e.nm as u64);
        for &c in &e.completed {
            h.mix(c);
        }
        match &e.action {
            Some(a) => h.mix_bytes(a.as_bytes()),
            None => h.mix(u64::MAX),
        }
    }
    for (at, label) in &r.signals {
        h.mix(at.as_nanos());
        h.mix_bytes(label.as_bytes());
    }
    h.mix(r.final_nm as u64);
    for vw in &r.completions {
        h.mix(vw.len() as u64);
        for &t in vw {
            h.mix(t.as_nanos());
        }
    }
    h.0
}

/// Checks every cell's digest, reporting all of them on a mismatch.
/// Every group holds a cell that splices, so the pins cover the
/// reaction path (probe, drain, splice), not only final probes.
fn check(cells: Vec<(String, RuntimeReport)>, want: &[u64]) {
    assert!(
        cells.iter().any(|(_, r)| r.epochs.len() > 1),
        "no cell of the group spliced"
    );
    let got: Vec<(String, u64)> = cells
        .into_iter()
        .map(|(name, r)| {
            assert!(r.audits_sound(), "{name}: occupancy audits");
            (name, digest(&r))
        })
        .collect();
    let digests: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
    assert_eq!(
        digests, want,
        "runtime reports drifted from their pins (re-pin only for a \
         deliberate change to the modelled run): {got:#018x?}"
    );
}

fn wave_cells(script: ScenarioScript) -> Vec<(String, RuntimeReport)> {
    POLICIES
        .iter()
        .map(|&policy| {
            let name = format!("{}/{}", script.name, policy.name());
            let r = run_cell(
                Schedule::HetPipeWave,
                RecomputePolicy::BoundaryOnly,
                NM,
                script.clone(),
                policy,
            );
            (name, r)
        })
        .collect()
}

#[test]
fn canonical_straggler_reports_are_pinned() {
    check(
        wave_cells(ScenarioScript::canonical_straggler(0, 5.0)),
        &[0xf302_accc_f604_a828, 0x6992_0bd4_da3f_4c8f],
    );
}

#[test]
fn canonical_gpu_loss_reports_are_pinned() {
    check(
        wave_cells(ScenarioScript::canonical_gpu_loss(2, 5.0)),
        &[0xdb79_008f_c948_389d, 0xe084_be44_1c8c_2505],
    );
}

#[test]
fn canonical_lease_reports_are_pinned() {
    check(
        wave_cells(ScenarioScript::canonical_lease(2, 4.0, 20.0)),
        &[0xdfbe_5b4c_0dd4_c083, 0x21f0_c3e0_d597_c401],
    );
}

#[test]
fn chaos_replan_reports_are_pinned() {
    let cells = (1..=8)
        .map(|seed| {
            let script = ScenarioScript::chaos(seed, HORIZON_SECS, 4, 1, 3);
            let r = run_cell(
                Schedule::HetPipeWave,
                RecomputePolicy::BoundaryOnly,
                NM,
                script,
                Policy::Replan,
            );
            (format!("chaos-{seed}/replan"), r)
        })
        .collect();
    check(
        cells,
        &[
            0xc3cd_77be_24c7_715a,
            0x5144_c03d_e625_646a,
            0xdd59_ef7c_73a6_8e0d,
            0xf8d6_b251_e22b_2d10,
            0x60d5_8122_38c9_13bb,
            0x3172_0de9_3ad6_a7fb,
            0xc5fe_a17a_1cf8_cd9d,
            0x41b6_528d_8224_9767,
        ],
    );
}

/// A drained epoch resumes from its probe's latest wave checkpoint
/// before the splice: over the chaos cells, the tails those drains
/// simulated again sum to under 10% of the drained epochs' events (a
/// drain that re-ran its segment from the start would be 100%), and
/// committed probes simulate nothing again.
#[test]
fn chaos_drains_resume_from_wave_checkpoints() {
    let (mut drained, mut tails, mut drains) = (0u64, 0u64, 0);
    for seed in 1..=8 {
        let script = ScenarioScript::chaos(seed, HORIZON_SECS, 4, 1, 3);
        let r = run_cell(
            Schedule::HetPipeWave,
            RecomputePolicy::BoundaryOnly,
            NM,
            script,
            Policy::Replan,
        );
        for e in &r.epochs {
            assert!(e.resimulated <= e.events, "chaos-{seed} epoch {}", e.index);
            if e.action.is_some() {
                drained += e.events;
                tails += e.resimulated;
                drains += 1;
            } else {
                assert_eq!(e.resimulated, 0, "chaos-{seed}: a committed probe");
            }
        }
    }
    assert!(drains > 0, "no chaos cell drained");
    eprintln!("{drains} drains: {tails} of {drained} events simulated again");
    assert!(
        tails * 10 < drained,
        "{drains} drains simulated {tails} of {drained} events again"
    );
}

/// `RuntimeReport::simulated_events` counts every probe's events and
/// every drain's tail past the checkpoint it resumed from. A static run
/// simulates its one epoch; a run whose every drain resumed from its
/// probe's halt state simulates exactly its committed epochs; a run
/// with an outage splice simulates more, because its halted probe ran
/// past the checkpoint its drain resumed from.
#[test]
fn simulated_events_count_probes_and_resumed_tails() {
    let (mut from_halt, mut outage) = (0, 0);
    for ((schedule, recompute), script, policy) in standalone_pin_cells() {
        let name = format!("{schedule}/{}/{}", script.name, policy.name());
        let r = run_cell(schedule, recompute, NM, script, policy);
        let committed: u64 = r.epochs.iter().map(|e| e.events).sum();
        let outages = r.epochs.iter().filter_map(|e| e.action.as_deref());
        let outages = outages
            .filter(|a| a.contains("gpu lost") || a.contains("lease preempted"))
            .count();
        if policy == Policy::Static {
            assert_eq!(r.epochs.len(), 1, "{name}");
            assert_eq!(r.simulated_events, r.epochs[0].events, "{name}");
        } else if outages == 0 {
            assert_eq!(r.simulated_events, committed, "{name}");
            from_halt += (r.epochs.len() > 1) as usize;
        } else {
            assert!(r.simulated_events > committed, "{name}");
            outage += 1;
        }
    }
    assert!(from_halt >= 4, "{from_halt} cells drained from halts only");
    assert!(outage >= 4, "{outage} cells spliced at an outage");
}

/// The pinned standalone-VW cells: the canonical scripts under each
/// policy and chaos seeds 1–8 under `Replan` on the wave schedule, and
/// the canonical straggler under each policy on composite interleaved
/// 1F1B.
fn standalone_pin_cells() -> Vec<((Schedule, RecomputePolicy), ScenarioScript, Policy)> {
    let wave = (Schedule::HetPipeWave, RecomputePolicy::BoundaryOnly);
    let composite = (
        Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        },
        RecomputePolicy::None,
    );
    let mut cells = Vec::new();
    for script in [
        ScenarioScript::canonical_straggler(0, 5.0),
        ScenarioScript::canonical_gpu_loss(2, 5.0),
        ScenarioScript::canonical_lease(2, 4.0, 20.0),
    ] {
        for policy in POLICIES {
            cells.push((wave, script.clone(), policy));
        }
    }
    for seed in 1..=8 {
        let script = ScenarioScript::chaos(seed, HORIZON_SECS, 4, 1, 3);
        cells.push((wave, script, Policy::Replan));
    }
    for policy in POLICIES {
        cells.push((
            composite,
            ScenarioScript::canonical_straggler(2, 5.0),
            policy,
        ));
    }
    cells
}

/// Runs `params` into a `Trace` and into `Discard` and checks that the
/// reports are equal in every field but the trace, and that the traced
/// run kept a non-trivial trace. Returns the untraced report.
fn check_sink_parity(name: &str, params: RuntimeParams<'_>, horizon: SimTime) -> RuntimeReport {
    let (untraced, _) = runtime::run_into(params.clone(), horizon, Discard);
    let mut traced = runtime::run(params, horizon);
    let spans = traced.trace.len();
    assert!(spans > 100, "{name}: a non-trivial trace");
    assert!(untraced.trace.is_empty(), "{name}: run_into keeps no trace");
    traced.trace = Trace::new();
    assert_eq!(
        format!("{untraced:?}"),
        format!("{traced:?}"),
        "{name}: the untraced report differs from the traced one"
    );
    untraced
}

/// Item 15's parity: on every pinned cell and on the scenario gate's
/// 32 chaos scripts (60 s, `Replan`), a run that keeps no span
/// (`run_into` with `Discard`) reports exactly what a run that keeps
/// the merged trace reports, in every field but the trace: epochs and
/// their audits and event counts, completions, signals, instants,
/// final VWs and `Nm`, and simulated events. Tier: dynamically audited
/// (evidence for the cells that ran).
#[test]
fn discarded_spans_leave_every_other_report_field_unchanged() {
    let mut reports = Vec::new();
    let horizon = SimTime::from_secs(HORIZON_SECS);
    for ((schedule, recompute), script, policy) in standalone_pin_cells() {
        let name = format!("{schedule}/{}/{}", script.name, policy.name());
        let report = with_cell(schedule, recompute, NM, script, policy, |p| {
            check_sink_parity(&name, p, horizon)
        });
        reports.push(report);
    }
    let (wave, ckpt) = (Schedule::HetPipeWave, RecomputePolicy::BoundaryOnly);
    for seed in 1..=32 {
        let script = ScenarioScript::chaos(seed, 60.0, 4, 1, 3);
        let name = format!("{}/replan", script.name);
        let report = with_cell(wave, ckpt, NM, script, Policy::Replan, |p| {
            check_sink_parity(&name, p, SimTime::from_secs(60.0))
        });
        reports.push(report);
    }
    with_sync_chaos(|seed, p, horizon| {
        reports.push(check_sink_parity(
            &format!("sync-chaos-{seed}/replan"),
            p,
            horizon,
        ));
    });
    assert_eq!(reports.len(), 16 + 32 + 6);
    // Splices exercise the probes, the drains from halt states and the
    // cut back to an earlier checkpoint at an outage.
    let spliced = reports.iter().filter(|r| r.epochs.len() > 1).count();
    let resumed = (reports.iter().flat_map(|r| &r.epochs))
        .filter(|e| e.resimulated > 0)
        .count();
    eprintln!("{spliced} cells spliced, {resumed} drains resumed from a checkpoint");
    assert!(spliced > 30, "{spliced} cells spliced");
    assert!(resumed > 10, "{resumed} drains resumed from a checkpoint");
}

#[test]
fn composite_straggler_reports_are_pinned() {
    let schedule = Schedule::Interleaved1F1B {
        chunks: 2,
        composite: true,
    };
    let cells = POLICIES
        .iter()
        .map(|&policy| {
            let r = run_cell(
                schedule,
                RecomputePolicy::None,
                NM,
                ScenarioScript::canonical_straggler(2, 5.0),
                policy,
            );
            (format!("composite/{}", policy.name()), r)
        })
        .collect();
    check(cells, &[0x8761_54f8_2f70_d19e, 0xa92d_219b_0e9f_e302]);
}

/// Hands `f` each sync-transfer chaos cell's seed, runtime inputs and
/// horizon: seeds 1–6 under `Replan` with sync transfers on, four
/// ED-built VWs on 16 RTX 2060s, ResNet-152, boundary-only recompute,
/// 60 s.
fn with_sync_chaos(mut f: impl FnMut(u64, RuntimeParams<'_>, SimTime)) {
    let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
    let graph = hetpipe::model::resnet152(32);
    let config = SystemConfig {
        policy: AllocationPolicy::EqualDistribution,
        recompute: RecomputePolicy::BoundaryOnly,
        sync_transfers: true,
        ..SystemConfig::default()
    };
    let sys = HetPipeSystem::build(&cluster, &graph, &config).expect("builds");
    assert_eq!(sys.virtual_workers().len(), 4);
    let horizon_secs = 60.0;
    for seed in 1..=6 {
        let script = ScenarioScript::chaos(seed, horizon_secs, 16, 4, 8);
        let params = RuntimeParams {
            cluster: &cluster,
            graph: &graph,
            vws: sys.virtual_workers().to_vec(),
            wsp: WspParams::new(sys.nm(), config.staleness_bound),
            placement: config.placement,
            sync_transfers: config.sync_transfers,
            schedule: config.schedule,
            recompute: config.recompute,
            script,
            policy: Policy::Replan,
            monitor: MonitorConfig::default(),
            max_reactions: 8,
            planner: None,
        };
        f(seed, params, SimTime::from_secs(horizon_secs));
    }
}

/// Seeded chaos scripts under `Replan` with sync transfers on: four
/// ED-built VWs on 16 RTX 2060s, ResNet-152, boundary-only recompute,
/// 60 s. Seeds 4 and 6 drain until the horizon cuts them (at
/// 59.9991 s and 59.9997 s), each leaving a final epoch of no time.
#[test]
fn sync_transfer_chaos_reports_are_pinned() {
    let mut cells = Vec::new();
    with_sync_chaos(|seed, p, horizon| {
        cells.push((
            format!("sync-chaos-{seed}/replan"),
            runtime::run(p, horizon),
        ));
    });
    check(
        cells,
        &[
            0x20d5_32d3_3244_83f4,
            0x3164_2ff8_9e00_45c4,
            0xfa39_e639_132f_7305,
            0x450f_202b_09d1_ce1d,
            0x02e4_946f_f4eb_6c39,
            0xff29_97aa_e1d6_609c,
        ],
    );
}
