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
//! straggler on composite interleaved 1F1B, the one schedule where
//! `SkipStraggler` splices.
//!
//! Tier: dynamically audited (evidence for the cells that ran).

use hetpipe::cluster::{Cluster, DeviceId, GpuKind};
use hetpipe::core::pserver::Placement;
use hetpipe::core::{Fnv, RecomputePolicy, Schedule, VirtualWorker, WspParams};
use hetpipe::des::SimTime;
use hetpipe::model::ModelGraph;
use hetpipe::partition::{PartitionProblem, PartitionSolver};
use hetpipe::runtime::{self, MonitorConfig, Policy, RuntimeParams, RuntimeReport, ScenarioScript};
use hetpipe::schedule::PipelineSchedule;

const HORIZON_SECS: f64 = 40.0;
const NM: usize = 4;

const POLICIES: [Policy; 3] = [
    Policy::Static,
    Policy::SkipStraggler { window: 8 },
    Policy::Replan,
];

fn whimpy() -> (Cluster, ModelGraph) {
    (
        Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]),
        hetpipe::model::resnet152(32),
    )
}

/// One standalone VW over the four GPUs, plan solved at `nm`.
fn standalone_vw(
    cluster: &Cluster,
    graph: &ModelGraph,
    nm: usize,
    schedule: Schedule,
    recompute: RecomputePolicy,
) -> VirtualWorker {
    let k = schedule.virtual_stages(4);
    let expanded: Vec<DeviceId> = (0..k).map(|s| DeviceId(s % 4)).collect();
    let gpus = expanded.iter().map(|&d| cluster.spec_of(d)).collect();
    let links = VirtualWorker::links(cluster, &expanded);
    let plan = PartitionSolver::solve(
        &PartitionProblem::with_schedule(graph, gpus, links, nm, schedule)
            .with_recompute(recompute),
    )
    .expect("feasible");
    VirtualWorker {
        index: 0,
        devices: expanded,
        plan,
        nm,
    }
}

fn run_cell(
    schedule: Schedule,
    recompute: RecomputePolicy,
    nm: usize,
    script: ScenarioScript,
    policy: Policy,
) -> RuntimeReport {
    let (cluster, graph) = whimpy();
    let vw = standalone_vw(&cluster, &graph, nm, schedule, recompute);
    runtime::run(
        RuntimeParams {
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
        },
        SimTime::from_secs(HORIZON_SECS),
    )
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
        &[
            0xf302_accc_f604_a828,
            0xf302_accc_f604_a828,
            0x089c_2a4c_7578_dd15,
        ],
    );
}

#[test]
fn canonical_gpu_loss_reports_are_pinned() {
    check(
        wave_cells(ScenarioScript::canonical_gpu_loss(2, 5.0)),
        &[
            0xdb79_008f_c948_389d,
            0xdb79_008f_c948_389d,
            0x8662_faba_b09b_bf73,
        ],
    );
}

#[test]
fn canonical_lease_reports_are_pinned() {
    check(
        wave_cells(ScenarioScript::canonical_lease(2, 4.0, 20.0)),
        &[
            0xdfbe_5b4c_0dd4_c083,
            0xdfbe_5b4c_0dd4_c083,
            0x6df4_b57c_ef6c_d008,
        ],
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
            0x2f71_d897_92e1_bc88,
            0x560b_7a33_de46_4524,
            0xf5d8_da44_2398_b2ff,
            0x66fc_c39c_fc61_6621,
            0xcae6_2e6a_5229_566b,
            0x0b91_3db5_7b4d_c7db,
            0x3829_6d8c_717c_5283,
            0xc45b_e951_fd05_262e,
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

#[test]
fn composite_skip_straggler_reports_are_pinned() {
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
    check(
        cells,
        &[
            0x8761_54f8_2f70_d19e,
            0x276f_ba51_bee1_1d87,
            0x4b27_2c22_caae_5b77,
        ],
    );
}
