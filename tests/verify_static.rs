//! Cross-checks the static verifier against the dynamic audit, and
//! proves the CI gate actually *gates*: every class of injected
//! violation the `verify_all` bin screens for is demonstrably caught.
//!
//! The positive direction completes the occupancy soundness chain on
//! golden configurations: the DES runs a single-VW pipeline on the
//! paper testbed and folds its realized peaks as it executes,
//! `OccupancyAudit` pairs them with the declarations, the static verifier computes structural peaks from the
//! committed op queues alone, and `merge_measured` folds both into one
//! triple per entity so `check_bounds` judges
//! `measured ≤ structural ≤ declared` in a single pass — for every
//! schedule form and recompute policy.
//!
//! The negative direction feeds each verifier a broken fixture — a
//! cyclic committed queue, an under-declared occupancy bound, a stale
//! and an acausal version rule, and an engine that advances past a
//! closed gate — and asserts each is rejected with a counterexample,
//! so a regression that made any pass vacuous would fail here before
//! it silently weakened the gate.

use hetpipe::cluster::{Cluster, DeviceId};
use hetpipe::core::{
    AllocationPolicy, HetPipeSystem, OccupancyAudit, Placement, RecomputePolicy, Schedule,
    SystemConfig,
};
use hetpipe::des::FootprintResource;
use hetpipe::des::{check_bounds, BoundEntity, OccupancyBound, SimTime};
use hetpipe::schedule::{
    committed_queues, CommittedQueue, GpuOp, PipelineSchedule, QueueKind, ScheduleOp, WspParams,
};
use hetpipe::verify::{
    check_broken_gate_protocol, check_gate_protocol, dependency_graph, structural_occupancy,
    verify_isolation, verify_isolation_with, verify_lookahead, verify_queues, verify_version_rule,
    DepEdge, DepNode, EdgeKind, FootprintModel, IsolationViolationClass, LookaheadWitness,
};

const NM: usize = 4;
const K_GPUS: usize = 4;

/// One golden run: single VW over the paper testbed's first node
/// (4 GPUs), VGG-19, Nm = 4 — the same shape the tier-1 schedule
/// condition tests pin.
fn golden_audit(schedule: Schedule, recompute: RecomputePolicy) -> OccupancyAudit {
    let cluster = Cluster::paper_testbed();
    let graph = hetpipe::model::vgg19(32);
    let config = SystemConfig {
        policy: AllocationPolicy::Custom(vec![(0..K_GPUS).map(DeviceId).collect()]),
        placement: Placement::Default,
        staleness_bound: 0,
        nm_override: Some(NM),
        sync_transfers: false,
        order_search: false,
        schedule,
        recompute,
        ..SystemConfig::default()
    };
    let sys = HetPipeSystem::build(&cluster, &graph, &config).expect("builds");
    let vws = sys.virtual_workers().to_vec();
    let (_, stats) = sys.run_with_stats(SimTime::from_secs(10.0));
    let audit = OccupancyAudit::measure(&stats, &vws, &schedule, NM);
    // The run folds its peaks without a kept trace; they must still
    // show real work, or the merged chain below proves nothing.
    assert!(
        audit.stages[0].measured >= 1,
        "{schedule}: the first stage never held an activation set"
    );
    audit
}

#[test]
fn measured_structural_declared_chain_holds_on_golden_configs() {
    let wsp = WspParams::new(NM, 0);
    // Horizon: generously past warmup; structural peaks saturate, so
    // any horizon covering the steady state bounds every finite run.
    let max_mb = (NM * 20) as u64;
    for &schedule in Schedule::ALL.iter() {
        for recompute in RecomputePolicy::ALL {
            let label = format!("{} {recompute}", schedule.name());
            let audit = golden_audit(schedule, recompute);
            let mut report = structural_occupancy(schedule, K_GPUS, wsp, recompute, max_mb);
            audit.merge_measured(&mut report.bounds);
            // Every entity the audit measured must now carry all three
            // components of the chain.
            let merged = report
                .bounds
                .iter()
                .filter(|b| b.measured.is_some())
                .count();
            assert!(merged > 0, "{label}: no measured peaks merged");
            if let Err(errs) = check_bounds(&report.bounds) {
                panic!("{label}: occupancy chain broken:\n  {}", errs.join("\n  "));
            }
        }
    }
}

#[test]
fn injected_cycle_fails_the_graph_pass() {
    // A committed stage queue scheduling mb 1's backward before its
    // own forward: the data edge fwd→bwd opposes program order.
    let wsp = WspParams::new(1, 0);
    let broken = vec![CommittedQueue {
        kind: QueueKind::Stage(0),
        ordered: true,
        ops: vec![
            GpuOp {
                stage: 0,
                op: ScheduleOp::Backward { mb: 1 },
            },
            GpuOp {
                stage: 0,
                op: ScheduleOp::Forward { mb: 1 },
            },
        ],
    }];
    let err = verify_queues(&[broken], 1, wsp).expect_err("cycle must be caught");
    let msg = err.to_string();
    assert!(msg.contains("fwd mb1") && msg.contains("bwd mb1"), "{msg}");
}

#[test]
fn injected_under_declaration_fails_the_bounds_pass() {
    // A healthy schedule's structural peaks, re-judged against a
    // declaration one smaller than the 1F1B warmup window at stage 0:
    // the structural ≤ declared link must break.
    let wsp = WspParams::new(NM, 0);
    let report = structural_occupancy(Schedule::OneFOneB, K_GPUS, wsp, RecomputePolicy::None, 64);
    let mut bounds: Vec<OccupancyBound> = report.bounds.clone();
    let stage0 = bounds
        .iter_mut()
        .find(|b| b.entity == BoundEntity::Stage { vw: 0, stage: 0 })
        .expect("stage 0 bound present");
    assert!(stage0.structural.unwrap() > 1, "fixture needs a real peak");
    stage0.declared = stage0.structural.unwrap() - 1;
    let errs = check_bounds(&bounds).expect_err("under-declaration must be caught");
    assert!(
        errs.iter().any(|e| e.contains("exceeds declared")),
        "{errs:?}"
    );
    // The unmodified report stays sound.
    check_bounds(&report.bounds).expect("healthy bounds hold");
}

#[test]
fn injected_broken_version_rules_fail_the_staleness_pass() {
    // D = 0 is the tight case: 2BW sits exactly on the freshness
    // floor, so one wave staler must trip it (with D ≥ 1 the bound
    // itself grants that slack and the broken rule would be legal).
    let wsp = WspParams::new(NM, 0);
    // One wave staler than 2BW: misses the freshness floor.
    let stale = verify_version_rule(wsp, |p| wsp.two_bw_version(p) - 1)
        .expect_err("stale rule must be caught");
    assert!(stale.contains("staler"), "{stale}");
    // Reading the current wave before it closes: acausal.
    let acausal = verify_version_rule(wsp, |p| wsp.wave_of(p) as i64)
        .expect_err("acausal rule must be caught");
    assert!(acausal.contains("closed"), "{acausal}");
}

#[test]
fn structural_matches_dynamic_audit_keying() {
    // The static pass and the dynamic audit must agree on which
    // entities exist, or merge_measured would silently skip peaks: one
    // stage triple per virtual stage, one GPU triple per physical GPU,
    // including the interleaved depth expansion (8 stages on 4 GPUs).
    let wsp = WspParams::new(NM, 0);
    for &schedule in Schedule::ALL.iter() {
        let k = schedule.virtual_stages(K_GPUS);
        let audit = golden_audit(schedule, RecomputePolicy::None);
        let report = structural_occupancy(schedule, K_GPUS, wsp, RecomputePolicy::None, 64);
        assert_eq!(audit.stages.len(), k, "{}", schedule.name());
        assert_eq!(audit.gpus.len(), K_GPUS, "{}", schedule.name());
        assert_eq!(report.bounds.len(), k + K_GPUS, "{}", schedule.name());
        for b in &report.bounds {
            let observed = match b.entity {
                BoundEntity::Stage { vw, stage } => {
                    audit.stages.iter().any(|s| s.vw == vw && s.stage == stage)
                }
                BoundEntity::Gpu { vw, gpu } => {
                    audit.gpus.iter().any(|g| g.vw == vw && g.gpu == gpu)
                }
            };
            assert!(observed, "{}: audit lacks {}", schedule.name(), b.entity);
        }
    }
}

/// The wave schedule's dependency graph mirrored across two VWs, with
/// the honest footprint model — the fixture the isolation negative
/// controls corrupt.
fn wave_graph_and_model(vws: usize) -> (hetpipe::verify::DepGraphData, FootprintModel) {
    let schedule = Schedule::HetPipeWave;
    let wsp = WspParams::new(NM, 0);
    let k = schedule.virtual_stages(K_GPUS);
    let queues = committed_queues(schedule, K_GPUS, wsp, RecomputePolicy::None, 24);
    let sets: Vec<Vec<CommittedQueue>> = vec![queues; vws];
    let model = FootprintModel {
        k,
        gpus: schedule
            .gpu_streams_with(K_GPUS, wsp, RecomputePolicy::None)
            .is_some()
            .then_some(K_GPUS),
    };
    (dependency_graph(&sets, k, wsp), model)
}

#[test]
fn smuggled_cross_vw_edge_fails_the_isolation_pass() {
    // A buggy shared-buffer optimization adds a direct dependence from
    // vw0's forward to vw1's backward of the same (stage, mb) — data
    // crossing VWs outside the PS push→gate channel. The gate must
    // catch it and *name* the edge.
    let (mut graph, model) = wave_graph_and_model(2);
    verify_isolation(&graph, model).expect("uncorrupted graph is isolated");
    let from = graph
        .nodes
        .iter()
        .position(|n| {
            matches!(
                n,
                DepNode::Fwd {
                    vw: 0,
                    stage: 1,
                    mb: 3
                }
            )
        })
        .expect("fixture node");
    let to = graph
        .nodes
        .iter()
        .position(|n| {
            matches!(
                n,
                DepNode::Bwd {
                    vw: 1,
                    stage: 1,
                    mb: 3
                }
            )
        })
        .expect("fixture node");
    graph.edges.push(DepEdge {
        from,
        to,
        kind: EdgeKind::Data,
    });
    // Honest footprints share nothing across VWs, so the smuggled edge
    // surfaces as unexplained…
    let err = verify_isolation(&graph, model).expect_err("smuggled edge must be caught");
    assert_eq!(err.class, IsolationViolationClass::UnderDeclaredFootprint);
    // …and a model that *did* declare the shared buffer is convicted
    // of the leak itself, with both endpoints and the resource named.
    let err = verify_isolation_with(&graph, |n| {
        let mut fp = model.footprint_of(n);
        if matches!(
            n,
            DepNode::Bwd {
                vw: 1,
                stage: 1,
                mb: 3
            }
        ) {
            fp.reads
                .push(FootprintResource::Activations { vw: 0, stage: 1 });
        }
        fp
    })
    .expect_err("declared leak must be caught");
    assert_eq!(err.class, IsolationViolationClass::CrossVwLeak);
    assert!(err.from.contains("vw0 s1 fwd mb3"), "{err}");
    assert!(err.to.contains("vw1 s1 bwd mb3"), "{err}");
    assert!(err.detail.contains("vw0 activations s1"), "{err}");
}

#[test]
fn under_declared_footprint_fails_the_isolation_pass() {
    // Backwards that forget they emit the boundary gradient below:
    // the Bwd(s+1) → Bwd(s) data edge loses its explanation, and the
    // verdict names the under-declaring op.
    let (graph, model) = wave_graph_and_model(2);
    let err = verify_isolation_with(&graph, |n| {
        let mut fp = model.footprint_of(n);
        if matches!(n, DepNode::Bwd { .. }) {
            fp.writes
                .retain(|r| !matches!(r, FootprintResource::Boundary { .. }));
            fp.reads
                .retain(|r| !matches!(r, FootprintResource::Boundary { .. }));
        }
        fp
    })
    .expect_err("under-declared footprint must be caught");
    assert_eq!(err.class, IsolationViolationClass::UnderDeclaredFootprint);
    assert!(err.detail.contains("under-declares"), "{err}");
    assert!(err.from.contains("bwd"), "{err}");
}

#[test]
fn lookahead_witnesses_are_golden_pinned_per_schedule() {
    // The certified lookahead is schedule-independent: every schedule
    // form must produce the *identical* witness for the same (Nm, D,
    // horizon), pinned here in closed form — warmup (D+2)·Nm − 1,
    // steady Nm, gates for every wave whose first dependent minibatch
    // fits the horizon, a push per completed wave.
    let max_mb = 64u64;
    for &(d, gates) in &[(0usize, 15usize), (1, 14)] {
        let wsp = WspParams::new(NM, d);
        let golden = LookaheadWitness {
            warmup: ((d + 2) * NM - 1) as u64,
            steady_segment: NM as u64,
            gates,
            pushes: (max_mb / NM as u64) as usize,
        };
        for &schedule in Schedule::ALL.iter() {
            for recompute in RecomputePolicy::ALL {
                let w = verify_lookahead(schedule, K_GPUS, wsp, recompute, max_mb)
                    .unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(w, golden, "{} d={d} {recompute}", schedule.name());
            }
        }
    }
}

#[test]
fn gate_protocol_por_counts_are_pinned() {
    // The standing gate-protocol scenarios through the facade: the
    // 3-engine full enumeration pinned to its multinomial (the
    // exhaustiveness check), and the POR trace counts pinned so a
    // change in the reduction — or the protocol — is visible.
    let reports = check_gate_protocol().expect("gate protocol holds");
    let pins: Vec<(u64, u64, bool)> = reports
        .iter()
        .map(|r| (r.unreduced, r.explored, r.por))
        .collect();
    assert_eq!(
        pins,
        vec![
            (34_650, 34_650, false),
            (34_650, 2_083, true),
            (63_063_000, 763_615, true),
        ]
    );
    // Negative control: the advance-past-gate engine is refuted under
    // the same reduction, and the counterexample says why.
    let v = check_broken_gate_protocol().expect("broken gate must be refuted");
    assert!(
        v.message.contains("stale read") || v.message.contains("spread"),
        "{v}"
    );
}

#[test]
fn committed_queues_drive_the_facade_verifier() {
    // End-to-end through the facade: extract the committed queues the
    // executor would run and certify them directly, the same path
    // `verify_all` sweeps.
    let wsp = WspParams::new(NM, 0);
    let queues = committed_queues(
        Schedule::HetPipeWave,
        K_GPUS,
        wsp,
        RecomputePolicy::None,
        32,
    );
    let sets = vec![queues.clone(), queues];
    let (nodes, edges) = verify_queues(&sets, K_GPUS, wsp).expect("wave schedule is deadlock-free");
    assert!(nodes > 0 && edges > 0);
}
