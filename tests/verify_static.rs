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
//! and an acausal version rule, and a trainer worker stepped past its
//! outstanding pull — and asserts each is rejected with a
//! counterexample, so a regression that made any pass vacuous would
//! fail here before it silently weakened the gate. The model check of
//! the trainer's step loop is also cross-checked against a naive
//! search that keeps no visited set.

use hetpipe::cluster::{Cluster, DeviceId};
use hetpipe::core::{
    AllocationPolicy, HetPipeSystem, OccupancyAudit, Placement, RecomputePolicy, Schedule,
    SystemConfig,
};
use hetpipe::des::{check_bounds, BoundEntity, OccupancyBound, SimTime};
use hetpipe::schedule::{
    committed_queues, CommittedQueue, GpuOp, PipelineSchedule, QueueKind, ScheduleOp, WspParams,
};
use hetpipe::train::Mode;
use hetpipe::verify::{
    explore, structural_occupancy, verify_lookahead, verify_queues, verify_version_rule,
    LookaheadWitness, Spec,
};
use hetpipe_bench::gatecheck::{self, Steps};
use std::collections::HashSet;

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
        audit.bounds[0].measured >= Some(1),
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
    // entities exist, or merge_measured would silently skip peaks.
    let wsp = WspParams::new(NM, 0);
    let entities = |bounds: &[OccupancyBound]| bounds.iter().map(|b| b.entity).collect::<Vec<_>>();
    for &schedule in Schedule::ALL.iter() {
        let audit = golden_audit(schedule, RecomputePolicy::None);
        let report = structural_occupancy(schedule, K_GPUS, wsp, RecomputePolicy::None, 64);
        assert_eq!(
            entities(&audit.bounds),
            entities(&report.bounds),
            "{}",
            schedule.name()
        );
    }
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
    // The name dates from the partial-order reduction; the pins are
    // distinct-state counts now. The standing scenarios of the
    // trainer's step loop, in `gatecheck::SCENARIOS` order: (distinct
    // states, states with a closed gate, spread before any drain,
    // spread with drains). A change in a pin means the trainer's step
    // semantics changed.
    let pins: Vec<(usize, usize, u64, u64)> = gatecheck::SCENARIOS
        .iter()
        .map(|&(mode, workers, steps)| {
            let c = gatecheck::check(mode, workers, steps)
                .unwrap_or_else(|e| panic!("{mode:?} x{workers}x{steps}: {e}"));
            (c.states, c.closed, c.spread, c.drained_spread)
        })
        .collect();
    assert_eq!(
        pins,
        vec![
            (274, 47, 1, 1),
            (35_539, 89, 3, 3),
            (948, 317, 1, 1),
            (20_346, 741, 2, 2),
            (12_307, 553, 2, 3),
        ]
    );
    // Negative control: a worker stepped past its outstanding pull is
    // refuted, and the counterexample says why.
    let (dataset, config) = (
        gatecheck::dataset(),
        gatecheck::config(Mode::Wsp { nm: 2, d: 0 }, 3, 8),
    );
    let v = explore(&Steps::skipping_gates(&dataset, &config))
        .err()
        .expect("stepping past a closed gate must be refuted");
    assert!(v.message.contains("stale read"), "{v}");
    assert_eq!(v.schedule.len(), 4, "{v}");
}

#[test]
fn trainer_spread_statistic_excludes_the_drain() {
    // WSP (2, 1), 2 workers x 7, every step order: the clocks reach
    // D + 1 = 2 apart before any drain, and D + 2 = 3 once a worker's
    // last step pushes its in-flight waves past no gate. The trainer
    // records the first.
    let c = gatecheck::check(Mode::Wsp { nm: 2, d: 1 }, 2, 7).expect("gate rule holds");
    assert_eq!((c.spread, c.drained_spread), (2, 3));
}

/// Every state reachable from `state`, by a search that keeps no
/// visited set and so walks every step order in full.
fn naive<S: Spec>(spec: &S, state: &S::State, seen: &mut HashSet<S::State>) {
    seen.insert(state.clone());
    for worker in 0..spec.threads() {
        if spec.enabled(state, worker) {
            let mut next = state.clone();
            spec.step(&mut next, worker);
            naive(spec, &next, seen);
        }
    }
}

#[test]
fn deduplicated_exploration_reaches_the_naive_state_set() {
    // The visited set prunes a path only where it reaches a state
    // already explored, so it must reach exactly the states the full
    // enumeration of step orders reaches.
    for (mode, workers, steps) in [
        (Mode::Wsp { nm: 2, d: 0 }, 3, 4),
        (Mode::Wsp { nm: 2, d: 1 }, 2, 7),
    ] {
        let (dataset, config) = (
            gatecheck::dataset(),
            gatecheck::config(mode, workers, steps),
        );
        let spec = Steps::new(&dataset, &config);
        let explored = explore(&spec).expect("gate rule holds");
        let mut seen = HashSet::new();
        naive(&spec, &spec.init(), &mut seen);
        assert!(
            explored.states == seen,
            "{mode:?}: {} states explored, {} naive",
            explored.states.len(),
            seen.len()
        );
    }
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
