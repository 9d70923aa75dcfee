//! Property tests of the partition solver: structural invariants plus
//! optimality certified against exhaustive enumeration.
//!
//! Written as seeded random sweeps rather than `proptest` (the offline
//! build vendors no shrinking framework); each case prints its seed on
//! failure so it can be replayed.

use hetpipe::cluster::{GpuKind, LinkKind};
use hetpipe::model::mlp;
use hetpipe::partition::brute::solve_brute;
use hetpipe::partition::{PartitionProblem, PartitionSolver, StageCostModel};
use hetpipe::schedule::{PipelineSchedule, RecomputePolicy, Schedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn gpu_pool() -> Vec<GpuKind> {
    vec![
        GpuKind::TitanV,
        GpuKind::TitanRtx,
        GpuKind::Rtx2060,
        GpuKind::QuadroP4000,
    ]
}

/// On random MLPs with random heterogeneous GPU assignments, the DP
/// solver's bottleneck equals the brute-force optimum, and the plan is
/// a contiguous cover.
#[test]
fn dp_matches_brute_force() {
    let pool = gpu_pool();
    for case in 0u64..48 {
        let mut rng = SmallRng::seed_from_u64(0xA11C_E000 + case);
        let n_layers = rng.gen_range(3usize..9);
        let widths: Vec<usize> = (0..n_layers).map(|_| rng.gen_range(8usize..256)).collect();
        let k = rng.gen_range(2usize..5);
        let nm = rng.gen_range(1usize..4);
        let graph = mlp(16, &widths);
        if graph.len() < k {
            continue;
        }
        let gpus: Vec<_> = (0..k)
            .map(|_| pool[rng.gen_range(0usize..4)].spec())
            .collect();
        let links: Vec<LinkKind> = (0..k - 1)
            .map(|_| {
                if rng.gen_range(0usize..2) == 0 {
                    LinkKind::Pcie
                } else {
                    LinkKind::Infiniband
                }
            })
            .collect();
        let problem = PartitionProblem::new(&graph, gpus, links, nm);
        let dp = PartitionSolver::solve(&problem);
        let brute = solve_brute(&problem);
        match (dp, brute) {
            (Ok(a), Ok(b)) => {
                assert!(
                    (a.bottleneck_secs - b.bottleneck_secs).abs() < 1e-12,
                    "case {case}: dp {} vs brute {}",
                    a.bottleneck_secs,
                    b.bottleneck_secs
                );
                assert!(a.is_valid_cover(graph.len()), "case {case}");
                assert_eq!(a.ranges.len(), k, "case {case}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "case {case}"),
            (a, b) => panic!("case {case}: feasibility disagreement: {a:?} vs {b:?}"),
        }
    }
}

/// Feasibility is monotone in Nm: if Nm is feasible, so is Nm - 1.
#[test]
fn feasibility_monotone_in_nm() {
    let graph = hetpipe::model::resnet152(48);
    let gpus = vec![GpuKind::Rtx2060.spec(); 4];
    let links = vec![LinkKind::Pcie; 3];
    let at = |n: usize| {
        PartitionSolver::solve(&PartitionProblem::new(
            &graph,
            gpus.clone(),
            links.clone(),
            n,
        ))
        .is_ok()
    };
    for nm in 2usize..8 {
        if at(nm) {
            assert!(at(nm - 1), "Nm={} feasible but Nm={} not", nm, nm - 1);
        }
    }
}

/// The paper-testbed plans for both evaluation models are valid covers
/// with monotonically reasonable bottlenecks.
#[test]
fn evaluation_model_plans_are_valid() {
    for graph in [hetpipe::model::resnet152(32), hetpipe::model::vgg19(32)] {
        for k in 1..=4usize {
            let gpus: Vec<_> = gpu_pool().into_iter().take(k).map(|g| g.spec()).collect();
            let links = vec![LinkKind::Pcie; k.saturating_sub(1)];
            let plan = PartitionSolver::solve(&PartitionProblem::new(&graph, gpus, links, 1))
                .expect("feasible at Nm=1");
            assert!(plan.is_valid_cover(graph.len()), "{} k={k}", graph.name);
            assert!(plan.bottleneck_secs > 0.0);
        }
    }
}

/// Memory fit is monotone in the range end: for a fixed stage and
/// start, once `StageCostModel::fits` (or `fits_alone`) is false for
/// some end, it stays false for every larger end. The DP's frontier
/// `break` and its one-probe last stage are exact only because of it.
/// Tier: dynamically audited, over every zoo model, schedule and
/// recompute policy at `Nm ∈ {1, 2, 4, 8}` on 2 and 4 mixed GPUs.
#[test]
fn memory_fit_is_monotone_in_the_range_end() {
    let models = [
        hetpipe::model::vgg19(32),
        hetpipe::model::resnet152(32),
        hetpipe::model::resnet50(32),
        hetpipe::model::transformer_encoder(12, 768, 12, 128, 32),
        mlp(64, &[4096, 4096, 2048, 1024, 10]),
    ];
    let pool = [
        GpuKind::TitanV,
        GpuKind::TitanRtx,
        GpuKind::Rtx2060,
        GpuKind::QuadroP4000,
    ];
    let (mut probes, mut refused) = (0u64, 0u64);
    for graph in &models {
        let n = graph.len();
        for schedule in Schedule::ALL {
            for recompute in RecomputePolicy::ALL {
                for nm in [1, 2, 4, 8] {
                    for gpus in [2, 4] {
                        let k = schedule.virtual_stages(gpus);
                        let problem = PartitionProblem::with_schedule(
                            graph,
                            (0..k).map(|s| pool[s % gpus].spec()).collect(),
                            vec![LinkKind::Pcie; k - 1],
                            nm,
                            schedule,
                        )
                        .with_recompute(recompute);
                        let model = StageCostModel::new(&problem);
                        for stage in 0..k {
                            for start in 0..n {
                                let (mut fits, mut alone) = (true, true);
                                for end in start + 1..=n {
                                    let (f, a) = (
                                        model.fits(stage, start..end),
                                        model.fits_alone(stage, start..end),
                                    );
                                    let at = || {
                                        format!(
                                            "{} {schedule} {recompute} nm={nm} stage {stage} \
                                             of {k}: {start}..{end}",
                                            graph.name
                                        )
                                    };
                                    assert!(fits || !f, "fits again at {}", at());
                                    assert!(alone || !a, "fits_alone again at {}", at());
                                    (fits, alone) = (f, a);
                                    probes += 2;
                                    refused += u64::from(!f) + u64::from(!a);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // Non-vacuous: about 1.57M probes, 7% of them over budget.
    assert!(probes > 1_000_000, "only {probes} probes");
    assert!(
        refused > probes / 20,
        "only {refused} of {probes} probes refused"
    );
}
