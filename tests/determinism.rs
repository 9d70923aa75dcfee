//! Reproducibility: identical configurations must simulate to
//! bit-identical reports (fixed-point time + deterministic event
//! ordering) and train to bit-identical outcomes (a seeded step order)
//! under every synchronization mode.

use hetpipe::prelude::*;

fn report(d: usize) -> SystemReport {
    let cluster = Cluster::paper_testbed();
    let graph = resnet152(32);
    let config = SystemConfig {
        policy: AllocationPolicy::HybridDistribution,
        placement: Placement::Default,
        staleness_bound: d,
        ..SystemConfig::default()
    };
    HetPipeSystem::build(&cluster, &graph, &config)
        .expect("feasible")
        .run_with_stats(SimTime::from_secs(20.0))
        .0
}

#[test]
fn identical_runs_identical_reports() {
    let a = report(0);
    let b = report(0);
    assert_eq!(a.minibatches_per_vw, b.minibatches_per_vw);
    assert_eq!(a.waves_per_vw, b.waves_per_vw);
    assert_eq!(a.sync_bytes_inter, b.sync_bytes_inter);
    assert_eq!(a.act_bytes_inter, b.act_bytes_inter);
    assert_eq!(a.pull_wait_per_vw, b.pull_wait_per_vw);
    let ua: Vec<_> = a.gpu_utilization.iter().map(|(_, u)| u.to_bits()).collect();
    let ub: Vec<_> = b.gpu_utilization.iter().map(|(_, u)| u.to_bits()).collect();
    assert_eq!(ua, ub, "utilizations must be bit-identical");
}

#[test]
fn different_d_changes_behaviour() {
    let a = report(0);
    let b = report(4);
    // With HD's (mildly) heterogeneous VWs the waiting budget differs.
    assert!(
        a.total_pull_wait_secs() >= b.total_pull_wait_secs(),
        "D=4 must not wait longer than D=0"
    );
}

/// Trains twice and requires bit-identical outcomes: the seeded step
/// order fixes every pull and push (dynamically audited tier).
fn assert_trainer_deterministic(mode: hetpipe::train::Mode, workers: usize) {
    use hetpipe::train::{train, Dataset, TrainConfig};
    let dataset = Dataset::gaussian_blobs(8, 3, 256, 64, 0.4, 3);
    let config = TrainConfig {
        mode,
        workers,
        dims: vec![8, 12, 3],
        batch: 16,
        lr: 0.05,
        momentum: 0.9,
        steps_per_worker: 60,
        seed: 9,
        snapshot_every: 40,
    };
    let [a, b] = [(); 2].map(|_| train(&dataset, &config));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.curve_steps, b.curve_steps, "{mode:?}");
    assert_eq!(bits(&a.curve_accuracy), bits(&b.curve_accuracy), "{mode:?}");
    assert_eq!(
        a.final_accuracy.to_bits(),
        b.final_accuracy.to_bits(),
        "{mode:?}"
    );
    assert_eq!(a.total_updates, b.total_updates, "{mode:?}");
    assert_eq!(a.max_clock_distance, b.max_clock_distance, "{mode:?}");
}

#[test]
fn trainer_is_deterministic_single_worker() {
    assert_trainer_deterministic(hetpipe::train::Mode::Wsp { nm: 3, d: 0 }, 1);
}

#[test]
fn trainer_is_deterministic_four_workers() {
    use hetpipe::train::Mode;
    for mode in [
        Mode::Bsp,
        Mode::Asp,
        Mode::Ssp { s: 3 },
        Mode::Wsp { nm: 3, d: 0 },
        Mode::Wsp { nm: 3, d: 2 },
    ] {
        assert_trainer_deterministic(mode, 4);
    }
}
