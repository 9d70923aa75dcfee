//! Convergence integration tests: the real threaded trainer + the
//! accuracy/time composition behind Figures 5 and 6.

use hetpipe::core::convergence::{time_to_accuracy, AccuracyCurve};
use hetpipe::train::{train, Dataset, Mode, TrainConfig};

fn run_mode(mode: Mode, workers: usize, steps: u64) -> (f64, AccuracyCurve) {
    let dataset = Dataset::gaussian_blobs(16, 4, 2048, 512, 0.35, 13);
    let config = TrainConfig {
        mode,
        workers,
        dims: vec![16, 64, 4],
        batch: 32,
        lr: 0.05,
        momentum: 0.9,
        steps_per_worker: steps,
        seed: 42,
        snapshot_every: 64,
    };
    let out = train(&dataset, &config);
    (
        out.final_accuracy,
        AccuracyCurve::new(out.curve_steps, out.curve_accuracy),
    )
}

#[test]
fn wsp_and_bsp_reach_target_accuracy() {
    // Thread interleavings perturb the trajectories; thresholds leave
    // headroom over the observed run-to-run spread.
    let (wsp_acc, _) = run_mode(Mode::Wsp { nm: 4, d: 0 }, 4, 512);
    let (bsp_acc, _) = run_mode(Mode::Bsp, 4, 512);
    assert!(wsp_acc > 0.80, "WSP accuracy {wsp_acc}");
    assert!(bsp_acc > 0.80, "BSP accuracy {bsp_acc}");
}

#[test]
fn composition_orders_configurations_by_throughput() {
    // Same statistical efficiency, different simulated throughput:
    // faster config reaches the target sooner — the Figure 5 mechanism.
    let (_, curve) = run_mode(Mode::Wsp { nm: 4, d: 0 }, 4, 512);
    let target = 0.7;
    let slow = time_to_accuracy(5.0, &curve, target);
    let fast = time_to_accuracy(15.0, &curve, target);
    match (slow, fast) {
        (Some(s), Some(f)) => assert!(f < s, "3x throughput converges sooner"),
        other => panic!("curve never reaches {target}: {other:?}"),
    }
}

#[test]
fn bounded_staleness_still_converges() {
    // Theorem 1's structural guarantee: any bounded D converges. (The
    // *magnitude* of D = 32's statistical penalty is workload-dependent
    // — the paper measures 4.7% on ImageNet, the paper scorecard's
    // `fig6.vgg19.d32_vs_d4_slowdown` row records it on the teacher
    // task — so this test asserts convergence, not the ordering.)
    let (tight, _) = run_mode(Mode::Wsp { nm: 4, d: 0 }, 4, 512);
    let (loose, _) = run_mode(Mode::Wsp { nm: 4, d: 32 }, 4, 512);
    assert!(tight > 0.7, "D=0 accuracy {tight}");
    assert!(loose > 0.7, "D=32 accuracy {loose}");
}

#[test]
fn accuracy_curves_are_monotone_in_steps() {
    let (_, curve) = run_mode(Mode::Bsp, 4, 192);
    for w in curve.steps.windows(2) {
        assert!(w[0] < w[1], "snapshot steps strictly increase");
    }
    // Learning happened: the curve's best point clearly beats chance
    // (4 classes => 25%).
    let best = curve.accuracy.iter().cloned().fold(0.0, f64::max);
    assert!(best > 0.6, "best accuracy {best}");
}
