//! The threaded training harness.
//!
//! `N` OS threads play `N` virtual workers. The WSP mode reproduces the
//! paper's semantics exactly:
//!
//! - minibatch `p`'s gradient is computed against the local weights as
//!   of `p`'s *injection* (HetPipe keeps `w_p` until `p`'s backward,
//!   Section 4) and applied locally `s_local = Nm − 1` injections later
//!   — the pipeline's inherent local staleness;
//! - every `Nm` completions, the *aggregated* wave delta is pushed to
//!   the parameter server as one unit (Section 5);
//! - injection of minibatch `p` blocks until the local weights cover
//!   the globally-required wave (the `s_global` gate), which is a real
//!   blocking wait on the server's condition variable — the same
//!   distance-`D` coordination the simulator models in time.
//!
//! BSP, ASP, and classic SSP are provided as convergence baselines
//! (Section 2.2's taxonomy).

use crate::data::Dataset;
use crate::mlp::Mlp;
use crate::ps::ParameterServer;
use crate::sgd::{accumulate, apply_delta, Sgd};
use hetpipe_schedule::WspParams;
use std::collections::VecDeque;
use std::sync::Arc;

/// Synchronization mode of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Wave Synchronous Parallel with pipeline depth `nm` and clock
    /// distance bound `d`.
    Wsp {
        /// Minibatches concurrently in flight per worker (`Nm`).
        nm: usize,
        /// Clock-distance bound (`D`).
        d: usize,
    },
    /// Bulk Synchronous Parallel (barrier per minibatch).
    Bsp,
    /// Asynchronous Parallel (no coordination).
    Asp,
    /// Stale Synchronous Parallel with per-minibatch staleness `s`.
    Ssp {
        /// Staleness threshold in minibatches.
        s: usize,
    },
}

/// Configuration of a threaded training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Synchronization mode.
    pub mode: Mode,
    /// Number of worker threads (virtual workers).
    pub workers: usize,
    /// MLP layer widths (input first, classes last).
    pub dims: Vec<usize>,
    /// Minibatch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Minibatches each worker processes.
    pub steps_per_worker: u64,
    /// RNG seed for model initialization.
    pub seed: u64,
    /// Snapshot interval for the accuracy curve, in total minibatch
    /// updates (0 = only the final point).
    pub snapshot_every: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            mode: Mode::Wsp { nm: 4, d: 0 },
            workers: 4,
            dims: vec![16, 64, 32, 4],
            batch: 32,
            lr: 0.05,
            momentum: 0.9,
            steps_per_worker: 500,
            seed: 42,
            snapshot_every: 100,
        }
    }
}

/// Results of a training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Cumulative update counts at which accuracy was sampled.
    pub curve_steps: Vec<u64>,
    /// Test accuracy at each sampled point.
    pub curve_accuracy: Vec<f64>,
    /// Final test accuracy (global weights).
    pub final_accuracy: f64,
    /// Total minibatch updates applied to the global weights.
    pub total_updates: u64,
    /// Maximum observed clock distance (staleness audit: WSP must keep
    /// this within `D + 1`).
    pub max_clock_distance: u64,
}

/// Runs a threaded training session and returns the accuracy curve.
///
/// # Panics
///
/// Panics if `workers == 0` or the dataset class count disagrees with
/// the model's output width.
pub fn train(dataset: &Dataset, config: &TrainConfig) -> TrainOutcome {
    assert!(config.workers >= 1, "need at least one worker");
    assert_eq!(
        *config.dims.last().expect("non-empty dims"),
        dataset.classes,
        "model output width must equal the class count"
    );

    let init = Mlp::new(&config.dims, config.seed);
    let ps = Arc::new(ParameterServer::new(
        init.to_flat(),
        config.workers,
        config.snapshot_every,
    ));

    std::thread::scope(|scope| {
        for worker in 0..config.workers {
            let ps = Arc::clone(&ps);
            let config = config.clone();
            scope.spawn(move || match config.mode {
                Mode::Wsp { nm, d } => run_wsp(worker, &ps, dataset, &config, nm, d),
                Mode::Bsp => run_bsp(worker, &ps, dataset, &config),
                Mode::Asp => run_asp(worker, &ps, dataset, &config),
                Mode::Ssp { s } => run_ssp(worker, &ps, dataset, &config, s),
            });
        }
    });

    // Offline: evaluate the snapshots into an accuracy curve.
    let mut model = init;
    let mut curve_steps = Vec::new();
    let mut curve_accuracy = Vec::new();
    for (updates, weights) in ps.take_snapshots() {
        model.load_flat(&weights);
        curve_steps.push(updates);
        curve_accuracy.push(model.accuracy(&dataset.test_x, &dataset.test_y));
    }
    let final_weights = ps.final_weights();
    model.load_flat(&final_weights);
    let final_accuracy = model.accuracy(&dataset.test_x, &dataset.test_y);
    let total = ps.total_updates();
    if curve_steps.last() != Some(&total) {
        curve_steps.push(total);
        curve_accuracy.push(final_accuracy);
    }

    TrainOutcome {
        curve_steps,
        curve_accuracy,
        final_accuracy,
        total_updates: total,
        max_clock_distance: ps.max_clock_distance(),
    }
}

/// The WSP worker loop (pipelined SGD with wave pushes).
fn run_wsp(
    worker: usize,
    ps: &ParameterServer,
    dataset: &Dataset,
    config: &TrainConfig,
    nm: usize,
    d: usize,
) {
    let mut model = Mlp::new(&config.dims, config.seed);
    let mut local = model.to_flat();
    let mut opt = Sgd::new(local.len(), config.lr, config.momentum);
    // Deltas of injected-but-not-completed minibatches (pipeline).
    let mut pending: VecDeque<Vec<f32>> = VecDeque::with_capacity(nm);
    // Aggregated deltas of the current wave (applied locally, unpushed).
    let mut wave_acc = vec![0.0f32; local.len()];
    let mut pulled: i64 = -1;
    let mut completed: u64 = 0;
    let wsp = WspParams::new(nm, d);
    let s_local = wsp.s_local();

    let complete_one = |pending: &mut VecDeque<Vec<f32>>,
                        local: &mut Vec<f32>,
                        wave_acc: &mut Vec<f32>,
                        completed: &mut u64| {
        let delta = pending.pop_front().expect("pipeline non-empty");
        apply_delta(local, &delta);
        accumulate(wave_acc, &delta);
        *completed += 1;
        if (*completed).is_multiple_of(nm as u64) {
            ps.push(worker, wave_acc, nm as u64);
            wave_acc.iter_mut().for_each(|v| *v = 0.0);
        }
    };

    for p in 1..=config.steps_per_worker {
        // The WSP start gate (Section 5): block until the local weights
        // cover the required global wave.
        if let Some(req) = wsp.required_wave(p) {
            if pulled < req as i64 {
                let (global, covered) = ps.pull_wait(req);
                // Local view = global weights + this worker's local
                // updates that are not yet part of a pushed wave.
                local = global;
                apply_delta(&mut local, &wave_acc);
                pulled = covered as i64;
            }
        }
        // Inject minibatch p: gradient against the *current* local
        // weights (w_p), applied s_local injections later.
        model.load_flat(&local);
        let (x, y) = dataset.minibatch(worker, config.workers, p - 1, config.batch);
        let (_, grads) = model.loss_and_gradients(&x, &y);
        pending.push_back(opt.delta(&grads.to_flat()));

        if pending.len() > s_local {
            complete_one(&mut pending, &mut local, &mut wave_acc, &mut completed);
        }
    }
    // Drain the pipeline (the run ends cleanly on a wave boundary when
    // steps_per_worker is a multiple of nm).
    while !pending.is_empty() {
        complete_one(&mut pending, &mut local, &mut wave_acc, &mut completed);
    }
}

/// BSP: compute, push, barrier, pull — per minibatch.
fn run_bsp(worker: usize, ps: &ParameterServer, dataset: &Dataset, config: &TrainConfig) {
    let mut model = Mlp::new(&config.dims, config.seed);
    let mut local = model.to_flat();
    let mut opt = Sgd::new(local.len(), config.lr, config.momentum);
    for p in 1..=config.steps_per_worker {
        model.load_flat(&local);
        let (x, y) = dataset.minibatch(worker, config.workers, p - 1, config.batch);
        let (_, grads) = model.loss_and_gradients(&x, &y);
        let delta = opt.delta(&grads.to_flat());
        ps.push(worker, &delta, 1);
        // Barrier: wait until every worker pushed minibatch p.
        let (global, _) = ps.pull_wait(p - 1);
        local = global;
    }
}

/// ASP: push and pull without any coordination.
fn run_asp(worker: usize, ps: &ParameterServer, dataset: &Dataset, config: &TrainConfig) {
    let mut model = Mlp::new(&config.dims, config.seed);
    let mut opt = Sgd::new(model.param_count(), config.lr, config.momentum);
    for p in 1..=config.steps_per_worker {
        let local = ps.pull_now();
        model.load_flat(&local);
        let (x, y) = dataset.minibatch(worker, config.workers, p - 1, config.batch);
        let (_, grads) = model.loss_and_gradients(&x, &y);
        let delta = opt.delta(&grads.to_flat());
        ps.push(worker, &delta, 1);
    }
}

/// Classic SSP (Ho et al.): per-minibatch pushes, proceed while within
/// `s` clocks of the slowest worker.
fn run_ssp(worker: usize, ps: &ParameterServer, dataset: &Dataset, config: &TrainConfig, s: usize) {
    let mut model = Mlp::new(&config.dims, config.seed);
    let mut local = model.to_flat();
    let mut opt = Sgd::new(local.len(), config.lr, config.momentum);
    for p in 1..=config.steps_per_worker {
        // Worker clock is p-1; it may run while p-1 <= min + s.
        if p - 1 > s as u64 {
            let (global, _) = ps.pull_wait(p - 1 - s as u64 - 1);
            local = global;
        }
        model.load_flat(&local);
        let (x, y) = dataset.minibatch(worker, config.workers, p - 1, config.batch);
        let (_, grads) = model.loss_and_gradients(&x, &y);
        let delta = opt.delta(&grads.to_flat());
        apply_delta(&mut local, &delta);
        ps.push(worker, &delta, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_config(mode: Mode, steps: u64) -> (Dataset, TrainConfig) {
        let dataset = Dataset::gaussian_blobs(16, 4, 2048, 512, 0.5, 13);
        let config = TrainConfig {
            mode,
            workers: 4,
            dims: vec![16, 48, 4],
            batch: 32,
            lr: 0.05,
            momentum: 0.9,
            steps_per_worker: steps,
            seed: 42,
            snapshot_every: 200,
        };
        (dataset, config)
    }

    #[test]
    fn required_wave_matches_core_examples() {
        // The shared examples from the paper (Nm = 4, D = 0).
        let wsp = |d| WspParams::new(4, d);
        assert_eq!(wsp(0).required_wave(7), None);
        assert_eq!(wsp(0).required_wave(8), Some(0));
        assert_eq!(wsp(0).required_wave(11), Some(0));
        assert_eq!(wsp(0).required_wave(12), Some(1));
        assert_eq!(wsp(1).required_wave(12), Some(0));
    }

    #[test]
    fn wsp_converges_on_blobs() {
        let (dataset, config) = blob_config(Mode::Wsp { nm: 4, d: 0 }, 512);
        let out = train(&dataset, &config);
        // Thread interleavings perturb the trajectory run-to-run (and
        // more so under full-suite CPU load); the threshold leaves
        // headroom over the observed spread (dips to ~0.75 seen with
        // the vendored SmallRng stream) while still far above the
        // 3-class chance level.
        assert!(
            out.final_accuracy > 0.70,
            "WSP accuracy = {}",
            out.final_accuracy
        );
        assert_eq!(out.total_updates, 4 * 512);
        assert!(!out.curve_steps.is_empty());
    }

    #[test]
    fn wsp_clock_distance_respects_d() {
        for d in [0usize, 2] {
            let (dataset, config) = blob_config(Mode::Wsp { nm: 4, d }, 128);
            let out = train(&dataset, &config);
            assert!(
                out.max_clock_distance <= d as u64 + 1,
                "D={d}: observed distance {}",
                out.max_clock_distance
            );
        }
    }

    #[test]
    fn bsp_lockstep_distance_one() {
        let (dataset, config) = blob_config(Mode::Bsp, 64);
        let out = train(&dataset, &config);
        assert!(out.max_clock_distance <= 1);
        assert!(
            out.final_accuracy > 0.85,
            "BSP accuracy = {}",
            out.final_accuracy
        );
    }

    #[test]
    fn asp_and_ssp_also_converge_on_easy_task() {
        let (dataset, config) = blob_config(Mode::Asp, 256);
        let out = train(&dataset, &config);
        assert!(
            out.final_accuracy > 0.85,
            "ASP accuracy = {}",
            out.final_accuracy
        );

        let (dataset, config) = blob_config(Mode::Ssp { s: 3 }, 256);
        let out = train(&dataset, &config);
        assert!(
            out.final_accuracy > 0.85,
            "SSP accuracy = {}",
            out.final_accuracy
        );
    }

    #[test]
    fn wsp_single_worker_nm1_equals_sequential_sgd() {
        // With one worker, Nm = 1, D = 0, WSP degrades to exact
        // sequential SGD: verify bit-identical weights.
        let dataset = Dataset::gaussian_blobs(8, 3, 512, 64, 0.4, 21);
        let config = TrainConfig {
            mode: Mode::Wsp { nm: 1, d: 0 },
            workers: 1,
            dims: vec![8, 16, 3],
            batch: 16,
            lr: 0.1,
            momentum: 0.9,
            steps_per_worker: 50,
            seed: 7,
            snapshot_every: 0,
        };
        let out = train(&dataset, &config);

        // Sequential reference.
        let mut model = Mlp::new(&config.dims, config.seed);
        let mut w = model.to_flat();
        let mut opt = Sgd::new(w.len(), config.lr, config.momentum);
        for p in 0..config.steps_per_worker {
            model.load_flat(&w);
            let (x, y) = dataset.minibatch(0, 1, p, config.batch);
            let (_, grads) = model.loss_and_gradients(&x, &y);
            let delta = opt.delta(&grads.to_flat());
            apply_delta(&mut w, &delta);
        }
        model.load_flat(&w);
        let seq_acc = model.accuracy(&dataset.test_x, &dataset.test_y);
        assert_eq!(out.final_accuracy, seq_acc, "bit-identical trajectories");
    }

    #[test]
    fn deeper_pipelines_still_converge() {
        // Larger Nm = more local staleness; convergence survives with a
        // staleness-appropriate learning rate (Section 4: "typically Nm
        // will not be large enough to affect convergence"; the regret
        // bound of Theorem 1 scales the step size with 1/sqrt(s)).
        let (dataset, mut config) = blob_config(Mode::Wsp { nm: 8, d: 0 }, 768);
        config.lr = 0.03;
        config.momentum = 0.0;
        let out = train(&dataset, &config);
        assert!(
            out.final_accuracy > 0.85,
            "Nm=8 accuracy = {}",
            out.final_accuracy
        );
    }

    #[test]
    #[should_panic(expected = "output width")]
    fn class_mismatch_rejected() {
        let dataset = Dataset::gaussian_blobs(8, 3, 64, 16, 0.4, 1);
        let config = TrainConfig {
            dims: vec![8, 16, 5],
            ..TrainConfig::default()
        };
        let _ = train(&dataset, &config);
    }
}
