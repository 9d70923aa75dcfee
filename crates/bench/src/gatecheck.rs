//! Model-checking the trainer's WSP gate rule.
//!
//! [`Steps`] hands the real trainer ([`Trainer`], on a tiny model) to
//! [`hetpipe_verify::explore`]: one thread per worker, enabled exactly
//! when [`hetpipe_train::train`]'s picker could draw it. Every state of
//! every step order is then judged:
//!
//! - **no stale read**: each worker's last minibatch ran on a pull that
//!   covered its gate ([`Mode::gate`]; under WSP, `required_wave`);
//! - **bounded spread**: until a worker drains, the push clocks stay
//!   within [`Mode::spread_bound`] (the trainer's `max_clock_distance`
//!   is their widest spread until then);
//! - **termination**: at every leaf, every worker has finished.
//!
//! A drain is exempt: a worker's last step pushes the waves still in
//! its pipeline past no gate, so at `D = 1` the spread reaches `D + 2`
//! once a worker drains. [`Checked`] records both maxima. The negative
//! control, [`Steps::skipping_gates`], steps a worker whose pull is
//! outstanding through the same [`Trainer::step`], and must be refuted.

use hetpipe_train::{Dataset, Mode, ParameterServer, TrainConfig, Trainer};
use hetpipe_verify::{explore, Spec};

/// The standing scenarios: `(mode, workers, steps per worker)`.
pub const SCENARIOS: [(Mode, usize, u64); 5] = [
    (Mode::Bsp, 3, 3),
    (Mode::Ssp { s: 2 }, 3, 4),
    (Mode::Wsp { nm: 2, d: 0 }, 3, 8),
    (Mode::Wsp { nm: 2, d: 1 }, 3, 8),
    (Mode::Wsp { nm: 4, d: 1 }, 3, 14),
];

/// The scenarios' data: two classes in two dimensions.
pub fn dataset() -> Dataset {
    Dataset::gaussian_blobs(2, 2, 64, 8, 0.5, 3)
}

/// A scenario's run: `dims [2, 2]`, batch 2, no snapshots.
pub fn config(mode: Mode, workers: usize, steps: u64) -> TrainConfig {
    TrainConfig {
        mode,
        workers,
        dims: vec![2, 2],
        batch: 2,
        lr: 0.1,
        momentum: 0.9,
        steps_per_worker: steps,
        seed: 42,
        snapshot_every: 0,
    }
}

/// The trainer's step loop as a checker spec.
pub struct Steps<'a> {
    /// The data the run trains on.
    pub dataset: &'a Dataset,
    /// The run.
    pub config: &'a TrainConfig,
    /// Which workers may step: [`Trainer::ready`], or a broken picker.
    pub enabled: fn(&Trainer<'a>, usize) -> bool,
}

impl<'a> Steps<'a> {
    /// The real step loop: a worker steps when [`Trainer::ready`].
    pub fn new(dataset: &'a Dataset, config: &'a TrainConfig) -> Steps<'a> {
        Steps {
            dataset,
            config,
            enabled: Trainer::ready,
        }
    }

    /// The negative control: a worker also steps while its pull is
    /// outstanding, as if it skipped its gate. It must be refuted.
    pub fn skipping_gates(dataset: &'a Dataset, config: &'a TrainConfig) -> Steps<'a> {
        Steps {
            enabled: |trainer, worker| !trainer.finished(worker),
            ..Steps::new(dataset, config)
        }
    }
}

impl<'a> Spec for Steps<'a> {
    type State = Trainer<'a>;

    fn init(&self) -> Trainer<'a> {
        Trainer::new(self.dataset, self.config)
    }

    fn threads(&self) -> usize {
        self.config.workers
    }

    fn enabled(&self, trainer: &Trainer<'a>, worker: usize) -> bool {
        (self.enabled)(trainer, worker)
    }

    fn step(&self, trainer: &mut Trainer<'a>, worker: usize) {
        trainer.step(worker);
    }

    fn check(&self, trainer: &Trainer<'a>) -> Result<(), String> {
        let mode = self.config.mode;
        let spread = trainer.server().max_clock_distance();
        if let Some(bound) = mode.spread_bound().filter(|&bound| spread > bound) {
            return Err(format!(
                "push-clock spread {spread} before any drain exceeds {bound}"
            ));
        }
        for i in 0..self.config.workers {
            let p = trainer.next_minibatch(i) - 1;
            if let Some(gate) = mode.gate(p).filter(|&gate| trainer.pulled(i) <= gate) {
                return Err(format!(
                    "stale read through the gate: worker {i} ran minibatch {p}, which needs \
                     every worker past push {gate}, on a pull covering {}",
                    trainer.pulled(i)
                ));
            }
        }
        let leaf = !(0..self.config.workers).any(|i| self.enabled(trainer, i));
        match (0..self.config.workers).find(|&i| !trainer.finished(i)) {
            Some(i) if leaf => Err(format!(
                "stuck: worker {i} waits at minibatch {} and no worker can step",
                trainer.next_minibatch(i)
            )),
            _ => Ok(()),
        }
    }
}

/// What checking one scenario reached.
#[derive(Debug)]
pub struct Checked {
    /// Distinct reachable states.
    pub states: usize,
    /// Steps applied.
    pub steps: u64,
    /// Reachable states where no worker can step.
    pub leaves: u64,
    /// Reachable states where some worker waits at a closed gate.
    pub closed: usize,
    /// The widest push-clock spread before any drain (the trainer's
    /// `max_clock_distance`).
    pub spread: u64,
    /// The widest push-clock spread, drains included.
    pub drained_spread: u64,
}

/// Explores every step order of a scenario. Fails on a violated
/// invariant, and when no reachable state has a closed gate (the
/// scenario would prove nothing about the gate).
pub fn check(mode: Mode, workers: usize, steps: u64) -> Result<Checked, String> {
    let (dataset, config) = (dataset(), config(mode, workers, steps));
    let explored = explore(&Steps::new(&dataset, &config)).map_err(|v| v.to_string())?;
    let states = &explored.states;
    let widest = |f: fn(&ParameterServer) -> u64| states.iter().map(|t| f(t.server())).max();
    let checked = Checked {
        states: states.len(),
        steps: explored.steps,
        leaves: explored.leaves,
        closed: states
            .iter()
            .filter(|t| (0..workers).any(|i| t.server().waiting(i)))
            .count(),
        spread: widest(ParameterServer::max_clock_distance).unwrap_or(0),
        drained_spread: widest(|ps| ps.clocks().max_spread()).unwrap_or(0),
    };
    if checked.closed == 0 {
        return Err("no reachable state has a closed gate".into());
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_bound_is_judged() {
        // Two pushes of worker 0 at Nm = 1, D = 0, the second past its
        // closed gate: clocks 2 apart, beyond D + 1.
        let (dataset, config) = (dataset(), config(Mode::Wsp { nm: 1, d: 0 }, 2, 4));
        let spec = Steps::new(&dataset, &config);
        let mut trainer = spec.init();
        spec.step(&mut trainer, 0);
        assert!(spec.check(&trainer).is_ok() && !trainer.ready(0));
        spec.step(&mut trainer, 0);
        let err = spec.check(&trainer).unwrap_err();
        assert!(err.contains("spread 2"), "{err}");
    }

    #[test]
    fn standing_scenarios_prove_gate_safety() {
        for &(mode, workers, steps) in &SCENARIOS {
            let c = check(mode, workers, steps)
                .unwrap_or_else(|e| panic!("{mode:?} x{workers}x{steps}: {e}"));
            assert!(c.closed > 0 && c.leaves > 0, "{mode:?}: {c:?}");
            assert!(c.spread <= c.drained_spread, "{mode:?}: {c:?}");
            assert!(c.spread <= mode.spread_bound().unwrap(), "{mode:?}: {c:?}");
        }
    }

    // Named for the partial-order reduction the checker used to run;
    // the refutation now comes from the deduplicated exploration.
    #[test]
    fn broken_gate_is_refuted_under_por() {
        let (dataset, config) = (dataset(), config(Mode::Wsp { nm: 2, d: 0 }, 3, 8));
        let v = explore(&Steps::skipping_gates(&dataset, &config))
            .err()
            .expect("stepping past an outstanding pull must be refuted");
        assert!(v.message.contains("stale read"), "{v}");
        // The counterexample ends in the illegal step: its worker was
        // neither finished nor ready.
        let (&last, before) = v.schedule.split_last().unwrap();
        let mut trainer = Trainer::new(&dataset, &config);
        for &worker in before {
            trainer.step(worker);
        }
        assert!(!trainer.finished(last) && !trainer.ready(last), "{v}");
    }
}
