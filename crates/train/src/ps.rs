//! The parameter server.
//!
//! It maintains the global weights, a per-worker push clock, and
//! periodic weight snapshots for offline accuracy curves. Under WSP a
//! "push" is one *wave* (the aggregated delta of `Nm` minibatches,
//! Section 5); under BSP/SSP/ASP a push is one minibatch.
//!
//! [`ParameterServer::pull`] implements the paper's straggler wait: a
//! pull names a gate, a clock every worker must be past (the
//! distance-`D` rule). The server serves it at once when the gate is
//! open, or else at the push that opens it, with the weights of that
//! instant and the number of pushes every worker has made by then. A worker with a pull outstanding
//! is [`waiting`](ParameterServer::waiting).

/// The parameter server shared by the workers of one run.
pub struct ParameterServer {
    weights: Vec<f32>,
    clocks: Vec<u64>,
    /// Per worker: the gate its outstanding pull waits for.
    gates: Vec<Option<u64>>,
    /// Per worker: the pull served when its gate opened, as weights and
    /// the slowest worker's clock.
    served: Vec<Option<(Vec<f32>, u64)>>,
    total_updates: u64,
    snapshot_every: u64,
    last_snapshot_at: u64,
    snapshots: Vec<(u64, Vec<f32>)>,
    max_clock_distance: u64,
}

impl ParameterServer {
    /// Creates a server for `workers` workers with initial weights and
    /// a snapshot interval in minibatch updates (0 disables snapshots).
    pub fn new(init: Vec<f32>, workers: usize, snapshot_every: u64) -> ParameterServer {
        ParameterServer {
            weights: init,
            clocks: vec![0; workers],
            gates: vec![None; workers],
            served: vec![None; workers],
            total_updates: 0,
            snapshot_every,
            last_snapshot_at: 0,
            snapshots: Vec::new(),
            max_clock_distance: 0,
        }
    }

    /// Applies a pushed delta covering `minibatches` updates, advances
    /// `worker`'s clock and serves every pull whose gate this opens.
    pub fn push(&mut self, worker: usize, delta: &[f32], minibatches: u64) {
        assert_eq!(self.weights.len(), delta.len(), "delta size mismatch");
        for (w, &d) in self.weights.iter_mut().zip(delta) {
            *w += d;
        }
        self.clocks[worker] += 1;
        self.total_updates += minibatches;

        let max = *self.clocks.iter().max().expect("at least one worker");
        self.max_clock_distance = self.max_clock_distance.max(max - self.min_clock());

        if self.snapshot_every > 0
            && self.total_updates - self.last_snapshot_at >= self.snapshot_every
        {
            self.last_snapshot_at = self.total_updates;
            self.snapshots
                .push((self.total_updates, self.weights.clone()));
        }
        for w in 0..self.gates.len() {
            if self.gates[w].is_some_and(|gate| self.is_open(gate)) {
                self.gates[w] = None;
                self.served[w] = Some(self.serve());
            }
        }
    }

    /// Whether every worker's clock exceeds `gate` (all have pushed
    /// wave/update `gate`, 0-indexed).
    pub fn is_open(&self, gate: u64) -> bool {
        self.min_clock() > gate
    }

    /// Requests the weights for `worker` once `gate` is open: now if it
    /// is, else at the push that opens it.
    pub fn pull(&mut self, worker: usize, gate: u64) {
        if self.is_open(gate) {
            self.served[worker] = Some(self.serve());
        } else {
            self.gates[worker] = Some(gate);
        }
    }

    /// Whether `worker` waits for a gate to open.
    pub fn waiting(&self, worker: usize) -> bool {
        self.gates[worker].is_some()
    }

    /// Takes `worker`'s served pull: the weights and the slowest
    /// worker's clock when it was served (the pushes the weights
    /// cover from every worker).
    pub fn take_pull(&mut self, worker: usize) -> Option<(Vec<f32>, u64)> {
        self.served[worker].take()
    }

    /// The current global weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Total minibatch updates applied so far.
    pub fn total_updates(&self) -> u64 {
        self.total_updates
    }

    /// The largest clock distance ever observed between the fastest and
    /// slowest worker (the quantity WSP bounds by `D`, modulo the
    /// in-flight push that makes the observable bound `D + 1`).
    pub fn max_clock_distance(&self) -> u64 {
        self.max_clock_distance
    }

    /// Drains the recorded `(total_updates, weights)` snapshots.
    pub fn take_snapshots(&mut self) -> Vec<(u64, Vec<f32>)> {
        std::mem::take(&mut self.snapshots)
    }

    fn min_clock(&self) -> u64 {
        *self.clocks.iter().min().expect("at least one worker")
    }

    fn serve(&self) -> (Vec<f32>, u64) {
        (self.weights.clone(), self.min_clock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_applies_delta_and_advances_clock() {
        let mut ps = ParameterServer::new(vec![0.0; 3], 2, 0);
        ps.push(0, &[1.0, 2.0, 3.0], 4);
        assert_eq!(ps.weights(), [1.0, 2.0, 3.0]);
        assert_eq!(ps.total_updates(), 4);
    }

    #[test]
    fn gate_opens_when_every_worker_pushed() {
        let mut ps = ParameterServer::new(vec![0.0], 2, 0);
        assert!(!ps.is_open(0));
        ps.pull(1, 0);
        assert!(ps.waiting(1));
        assert_eq!(ps.take_pull(1), None, "nothing served while waiting");
        // Gate 0 needs both workers past clock 0.
        ps.push(0, &[1.0], 1);
        assert!(
            !ps.is_open(0) && ps.waiting(1),
            "must still wait for worker 1"
        );
        ps.push(1, &[1.0], 1);
        assert!(ps.is_open(0) && !ps.is_open(1));
        // Served at the opening push, not at a later one.
        ps.push(0, &[5.0], 1);
        assert!(!ps.waiting(1));
        assert_eq!(ps.take_pull(1), Some((vec![2.0], 1)));
        assert_eq!(ps.take_pull(1), None, "taken once");
        // An open gate serves at once, with the current weights.
        ps.pull(0, 0);
        assert_eq!(ps.take_pull(0), Some((vec![7.0], 1)));
    }

    #[test]
    fn clock_distance_tracked() {
        let mut ps = ParameterServer::new(vec![0.0], 3, 0);
        ps.push(0, &[0.0], 1);
        ps.push(0, &[0.0], 1);
        ps.push(0, &[0.0], 1);
        assert_eq!(ps.max_clock_distance(), 3);
        ps.push(1, &[0.0], 1);
        ps.push(2, &[0.0], 1);
        // Distance never shrinks retroactively.
        assert_eq!(ps.max_clock_distance(), 3);
    }

    #[test]
    fn snapshots_at_interval() {
        let mut ps = ParameterServer::new(vec![0.0], 1, 8);
        for _ in 0..4 {
            ps.push(0, &[1.0], 4);
        }
        let snaps = ps.take_snapshots();
        // Updates 8 and 16 trigger snapshots.
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, 8);
        assert_eq!(snaps[1].0, 16);
        assert!(ps.take_snapshots().is_empty(), "drained");
    }
}
