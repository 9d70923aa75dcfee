//! The parameter server.
//!
//! It maintains the global weights, the workers' push clocks (a
//! [`PushClocks`], the executor's type) and periodic weight snapshots
//! for offline accuracy curves. Under WSP a "push" is one *wave* (the
//! aggregated delta of `Nm` minibatches, Section 5); under BSP/SSP/ASP
//! a push is one minibatch.
//!
//! [`ParameterServer::pull`] implements the paper's straggler wait: a
//! pull names a gate, a clock every worker must be past (the
//! distance-`D` rule). The server serves it at once when the gate is
//! open, or else at the push that opens it, with the weights of that
//! instant and the number of pushes every worker has made by then. A
//! worker with a pull outstanding is
//! [`waiting`](ParameterServer::waiting).

use hetpipe_schedule::PushClocks;

/// The parameter server shared by the workers of one run.
#[derive(Clone)]
pub struct ParameterServer {
    weights: Vec<f32>,
    clocks: PushClocks,
    /// Per worker: the gate its outstanding pull waits for.
    gates: Vec<Option<u64>>,
    /// Per worker: the pull served when its gate opened, as weights and
    /// the slowest worker's clock.
    served: Vec<Option<(Vec<f32>, u64)>>,
    total_updates: u64,
    snapshot_every: u64,
    last_snapshot_at: u64,
    snapshots: Vec<(u64, Vec<f32>)>,
    /// The clocks' widest spread when the first drain began.
    drained_spread: Option<u64>,
}

impl ParameterServer {
    /// Creates a server for `workers` workers with initial weights and
    /// a snapshot interval in minibatch updates (0 disables snapshots).
    pub fn new(init: Vec<f32>, workers: usize, snapshot_every: u64) -> ParameterServer {
        ParameterServer {
            weights: init,
            clocks: PushClocks::new(vec![0; workers]),
            gates: vec![None; workers],
            served: vec![None; workers],
            total_updates: 0,
            snapshot_every,
            last_snapshot_at: 0,
            snapshots: Vec::new(),
            drained_spread: None,
        }
    }

    /// Applies a pushed delta covering `minibatches` updates, advances
    /// `worker`'s clock and serves every pull whose gate this opens.
    pub fn push(&mut self, worker: usize, delta: &[f32], minibatches: u64) {
        assert_eq!(self.weights.len(), delta.len(), "delta size mismatch");
        for (w, &d) in self.weights.iter_mut().zip(delta) {
            *w += d;
        }
        self.clocks.advance(worker, self.clocks.get(worker) + 1);
        self.total_updates += minibatches;

        if self.snapshot_every > 0
            && self.total_updates - self.last_snapshot_at >= self.snapshot_every
        {
            self.last_snapshot_at = self.total_updates;
            self.snapshots
                .push((self.total_updates, self.weights.clone()));
        }
        for w in 0..self.gates.len() {
            if self.gates[w].is_some_and(|gate| self.clocks.is_open(gate)) {
                self.gates[w] = None;
                self.served[w] = Some(self.serve());
            }
        }
    }

    /// Requests the weights for `worker` once `gate` is open: now if it
    /// is, else at the push that opens it.
    pub fn pull(&mut self, worker: usize, gate: u64) {
        if self.clocks.is_open(gate) {
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

    /// Marks the start of a worker's drain: at a run's end, a worker
    /// pushes the waves still in its pipeline without passing a gate.
    pub fn drain(&mut self) {
        self.drained_spread.get_or_insert(self.clocks.max_spread());
    }

    /// The push clocks.
    pub fn clocks(&self) -> &PushClocks {
        &self.clocks
    }

    /// The widest clock spread between the fastest and the slowest
    /// worker before any worker drained: the spread the gate bounds
    /// (a drain may widen it by the waves it pushes at once).
    pub fn max_clock_distance(&self) -> u64 {
        self.drained_spread.unwrap_or(self.clocks.max_spread())
    }

    /// Drains the recorded `(total_updates, weights)` snapshots.
    pub fn take_snapshots(&mut self) -> Vec<(u64, Vec<f32>)> {
        std::mem::take(&mut self.snapshots)
    }

    fn serve(&self) -> (Vec<f32>, u64) {
        (self.weights.clone(), self.clocks.min())
    }

    /// Appends the whole state to `out` as words, each `f32` by its
    /// bit pattern (`u64::MAX` stands for `None`).
    pub(crate) fn write(&self, out: &mut Vec<u64>) {
        let some = |x: Option<u64>| x.unwrap_or(u64::MAX);
        out.extend((0..self.gates.len()).map(|w| self.clocks.get(w)));
        out.extend(self.gates.iter().map(|&gate| some(gate)));
        out.extend(self.served.iter().map(|s| some(s.as_ref().map(|s| s.1))));
        out.extend([self.clocks.max_spread(), some(self.drained_spread)]);
        let snapshots = self.snapshots.len() as u64;
        out.extend([self.total_updates, self.last_snapshot_at, snapshots]);
        write_bits(out, &self.weights);
        for (weights, _) in self.served.iter().flatten() {
            write_bits(out, weights);
        }
        for (updates, weights) in &self.snapshots {
            out.push(*updates);
            write_bits(out, weights);
        }
    }
}

/// Appends `xs` to `out` by bit pattern.
pub(crate) fn write_bits(out: &mut Vec<u64>, xs: &[f32]) {
    out.extend(xs.iter().map(|x| u64::from(x.to_bits())));
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
        assert!(!ps.clocks().is_open(0));
        ps.pull(1, 0);
        assert!(ps.waiting(1));
        assert_eq!(ps.take_pull(1), None, "nothing served while waiting");
        // Gate 0 needs both workers past clock 0.
        ps.push(0, &[1.0], 1);
        assert!(
            !ps.clocks().is_open(0) && ps.waiting(1),
            "must still wait for worker 1"
        );
        ps.push(1, &[1.0], 1);
        assert!(ps.clocks().is_open(0) && !ps.clocks().is_open(1));
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
        ps.drain(); // Pushes after a drain begins do not count.
        ps.push(0, &[0.0], 1);
        ps.push(0, &[0.0], 1);
        assert_eq!((ps.max_clock_distance(), ps.clocks().max_spread()), (3, 4));
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
