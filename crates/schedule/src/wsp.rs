//! WSP clock and staleness algebra (Sections 4–6 of the paper).
//!
//! A *wave* is the `Nm` minibatches a virtual worker processes
//! concurrently. A *clock* advances when a wave completes and its
//! aggregated update is pushed. WSP permits two kinds of staleness:
//!
//! - **local**: `s_local = Nm − 1` — within one pipeline, a minibatch
//!   may miss the updates of up to `s_local` predecessors;
//! - **global**: a virtual worker may run up to `D` clocks ahead of the
//!   slowest worker, giving
//!   `s_global = (D + 1)(s_local + 1) + s_local − 1` missing recent
//!   minibatches from other workers (Section 5).
//!
//! [`WspParams::required_wave`] is the executable form of the paper's
//! start condition: minibatch `p` may start only with weights covering
//! all global updates through minibatch `p − (s_global + 1)` — which,
//! because pushes are wave-granular, means the global clock must cover a
//! specific wave. Schedule streams (see [`crate::ScheduleStream`])
//! compile this gate into explicit [`crate::ScheduleOp::PullGate`] ops.

/// The static parameters of a WSP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WspParams {
    /// Number of minibatches concurrently in each pipeline (`Nm`).
    pub nm: usize,
    /// Maximum clock distance between the fastest and slowest virtual
    /// worker (`D`).
    pub d: usize,
}

impl WspParams {
    /// Creates WSP parameters.
    ///
    /// # Panics
    ///
    /// Panics if `nm == 0`.
    pub fn new(nm: usize, d: usize) -> Self {
        assert!(nm >= 1, "a wave holds at least one minibatch");
        WspParams { nm, d }
    }

    /// Local staleness threshold `s_local = Nm − 1` (Section 4).
    pub fn s_local(&self) -> usize {
        self.nm - 1
    }

    /// Global staleness bound
    /// `s_global = (D + 1)(s_local + 1) + s_local − 1` (Section 5).
    ///
    /// # Examples
    ///
    /// ```
    /// use hetpipe_schedule::WspParams;
    /// // The paper's running example: D = 0, s_local = 3 gives
    /// // s_global = 6 (minibatch 11 may proceed missing updates from
    /// // minibatches 5..=10).
    /// assert_eq!(WspParams::new(4, 0).s_global(), 6);
    /// ```
    pub fn s_global(&self) -> usize {
        (self.d + 1) * (self.s_local() + 1) + self.s_local() - 1
    }

    /// The wave index a (1-indexed) minibatch belongs to.
    pub fn wave_of(&self, minibatch: u64) -> u64 {
        debug_assert!(minibatch >= 1, "minibatches are 1-indexed");
        (minibatch - 1) / self.nm as u64
    }

    /// First minibatch (1-indexed) of a wave.
    pub fn first_of_wave(&self, wave: u64) -> u64 {
        wave * self.nm as u64 + 1
    }

    /// Last minibatch (1-indexed) of a wave.
    pub fn last_of_wave(&self, wave: u64) -> u64 {
        (wave + 1) * self.nm as u64
    }

    /// The newest *wave* whose global updates minibatch `p` must see, or
    /// `None` if `p` has no global requirement (the initial
    /// `s_global + 1` minibatches run from `w0`).
    ///
    /// Derivation: `p` must reflect all updates through minibatch
    /// `q = p − (s_global + 1)`; pushes are atomic per wave, so this
    /// requires the full wave containing `q`, i.e. wave
    /// `floor((q − 1) / Nm)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hetpipe_schedule::WspParams;
    /// let w = WspParams::new(4, 0);
    /// // Paper, Section 5: with D = 0, s_local = 3, minibatches 5..7
    /// // (wave 1) proceed without global updates, but minibatch 8 (the
    /// // wave's last) requires wave 0 from every worker.
    /// assert_eq!(w.required_wave(7), None);
    /// assert_eq!(w.required_wave(8), Some(0));
    /// // Minibatch 12 requires wave 1.
    /// assert_eq!(w.required_wave(12), Some(1));
    /// ```
    pub fn required_wave(&self, p: u64) -> Option<u64> {
        let sg = self.s_global() as u64;
        if p <= sg + 1 {
            return None;
        }
        let q = p - sg - 1;
        Some((q - 1) / self.nm as u64)
    }

    /// The wave a worker should have pulled after pushing wave `c` so
    /// that the next wave never stalls: `c − D` (Section 5: "it may
    /// need to wait for other virtual workers to push their updates
    /// upon completion of wave `c − D`"). `None` while `c < D`.
    pub fn pull_target_after_push(&self, c: u64) -> Option<u64> {
        c.checked_sub(self.d as u64)
    }

    /// The local weight version (as a wave index, −1 = the initial
    /// weights `w0`) that minibatch `p` reads under PipeDream-2BW
    /// double buffering: every minibatch of wave `c` computes on the
    /// version closed by wave `c − 1` — the *previous* buffer — so a
    /// stage pins at most one shadow copy beyond the freshest
    /// weights, instead of HetPipe's one stashed `w_p` per in-flight
    /// minibatch.
    ///
    /// `tests/staleness_props.rs` checks this version against
    /// [`WspParams::required_wave`]: the previous buffer is never
    /// older than the WSP start gate demands, so the 2BW cap cannot
    /// violate the staleness bound.
    pub fn two_bw_version(&self, p: u64) -> i64 {
        debug_assert!(p >= 1, "minibatches are 1-indexed");
        self.wave_of(p) as i64 - 1
    }
}

/// Every worker's push clock (the waves, or updates, it has pushed to
/// the parameter server) and the widest spread between the fastest and
/// the slowest seen so far. The executor and the trainer both keep
/// their clocks here, so they evaluate the gate by the same predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PushClocks {
    clocks: Vec<u64>,
    min: u64,
    max: u64,
    max_spread: u64,
}

impl PushClocks {
    /// Clocks at the given values (`vec![0; workers]` at a run's start);
    /// the widest spread starts at theirs.
    pub fn new(clocks: Vec<u64>) -> PushClocks {
        let min = clocks.iter().copied().min().unwrap_or(0);
        let max = clocks.iter().copied().max().unwrap_or(0);
        PushClocks {
            clocks,
            min,
            max,
            max_spread: max - min,
        }
    }

    /// Raises `worker`'s clock to `clock` (clocks never go back).
    pub fn advance(&mut self, worker: usize, clock: u64) {
        let old = self.clocks[worker];
        if clock > old {
            self.clocks[worker] = clock;
            self.max = self.max.max(clock);
            if old == self.min {
                self.min = *self.clocks.iter().min().expect("a raised clock");
            }
            self.max_spread = self.max_spread.max(self.spread());
        }
    }

    /// Adds `waves` to every clock, which leaves every spread as it is.
    pub fn shift(&mut self, waves: u64) {
        self.clocks.iter_mut().for_each(|c| *c += waves);
        self.min += waves;
        self.max += waves;
    }

    /// `worker`'s clock.
    pub fn get(&self, worker: usize) -> u64 {
        self.clocks[worker]
    }

    /// The slowest worker's clock (0 with no workers).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// The gate predicate: whether every worker has pushed wave (or
    /// update) `gate`, 0-indexed.
    pub fn is_open(&self, gate: u64) -> bool {
        self.min > gate
    }

    /// The fastest worker's clock minus the slowest's.
    pub fn spread(&self) -> u64 {
        self.max - self.min
    }

    /// Whether the clocks are at most `bound` apart (the distance rule).
    pub fn within(&self, bound: u64) -> bool {
        self.spread() <= bound
    }

    /// The widest [`spread`](PushClocks::spread) the clocks have had.
    pub fn max_spread(&self) -> u64 {
        self.max_spread
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_formulas_match_paper() {
        // Nm = 4, D = 0: s_local = 3, s_global = 6 (Section 5 example).
        let w = WspParams::new(4, 0);
        assert_eq!(w.s_local(), 3);
        assert_eq!(w.s_global(), 6);
        // Nm = 4, D = 4: s_global = 5*4 + 3 - 1 = 22.
        let w = WspParams::new(4, 4);
        assert_eq!(w.s_global(), 22);
        // Nm = 1 (no pipelining), D = 0: the system degenerates to
        // per-minibatch BSP: s_local = 0, s_global = 0.
        let w = WspParams::new(1, 0);
        assert_eq!(w.s_local(), 0);
        assert_eq!(w.s_global(), 0);
    }

    #[test]
    fn wave_indexing() {
        let w = WspParams::new(4, 0);
        assert_eq!(w.wave_of(1), 0);
        assert_eq!(w.wave_of(4), 0);
        assert_eq!(w.wave_of(5), 1);
        assert_eq!(w.first_of_wave(2), 9);
        assert_eq!(w.last_of_wave(2), 12);
    }

    #[test]
    fn required_wave_matches_paper_example() {
        // Section 5 narrative with Nm = 4, D = 0: minibatch 11 proceeds
        // "without the global and/or local updates from wave 1
        // (minibatches 5 to 8) or the two local updates from 9 and 10.
        // However, it must have ... all the global updates from
        // minibatches 1 to 4."
        let w = WspParams::new(4, 0);
        assert_eq!(w.required_wave(11), Some(0));
        // Gate instants: last minibatch of each wave needs the wave
        // D + 1 behind it.
        assert_eq!(w.required_wave(8), Some(0));
        assert_eq!(w.required_wave(12), Some(1));
        assert_eq!(w.required_wave(16), Some(2));
        // With D = 1 everything shifts one wave later.
        let w = WspParams::new(4, 1);
        assert_eq!(w.s_global(), 10);
        assert_eq!(w.required_wave(11), None);
        assert_eq!(w.required_wave(12), Some(0));
        assert_eq!(w.required_wave(16), Some(1));
    }

    #[test]
    fn nm1_required_wave_is_bsp_like() {
        // Nm = 1, D = 0: minibatch p requires every preceding minibatch
        // globally — strict BSP cadence.
        let w = WspParams::new(1, 0);
        assert_eq!(w.required_wave(1), None);
        assert_eq!(w.required_wave(2), Some(0));
        assert_eq!(w.required_wave(3), Some(1));
    }

    #[test]
    fn pull_targets() {
        let w = WspParams::new(4, 2);
        assert_eq!(w.pull_target_after_push(0), None);
        assert_eq!(w.pull_target_after_push(1), None);
        assert_eq!(w.pull_target_after_push(2), Some(0));
        assert_eq!(w.pull_target_after_push(5), Some(3));
    }

    #[test]
    fn distance_rule() {
        let mut c = PushClocks::new(vec![0; 2]);
        c.advance(0, 3);
        assert!(!c.within(2) && !c.is_open(0));
        c.advance(1, 5);
        c.advance(1, 4); // Clocks never go back.
        assert_eq!((c.min(), c.spread(), c.max_spread()), (3, 2, 3));
        assert!(c.within(2) && c.is_open(2) && !c.is_open(3));
        c.shift(10);
        assert_eq!((c.get(0), c.spread(), c.max_spread()), (13, 2, 3));
        assert_eq!(PushClocks::new(vec![13, 15]).max_spread(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one minibatch")]
    fn zero_nm_rejected() {
        let _ = WspParams::new(0, 0);
    }
}
