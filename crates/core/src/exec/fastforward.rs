//! Steady-state fast-forward: a run that keeps no spans finds the
//! period its executor state repeats with, and skips whole periods.
//!
//! Every virtual worker runs waves of `Nm` minibatches and pushes once
//! per wave, the simulated time is integer, and the dynamics are
//! deterministic. A fault-free stretch of a run therefore settles into
//! an executor state that repeats exactly, shifted in time and in
//! minibatch and wave numbers. This module finds that repetition and
//! jumps over it, bit for bit:
//!
//! - **Detection.** At each push of VW 0, the executor state is
//!   written *normalized* ([`Normal`]): instants as offsets from now,
//!   minibatches and waves relative to the slowest VW's wave base,
//!   pending events in `(time, sequence)` rank, and under lane
//!   dispatch each lane's buffered ops and each VW's lane generators
//!   (`hetpipe_schedule::Lanes::write_state`). Its hash is remembered
//!   for the rest of the leg.
//! - **The store.** Each hashed state is also kept whole, in a bounded
//!   store: its normal form, its instant, event count and wave base,
//!   its running totals and its list lengths. The store holds 64 Ki
//!   words ([`STORE_WORDS`], 512 KiB) and evicts its oldest states
//!   first; the newest always stays, so it fits one state of any size.
//!   That is some 150 paper-testbed states (about 330 normal-form words
//!   and 90 totals each), enough for paper-ed's 40-wave period.
//! - **Confirmation.** A recurring hash proposes a period, and the
//!   stored state with that hash confirms it at once: only a full
//!   equality of the two normal forms does. The period's increments of
//!   every running total (busy time, reservations, bytes, waits, the
//!   report's partials) and its completions and wait windows are the
//!   differences between the two states. One state waits outside the
//!   budget until its own recurrence: the leg's first, so a leg that
//!   starts past an edge, on the cycle the last leg left, confirms one
//!   period later whatever the period's length. When a recurring
//!   state's partner was evicted and the waiting state is shown off
//!   the cycle (a state first seen after it recurred first), the
//!   recurring state waits instead and confirms one period later.
//! - **The jump.** `k` whole periods are added at once. The state
//!   shifts `k · Δt` later and `k` periods of waves on (`State::shift`:
//!   pending events, the free instants of the resources the period
//!   reserved, every reserved-ahead span, and minibatch and wave
//!   numbers, lane generators included). Its running totals grow by
//!   `k` increments (`State::totals`), and `k` shifted copies of the
//!   period's completions and wait windows are appended. The occupancy
//!   peaks stay: the skipped periods reach only levels the simulated
//!   one reached. The tail is then simulated as usual.
//! - **Edges.** `k` stops short of every edge: the warm-up, the
//!   horizon, the next rate edge and the stop point, each padded by
//!   the state's lookahead (its latest referenced instant, or newest
//!   minibatch, beyond now). The confirmed period must lie on one side
//!   of each edge too. After a leg stops at the warm-up or a rate edge,
//!   detection starts again past it with an empty store. A leg's store
//!   is freed before its jump: `repeat` reserves the lists for the rest
//!   of the horizon, and no kept state is alive then.
//!
//! Soundness. Between edges the handler is shift-equivariant: every
//! decision compares instants, minibatches or waves with each other,
//! never with a constant. The constants are the edges themselves and
//! the WSP warm-up of the first `D + 2` waves, where pull gates and
//! pull targets do not exist yet; detection starts past that warm-up,
//! and with every rate at nominal, where a reservation's duration is
//! its nominal work exactly. A confirmed equality of two normalized
//! states `Δt` apart therefore determines every later period: each
//! repeats the simulated one, shifted. The normalization drops only
//! what no decision reads: a free instant at or before now reads as
//! now, and a counter a discipline never advances is written raw (a
//! minibatch counter still at 0 reads as "none", below every
//! minibatch; lanes never advance the injection counter, nor a
//! non-leading stream its gate mark). A counter written raw that does
//! advance only makes the states differ, so that mistake skips nothing
//! rather than skipping wrongly.
//!
//! Fast-forward is automatic. It is off where a run could observe the
//! skipped periods: a sink that keeps spans. `RunStats::events` counts
//! logical events, skipped periods included, so every digest of a run
//! is unchanged. A run whose joint period is longer than what is left
//! of its horizon skips nothing and pays only the hashing.

use super::{Ev, Exec, Plan, SpanTag, State, VwState};
use hetpipe_des::{PeakFold, ResourceId, SimTime, SpanSink};
use hetpipe_schedule::{Dispatch, StateWriter};
use std::collections::{BTreeMap, VecDeque};

/// How a run fast-forwarded through its steady state
/// ([`RunStats::fast_forward`](super::RunStats::fast_forward)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastForward {
    /// The confirmed period: the simulated time one repetition of the
    /// executor state takes.
    pub period: SimTime,
    /// Waves each virtual worker pushes per period.
    pub period_waves: u64,
    /// DES events per period.
    pub period_events: u64,
    /// Whole periods skipped, over every leg of the run.
    pub periods_skipped: u64,
    /// Events actually simulated: `RunStats::events` less the skipped
    /// periods' events.
    pub events_simulated: u64,
}

impl FastForward {
    /// The share of `horizon` the run extrapolated instead of
    /// simulating.
    pub fn extrapolated_share(&self, horizon: SimTime) -> f64 {
        let skipped = self.period.as_nanos() as f64 * self.periods_skipped as f64;
        skipped / horizon.as_nanos().max(1) as f64
    }
}

/// States hashed per run before detection gives up.
const MAX_STATES: usize = 4096;

/// The store's word budget: 64 Ki `u64` words (512 KiB).
pub(super) const STORE_WORDS: usize = 1 << 16;

/// The largest ring of kept words (16 KiB) that grows in small steps.
const RING_SMALL: usize = 1 << 11;

/// A larger ring takes at least this many words (128 KiB, glibc's
/// default mmap threshold) at once: one block the allocator maps and
/// unmaps whole, so a store that grew large leaves no freed heap behind
/// it when the run goes on to fill its lists.
const RING_BLOCK: usize = 1 << 14;

/// A normalized executor state: a word sequence two states `Δt`,
/// `Δmb` and `Δwaves` apart write identically. One buffer serves a
/// whole run.
#[derive(Default)]
pub(crate) struct Normal {
    words: Vec<u64>,
    now: SimTime,
    base_mb: u64,
    base_wave: u64,
    /// The latest instant written.
    reach: SimTime,
    /// The newest minibatch written.
    top_mb: u64,
    /// Scratch space for ranking unordered pending events.
    events: Vec<(SimTime, u64, Ev)>,
    peaks: Vec<(SimTime, i64)>,
}

impl Normal {
    /// Starts a new state at `now` over the wave base `base_wave`.
    fn reset(&mut self, now: SimTime, base_wave: u64, nm: usize) {
        self.words.clear();
        self.now = now;
        self.base_mb = base_wave * nm as u64;
        self.base_wave = base_wave;
        self.reach = now;
        self.top_mb = 0;
    }

    fn word(&mut self, w: u64) {
        self.words.push(w);
    }

    /// A count or level, written as is.
    pub(crate) fn int(&mut self, x: i64) {
        self.word(x as u64);
    }

    /// An instant, as its (signed) offset from now.
    pub(crate) fn instant(&mut self, t: SimTime) {
        self.reach = self.reach.max(t);
        self.word(t.as_nanos().wrapping_sub(self.now.as_nanos()));
    }

    /// A minibatch counter that 0 means "none" in.
    fn mb_or_none(&mut self, mb: u64) {
        self.word((mb != 0) as u64);
        if mb != 0 {
            self.mb(mb);
        }
    }

    /// A fold's running level and its pending events, ranked.
    pub(crate) fn peak_fold(&mut self, fold: &PeakFold) {
        let mut pending = std::mem::take(&mut self.peaks);
        pending.clear();
        pending.extend(fold.pending());
        pending.sort_unstable();
        self.int(fold.live());
        self.int(pending.len() as i64);
        for &(at, delta) in &pending {
            self.instant(at);
            self.int(delta);
        }
        self.peaks = pending;
    }

    /// A multiply-rotate hash of the words.
    fn hash(&self) -> u64 {
        self.words.iter().fold(self.words.len() as u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        })
    }
}

impl StateWriter for Normal {
    fn ints(&mut self, xs: &[i64]) -> &mut Self {
        self.words.extend(xs.iter().map(|&x| x as u64));
        self
    }

    /// A minibatch, relative to the wave base.
    fn mb(&mut self, mb: u64) -> &mut Self {
        self.top_mb = self.top_mb.max(mb);
        self.word(mb.wrapping_sub(self.base_mb));
        self
    }

    /// A wave, relative to the wave base.
    fn wave(&mut self, wave: i64) -> &mut Self {
        self.word((wave as u64).wrapping_sub(self.base_wave));
        self
    }
}

/// One confirmed period: its length and its increments.
struct Period {
    dt: SimTime,
    events: u64,
    waves: u64,
    /// Increments of every running total, in [`State::totals`] order.
    totals: Vec<u64>,
    /// Per VW, the period's completions and closed wait windows.
    completions: Vec<Vec<SimTime>>,
    windows: Vec<Vec<(SimTime, SimTime)>>,
}

/// A stored state's scalars: its hash, instant, event count and wave
/// base, and how its words divide. Its words are its normal form, then
/// its running totals ([`State::totals`] order), then two list lengths
/// per VW (completions, wait windows).
#[derive(Clone, Copy)]
struct Mark {
    hash: u64,
    now: SimTime,
    events: u64,
    base_wave: u64,
    /// Normal-form words.
    normal: usize,
    /// All words.
    len: usize,
}

impl Mark {
    /// Appends `ex`'s state, whose normal form `normal` hashes to
    /// `hash` and whose running totals are `totals`, to `out`, and
    /// returns its mark.
    fn write<S>(
        hash: u64,
        normal: &Normal,
        totals: &[u64],
        ex: &Exec<'_, S>,
        out: &mut impl Extend<u64>,
    ) -> Mark {
        out.extend(normal.words.iter().copied());
        out.extend(totals.iter().copied());
        let lens = ex.lists.iter();
        out.extend(lens.flat_map(|l| [l.completions.len() as u64, l.wait_windows.len() as u64]));
        Mark {
            hash,
            now: ex.st.engine.now(),
            events: ex.st.engine.processed(),
            base_wave: ex.st.clocks.min(),
            normal: normal.words.len(),
            len: normal.words.len() + totals.len() + 2 * ex.lists.len(),
        }
    }
}

/// A stored state whole: its mark and its words.
struct Kept {
    mark: Mark,
    words: Vec<u64>,
}

impl Kept {
    /// The period from this state to the equal state `ex` is in.
    fn period<S>(&self, ex: &mut Exec<'_, S>) -> Option<Period> {
        let waves = ex.st.clocks.min() - self.mark.base_wave;
        let dt = ex.st.engine.now() - self.mark.now;
        if waves == 0 || dt == SimTime::ZERO {
            return None;
        }
        let (totals, lens) = self.words[self.mark.normal..]
            .split_at(self.mark.len - self.mark.normal - 2 * ex.lists.len());
        let mut increments = Vec::new();
        ex.st.read_totals(&mut increments);
        for (now, before) in increments.iter_mut().zip(totals) {
            *now = now.wrapping_sub(*before);
        }
        let tails = ex.lists.iter().zip(lens.chunks(2));
        Some(Period {
            dt,
            events: ex.st.engine.processed() - self.mark.events,
            waves,
            totals: increments,
            completions: (tails.clone())
                .map(|(l, n)| l.completions[n[0] as usize..].to_vec())
                .collect(),
            windows: tails
                .map(|(l, n)| l.wait_windows[n[1] as usize..].to_vec())
                .collect(),
        })
    }
}

/// Detection's memory over one leg (see the module docs).
struct Store {
    /// Hash the states from this instant on.
    from: SimTime,
    /// Every state hashed this leg: its hash, and the event count it
    /// was first seen at.
    seen: BTreeMap<u64, u64>,
    /// The kept states, oldest first.
    kept: VecDeque<Mark>,
    /// Their words, in the same order, in one ring: freed with the
    /// store as one block, and at most `budget` words unless one state
    /// takes more.
    words: VecDeque<u64>,
    budget: usize,
    /// The state that waits for its own recurrence outside the budget:
    /// the leg's first, then a recurring state whose partner was
    /// evicted.
    waiting: Option<Kept>,
    /// Scratch space for the running totals.
    totals: Vec<u64>,
}

impl Store {
    fn new(from: SimTime, budget: usize) -> Store {
        Store {
            from,
            seen: BTreeMap::new(),
            kept: VecDeque::new(),
            words: VecDeque::new(),
            budget,
            waiting: None,
            totals: Vec::new(),
        }
    }

    /// The stored state that `words`, hashing to `hash`, repeats.
    fn partner(&mut self, hash: u64, words: &[u64]) -> Option<Kept> {
        let repeats = |m: &Mark, normal: &mut dyn Iterator<Item = &u64>| {
            m.hash == hash && m.normal == words.len() && normal.eq(words)
        };
        let waiting = |w: &mut Kept| repeats(&w.mark, &mut w.words[..w.mark.normal].iter());
        if let Some(w) = self.waiting.take_if(waiting) {
            return Some(w);
        }
        let mut end = self.words.len();
        for mark in self.kept.iter().rev() {
            let start = end - mark.len;
            if repeats(mark, &mut self.words.range(start..start + mark.normal)) {
                let words = self.words.range(start..end).copied().collect();
                return Some(Kept { mark: *mark, words });
            }
            end = start;
        }
        None
    }

    /// Stores `ex`'s state, whose normal form `normal` hashes to `hash`
    /// and has no stored partner, and returns whether the hash is new
    /// this leg.
    ///
    /// The state waits when none does. It replaces the waiting state
    /// when it recurs and was first seen after that state was stored:
    /// a waiting state on the cycle it reached would have recurred
    /// before any later state of that cycle, so it is not on it. Any
    /// other state is kept, after the oldest kept states that would
    /// take the words past the budget are evicted.
    fn store<S>(&mut self, hash: u64, normal: &Normal, ex: &mut Exec<'_, S>) -> bool {
        let events = ex.st.engine.processed();
        let first = *self.seen.entry(hash).or_insert(events);
        ex.st.read_totals(&mut self.totals);
        let off_cycle = self.waiting.as_ref().is_none_or(|w| first > w.mark.events);
        if first < events && off_cycle || self.waiting.is_none() {
            let mut words = self.waiting.take().map_or_else(Vec::new, |w| w.words);
            words.clear();
            let mark = Mark::write(hash, normal, &self.totals, ex, &mut words);
            self.waiting = Some(Kept { mark, words });
            return first == events;
        }
        let len = normal.words.len() + self.totals.len() + 2 * ex.lists.len();
        while self.words.len() + len > self.budget {
            let Some(old) = self.kept.pop_front() else {
                break;
            };
            self.words.drain(..old.len);
        }
        let need = self.words.len() + len;
        if need > self.words.capacity() {
            // Powers of two up to the budget, and one block once past
            // the small steps.
            let block = if need > RING_SMALL { RING_BLOCK } else { 0 };
            let room = need
                .next_power_of_two()
                .max(block)
                .min(need.max(self.budget));
            self.words.reserve_exact(room - self.words.len());
        }
        let mark = Mark::write(hash, normal, &self.totals, ex, &mut self.words);
        self.kept.push_back(mark);
        first == events
    }
}

/// The fast-forward driver of one [`Exec::simulate`].
pub(super) struct Forward {
    /// Detection's store; `None` once detection is off.
    store: Option<Store>,
    /// The store's word budget.
    budget: usize,
    /// VW 0's clock when last looked at.
    clock: u64,
    hashed: usize,
    found: Option<FastForward>,
    normal: Normal,
}

impl Forward {
    /// The driver of `ex`'s run, with a store of `budget` words: off
    /// unless `ex` keeps no spans and ends early enough for nanosecond
    /// counts to stay exact in an `f64`.
    pub(super) fn new<S: SpanSink<SpanTag>>(ex: &Exec<'_, S>, budget: usize) -> Forward {
        let on = !S::KEEPS_SPANS && ex.plan.horizon.as_nanos() < 1 << 52;
        Forward {
            store: on.then(|| Store::new(SimTime::ZERO, budget)),
            budget,
            clock: 0,
            hashed: 0,
            found: None,
            normal: Normal::default(),
        }
    }

    /// Looks at the executor after each handled event; acts when VW 0
    /// has pushed since the last look.
    #[inline]
    pub(super) fn after_event<S: SpanSink<SpanTag>>(&mut self, ex: &mut Exec<'_, S>) {
        if self.store.is_none() || ex.st.clocks.get(0) == self.clock {
            return;
        }
        self.clock = ex.st.clocks.get(0);
        self.at_push(ex);
    }

    /// The run's record: `None` unless a period was skipped.
    pub(super) fn finish(self, events: u64) -> Option<FastForward> {
        self.found.map(|ff| FastForward {
            events_simulated: events - ff.periods_skipped * ff.period_events,
            ..ff
        })
    }

    fn at_push<S: SpanSink<SpanTag>>(&mut self, ex: &mut Exec<'_, S>) {
        let now = ex.st.engine.now();
        let base_wave = ex.st.clocks.min();
        let from = self.store.as_ref().map_or(SimTime::MAX, |s| s.from);
        // Pull gates and pull targets exist from wave D + 2 on; before
        // that the handler compares with constants.
        let nominal = ex.plan.rates.iter().all(|r| r.rate_at(now) == 1.0);
        let steady = base_wave >= ex.plan.p.wsp.d as u64 + 2 && nominal;
        if !steady || now < from {
            return;
        }
        let mut normal = std::mem::take(&mut self.normal);
        ex.st.write_normal(&ex.plan, &mut normal, now, base_wave);
        self.at_state(ex, &normal);
        self.normal = normal;
    }

    /// Confirms a period at the state `normal` of `ex`, or stores the
    /// state.
    fn at_state<S: SpanSink<SpanTag>>(&mut self, ex: &mut Exec<'_, S>, normal: &Normal) {
        let Some(mut store) = self.store.take() else {
            return;
        };
        let hash = normal.hash();
        if let Some(partner) = store.partner(hash, &normal.words) {
            // The store goes before the period's lists are copied out
            // and before `repeat` reserves the rest of the horizon's.
            drop(store);
            let period = partner.period(ex);
            self.store = period.and_then(|p| self.jump(ex, partner.mark.now, normal, p));
            return;
        }
        if store.store(hash, normal, ex) {
            self.hashed += 1;
        }
        if self.hashed < MAX_STATES {
            self.store = Some(store);
        }
    }

    /// Skips as many whole periods as fit before the nearest edge, for
    /// a period confirmed from `tc` to now, and returns the next leg's
    /// store (`None`: detection stops).
    fn jump<S: SpanSink<SpanTag>>(
        &mut self,
        ex: &mut Exec<'_, S>,
        tc: SimTime,
        normal: &Normal,
        period: Period,
    ) -> Option<Store> {
        let dt = period.dt.as_nanos();
        // The state's latest instant, and the first instant a skipped
        // period may not reach.
        let reach = normal.reach.as_nanos();
        let past = reach.saturating_add(1);
        // (periods, where detection resumes: `None` stops it).
        let mut fit = (ex.plan.horizon.as_nanos().saturating_sub(past) / dt, None);
        let mut bound = |k: u64, resume: Option<SimTime>| {
            if k < fit.0 {
                fit = (k, resume);
            }
        };
        if let Some(warmup) = ex.st.report.as_ref().map(|r| r.warmup()) {
            if warmup > tc {
                bound(warmup.as_nanos().saturating_sub(reach) / dt, Some(warmup));
            }
        }
        let edges = ex.plan.opts.rate_events.iter().map(|e| e.at);
        let next_rate = edges.filter(|&at| at >= tc).min();
        if let Some(at) = next_rate {
            let resume = at + SimTime::from_nanos(1);
            bound(at.as_nanos().saturating_sub(past) / dt, Some(resume));
        }
        if let Some(stop) = ex.plan.opts.stop_after_mb {
            let mb = period.waves * ex.plan.p.wsp.nm as u64;
            bound(stop.saturating_sub(normal.top_mb) / mb, None);
        }
        let (k, resume) = fit;
        if k > 0 {
            ex.repeat(k, &period);
            let skipped = self.found.map_or(0, |ff| ff.periods_skipped);
            self.found = Some(FastForward {
                period: period.dt,
                period_waves: period.waves,
                period_events: period.events,
                periods_skipped: skipped + k,
                events_simulated: 0,
            });
        }
        // The jump leaves VW 0's clock `k` periods on.
        self.clock = ex.st.clocks.get(0);
        resume.map(|from| Store::new(from, self.budget))
    }
}

impl Ev {
    /// Moves the event `mb` minibatches and `waves` waves on; false for
    /// a rate edge, which keeps its instant.
    fn shift(&mut self, mbs: u64, waves: u64) -> bool {
        match self {
            Ev::FwdArrive { mb, .. }
            | Ev::FwdDone { mb, .. }
            | Ev::BwdArrive { mb, .. }
            | Ev::BwdDone { mb, .. } => *mb += mbs,
            Ev::PushDone { wave, .. } => *wave += waves,
            Ev::PullDone { .. } | Ev::TryInject { .. } => {}
            Ev::Fault => return false,
        }
        true
    }

    fn write(&self, n: &mut Normal) {
        let (kind, vw, stage) = match *self {
            Ev::FwdArrive { vw, stage, .. } => (0, vw, stage),
            Ev::FwdDone { vw, stage, .. } => (1, vw, stage),
            Ev::BwdArrive { vw, stage, .. } => (2, vw, stage),
            Ev::BwdDone { vw, stage, .. } => (3, vw, stage),
            Ev::PushDone { vw, .. } => (4, vw, 0),
            Ev::PullDone { vw } => (5, vw, 0),
            Ev::TryInject { vw } => (6, vw, 0),
            Ev::Fault => unreachable!("rate edges are not state"),
        };
        n.word(kind | (vw as u64) << 8 | (stage as u64) << 36);
        match *self {
            Ev::FwdArrive { mb, .. }
            | Ev::FwdDone { mb, .. }
            | Ev::BwdArrive { mb, .. }
            | Ev::BwdDone { mb, .. } => n.mb(mb),
            Ev::PushDone { wave, .. } => n.wave(wave as i64),
            _ => n,
        };
    }
}

impl<S> Exec<'_, S> {
    /// Advances the executor `k` whole periods at once: the state
    /// shifts `k` periods on, its running totals grow by `k`
    /// increments, and `k` shifted copies of the period's completions
    /// and wait windows are appended.
    fn repeat(&mut self, k: u64, period: &Period) {
        // Room for every period left to the horizon, so the lists grow
        // once for the rest of the run; rounded up to a power of two,
        // the size doubling growth would have reached.
        let left = (self.plan.horizon - self.st.engine.now()).as_nanos() / period.dt.as_nanos();
        let room =
            |len: usize, per: usize| (len + (left as usize + 2) * per).next_power_of_two() - len;
        let by = SimTime::from_nanos(k * period.dt.as_nanos());
        // Whether the period reserved a resource: the pool's totals lead
        // `State::totals`, busy time then reservations per resource.
        let reserved = |id: ResourceId| period.totals[2 * id.index() + 1] > 0;
        self.st.shift(&self.plan, by, k * period.waves, reserved);
        let mut increments = period.totals.iter();
        self.st
            .totals(|x| x + k * increments.next().expect("one increment per total"));
        let per_vw = period.completions.iter().zip(&period.windows);
        for (l, (completions, windows)) in self.lists.iter_mut().zip(per_vw) {
            l.completions
                .reserve_exact(room(l.completions.len(), completions.len()));
            l.wait_windows
                .reserve_exact(room(l.wait_windows.len(), windows.len()));
            for j in 1..=k {
                let d = SimTime::from_nanos(j * period.dt.as_nanos());
                l.completions.extend(completions.iter().map(|&t| t + d));
                l.wait_windows
                    .extend(windows.iter().map(|&(a, b)| (a + d, b + d)));
            }
        }
    }
}

impl State {
    /// Writes the state at `now` into `n`, normalized to `now` and to
    /// the wave base `base_wave`.
    fn write_normal(&self, plan: &Plan<'_>, n: &mut Normal, now: SimTime, base_wave: u64) {
        let State {
            engine,
            pool,
            occupancy,
            report,
            clocks,
            states,
            stages,
            lanes,
            heads,
            last_span_end,
            last_arrival,
            // Totals and counters no decision reads.
            sync_inter: _,
            sync_intra: _,
            act_inter: _,
            act_intra: _,
            queried: _,
            spans: _,
        } = self;
        n.reset(now, base_wave, plan.p.wsp.nm);
        let mut events = std::mem::take(&mut n.events);
        events.clear();
        let pending = engine.pending_events().map(|(at, seq, &ev)| (at, seq, ev));
        events.extend(pending.filter(|(_, _, ev)| *ev != Ev::Fault));
        events.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        n.int(events.len() as i64);
        for (at, _, ev) in &events {
            n.instant(*at);
            ev.write(n);
        }
        n.events = events;
        // A resource free at or before now serves like one free now;
        // every rate is nominal now (detection waits for that).
        for (_, r) in pool.iter() {
            n.instant(r.free_at().max(now));
        }
        n.instant(*last_span_end);
        n.instant((*last_arrival).max(now));
        // Lanes never advance the injection counter: it stays raw.
        let fifo = plan.dispatch == Dispatch::ArrivalFifo;
        for (vw, st) in states.iter().enumerate() {
            let VwState {
                next_mb,
                completed,
                pulled,
                pull_request,
                pulling,
                pull_serving_version,
                block_start,
                pull_wait: _,
                inject_blocked: _,
            } = st;
            if fifo {
                n.mb(*next_mb);
            } else {
                n.int(*next_mb as i64);
            }
            n.mb(*completed);
            n.wave(clocks.get(vw) as i64);
            n.wave(*pulled);
            n.wave(*pull_serving_version);
            n.int(*pulling as i64);
            n.int(pull_request.is_some() as i64);
            if let Some((target, since)) = *pull_request {
                n.wave(target as i64);
                n.instant(since);
            }
            n.int(block_start.is_some() as i64);
            if let Some(since) = *block_start {
                n.instant(since);
            }
        }
        for (lanes, heads) in lanes.iter().zip(heads) {
            for head in heads {
                n.int(head.is_some() as i64);
                if let Some(gop) = head {
                    gop.op.write_state(n.ints(&[gop.stage as i64]));
                }
            }
            lanes.write_state(n);
        }
        for stage in stages.iter().flatten() {
            n.int(stage.held as i64);
            n.mb_or_none(stage.fwd_arrived);
            n.mb_or_none(stage.bwd_arrived);
            n.int(stage.drained as i64);
        }
        occupancy.normal(n);
        if let Some(report) = report {
            report.normal(n, |vw| states[vw].pull_request.is_some());
        }
    }

    /// Moves the state `by` later and `waves` waves (`waves · Nm`
    /// minibatches) on: the state a run that repeats the stretch
    /// behind it reaches that much later. Running totals stay
    /// ([`State::totals`] adds to them). A resource's free instant moves
    /// when `reserved` says the stretch reserved it; one the stretch
    /// never reserved keeps its instant, as a simulated run would.
    /// Either reads as now in the normal form when it is not later
    /// than now.
    fn shift(
        &mut self,
        plan: &Plan<'_>,
        by: SimTime,
        waves: u64,
        reserved: impl Fn(ResourceId) -> bool,
    ) {
        let mbs = waves * plan.p.wsp.nm as u64;
        let State {
            engine,
            pool,
            occupancy,
            report,
            clocks,
            states,
            stages,
            lanes,
            heads,
            last_span_end,
            last_arrival,
            queried,
            // Running totals.
            sync_inter: _,
            sync_intra: _,
            act_inter: _,
            act_intra: _,
            spans: _,
        } = self;
        engine.fast_forward(by, |ev| ev.shift(mbs, waves));
        for id in (0..pool.len()).map(ResourceId::new) {
            if reserved(id) {
                pool.get_mut(id).shift(by);
            }
        }
        occupancy.shift(by);
        if let Some(report) = report {
            report.shift(by);
        }
        clocks.shift(waves);
        for st in states {
            let VwState {
                next_mb,
                completed,
                pulled,
                pull_request,
                pulling: _,
                pull_serving_version,
                block_start,
                pull_wait: _,
                inject_blocked: _,
            } = st;
            // Lanes never advance the injection counter.
            if plan.dispatch == Dispatch::ArrivalFifo {
                *next_mb += mbs;
            }
            *completed += mbs;
            *pulled += waves as i64;
            *pull_serving_version += waves as i64;
            if let Some((target, since)) = pull_request {
                *target += waves;
                *since += by;
            }
            if let Some(since) = block_start {
                *since += by;
            }
        }
        // Minibatch counters that 0 means "none" in; the occupancy
        // books and drain marks stay.
        let arrivals = stages.iter_mut().flatten();
        let marks = arrivals.flat_map(|s| [&mut s.fwd_arrived, &mut s.bwd_arrived]);
        for mb in marks.chain([queried]) {
            if *mb != 0 {
                *mb += mbs;
            }
        }
        for gop in heads.iter_mut().flatten().flatten() {
            gop.op = gop.op.shifted(mbs, waves);
        }
        for lanes in lanes {
            lanes.shift(mbs, waves);
        }
        *last_span_end += by;
        *last_arrival += by;
    }

    /// The running-totals walk: hands `f` every total a repeated
    /// stretch increments, in one fixed order, and stores what it
    /// returns. Reading the totals returns each as is
    /// ([`State::read_totals`]); [`Exec::repeat`] adds increments.
    fn totals(&mut self, mut f: impl FnMut(u64) -> u64) {
        let State {
            engine,
            pool,
            report,
            states,
            sync_inter,
            sync_intra,
            act_inter,
            act_intra,
            spans,
            // State a stretch shifts, not totals.
            occupancy: _,
            clocks: _,
            stages: _,
            lanes: _,
            heads: _,
            last_span_end: _,
            last_arrival: _,
            queried: _,
        } = self;
        for id in (0..pool.len()).map(ResourceId::new) {
            let r = pool.get_mut(id);
            let (busy, n) = (r.busy_time(), r.reservations());
            r.add(SimTime::from_nanos(f(busy.as_nanos())) - busy, f(n) - n);
        }
        for st in states.iter_mut() {
            for t in [&mut st.pull_wait, &mut st.inject_blocked] {
                *t = SimTime::from_nanos(f(t.as_nanos()));
            }
        }
        for total in [sync_inter, sync_intra, act_inter, act_intra] {
            *total = f(*total);
        }
        *spans = f(*spans as u64) as usize;
        let events = engine.processed();
        engine.count(f(events) - events);
        if let Some(report) = report {
            report.totals(&mut f, |vw| states[vw].pull_request.is_some());
        }
    }

    /// Every running total, in [`State::totals`] order, into `t`.
    fn read_totals(&mut self, t: &mut Vec<u64>) {
        t.clear();
        self.totals(|x| {
            t.push(x);
            x
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_vws, ed_groups, with_params};
    use super::*;
    use crate::exec::{run_into, RateEvent, RateTarget, RunStats, SegmentOpts};
    use crate::pserver::Placement;
    use crate::sync::WspParams;
    use hetpipe_cluster::DeviceId;
    use hetpipe_des::Discard;
    use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};

    /// Shifting a state commutes with normalizing it: at sampled states
    /// past the WSP warm-up, a clone shifted by `(dt, waves)` and
    /// normalized at its own (shifted) now and wave base writes the
    /// original's words, for `dt` of 1 ns, the cell's confirmed period
    /// and 2^40 ns, each with 0, 1 and 7 waves. Normalized at the
    /// unshifted now, it must not. Cells: the wave schedule, 1F1B, and
    /// composite interleaved with boundary-only recompute, each on the
    /// paper testbed's ED groups with the report fold on. A dynamically
    /// audited invariant: evidence for these states, not a proof.
    #[test]
    fn shift_commutes_with_normalization() {
        let composite = Schedule::ALL
            .into_iter()
            .find(|s| s.dispatch() == Dispatch::GpuStreamOrder)
            .expect("a composite schedule");
        let cells = [
            (Schedule::HetPipeWave, RecomputePolicy::None),
            (Schedule::OneFOneB, RecomputePolicy::None),
            (composite, RecomputePolicy::BoundaryOnly),
        ];
        let (wsp, horizon) = (WspParams::new(4, 1), SimTime::from_secs(600.0));
        let opts = SegmentOpts::default();
        for (schedule, recompute) in cells {
            let vws = build_vws(&ed_groups(), wsp.nm, schedule, recompute);
            with_params(&vws, wsp, Placement::Local, schedule, recompute, |params| {
                let (stats, ..) = run_into(params.clone(), opts.clone(), horizon, Discard, None);
                let period = stats.fast_forward.expect("the cell fast-forwards").period;
                let plan = Plan::new(params, opts.clone(), horizon);
                let mut ex = Exec::new(plan, Some(SimTime::ZERO), Discard);
                let (mut a, mut b) = (Normal::default(), Normal::default());
                let (mut events, mut samples) = (0u64, 0);
                while samples < 12 {
                    let ev = ex.st.engine.next_event_until(horizon).expect("a live run");
                    ex.handle(ev);
                    events += 1;
                    let base = ex.st.clocks.min();
                    if base < wsp.d as u64 + 2 || !events.is_multiple_of(97) {
                        continue;
                    }
                    samples += 1;
                    let now = ex.st.engine.now();
                    ex.st.write_normal(&ex.plan, &mut a, now, base);
                    let dts = [SimTime::from_nanos(1), period, SimTime::from_nanos(1 << 40)];
                    for (dt, waves) in dts.into_iter().flat_map(|dt| [0, 1, 7].map(|w| (dt, w))) {
                        let cell =
                            format!("{schedule} {recompute} event {events} dt {dt} waves {waves}");
                        let mut shifted = ex.st.clone();
                        shifted.shift(&ex.plan, dt, waves, |_| true);
                        let (at, base_at) = (shifted.engine.now(), shifted.clocks.min());
                        assert_eq!((at, base_at), (now + dt, base + waves), "{cell}");
                        shifted.write_normal(&ex.plan, &mut b, at, base_at);
                        assert!(a.words == b.words, "{cell}: shifted, the words differ");
                        shifted.write_normal(&ex.plan, &mut b, now, base_at);
                        assert!(a.words != b.words, "{cell}: the words missed the shift");
                    }
                }
            });
        }
    }

    /// `stats` without its fast-forward record, as `Debug` text.
    fn stripped(stats: &RunStats) -> String {
        let mut s = stats.clone();
        s.fast_forward = None;
        format!("{s:?}")
    }

    /// The evicted-partner path: with an empty store (a budget of 0
    /// words, so besides the waiting state only the newest is kept) a
    /// recurrence finds its partner only one push back or waiting, so
    /// most confirmations take the two-period path, and the results
    /// must not move. `tests/fast_forward.rs`'s standing
    /// matrix (every schedule × depths {3, 4} × (Nm, D) ∈ {(2, 0),
    /// (4, 0), (4, 1)} × both recompute policies, two VWs of different
    /// stage orders, 600 s, one warm-up fraction per cell in turn) and
    /// its ED-local rate-edge run, each with the empty store and with
    /// the default one: the same `RunStats` apart from the fast-forward
    /// record and the same report, bit for bit. Every run must skip,
    /// and the empty store must simulate more in some cell. A
    /// dynamically audited invariant, like the file it mirrors.
    #[test]
    fn an_empty_store_changes_no_result() {
        let at = SimTime::from_secs;
        let edge = |secs, gpu, rate| RateEvent {
            at: at(secs),
            target: RateTarget::Gpu(gpu),
            rate,
        };
        let edges = SegmentOpts {
            rate_events: vec![
                edge(200.0, 4, 0.5),
                edge(260.0, 4, 1.0),
                edge(400.0, 1, 0.0),
                edge(430.0, 1, 1.0),
            ],
            ..SegmentOpts::default()
        };
        let mut cells = vec![(
            "ED-local with rate edges".to_string(),
            ed_groups(),
            WspParams::new(4, 0),
            Placement::Local,
            Schedule::HetPipeWave,
            RecomputePolicy::None,
            edges,
        )];
        for schedule in Schedule::ALL {
            for k in [3usize, 4] {
                for (nm, d) in [(2, 0), (4, 0), (4, 1)] {
                    for recompute in RecomputePolicy::ALL {
                        let groups = vec![
                            (0..k).map(|n| DeviceId(n * 4 + 1)).collect(),
                            (0..k).rev().map(|n| DeviceId(n * 4 + 2)).collect(),
                        ];
                        cells.push((
                            format!("{schedule} {recompute} k={k} Nm={nm} D={d}"),
                            groups,
                            WspParams::new(nm, d),
                            Placement::Default,
                            schedule,
                            recompute,
                            SegmentOpts::default(),
                        ));
                    }
                }
            }
        }
        let horizon = at(600.0);
        let (mut longer, mut events) = (0, [0u64; 2]);
        for (i, (label, groups, wsp, placement, schedule, recompute, opts)) in
            cells.into_iter().enumerate()
        {
            let warmup = at(600.0 * [0.0, 0.15, 0.5, 2.0][i % 4]);
            let vws = build_vws(&groups, wsp.nm, schedule, recompute);
            with_params(&vws, wsp, placement, schedule, recompute, |params| {
                let plan = Plan::new(params.clone(), opts.clone(), horizon);
                let empty = Exec::new(plan, Some(warmup), Discard).simulate_with_store(0);
                let full = run_into(params, opts, horizon, Discard, Some(warmup));
                assert_eq!(stripped(&empty.0), stripped(&full.0), "{label}: run stats");
                assert_eq!(
                    format!("{:?}", empty.2),
                    format!("{:?}", full.2),
                    "{label}: report"
                );
                let simulated = [&empty.0, &full.0].map(|s| {
                    let ff = s.fast_forward.unwrap_or_else(|| panic!("{label}: no skip"));
                    ff.events_simulated
                });
                assert!(simulated[0] >= simulated[1], "{label}: {simulated:?}");
                longer += (simulated[0] > simulated[1]) as usize;
                events = [events[0] + simulated[0], events[1] + simulated[1]];
            });
        }
        eprintln!(
            "simulated events: {} with an empty store, {} with the default; longer in {longer} cells",
            events[0], events[1]
        );
        assert!(longer > 0, "the empty store never waited");
    }
}
