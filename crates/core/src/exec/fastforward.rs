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
//!   (`hetpipe_schedule::Lanes::write_state`). Only a hash of it is
//!   kept, with the event count it was first seen at.
//! - **Confirmation.** A recurring hash proposes a period. The full
//!   normalized state is captured and one candidate period simulated;
//!   only a full equality of the two states confirms it. The period's
//!   increments of every running total (busy time, reservations,
//!   bytes, waits, the report's partials) and its completions and wait
//!   windows are taken from that simulated period.
//! - **The jump.** `k` whole periods are added at once: pending
//!   events, free instants and every reserved-ahead span move `k · Δt`
//!   later, minibatch and wave numbers (lane generators included) move
//!   `k` periods on, running totals grow by `k` increments, and `k`
//!   shifted copies of the period's completions and wait windows are
//!   appended. The occupancy peaks stay: the skipped periods reach
//!   only levels the simulated one reached. The tail is then simulated
//!   as usual.
//! - **Edges.** `k` stops short of every edge: the warm-up, the
//!   horizon, the next rate edge and the stop point, each padded by
//!   the state's lookahead (its latest referenced instant, or newest
//!   minibatch, beyond now). The confirmed period must lie on one side
//!   of each edge too. After a leg stops at the warm-up or a rate edge,
//!   the first state past it is confirmed against the last period at
//!   once; if that fails, detection starts again.
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

use super::{Ev, Exec, SpanTag};
use hetpipe_des::{PeakFold, ResourceId, SimTime, SpanSink};
use hetpipe_schedule::{Dispatch, StateWriter};
use std::collections::BTreeMap;

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
    /// Increments of every running total, in [`Exec::totals`] order.
    totals: Vec<u64>,
    /// Per VW, the period's completions and closed wait windows.
    completions: Vec<Vec<SimTime>>,
    windows: Vec<Vec<(SimTime, SimTime)>>,
}

/// A full normalized state captured to confirm a candidate period.
struct Snapshot {
    words: Vec<u64>,
    now: SimTime,
    events: u64,
    base_wave: u64,
    totals: Vec<u64>,
    completions: Vec<usize>,
    windows: Vec<usize>,
    /// Give up unless the state recurs within this many events.
    within: u64,
}

enum Phase {
    /// Hashing the state at VW 0's pushes from `from` on, keeping
    /// each hash with the event count it was first seen at. After a
    /// leg, `again` holds the last period's event count: the first
    /// state past the edge is then confirmed against that period
    /// without waiting for its hash to recur.
    Detect {
        seen: BTreeMap<u64, usize>,
        from: SimTime,
        again: Option<u64>,
    },
    /// A hash recurred: simulating one candidate period.
    Confirm(Snapshot),
    Off,
}

/// The fast-forward driver of one [`Exec::run`].
pub(super) struct Forward {
    phase: Phase,
    /// VW 0's clock when last looked at.
    clock: u64,
    hashed: usize,
    found: Option<FastForward>,
    normal: Normal,
}

impl Forward {
    /// The driver of `ex`'s run: off unless `ex` keeps no spans and
    /// ends early enough for nanosecond counts to stay exact in an
    /// `f64`.
    pub(super) fn new<S: SpanSink<SpanTag>>(ex: &Exec<'_, S>) -> Forward {
        let on = !S::KEEPS_SPANS && ex.horizon.as_nanos() < 1 << 52;
        Forward {
            phase: if on {
                detect(SimTime::ZERO, None)
            } else {
                Phase::Off
            },
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
        if matches!(self.phase, Phase::Off) || ex.clocks.get(0) == self.clock {
            return;
        }
        self.clock = ex.clocks.get(0);
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
        let now = ex.engine.now();
        let base_wave = ex.clocks.min();
        if let Phase::Detect { from, .. } = self.phase {
            // Pull gates and pull targets exist from wave D + 2 on;
            // before that the handler compares with constants.
            let steady =
                base_wave >= ex.p.wsp.d as u64 + 2 && ex.pool.iter().all(|(_, r)| r.rate() == 1.0);
            if !steady || now < from {
                return;
            }
        }
        let mut normal = std::mem::take(&mut self.normal);
        ex.normal(&mut normal, now, base_wave);
        self.at_state(ex, &normal, base_wave);
        self.normal = normal;
    }

    /// Detects or confirms a period at the state `normal` of `ex`.
    fn at_state<S: SpanSink<SpanTag>>(
        &mut self,
        ex: &mut Exec<'_, S>,
        normal: &Normal,
        base_wave: u64,
    ) {
        let (now, events) = (ex.engine.now(), ex.engine.processed());
        match std::mem::replace(&mut self.phase, Phase::Off) {
            Phase::Detect {
                mut seen,
                from,
                again,
            } => {
                let hash = normal.hash();
                let recurs = seen.get(&hash).map(|&at| events - at as u64);
                if let Some(within) = recurs.or(again) {
                    self.phase = Phase::Confirm(Snapshot {
                        now,
                        events,
                        base_wave,
                        totals: ex.totals(),
                        completions: ex
                            .states
                            .iter()
                            .map(|s| s.stats.completions.len())
                            .collect(),
                        windows: ex
                            .states
                            .iter()
                            .map(|s| s.stats.wait_windows.len())
                            .collect(),
                        within,
                        words: normal.words.clone(),
                    });
                    return;
                }
                seen.insert(hash, events as usize);
                self.hashed += 1;
                if self.hashed < MAX_STATES {
                    self.phase = Phase::Detect {
                        seen,
                        from,
                        again: None,
                    };
                }
            }
            Phase::Confirm(snap) => {
                self.phase = if normal.words == snap.words {
                    match snap.period(ex, now, base_wave) {
                        Some(period) => self.jump(ex, snap.now, normal, period),
                        None => Phase::Off,
                    }
                } else if events >= snap.events + snap.within {
                    detect(now, None)
                } else {
                    Phase::Confirm(snap)
                };
            }
            Phase::Off => {}
        }
    }

    /// Skips as many whole periods as fit before the nearest edge, for
    /// a period confirmed from `tc` to now, and returns the phase after
    /// the leg.
    fn jump<S: SpanSink<SpanTag>>(
        &mut self,
        ex: &mut Exec<'_, S>,
        tc: SimTime,
        normal: &Normal,
        period: Period,
    ) -> Phase {
        let dt = period.dt.as_nanos();
        // The state's latest instant, and the first instant a skipped
        // period may not reach.
        let reach = normal.reach.as_nanos();
        let past = reach.saturating_add(1);
        // (periods, where detection resumes: `None` stops it).
        let mut fit = (ex.horizon.as_nanos().saturating_sub(past) / dt, None);
        let mut bound = |k: u64, resume: Option<SimTime>| {
            if k < fit.0 {
                fit = (k, resume);
            }
        };
        if let Some(warmup) = ex.report.as_ref().map(|r| r.warmup()) {
            if warmup > tc {
                bound(warmup.as_nanos().saturating_sub(reach) / dt, Some(warmup));
            }
        }
        let next_rate = ex
            .opts
            .rate_events
            .iter()
            .map(|e| e.at)
            .filter(|&at| at >= tc)
            .min();
        if let Some(at) = next_rate {
            let resume = at + SimTime::from_nanos(1);
            bound(at.as_nanos().saturating_sub(past) / dt, Some(resume));
        }
        if let Some(stop) = ex.opts.stop_after_mb {
            let mb = period.waves * ex.p.wsp.nm as u64;
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
        self.clock = ex.clocks.get(0);
        match resume {
            Some(from) => detect(from, Some(period.events)),
            None => Phase::Off,
        }
    }
}

fn detect(from: SimTime, again: Option<u64>) -> Phase {
    Phase::Detect {
        seen: BTreeMap::new(),
        from,
        again,
    }
}

impl Snapshot {
    /// The period from this snapshot to the equal state `ex` is in.
    fn period<S: SpanSink<SpanTag>>(
        &self,
        ex: &Exec<'_, S>,
        now: SimTime,
        base_wave: u64,
    ) -> Option<Period> {
        let waves = base_wave - self.base_wave;
        if waves == 0 || now == self.now {
            return None;
        }
        let totals = ex
            .totals()
            .iter()
            .zip(&self.totals)
            .map(|(a, b)| a.wrapping_sub(*b))
            .collect();
        Some(Period {
            dt: now - self.now,
            events: ex.engine.processed() - self.events,
            waves,
            totals,
            completions: ex
                .states
                .iter()
                .zip(&self.completions)
                .map(|(s, &n)| s.stats.completions[n..].to_vec())
                .collect(),
            windows: ex
                .states
                .iter()
                .zip(&self.windows)
                .map(|(s, &n)| s.stats.wait_windows[n..].to_vec())
                .collect(),
        })
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
            Ev::PushChunkDone { wave, .. } => *wave += waves,
            Ev::PullChunkDone { .. } | Ev::TryInject { .. } => {}
            Ev::Fault { .. } => return false,
        }
        true
    }

    fn write(&self, n: &mut Normal) {
        let (kind, vw, stage) = match *self {
            Ev::FwdArrive { vw, stage, .. } => (0, vw, stage),
            Ev::FwdDone { vw, stage, .. } => (1, vw, stage),
            Ev::BwdArrive { vw, stage, .. } => (2, vw, stage),
            Ev::BwdDone { vw, stage, .. } => (3, vw, stage),
            Ev::PushChunkDone { vw, .. } => (4, vw, 0),
            Ev::PullChunkDone { vw } => (5, vw, 0),
            Ev::TryInject { vw } => (6, vw, 0),
            Ev::Fault { .. } => unreachable!("rate edges are not state"),
        };
        n.word(kind | (vw as u64) << 8 | (stage as u64) << 36);
        match *self {
            Ev::FwdArrive { mb, .. }
            | Ev::FwdDone { mb, .. }
            | Ev::BwdArrive { mb, .. }
            | Ev::BwdDone { mb, .. } => n.mb(mb),
            Ev::PushChunkDone { wave, .. } => n.wave(wave as i64),
            _ => n,
        };
    }
}

impl<S: SpanSink<SpanTag>> Exec<'_, S> {
    /// Writes the executor state at `now` into `n`, normalized to
    /// `now` and to the wave base `base_wave`.
    fn normal(&self, n: &mut Normal, now: SimTime, base_wave: u64) {
        n.reset(now, base_wave, self.p.wsp.nm);
        let mut events = std::mem::take(&mut n.events);
        events.clear();
        events.extend(
            self.engine
                .pending_events()
                .filter(|(_, _, ev)| !matches!(ev, Ev::Fault { .. }))
                .map(|(at, seq, &ev)| (at, seq, ev)),
        );
        events.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        n.int(events.len() as i64);
        for (at, _, ev) in &events {
            n.instant(*at);
            ev.write(n);
        }
        n.events = events;
        // A resource free at or before now serves like one free now.
        for (_, r) in self.pool.iter() {
            n.instant(r.free_at().max(now));
        }
        n.instant(self.last_span_end);
        // Lanes never advance the injection counter: it stays raw.
        let fifo = self.dispatch == Dispatch::ArrivalFifo;
        for (vw, st) in self.states.iter().enumerate() {
            if fifo {
                n.mb(st.next_mb);
            } else {
                n.int(st.next_mb as i64);
            }
            n.mb(st.completed);
            n.wave(self.clocks.get(vw) as i64);
            n.wave(st.pulled);
            n.wave(st.pull_serving_version);
            n.int(st.pull_remaining as i64);
            n.int(st.pull_request.is_some() as i64);
            if let Some((target, since)) = st.pull_request {
                n.wave(target as i64);
                n.instant(since);
            }
            n.int(st.block_start.is_some() as i64);
            if let Some(since) = st.block_start {
                n.instant(since);
            }
            n.int(st.push_remaining.len() as i64);
            for (&wave, &left) in &st.push_remaining {
                n.wave(wave as i64);
                n.int(left as i64);
            }
        }
        for (lanes, bufs) in self.lanes.iter().zip(&self.bufs) {
            for buf in bufs {
                n.int(buf.len() as i64);
                for gop in buf {
                    gop.op.write_state(n.ints(&[gop.stage as i64]));
                }
            }
            lanes.write_state(n);
        }
        for stage in self.stages.iter().flatten() {
            n.int(stage.held as i64);
            n.mb_or_none(stage.fwd_arrived);
            n.mb_or_none(stage.bwd_arrived);
            n.int(stage.drained as i64);
        }
        self.occupancy.normal(n);
        if let Some(report) = &self.report {
            report.normal(n, |vw| self.states[vw].pull_request.is_some());
        }
    }

    /// Every running total a period increments, in one fixed order.
    fn totals(&self) -> Vec<u64> {
        let mut t = Vec::new();
        for (_, r) in self.pool.iter() {
            t.extend([r.busy_time().as_nanos(), r.reservations()]);
        }
        for st in &self.states {
            let s = &st.stats;
            t.extend([
                s.waves_pushed,
                s.pull_wait.as_nanos(),
                s.inject_blocked.as_nanos(),
            ]);
        }
        t.extend([
            self.sync_inter,
            self.sync_intra,
            self.act_inter,
            self.act_intra,
        ]);
        if let Some(report) = &self.report {
            report.totals(&mut t);
        }
        t
    }

    /// Advances the executor `k` whole periods at once.
    fn repeat(&mut self, k: u64, period: &Period) {
        let by = SimTime::from_nanos(k * period.dt.as_nanos());
        let waves = k * period.waves;
        let mbs = waves * self.p.wsp.nm as u64;
        let mut grew = period.totals.iter().map(|&d| k * d);
        let mut next = || grew.next().expect("one increment per total");
        // Room for every period left to the horizon, so the lists grow
        // once for the rest of the run; rounded up to a power of two,
        // the size doubling growth would have reached.
        let left =
            ((self.horizon - self.engine.now()).as_nanos() / period.dt.as_nanos() + 2) as usize;
        let room = |len: usize, per: usize| (len + left * per).next_power_of_two() - len;
        self.engine
            .fast_forward(by, k * period.events, |ev| ev.shift(mbs, waves));
        for id in 0..self.pool.len() {
            let (busy, reservations) = (SimTime::from_nanos(next()), next());
            self.pool
                .get_mut(ResourceId(id))
                .repeat(by, busy, reservations);
        }
        self.clocks.shift(waves);
        for (st, (completions, windows)) in self
            .states
            .iter_mut()
            .zip(period.completions.iter().zip(&period.windows))
        {
            if self.dispatch == Dispatch::ArrivalFifo {
                st.next_mb += mbs;
            }
            st.completed += mbs;
            st.pulled += waves as i64;
            st.pull_serving_version += waves as i64;
            if let Some((target, since)) = &mut st.pull_request {
                *target += waves;
                *since += by;
            }
            if let Some(since) = &mut st.block_start {
                *since += by;
            }
            for (wave, left) in std::mem::take(&mut st.push_remaining) {
                st.push_remaining.insert(wave + waves, left);
            }
            let s = &mut st.stats;
            s.waves_pushed += next();
            s.pull_wait += SimTime::from_nanos(next());
            s.inject_blocked += SimTime::from_nanos(next());
            s.completions
                .reserve_exact(room(s.completions.len(), completions.len()));
            s.wait_windows
                .reserve_exact(room(s.wait_windows.len(), windows.len()));
            for j in 1..=k {
                let d = SimTime::from_nanos(j * period.dt.as_nanos());
                s.completions.extend(completions.iter().map(|&t| t + d));
                s.wait_windows
                    .extend(windows.iter().map(|&(a, b)| (a + d, b + d)));
            }
        }
        for gop in self.bufs.iter_mut().flatten().flatten() {
            gop.op = gop.op.shifted(mbs, waves);
        }
        for lanes in &mut self.lanes {
            lanes.shift(mbs, waves);
        }
        for stage in self.stages.iter_mut().flatten() {
            for arrived in [&mut stage.fwd_arrived, &mut stage.bwd_arrived] {
                if *arrived != 0 {
                    *arrived += mbs;
                }
            }
        }
        self.sync_inter += next();
        self.sync_intra += next();
        self.act_inter += next();
        self.act_intra += next();
        self.occupancy.shift(by);
        self.last_span_end += by;
        if let Some(report) = &mut self.report {
            let open: Vec<bool> = self
                .states
                .iter()
                .map(|s| s.pull_request.is_some())
                .collect();
            report.repeat(by, &mut next, |vw| open[vw]);
        }
    }
}
