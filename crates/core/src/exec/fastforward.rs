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

use super::{Ev, Exec, Plan, SpanTag, State, VwState};
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
    /// Increments of every running total, in [`State::totals`] order.
    totals: Vec<u64>,
    /// Per VW, the period's completions and closed wait windows.
    completions: Vec<Vec<SimTime>>,
    windows: Vec<Vec<(SimTime, SimTime)>>,
}

/// A state captured to confirm a candidate period: its normal form,
/// its instant, event count and wave base, its running totals and its
/// list lengths.
struct Snapshot {
    words: Vec<u64>,
    now: SimTime,
    events: u64,
    base_wave: u64,
    totals: Vec<u64>,
    lens: Vec<(usize, usize)>,
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

/// The fast-forward driver of one [`Exec::simulate`].
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
        let on = !S::KEEPS_SPANS && ex.plan.horizon.as_nanos() < 1 << 52;
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
        if matches!(self.phase, Phase::Off) || ex.st.clocks.get(0) == self.clock {
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
        if let Phase::Detect { from, .. } = self.phase {
            // Pull gates and pull targets exist from wave D + 2 on;
            // before that the handler compares with constants.
            let nominal = ex.plan.rates.iter().all(|r| r.rate_at(now) == 1.0);
            let steady = base_wave >= ex.plan.p.wsp.d as u64 + 2 && nominal;
            if !steady || now < from {
                return;
            }
        }
        let mut normal = std::mem::take(&mut self.normal);
        ex.st.write_normal(&ex.plan, &mut normal, now, base_wave);
        self.at_state(ex, &normal);
        self.normal = normal;
    }

    /// Detects or confirms a period at the state `normal` of `ex`.
    fn at_state<S: SpanSink<SpanTag>>(&mut self, ex: &mut Exec<'_, S>, normal: &Normal) {
        let (now, events) = (ex.st.engine.now(), ex.st.engine.processed());
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
                        words: normal.words.clone(),
                        now,
                        events,
                        base_wave: ex.st.clocks.min(),
                        totals: ex.st.read_totals(),
                        lens: ex.lens(),
                        within,
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
                    match snap.period(ex) {
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
    fn period<S>(&self, ex: &mut Exec<'_, S>) -> Option<Period> {
        let waves = ex.st.clocks.min() - self.base_wave;
        let dt = ex.st.engine.now() - self.now;
        if waves == 0 || dt == SimTime::ZERO {
            return None;
        }
        let totals = (ex.st.read_totals().iter().zip(&self.totals))
            .map(|(a, b)| a.wrapping_sub(*b))
            .collect();
        let tails = ex.lists.iter().zip(&self.lens);
        Some(Period {
            dt,
            events: ex.st.engine.processed() - self.events,
            waves,
            totals,
            completions: (tails.clone())
                .map(|(l, &(n, _))| l.completions[n..].to_vec())
                .collect(),
            windows: tails
                .map(|(l, &(_, n))| l.wait_windows[n..].to_vec())
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

    /// Every running total, in [`State::totals`] order.
    fn read_totals(&mut self) -> Vec<u64> {
        let mut t = Vec::new();
        self.totals(|x| {
            t.push(x);
            x
        });
        t
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_vws, ed_groups, with_params};
    use super::*;
    use crate::exec::{run_into, SegmentOpts};
    use crate::pserver::Placement;
    use crate::sync::WspParams;
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
}
