//! Wave checkpoints: a probe saves its executor state as it runs, and
//! a drain resumes from the latest state saved before its stop point
//! instead of re-running the segment from its start.
//!
//! **Why a checkpoint is a valid start.** A drain at stop `S`
//! ([`SegmentOpts::stop_after_mb`](super::SegmentOpts::stop_after_mb))
//! runs the probe's segment with one difference: the stop query
//! (`Exec::past_stop`) answers true for minibatches past `S`. Every
//! other decision of the handler is the probe's, so the drain is the
//! probe, event for event and bit for bit, until its first stop query
//! of a minibatch past `S`. The executor records the newest minibatch
//! any stop query has tested (`Exec::queried`). Every state the probe
//! reaches while that is at most `S` is a state the drain reaches too,
//! after the same events and the same spans. Resuming there under the
//! stop point and simulating on is the drain.
//!
//! **What a checkpoint holds.** Only the state the handler mutates:
//! the engine's clock, sequence counter and queued events; each
//! resource's free instant, busy time, reservation count and rate
//! (names and rate timelines never change in a run, so the resumed run
//! installs its own); the occupancy fold
//! and, when the run folds one, the report fold; per-VW state, with
//! the *lengths* of its completion and wait-window lists, whose
//! prefixes the resumed run cuts from the probe's final [`RunStats`];
//! the stage books; the lane cursors and generators ([`fork_lanes`]
//! copies a composite timetable once per VW); the last span end and
//! the byte counters; and the event and span counts, so the caller can
//! cut a kept trace back to the checkpoint.
//!
//! **Storage and spacing.** The segment-start state is always the
//! first checkpoint, so every stop can resume. Later ones are taken
//! each time the stop queries reach a new block of
//! [`FIRST_SPACING_WAVES`] waves. Every checkpoint's plain state goes
//! into one buffer of [`MAX_WORDS`] words, reserved when the probe
//! starts, so taking one allocates nothing; lane generators and a
//! report fold, which only some runs have, are kept beside it. When
//! the next checkpoint would not fit, every other checkpoint goes (the
//! first stays) and the spacing doubles. So a probe's checkpoints cost
//! one bounded buffer however long it runs, and a smaller executor
//! state keeps more of them.
//!
//! A checkpointed run simulates every event: fast-forward would skip
//! the stop queries a checkpoint's validity rests on.

use super::{report_of, Ev, Exec, ExecParams, LaneCursor, RunStats, SegmentOpts, SpanTag};
use super::{VwState, VwStats};
use crate::metrics::{ReportFold, SystemReport};
use hetpipe_des::{Engine, ResourceId, SimTime, SpanSink};
use hetpipe_schedule::{fork_lanes, GpuOp, Lane, PushClocks};
use std::collections::{BTreeMap, VecDeque};

/// Waves between checkpoints until the buffer first fills.
const FIRST_SPACING_WAVES: u64 = 1;

/// Words (of 8 bytes) of checkpoint state a run keeps.
const MAX_WORDS: usize = 6 * 1024;

/// What a checkpoint keeps beside its words: each VW's lane buffers
/// and generators (lane dispatch only) and the report fold (runs that
/// fold one).
struct Beside {
    lanes: Vec<(Vec<VecDeque<GpuOp>>, Vec<Lane>)>,
    report: Option<ReportFold>,
}

/// Where one checkpoint's words lie, and its counts.
#[derive(Clone, Copy)]
struct Mark {
    at: usize,
    len: usize,
    queried: u64,
    events: u64,
    spans: usize,
}

/// A checkpointed run's saved states, oldest first (see the module
/// docs for their storage and spacing).
pub struct Checkpoints {
    words: Vec<u64>,
    marks: Vec<Mark>,
    beside: Vec<Beside>,
    horizon: SimTime,
    /// Stop-query minibatches between checkpoints.
    every: u64,
    /// The stop query that triggers the next checkpoint.
    next: u64,
}

/// One saved executor state of a checkpointed run
/// ([`run_into_checkpointed`]), valid as the start of a drain at any
/// stop point not below [`Checkpoint::queried`].
#[derive(Clone, Copy)]
pub struct Checkpoint<'a> {
    mark: Mark,
    words: &'a [u64],
    beside: &'a Beside,
    horizon: SimTime,
}

impl Checkpoint<'_> {
    /// The newest minibatch any stop query had tested when the state
    /// was saved: the checkpoint starts a drain at any stop point at or
    /// past it.
    pub fn queried(&self) -> u64 {
        self.mark.queried
    }

    /// DES events processed before the state was saved.
    pub fn events(&self) -> u64 {
        self.mark.events
    }

    /// Spans recorded before the state was saved: a caller that kept
    /// the probe's spans keeps this many of them and lets the resumed
    /// run record the rest.
    pub fn spans(&self) -> usize {
        self.mark.spans
    }
}

impl Checkpoints {
    /// Starts the list with `ex`'s state at the segment start.
    fn start<S>(ex: &Exec<'_, S>) -> Checkpoints {
        let every = FIRST_SPACING_WAVES * ex.p.wsp.nm as u64;
        let mut checkpoints = Checkpoints {
            words: Vec::with_capacity(MAX_WORDS),
            marks: Vec::new(),
            beside: Vec::new(),
            horizon: ex.horizon,
            every,
            next: every,
        };
        checkpoints.push(ex);
        checkpoints
    }

    /// Saves `ex`'s state when its stop queries have reached the next
    /// block.
    #[inline]
    fn after_event<S>(&mut self, ex: &Exec<'_, S>) {
        if ex.queried >= self.next {
            self.take(ex);
        }
    }

    fn take<S>(&mut self, ex: &Exec<'_, S>) {
        let last = self.marks.last().map_or(0, |m| m.len);
        if self.words.len() + last > MAX_WORDS && self.marks.len() > 1 {
            self.thin();
        }
        self.push(ex);
        self.next = (ex.queried / self.every + 1) * self.every;
    }

    /// Drops every other checkpoint, the first kept, and doubles the
    /// spacing.
    fn thin(&mut self) {
        let mut to = 0;
        for i in (0..self.marks.len()).step_by(2) {
            let mark = self.marks[i];
            self.words.copy_within(mark.at..mark.at + mark.len, to);
            self.marks[i / 2] = Mark { at: to, ..mark };
            to += mark.len;
        }
        self.words.truncate(to);
        self.marks.truncate(self.marks.len().div_ceil(2));
        let mut i = 0;
        self.beside.retain(|_| {
            i += 1;
            i % 2 == 1
        });
        self.every *= 2;
    }

    fn push<S>(&mut self, ex: &Exec<'_, S>) {
        let at = self.words.len();
        ex.write(&mut self.words);
        self.marks.push(Mark {
            at,
            len: self.words.len() - at,
            queried: ex.queried,
            events: ex.engine.processed(),
            spans: ex.spans,
        });
        self.beside.push(Beside {
            lanes: ex
                .lanes
                .iter()
                .map(|cursors| {
                    let bufs = cursors.iter().map(|c| c.buf.clone()).collect();
                    (bufs, fork_lanes(cursors.iter().map(|c| &c.lane)))
                })
                .collect(),
            report: ex.report.clone(),
        });
    }

    fn get(&self, i: usize) -> Checkpoint<'_> {
        let mark = self.marks[i];
        Checkpoint {
            mark,
            words: &self.words[mark.at..mark.at + mark.len],
            beside: &self.beside[i],
            horizon: self.horizon,
        }
    }

    /// The latest checkpoint a drain at `stop` may resume from.
    pub fn for_stop(&self, stop: u64) -> Checkpoint<'_> {
        let valid = self.marks.partition_point(|m| m.queried <= stop);
        self.get(valid.max(1) - 1)
    }

    /// The checkpoints, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Checkpoint<'_>> {
        (0..self.marks.len()).map(|i| self.get(i))
    }

    /// Number of checkpoints kept.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Always false: the segment start is always kept.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }
}

impl Ev {
    /// The event as two words: kind, VW and stage, then its
    /// minibatch, wave or rate-edge index.
    fn to_words(self) -> [u64; 2] {
        let (kind, vw, stage, n) = match self {
            Ev::FwdArrive { vw, stage, mb } => (0, vw, stage, mb),
            Ev::FwdDone { vw, stage, mb } => (1, vw, stage, mb),
            Ev::BwdArrive { vw, stage, mb } => (2, vw, stage, mb),
            Ev::BwdDone { vw, stage, mb } => (3, vw, stage, mb),
            Ev::PushChunkDone { vw, wave } => (4, vw, 0, wave),
            Ev::PullChunkDone { vw } => (5, vw, 0, 0),
            Ev::TryInject { vw } => (6, vw, 0, 0),
            Ev::Fault { idx } => (7, 0, 0, idx as u64),
        };
        debug_assert!(stage < 1 << 24, "stage {stage} does not fit its 24 bits");
        [kind | (vw as u64) << 8 | (stage as u64) << 40, n]
    }

    /// The event [`Ev::to_words`] wrote.
    fn from_words([head, n]: [u64; 2]) -> Ev {
        let (vw, stage) = ((head >> 8) as u32, (head >> 40) as u32);
        match head & 0xff {
            0 => Ev::FwdArrive { vw, stage, mb: n },
            1 => Ev::FwdDone { vw, stage, mb: n },
            2 => Ev::BwdArrive { vw, stage, mb: n },
            3 => Ev::BwdDone { vw, stage, mb: n },
            4 => Ev::PushChunkDone { vw, wave: n },
            5 => Ev::PullChunkDone { vw },
            6 => Ev::TryInject { vw },
            7 => Ev::Fault { idx: n as u32 },
            kind => unreachable!("no event kind {kind}"),
        }
    }
}

/// An optional instant as two words.
fn option_words(t: Option<SimTime>) -> [u64; 2] {
    [t.is_some() as u64, t.map_or(0, SimTime::as_nanos)]
}

impl<S> Exec<'_, S> {
    /// Appends the state a checkpoint keeps in words (lanes and the
    /// report fold aside) to `out`, for [`Exec::restore`].
    fn write(&self, out: &mut Vec<u64>) {
        let engine = &self.engine;
        out.extend([
            engine.now().as_nanos(),
            engine.next_seq(),
            engine.pending() as u64,
        ]);
        for (at, seq, ev) in engine.pending_events() {
            out.extend([at.as_nanos(), seq]);
            out.extend(ev.to_words());
        }
        for (_, r) in self.pool.iter() {
            out.extend(r.state_words());
        }
        self.occupancy.write(out);
        for (vw, st) in self.states.iter().enumerate() {
            let (target, since) = st.pull_request.unzip();
            let s = &st.stats;
            out.extend([
                st.next_mb,
                st.completed,
                self.clocks.get(vw),
                st.pulled as u64,
                target.unwrap_or(0),
            ]);
            out.extend(option_words(since));
            out.extend([st.pull_remaining as u64, st.pull_serving_version as u64]);
            out.extend(option_words(st.block_start));
            out.extend([
                s.waves_pushed,
                s.pull_wait.as_nanos(),
                s.inject_blocked.as_nanos(),
                s.completions.len() as u64,
                s.wait_windows.len() as u64,
                st.push_remaining.len() as u64,
            ]);
            for (&wave, &left) in &st.push_remaining {
                out.extend([wave, left as u64]);
            }
        }
        for stage in self.stages.iter().flatten() {
            out.extend([
                stage.held,
                stage.fwd_arrived,
                stage.bwd_arrived,
                stage.drained as u64,
            ]);
        }
        out.extend([
            self.last_span_end.as_nanos(),
            self.sync_inter,
            self.sync_intra,
            self.act_inter,
            self.act_intra,
        ]);
    }
}

impl<S: SpanSink<SpanTag>> Exec<'_, S> {
    /// Puts the executor into `from`'s state, taking the completion
    /// and wait-window prefixes from `probe`, the checkpointed run's
    /// result.
    fn restore(&mut self, from: Checkpoint<'_>, probe: &RunStats) {
        let words = &mut from.words.iter().copied();
        let mut next = || words.next().expect("a whole checkpoint");
        let (now, next_seq, pending) = (SimTime::from_nanos(next()), next(), next());
        let events: Vec<(SimTime, u64, Ev)> = (0..pending)
            .map(|_| {
                let (at, seq) = (SimTime::from_nanos(next()), next());
                (at, seq, Ev::from_words([next(), next()]))
            })
            .collect();
        self.engine = Engine::resume(now, from.events(), next_seq, events);
        for id in 0..self.pool.len() {
            let state = [next(), next(), next(), next()];
            self.pool.get_mut(ResourceId(id)).set_state_words(state);
        }
        self.occupancy.read(words);
        let mut next = || words.next().expect("a whole checkpoint");
        let instant = |set: u64, t: u64| (set != 0).then_some(SimTime::from_nanos(t));
        let mut clocks = Vec::with_capacity(self.states.len());
        for (st, stats) in self.states.iter_mut().zip(&probe.vws) {
            let (next_mb, completed) = (next(), next());
            clocks.push(next());
            let (pulled, target) = (next() as i64, next());
            let since = instant(next(), next());
            let (pull_remaining, pull_serving_version) = (next() as usize, next() as i64);
            let block_start = instant(next(), next());
            let waves_pushed = next();
            let pull_wait = SimTime::from_nanos(next());
            let inject_blocked = SimTime::from_nanos(next());
            let (completions, windows, pushes) = (next() as usize, next() as usize, next());
            let push_remaining: BTreeMap<u64, usize> =
                (0..pushes).map(|_| (next(), next() as usize)).collect();
            *st = VwState {
                next_mb,
                completed,
                pulled,
                pull_request: since.map(|since| (target, since)),
                pull_remaining,
                pull_serving_version,
                push_remaining,
                block_start,
                stats: VwStats {
                    completions: stats.completions[..completions].to_vec(),
                    waves_pushed,
                    pull_wait,
                    wait_windows: stats.wait_windows[..windows].to_vec(),
                    inject_blocked,
                },
            };
        }
        for stage in self.stages.iter_mut().flatten() {
            stage.held = next();
            stage.fwd_arrived = next();
            stage.bwd_arrived = next();
            stage.drained = next() != 0;
        }
        self.last_span_end = SimTime::from_nanos(next());
        [
            self.sync_inter,
            self.sync_intra,
            self.act_inter,
            self.act_intra,
        ] = [next(), next(), next(), next()];
        self.clocks = PushClocks::new(clocks);
        debug_assert!(words.next().is_none(), "a checkpoint of another run");
        assert_eq!(
            self.report.is_some(),
            from.beside.report.is_some(),
            "a resumed run folds a report exactly when its probe did"
        );
        self.report = from.beside.report.clone();
        self.lanes = from
            .beside
            .lanes
            .iter()
            .map(|(bufs, lanes)| {
                bufs.iter()
                    .zip(fork_lanes(lanes))
                    .map(|(buf, lane)| LaneCursor {
                        lane,
                        buf: buf.clone(),
                    })
                    .collect()
            })
            .collect();
        self.queried = from.queried();
        self.spans = from.spans();
    }
}

/// [`run_into`](super::run_into) for a probe: simulates the segment to
/// `horizon` with no stop point, and also returns the wave checkpoints
/// it saved on the way, from which [`resume_into`] commits a drain at
/// any wave boundary without re-running the segment from its start.
/// Simulates every event (no fast-forward).
///
/// # Panics
///
/// Panics if `opts` sets a stop point.
pub fn run_into_checkpointed<S: SpanSink<SpanTag>>(
    params: ExecParams<'_>,
    opts: SegmentOpts,
    horizon: SimTime,
    sink: S,
    warmup: Option<SimTime>,
) -> (RunStats, S, Option<SystemReport>, Checkpoints) {
    assert!(
        opts.stop_after_mb.is_none(),
        "a checkpointed run is a probe: it has no stop point"
    );
    let mut ex = Exec::new(params.clone(), opts, horizon, warmup, sink);
    ex.prologue();
    let mut checkpoints = Checkpoints::start(&ex);
    while let Some(ev) = ex.engine.next_event_until(horizon) {
        ex.handle(ev);
        checkpoints.after_event(&ex);
    }
    let (stats, sink, fold) = ex.finish();
    let report = report_of(&params, &stats, fold);
    (stats, sink, report, checkpoints)
}

/// Commits a drain from a probe's checkpoint: the result equals
/// [`run_into`](super::run_into) with the same arguments bit for bit,
/// [`RunStats`] and report alike, and `sink` receives exactly the spans
/// that run records after the first [`Checkpoint::spans`].
///
/// `params`, `horizon`, `warmup` and `opts` but its stop point must be
/// the probe's; `from` and `probe` are the checkpoint and the result of
/// that [`run_into_checkpointed`] run, and the stop must lie at or past
/// [`Checkpoint::queried`] ([`Checkpoints::for_stop`] picks the latest
/// such checkpoint).
///
/// # Panics
///
/// Panics if `opts` sets no stop point, a stop point below
/// `from.queried()` or off a wave boundary, or a horizon other than the
/// probe's.
pub fn resume_into<S: SpanSink<SpanTag>>(
    params: ExecParams<'_>,
    opts: SegmentOpts,
    horizon: SimTime,
    sink: S,
    warmup: Option<SimTime>,
    from: Checkpoint<'_>,
    probe: &RunStats,
) -> (RunStats, S, Option<SystemReport>) {
    let stop = opts.stop_after_mb.expect("a resumed run is a drain");
    assert!(
        stop >= from.queried(),
        "the checkpoint queried minibatch {} past the stop point {stop}",
        from.queried()
    );
    assert_eq!(horizon, from.horizon, "a drain runs to its probe's horizon");
    let mut ex = Exec::new(params.clone(), opts, horizon, warmup, sink);
    // Installs the rate timelines; the restored engine replaces the
    // events it schedules.
    ex.prologue();
    ex.restore(from, probe);
    let (stats, sink, fold) = ex.simulate();
    let report = report_of(&params, &stats, fold);
    (stats, sink, report)
}
