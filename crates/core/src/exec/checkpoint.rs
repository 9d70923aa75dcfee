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
//! **What a checkpoint holds.** A clone of the executor's `State`,
//! the one value that holds everything the handler mutates, and per
//! VW the lengths of its completion and wait-window lists. Those lists
//! grow with the horizon, so they sit beside the state, and the resumed
//! run cuts their prefixes from the probe's final [`RunStats`]. What a
//! run only reads (its plan: stage times, sync chunks, declared
//! windows, rate timelines) is not copied: a resumed run builds it
//! again from the probe's segment options and horizon, which the
//! checkpoints keep, under the drain's stop point.
//!
//! **Spacing.** The segment-start state is always the first
//! checkpoint, so every stop can resume. Later ones are taken each
//! time the stop queries reach a new block of [`FIRST_SPACING_WAVES`]
//! waves. When [`MAX_KEPT`] are kept, every other one goes (the first
//! stays) and the spacing doubles. So a probe keeps a bounded number of
//! checkpoints however long it runs, spread over the whole run.
//!
//! **The halt state.** A probe's judge may halt it after any event,
//! and the run then saves its state as its last checkpoint. A drain at
//! a wave boundary at or past [`Progress::queried`] resumes from that
//! state and re-runs nothing: no stop query has yet tested a minibatch
//! past the stop, so the halt state is the one the drain from the
//! segment start reaches after the same events. A drain at an earlier
//! boundary resumes from an earlier checkpoint.
//!
//! A checkpointed run simulates every event: fast-forward would skip
//! the stop queries a checkpoint's validity rests on.
use super::{Exec, ExecParams, Plan, RunStats, SegmentOpts, SpanTag, State, VwLists};
use hetpipe_des::{SimTime, SpanSink};
use std::ops::ControlFlow;

/// Waves between checkpoints until the list first fills.
const FIRST_SPACING_WAVES: u64 = 1;

/// The most checkpoints the spacing rule keeps; a halted run keeps its
/// halt state besides.
const MAX_KEPT: usize = 48;

/// What a drain resumed from a probe's checkpoint runs under besides
/// its stop point.
struct Probe {
    /// The probe's segment options; its stop point is `None`.
    opts: SegmentOpts,
    horizon: SimTime,
}

/// A checkpointed run's saved states, oldest first (see the module
/// docs for their spacing).
pub struct Checkpoints {
    /// Each state with, per VW, its completion and wait-window list
    /// lengths.
    saved: Vec<(State, Vec<(usize, usize)>)>,
    probe: Probe,
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
    saved: &'a (State, Vec<(usize, usize)>),
    probe: &'a Probe,
}

impl Checkpoint<'_> {
    /// The newest minibatch any stop query had tested when the state
    /// was saved: the checkpoint starts a drain at any stop point at or
    /// past it.
    pub fn queried(&self) -> u64 {
        self.saved.0.queried
    }

    /// DES events processed before the state was saved.
    pub fn events(&self) -> u64 {
        self.saved.0.engine.processed()
    }

    /// Spans recorded before the state was saved: a caller that kept
    /// the probe's spans keeps this many of them and lets the resumed
    /// run record the rest.
    pub fn spans(&self) -> usize {
        self.saved.0.spans
    }
}

impl Checkpoints {
    /// Starts the list with `ex`'s state at the segment start.
    fn start<S: SpanSink<SpanTag>>(ex: &Exec<'_, S>) -> Checkpoints {
        let every = FIRST_SPACING_WAVES * ex.plan.p.wsp.nm as u64;
        Checkpoints {
            saved: vec![(ex.st.clone(), ex.lens())],
            probe: Probe {
                opts: ex.plan.opts.clone(),
                horizon: ex.plan.horizon,
            },
            every,
            next: every,
        }
    }

    /// Saves `ex`'s state when its stop queries have reached the next
    /// block.
    #[inline]
    fn after_event<S: SpanSink<SpanTag>>(&mut self, ex: &Exec<'_, S>) {
        if ex.st.queried >= self.next {
            if self.saved.len() == MAX_KEPT {
                self.thin();
            }
            self.save(ex);
            self.next = (ex.st.queried / self.every + 1) * self.every;
        }
    }

    /// Saves `ex`'s state as the latest checkpoint. The halt state is
    /// saved past a full list, so that it thins none of the checkpoints
    /// an earlier stop resumes from.
    fn save<S: SpanSink<SpanTag>>(&mut self, ex: &Exec<'_, S>) {
        self.saved.push((ex.st.clone(), ex.lens()));
    }

    /// Drops every other checkpoint, the first kept, and doubles the
    /// spacing.
    fn thin(&mut self) {
        let mut keep = [true, false].into_iter().cycle();
        self.saved.retain(|_| keep.next() == Some(true));
        self.every *= 2;
    }

    /// The latest checkpoint a drain at `stop` may resume from.
    pub fn for_stop(&self, stop: u64) -> Checkpoint<'_> {
        let valid = self.saved.partition_point(|(s, _)| s.queried <= stop);
        let saved = &self.saved[valid.max(1) - 1];
        Checkpoint {
            saved,
            probe: &self.probe,
        }
    }

    /// The checkpoints, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Checkpoint<'_>> {
        let probe = &self.probe;
        self.saved
            .iter()
            .map(move |saved| Checkpoint { saved, probe })
    }

    /// Number of checkpoints kept.
    pub fn len(&self) -> usize {
        self.saved.len()
    }

    /// Always false: the segment start is always kept.
    pub fn is_empty(&self) -> bool {
        self.saved.is_empty()
    }
}

/// Where a checkpointed run stands after an event: what its judge
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// The instant of the event just handled.
    pub now: SimTime,
    /// The instant of the next event, capped at the horizon: the state
    /// stands as it is over `[now, until)`.
    pub until: SimTime,
    /// Whole waves every virtual worker has completed.
    pub waves: u64,
    /// The newest minibatch any stop query has tested: a drain from the
    /// state halted here may stop at any wave boundary at or past it.
    pub queried: u64,
}

/// [`run_into`](super::run_into) for a probe: simulates the segment to
/// `horizon` with no stop point and no report, and also returns the
/// wave checkpoints it saved on the way, from which [`resume_into`]
/// commits a drain at any wave boundary without re-running the segment
/// from its start. Simulates every event (no fast-forward).
///
/// After each event `judge` reads the run's [`Progress`] and its sink.
/// When it breaks, the run halts and saves its state as its last
/// checkpoint (the halt state, see the module docs); a judge that
/// always continues leaves the run to the horizon.
///
/// # Panics
///
/// Panics if `opts` sets a stop point.
pub fn run_into_checkpointed<S: SpanSink<SpanTag>>(
    params: ExecParams<'_>,
    opts: SegmentOpts,
    horizon: SimTime,
    sink: S,
    mut judge: impl FnMut(Progress, &S) -> ControlFlow<()>,
) -> (RunStats, S, Checkpoints) {
    assert!(
        opts.stop_after_mb.is_none(),
        "a checkpointed run is a probe: it has no stop point"
    );
    let mut ex = Exec::new(Plan::new(params, opts, horizon), None, sink);
    let mut checkpoints = Checkpoints::start(&ex);
    let nm = ex.plan.p.wsp.nm as u64;
    while let Some(ev) = ex.st.engine.next_event_until(horizon) {
        ex.handle(ev);
        checkpoints.after_event(&ex);
        let engine = &ex.st.engine;
        let progress = Progress {
            now: engine.now(),
            until: engine.next_time().map_or(horizon, |t| t.min(horizon)),
            waves: ex.st.states.iter().map(|s| s.completed).min().unwrap_or(0) / nm,
            queried: ex.st.queried,
        };
        if judge(progress, &ex.sink).is_break() {
            checkpoints.save(&ex);
            break;
        }
    }
    let (stats, sink, _) = ex.finish();
    (stats, sink, checkpoints)
}

/// Commits a drain at `stop` from a probe's checkpoint: the
/// [`RunStats`] equal [`run_into`](super::run_into)'s under the probe's
/// segment options with that stop point, its horizon and no warm-up,
/// bit for bit, and `sink` receives exactly the spans that run records
/// after the first [`Checkpoint::spans`].
///
/// `params` must be the probe's; `from` and `probe` are the checkpoint
/// and the result of that [`run_into_checkpointed`] run, and the stop
/// must lie at or past [`Checkpoint::queried`]
/// ([`Checkpoints::for_stop`] picks the latest such checkpoint).
///
/// # Panics
///
/// Panics if `stop` lies below `from.queried()` or off a wave boundary.
pub fn resume_into<S: SpanSink<SpanTag>>(
    params: ExecParams<'_>,
    stop: u64,
    sink: S,
    from: Checkpoint<'_>,
    probe: &RunStats,
) -> (RunStats, S) {
    assert!(
        stop >= from.queried(),
        "the checkpoint queried minibatch {} past the stop point {stop}",
        from.queried()
    );
    let (state, lens) = from.saved;
    let lists = (lens.iter().zip(&probe.vws))
        .map(|(&(completions, windows), stats)| VwLists {
            completions: stats.completions[..completions].to_vec(),
            wait_windows: stats.wait_windows[..windows].to_vec(),
        })
        .collect();
    let opts = SegmentOpts {
        stop_after_mb: Some(stop),
        ..from.probe.opts.clone()
    };
    let plan = Plan::new(params, opts, from.probe.horizon);
    let st = state.clone();
    let (stats, sink, _) = Exec {
        plan,
        st,
        lists,
        sink,
    }
    .simulate();
    (stats, sink)
}
