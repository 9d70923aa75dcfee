//! Span sinks and traces.
//!
//! Executors hand every labelled time span they reserve (`forward pass
//! of minibatch 7 on stage 2`, `push of wave 3`, …) to a [`SpanSink`].
//! A [`Trace`] keeps every span, for trace pins, fingerprints, chrome
//! export and ad-hoc windowed queries; [`Discard`] keeps none, for runs
//! whose consumers fold their aggregates while the run executes (the
//! paper's per-GPU utilization of Figure 3 and the waiting vs true idle
//! time of Section 8.4 need only running sums). [`PeakFold`] is the
//! running form of [`peak_of_events`] such folds use.

use crate::resource::ResourceId;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Write};
use std::path::Path;

/// Where an executor sends the spans it records. A type parameter of
/// the executor, so the choice costs no dynamic call per span. The
/// executor takes its sink by value and hands it back when the run
/// ends, so a sink may carry state in and out of a run: the elastic
/// runtime's sink appends each segment, rebased, to the run's merged
/// trace.
pub trait SpanSink<T> {
    /// Whether the sink keeps spans. A run whose sink keeps none may
    /// skip simulating a steady state whose spans nobody reads.
    const KEEPS_SPANS: bool = true;

    /// Takes one span (`end >= start`) on `resource`.
    fn record(&mut self, resource: ResourceId, start: SimTime, end: SimTime, tag: T);
}

/// A sink that keeps no span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Discard;

impl<T> SpanSink<T> for Discard {
    const KEEPS_SPANS: bool = false;

    fn record(&mut self, _: ResourceId, _: SimTime, _: SimTime, _: T) {}
}

impl<T> SpanSink<T> for Trace<T> {
    fn record(&mut self, resource: ResourceId, start: SimTime, end: SimTime, tag: T) {
        Trace::record(self, resource, start, end, tag);
    }
}

/// A labelled interval on a resource's timeline: a 4-byte
/// [`ResourceId`], two 8-byte instants and the tag, so a kept span
/// takes 20 bytes plus its tag, rounded up to a multiple of 8 (32
/// bytes with a 12-byte tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span<T> {
    /// The resource the span occupied.
    pub resource: ResourceId,
    /// Start instant.
    pub start: SimTime,
    /// End instant (`end >= start`).
    pub end: SimTime,
    /// Client-defined label (e.g. an enum of Forward/Backward/Push/Pull).
    pub tag: T,
}

impl<T> Span<T> {
    /// The span's duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// An append-only collection of spans.
#[derive(Debug, Clone)]
pub struct Trace<T> {
    spans: Vec<Span<T>>,
}

impl<T> Default for Trace<T> {
    fn default() -> Self {
        Trace { spans: Vec::new() }
    }
}

impl<T> Trace<T> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a span.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `end < start`.
    pub fn record(&mut self, resource: ResourceId, start: SimTime, end: SimTime, tag: T) {
        debug_assert!(end >= start, "span must not be inverted");
        self.spans.push(Span {
            resource,
            start,
            end,
            tag,
        });
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span<T>] {
        &self.spans
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drops every span past the first `len`, keeping the allocation:
    /// a caller that recorded a tentative suffix cuts it off and
    /// records its replacement in place. The elastic runtime cuts a
    /// probe's spans back to the checkpoint its drained epoch resumes
    /// from, and the resumed run records the rest.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Total busy time of `resource` within the window `[from, to)`,
    /// clipping spans that straddle the window edges.
    ///
    /// Scans the whole trace per call: the naive reference. Reports
    /// that need many windows fold the trace once, or fold the spans
    /// while the run executes and keep none (the run report in
    /// `hetpipe-core` does both, and its parity test checks each
    /// against this query).
    pub fn busy_within(&self, resource: ResourceId, from: SimTime, to: SimTime) -> SimTime {
        let mut acc = SimTime::ZERO;
        for s in &self.spans {
            if s.resource != resource {
                continue;
            }
            let lo = s.start.max(from);
            let hi = s.end.min(to);
            if hi > lo {
                acc += hi - lo;
            }
        }
        acc
    }

    /// Utilization of `resource` within `[from, to)`.
    ///
    /// Returns 0 for an empty window.
    pub fn utilization_within(&self, resource: ResourceId, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.busy_within(resource, from, to).as_secs() / (to - from).as_secs()
    }

    /// Writes the trace in the `chrome://tracing` / Perfetto JSON
    /// event format: one complete (`"ph": "X"`) event per span, one
    /// track (`tid`) per resource, with thread-name metadata naming
    /// each track after its resource.
    ///
    /// `track_names` maps a [`ResourceId`] to a track label (e.g.
    /// `"gpu3"`, `"nic0"`); `name_of` and `category_of` render a
    /// span's tag into the event name and category. Timestamps are
    /// emitted in microseconds (the format's unit) with sub-µs
    /// precision preserved as fractions.
    ///
    /// The serialization issues one small `write!` per event, so the
    /// writer is buffered internally ([`io::BufWriter`]) — callers can
    /// hand over a raw `File` without paying a syscall per span.
    pub fn write_chrome_trace<W: Write>(
        &self,
        out: W,
        track_names: impl Fn(ResourceId) -> String,
        name_of: impl Fn(&T) -> String,
        category_of: impl Fn(&T) -> &'static str,
    ) -> io::Result<()> {
        self.write_chrome_trace_with_instants(out, track_names, name_of, category_of, &[])
    }

    /// [`Trace::write_chrome_trace`] plus process-scoped *instant*
    /// events (`"ph": "i"`, global scope): point-in-time markers such
    /// as fault-injection edges or plan-splice epochs, so perturbed
    /// traces stay visually debuggable — each marker renders as a
    /// vertical line across every track in `chrome://tracing` /
    /// Perfetto. Each instant is `(time, name, category)`.
    pub fn write_chrome_trace_with_instants<W: Write>(
        &self,
        out: W,
        track_names: impl Fn(ResourceId) -> String,
        name_of: impl Fn(&T) -> String,
        category_of: impl Fn(&T) -> &'static str,
        instants: &[(SimTime, String, &'static str)],
    ) -> io::Result<()> {
        let mut out = io::BufWriter::new(out);
        let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        writeln!(out, "[")?;
        // Track metadata, one per resource seen in the trace, in id
        // order.
        let mut seen = Vec::new();
        for s in &self.spans {
            let i = s.resource.index();
            if i >= seen.len() {
                seen.resize(i + 1, false);
            }
            seen[i] = true;
        }
        let tracks = (seen.iter().enumerate())
            .filter(|&(_, &seen)| seen)
            .map(|(i, _)| ResourceId::new(i));
        let mut first = true;
        for rid in tracks {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                rid.0,
                escape(&track_names(rid))
            )?;
        }
        for s in &self.spans {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            let ts = s.start.as_nanos() as f64 / 1e3;
            let dur = (s.end - s.start).as_nanos() as f64 / 1e3;
            write!(
                out,
                "  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{ts},\"dur\":{dur}}}",
                escape(&name_of(&s.tag)),
                category_of(&s.tag),
                s.resource.0
            )?;
        }
        for (at, name, cat) in instants {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            let ts = at.as_nanos() as f64 / 1e3;
            write!(
                out,
                "  {{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"g\",\
                 \"pid\":0,\"tid\":0,\"ts\":{ts}}}",
                escape(name),
            )?;
        }
        writeln!(out, "\n]")?;
        out.flush()
    }

    /// [`Trace::write_chrome_trace`] straight to a file path.
    pub fn write_chrome_trace_file(
        &self,
        path: impl AsRef<Path>,
        track_names: impl Fn(ResourceId) -> String,
        name_of: impl Fn(&T) -> String,
        category_of: impl Fn(&T) -> &'static str,
    ) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write_chrome_trace(file, track_names, name_of, category_of)
    }
}

/// The peak running sum of `(instant, delta)` occupancy events (e.g.
/// +1 when a forward pass completes and its activations materialize,
/// −1 when the matching backward completes and releases them).
/// Same-instant events apply releases-first (ascending `delta`), so a
/// handoff at an instant does not count as overlap. This is the single
/// definition of a "measured peak", the measurement half of the
/// measured ≤ declared memory invariant: the occupancy audit folds its
/// events through the running form [`PeakFold`], which tests hold
/// equal to it, so measured values can never drift apart.
pub fn peak_of_events(mut events: Vec<(SimTime, i64)>) -> i64 {
    // Unstable sort: equal `(instant, delta)` tuples are
    // interchangeable under the running sum, and skipping the stable
    // merge buffer matters at trace scale (two entries per span).
    events.sort_unstable();
    let mut live = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        live += delta;
        peak = peak.max(live);
    }
    peak
}

/// [`peak_of_events`] as a running fold, for events that become known
/// in time: every event pushed at instant `now` lies at or after `now`,
/// and `now` never decreases. An event before `now` can then no longer
/// gain a predecessor in `(instant, delta)` order, so it is applied and
/// dropped; only the events at or after `now` stay pending. An executor
/// satisfies this for span ends, since it records every span at or
/// before its start.
#[derive(Debug, Clone, Default)]
pub struct PeakFold {
    pending: BinaryHeap<Reverse<(SimTime, i64)>>,
    live: i64,
    peak: i64,
}

impl PeakFold {
    /// Adds the event `(at, delta)`, known at instant `now <= at`.
    pub fn push(&mut self, now: SimTime, at: SimTime, delta: i64) {
        debug_assert!(
            at >= now,
            "an event must not predate the instant it is known"
        );
        self.settle(|t| t < now);
        self.pending.push(Reverse((at, delta)));
    }

    /// The running sum of the events applied so far.
    pub fn live(&self) -> i64 {
        self.live
    }

    /// The events not yet applied, in no particular order.
    pub fn pending(&self) -> impl Iterator<Item = (SimTime, i64)> + '_ {
        self.pending.iter().map(|&Reverse(event)| event)
    }

    /// Moves every pending event `by` later. The running sum and the
    /// peak stay: a fold that repeats a period whose levels it already
    /// reached reaches no new peak.
    pub fn shift(&mut self, by: SimTime) {
        let mut events = std::mem::take(&mut self.pending).into_vec();
        for Reverse((at, _)) in &mut events {
            *at += by;
        }
        self.pending = BinaryHeap::from(events);
    }

    /// Applies every pending event and returns the peak running sum,
    /// equal to [`peak_of_events`] over all pushed events.
    pub fn finish(&mut self) -> i64 {
        self.settle(|_| true);
        self.peak
    }

    /// Applies pending events in `(instant, delta)` order while `due`
    /// accepts their instant.
    fn settle(&mut self, due: impl Fn(SimTime) -> bool) {
        while let Some(&Reverse((at, delta))) = self.pending.peek() {
            if !due(at) {
                break;
            }
            self.pending.pop();
            self.live += delta;
            self.peak = self.peak.max(self.live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Tag {
        Fwd,
        Bwd,
    }

    #[test]
    fn busy_time_clips_to_window() {
        let mut tr = Trace::new();
        let r = ResourceId(0);
        tr.record(r, SimTime::from_nanos(0), SimTime::from_nanos(10), Tag::Fwd);
        tr.record(
            r,
            SimTime::from_nanos(20),
            SimTime::from_nanos(30),
            Tag::Bwd,
        );
        // Window [5, 25) clips both spans to 5ns each.
        let busy = tr.busy_within(r, SimTime::from_nanos(5), SimTime::from_nanos(25));
        assert_eq!(busy, SimTime::from_nanos(10));
    }

    #[test]
    fn utilization_within_window() {
        let mut tr = Trace::new();
        let r = ResourceId(1);
        tr.record(r, SimTime::from_nanos(0), SimTime::from_nanos(50), Tag::Fwd);
        let u = tr.utilization_within(r, SimTime::ZERO, SimTime::from_nanos(100));
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(tr.utilization_within(r, SimTime::ZERO, SimTime::ZERO), 0.0);
    }

    #[test]
    fn other_resources_ignored() {
        let mut tr = Trace::new();
        tr.record(
            ResourceId(0),
            SimTime::ZERO,
            SimTime::from_nanos(10),
            Tag::Fwd,
        );
        let busy = tr.busy_within(ResourceId(1), SimTime::ZERO, SimTime::from_nanos(10));
        assert_eq!(busy, SimTime::ZERO);
    }

    #[test]
    fn chrome_trace_format() {
        let mut tr = Trace::new();
        tr.record(
            ResourceId(0),
            SimTime::from_micros(1),
            SimTime::from_micros(3),
            Tag::Fwd,
        );
        tr.record(
            ResourceId(2),
            SimTime::from_micros(2),
            SimTime::from_micros(6),
            Tag::Bwd,
        );
        let mut buf = Vec::new();
        tr.write_chrome_trace(
            &mut buf,
            |r| format!("res{}", r.0),
            |t| format!("{t:?}"),
            |t| match t {
                Tag::Fwd => "forward",
                Tag::Bwd => "backward",
            },
        )
        .unwrap();
        let s = String::from_utf8(buf).unwrap();
        // Valid JSON array shape with metadata and complete events.
        assert!(s.trim_start().starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        assert!(s.contains("\"thread_name\""));
        assert!(s.contains("\"name\":\"res0\""));
        assert!(s.contains("\"name\":\"res2\""));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"cat\":\"forward\""));
        assert!(s.contains("\"ts\":1") && s.contains("\"dur\":2"));
        assert!(s.contains("\"tid\":2") && s.contains("\"dur\":4"));
        // One metadata event per distinct resource + one per span.
        assert_eq!(s.matches("\"ph\":\"M\"").count(), 2);
        assert_eq!(s.matches("\"ph\":\"X\"").count(), 2);
    }

    /// The track list marks each seen id and walks the marks in id
    /// order: the same metadata lines as sorting and deduplicating
    /// every span's id, on ids with gaps, repeats and no span on id 0.
    #[test]
    fn chrome_tracks_match_sorted_deduplicated_ids() {
        let mut tr = Trace::new();
        let ids = [7u32, 2, 7, 12, 2, 3, 12, 12, 5];
        for (i, &id) in ids.iter().enumerate() {
            let at = SimTime::from_micros(i as u64);
            tr.record(ResourceId(id), at, at + SimTime::from_micros(1), Tag::Fwd);
        }
        let mut buf = Vec::new();
        tr.write_chrome_trace(&mut buf, |r| format!("res{}", r.0), |_| "f".into(), |_| "c")
            .unwrap();
        let s = String::from_utf8(buf).unwrap();
        let metadata: Vec<&str> = s.lines().filter(|l| l.contains("\"ph\":\"M\"")).collect();
        let mut sorted: Vec<ResourceId> = tr.spans().iter().map(|s| s.resource).collect();
        sorted.sort();
        sorted.dedup();
        let want: Vec<String> = sorted
            .iter()
            .map(|r| {
                format!(
                    "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                     \"args\":{{\"name\":\"res{}\"}}}},",
                    r.0, r.0
                )
            })
            .collect();
        assert_eq!(metadata, want);
        assert_eq!(metadata.len(), 5);
    }

    #[test]
    fn chrome_trace_instant_events() {
        let mut tr = Trace::new();
        tr.record(
            ResourceId(0),
            SimTime::from_micros(1),
            SimTime::from_micros(3),
            Tag::Fwd,
        );
        let mut buf = Vec::new();
        tr.write_chrome_trace_with_instants(
            &mut buf,
            |r| format!("res{}", r.0),
            |t| format!("{t:?}"),
            |_| "forward",
            &[
                (SimTime::from_micros(2), "fault: gpu1 x1.3".into(), "fault"),
                (SimTime::from_micros(5), "splice: epoch 1".into(), "epoch"),
            ],
        )
        .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.trim_start().starts_with('[') && s.trim_end().ends_with(']'));
        assert_eq!(s.matches("\"ph\":\"i\"").count(), 2);
        assert!(s.contains("\"name\":\"fault: gpu1 x1.3\"") && s.contains("\"ts\":2"));
        assert!(s.contains("\"cat\":\"epoch\"") && s.contains("\"ts\":5"));
    }

    #[test]
    fn peak_of_events_counts_overlap_and_handoffs() {
        // Three holders, +1 at start and -1 at end, recorded out of
        // order: [0, 10), a handoff [15, 20) starting exactly when the
        // third ends, and [5, 15).
        let holders = [(0u64, 10u64), (15, 20), (5, 15)];
        let events = holders
            .iter()
            .flat_map(|&(from, to)| {
                [
                    (SimTime::from_nanos(from), 1),
                    (SimTime::from_nanos(to), -1),
                ]
            })
            .collect();
        // [0, 10) and [5, 15) overlap (peak 2); the handoff does not add.
        assert_eq!(peak_of_events(events), 2);
        assert_eq!(peak_of_events(Vec::new()), 0);
    }

    #[test]
    fn peak_fold_matches_peak_of_events() {
        // Holders known at staggered instants, each at or before its
        // start; handoffs and same-instant pairs included.
        let holders = [(0u64, 0u64, 10u64), (0, 5, 15), (3, 10, 12), (10, 15, 20)];
        let mut fold = PeakFold::default();
        let mut events = Vec::new();
        for &(known, from, to) in &holders {
            let known = SimTime::from_nanos(known);
            for (at, delta) in [(from, 1), (to, -1)] {
                fold.push(known, SimTime::from_nanos(at), delta);
                events.push((SimTime::from_nanos(at), delta));
            }
        }
        assert_eq!(fold.finish(), peak_of_events(events));
        assert_eq!(fold.finish(), 2);
        assert_eq!(PeakFold::default().finish(), 0);
    }

    #[test]
    fn shifted_peak_fold_matches_shifted_events() {
        let mut fold = PeakFold::default();
        let mut shifted = PeakFold::default();
        let by = SimTime::from_nanos(1_000);
        for &(now, at, delta) in &[(0, 5, 1), (1, 7, 1), (2, 9, -1), (3, 12, -1)] {
            let (now, at) = (SimTime::from_nanos(now), SimTime::from_nanos(at));
            fold.push(now, at, delta);
            shifted.push(now, at, delta);
        }
        shifted.shift(by);
        let mut pending: Vec<_> = shifted.pending().collect();
        pending.sort();
        let mut want: Vec<_> = fold.pending().map(|(at, d)| (at + by, d)).collect();
        want.sort();
        assert_eq!(pending, want);
        assert_eq!(shifted.live(), fold.live());
        fold.push(SimTime::from_nanos(20), SimTime::from_nanos(20), 1);
        shifted.push(SimTime::from_nanos(1_020), SimTime::from_nanos(1_020), 1);
        assert_eq!(shifted.finish(), fold.finish());
    }

    #[test]
    fn truncate_cuts_a_tentative_suffix() {
        let mut tr = Trace::new();
        let r = ResourceId(0);
        tr.record(r, SimTime::ZERO, SimTime::from_nanos(5), Tag::Fwd);
        let mark = tr.len();
        tr.record(r, SimTime::from_nanos(5), SimTime::from_nanos(9), Tag::Bwd);
        tr.truncate(mark);
        tr.record(r, SimTime::from_nanos(5), SimTime::from_nanos(7), Tag::Fwd);
        let ends: Vec<_> = tr.spans().iter().map(|s| (s.end, s.tag.clone())).collect();
        assert_eq!(
            ends,
            [
                (SimTime::from_nanos(5), Tag::Fwd),
                (SimTime::from_nanos(7), Tag::Fwd)
            ]
        );
    }

    #[test]
    fn discard_keeps_nothing() {
        let mut sink = Discard;
        SpanSink::record(
            &mut sink,
            ResourceId(0),
            SimTime::ZERO,
            SimTime::from_nanos(5),
            Tag::Fwd,
        );
        const { assert!(!<Discard as SpanSink<Tag>>::KEEPS_SPANS) };
    }
}
