//! Span traces for post-run analysis.
//!
//! Executors record labelled time spans (`forward pass of minibatch 7 on
//! stage 2`, `push of wave 3`, …). The trace then answers the questions
//! the paper's evaluation asks: per-GPU utilization over a window
//! (Figure 3), waiting time vs true idle time during synchronization
//! (Section 8.4), and per-minibatch latency distributions.

use crate::resource::ResourceId;
use crate::time::SimTime;
use std::io::{self, Write};
use std::path::Path;

/// A labelled interval on a resource's timeline.
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

    /// Total busy time of `resource` within the window `[from, to)`,
    /// clipping spans that straddle the window edges.
    ///
    /// Scans the whole trace per call: the naive reference. Reports
    /// that need many windows fold the trace once instead (the
    /// run report in `hetpipe-core` does, and its parity test checks it
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
        // Track metadata, one per resource seen in the trace.
        let mut seen: Vec<ResourceId> = self.spans.iter().map(|s| s.resource).collect();
        seen.sort();
        seen.dedup();
        let mut first = true;
        for rid in &seen {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                rid.0,
                escape(&track_names(*rid))
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
/// measured ≤ declared memory invariant: every aggregation over a
/// trace (the occupancy audit's per-stage and per-GPU keyings, the
/// fleet's per-VW partials) folds its events through it, so measured
/// values can never drift apart.
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
}
