//! The bench's own span recorder.
//!
//! Spans are recorded in the bench around each call into a layer of
//! the system — name, start, end, and the span that was open when it
//! started — kept in memory, and written out when the benchmark ends.
//! Nothing inside the program is instrumented. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover. With tracing off every call is a no-op, so untraced samples
//! pay nothing for it.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name: a layer call such as `plan.build`, or `query`.
    pub name: String,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`, and does nothing otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// direct children's intervals, clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, s.start);
            for (from, to) in kids {
                let (from, to) = (from.max(reach), to.min(s.end));
                if to > from {
                    covered += to - from;
                    reach = to;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name.clone()).or_insert(0.0) += t;
    }
    by_name
}

/// The share of the `query` spans' wall time that their descendant
/// layer spans account for (1 when no query was traced).
pub fn coverage(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut wall, mut glue) = (0.0, 0.0);
    for (s, t) in spans.iter().zip(own) {
        if s.name == "query" {
            wall += s.end - s.start;
            glue += t;
        }
    }
    if wall > 0.0 {
        1.0 - glue / wall
    } else {
        1.0
    }
}

/// Spans as a compact JSON array of `[name, start, end, parent]`
/// (parent −1 for a root).
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                json!([
                    s.name.as_str(),
                    s.start,
                    s.end,
                    s.parent.map_or(-1, |p| p as i64)
                ])
            })
            .collect(),
    )
}

/// Parses [`to_json`]'s output.
pub fn from_json(v: &Value) -> Result<Vec<Span>, String> {
    let Value::Array(rows) = v else {
        return Err("spans are not an array".into());
    };
    rows.iter()
        .map(|row| match row {
            Value::Array(cells) => match cells.as_slice() {
                [Value::String(name), Value::Number(start), Value::Number(end), Value::Number(parent)] => {
                    Ok(Span {
                        name: name.clone(),
                        start: *start,
                        end: *end,
                        parent: (*parent >= 0.0).then_some(*parent as usize),
                    })
                }
                _ => Err("malformed span".to_string()),
            },
            _ => Err("malformed span".to_string()),
        })
        .collect()
}

/// Spans as a `chrome://tracing` document, one track per sample.
pub fn chrome_trace(samples: &[Vec<Span>]) -> Value {
    let mut events = Vec::new();
    for (tid, spans) in samples.iter().enumerate() {
        for s in spans {
            events.push(json!({
                "name": s.name.as_str(),
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": s.start * 1e6,
                "dur": (s.end - s.start) * 1e6,
            }));
        }
    }
    Value::Array(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("query", 0.0, 10.0, None),
            span("plan.build", 1.0, 4.0, Some(0)),
            span("exec.run", 4.0, 9.0, Some(0)),
            span("inner", 5.0, 7.0, Some(2)),
            // Overlaps its sibling and pokes out of its parent: only
            // the uncovered, in-parent part counts.
            span("inner", 6.0, 9.5, Some(2)),
            span("probe", 11.0, 12.0, None),
        ];
        let own = self_times(&spans);
        let expect = [2.0, 3.0, 1.0, 2.0, 3.5, 1.0];
        for (got, want) in own.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{own:?}");
        }
        let by_name = self_time_by_name(&spans);
        assert!((by_name["inner"] - 5.5).abs() < 1e-12);
        assert!((coverage(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_round_trips() {
        let mut t = Tracer::new(true);
        t.open("query");
        t.time("plan.build", || std::hint::black_box(1 + 1));
        t.close();
        let spans = t.spans().to_vec();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
        assert_eq!(from_json(&to_json(&spans)).unwrap(), spans);

        let mut off = Tracer::new(false);
        off.open("query");
        off.close();
        assert!(off.spans().is_empty());
    }
}
