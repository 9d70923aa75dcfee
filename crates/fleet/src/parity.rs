//! Trace merging and canonical fingerprints for fleet ↔ legacy parity.
//!
//! Each fleet engine records spans against its *private* cell: GPU
//! resources `0..devs`, NIC resources `devs..devs+nodes`, and `vw` tag
//! 0. [`merged_spans`] relabels every engine's spans into the expanded
//! cluster's namespace ([`FleetTopology::remap_resource`] for
//! resources, engine index for the `vw` tag) so the union is directly
//! comparable with a legacy single-engine run over
//! [`FleetTopology::expanded`]. [`trace_fingerprint`] then reduces
//! either span set to an order-independent 64-bit digest — the two
//! executors interleave recording differently, so parity is defined
//! over the *sorted* span multiset, not the recording order.

use crate::driver::FleetReport;
use crate::topo::FleetTopology;
use hetpipe_core::exec::SpanTag;
use hetpipe_core::Fnv;
use hetpipe_des::Span;

/// Relabels one engine's span tag into the global VW namespace.
fn remap_tag(e: usize, tag: SpanTag) -> SpanTag {
    let vw = e as u32;
    match tag {
        SpanTag::Forward { stage, mb, .. } => SpanTag::Forward { vw, stage, mb },
        SpanTag::Backward { stage, mb, .. } => SpanTag::Backward { vw, stage, mb },
        SpanTag::Recompute { stage, mb, .. } => SpanTag::Recompute { vw, stage, mb },
        SpanTag::ActTransfer {
            stage, backward, ..
        } => SpanTag::ActTransfer {
            vw,
            stage,
            backward,
        },
        SpanTag::SyncTransfer { wave, pull, .. } => SpanTag::SyncTransfer { vw, wave, pull },
    }
}

/// The union of every engine's spans, relabelled into the expanded
/// cluster's resource and VW namespaces. Requires the report to have
/// been produced with `keep_traces`.
pub fn merged_spans(topo: &FleetTopology, report: &FleetReport) -> Vec<Span<SpanTag>> {
    let mut out = Vec::new();
    for (e, trace) in &report.traces {
        for s in trace.spans() {
            out.push(Span {
                resource: topo.remap_resource(*e, s.resource),
                start: s.start,
                end: s.end,
                tag: remap_tag(*e, s.tag),
            });
        }
    }
    out
}

/// An order-independent FNV-1a digest of a span multiset: spans are
/// canonicalized to `resource start end tag` lines, sorted, and
/// hashed. Two traces fingerprint equal iff they contain the same
/// spans, regardless of recording order.
pub fn trace_fingerprint(spans: &[Span<SpanTag>]) -> u64 {
    let mut lines: Vec<String> = spans
        .iter()
        .map(|s| format!("{} {:?} {:?} {:?}", s.resource.0, s.start, s.end, s.tag))
        .collect();
    lines.sort_unstable();
    let mut h = Fnv::default();
    for line in &lines {
        h.mix_bytes(line.as_bytes());
        h.mix_bytes(b"\n");
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_des::{ResourceId, SimTime};

    fn span(resource: usize, start: f64, vw: u32, mb: u64) -> Span<SpanTag> {
        Span {
            resource: ResourceId(resource),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(start + 1.0),
            tag: SpanTag::Forward { vw, stage: 0, mb },
        }
    }

    #[test]
    fn fingerprint_ignores_recording_order() {
        let a = vec![span(0, 0.0, 0, 1), span(1, 2.0, 1, 3), span(0, 5.0, 0, 2)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&b));
    }

    #[test]
    fn fingerprint_separates_different_span_sets() {
        let a = vec![span(0, 0.0, 0, 1)];
        let b = vec![span(0, 0.0, 0, 2)];
        let c = vec![span(1, 0.0, 0, 1)];
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&b));
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&c));
    }

    #[test]
    fn remap_relabels_vw_and_keeps_payload() {
        let t = remap_tag(
            3,
            SpanTag::SyncTransfer {
                vw: 0,
                wave: 7,
                pull: false,
            },
        );
        assert_eq!(
            t,
            SpanTag::SyncTransfer {
                vw: 3,
                wave: 7,
                pull: false,
            }
        );
    }
}
