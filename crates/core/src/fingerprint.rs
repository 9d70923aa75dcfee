//! Process-stable FNV-1a digests.
//!
//! [`Fnv`] is an explicit FNV-1a accumulator: no `RandomState` is
//! involved, so the same inputs produce the same `u64` in every
//! process. Trace digests across the repo hash with it;
//! [`trace_fingerprint`] is the order-independent one over a span
//! multiset.

use crate::exec::SpanTag;
use hetpipe_des::Span;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// A tiny explicit FNV-1a accumulator — process-independent by
/// construction (no `RandomState`, no pointer identity). The digest is
/// the `.0` field; [`Fnv::default`] starts at the offset basis.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Mixes a whole word in one FNV-1a step (the field-at-a-time
    /// form).
    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Mixes `bytes` one FNV-1a step per byte (textbook FNV-1a).
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }
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
}
