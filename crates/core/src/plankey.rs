//! Stable plan-identity fingerprints.
//!
//! [`graph_fingerprint`] and [`cluster_fingerprint`] are FNV-1a
//! digests of every cost-relevant field of a model and a cluster; the
//! replan cache (`hetpipe-plansvc`) builds its request keys from them.
//! They are deliberately **not** `Hash`-based: no `RandomState` is
//! involved anywhere, so the same inputs produce the same `u64` in
//! every process, today and tomorrow — a plan cache keyed by these
//! fingerprints stays valid across restarts (the stability tests below
//! pin golden values). Their [`Fnv`] accumulator is public, so trace
//! digests elsewhere hash the same way; [`trace_fingerprint`] is the
//! order-independent one over a span multiset.

use crate::exec::SpanTag;
use hetpipe_cluster::Cluster;
use hetpipe_des::Span;
use hetpipe_model::ModelGraph;

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
    /// Mixes a whole word in one FNV-1a step (the fingerprints'
    /// field-at-a-time form).
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

/// FNV-1a over every layer's cost-relevant fields: two models that
/// hash equal simulate equal (up to astronomically unlikely
/// collisions), two models differing in any per-layer profile hash
/// apart. Stable across processes — safe to persist and to use as a
/// service request key.
pub fn graph_fingerprint(graph: &ModelGraph) -> u64 {
    let mut h = Fnv::default();
    h.mix(graph.batch_size as u64);
    for l in graph.layers() {
        h.mix(l.param_bytes);
        h.mix(l.stored_bytes);
        h.mix(l.activation_bytes);
        h.mix(l.membound_bytes);
        h.mix(l.kernels as u64);
        h.mix(l.fwd_flops.to_bits());
        h.mix(l.bwd_flops.to_bits());
    }
    h.0
}

/// FNV-1a over the cluster's cost-relevant shape: node layout
/// (device → node mapping decides PCIe vs InfiniBand and shard
/// locality) and every device's nominal GPU spec fields. Observed
/// derates are *not* part of the cluster identity — they are
/// per-request state (a plan cache keys them separately), and the
/// cluster fingerprint must survive a straggler coming and going.
pub fn cluster_fingerprint(cluster: &Cluster) -> u64 {
    let mut h = Fnv::default();
    h.mix(cluster.node_count() as u64);
    h.mix(cluster.device_count() as u64);
    for d in cluster.devices() {
        let spec = cluster.spec_of(d);
        h.mix(cluster.node_of(d).0 as u64);
        h.mix_bytes(spec.name.as_bytes());
        h.mix(spec.cuda_cores as u64);
        h.mix(spec.boost_clock_mhz as u64);
        h.mix(spec.memory_bytes);
        h.mix(spec.memory_bw_bytes_per_sec.to_bits());
        h.mix(spec.effective_throughput.to_bits());
    }
    h.0
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
    use hetpipe_cluster::GpuKind;
    use hetpipe_des::{ResourceId, SimTime};
    use hetpipe_model::{Layer, LayerKind};

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

    fn tiny_graph(tweak: u64) -> ModelGraph {
        let layer = |i: u64| Layer {
            name: format!("l{i}"),
            kind: LayerKind::Conv2d,
            param_bytes: 100 + i,
            activation_bytes: 200 + i,
            stored_bytes: 300 + i + tweak,
            fwd_flops: 1e6 + i as f64,
            bwd_flops: 2e6 + i as f64,
            membound_bytes: 50 + i,
            kernels: 3,
        };
        ModelGraph::new("tiny", 8, 1024, (0..4).map(layer).collect())
    }

    #[test]
    fn graph_fingerprint_is_stable_and_sensitive() {
        // Same inputs ⇒ same key, in this process and any other: the
        // digest is pure FNV-1a over explicit fields (no RandomState),
        // pinned here by a golden value. If this assertion ever fires
        // without an intentional fingerprint-algorithm change, cached
        // plans keyed by the old value would silently mismatch — that
        // is exactly what the pin is for.
        let a = graph_fingerprint(&tiny_graph(0));
        let b = graph_fingerprint(&tiny_graph(0));
        assert_eq!(a, b, "identical inputs must fingerprint identically");
        assert_eq!(a, 15113568239010406371, "golden fingerprint moved");
        // Any cost-relevant per-layer change must move the digest.
        assert_ne!(a, graph_fingerprint(&tiny_graph(1)));
        // Batch size is part of the identity.
        let other_batch = ModelGraph::new("tiny", 16, 1024, tiny_graph(0).layers().to_vec());
        assert_ne!(a, graph_fingerprint(&other_batch));
        let zoo = hetpipe_model::vgg19(32);
        assert_eq!(graph_fingerprint(&zoo), graph_fingerprint(&zoo.clone()));
        assert_ne!(
            graph_fingerprint(&zoo),
            graph_fingerprint(&hetpipe_model::resnet152(32))
        );
    }

    #[test]
    fn cluster_fingerprint_is_stable_and_sensitive() {
        let paper = Cluster::paper_testbed();
        assert_eq!(
            cluster_fingerprint(&paper),
            cluster_fingerprint(&Cluster::paper_testbed()),
            "identical clusters must fingerprint identically"
        );
        let whimpy = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
        assert_ne!(cluster_fingerprint(&paper), cluster_fingerprint(&whimpy));
        // Node layout matters even with identical device multisets:
        // 1×4 RTX 2060 vs 4×1 RTX 2060 differ in every link.
        let one_node = Cluster::testbed_subset(&[GpuKind::Rtx2060]);
        assert_ne!(cluster_fingerprint(&whimpy), cluster_fingerprint(&one_node));
    }
}
