//! Ring all-reduce cost model.
//!
//! Patarasuk & Yuan's bandwidth-optimal ring all-reduce moves
//! `2 (N-1)/N · S` bytes through every link for payload `S` over `N`
//! ranks, in `2 (N-1)` steps. The ring's speed is set by its slowest
//! link. On the paper's testbed, Horovod over TensorFlow sustains far
//! less than raw link bandwidth (host-staged reductions, tensor-by-
//! tensor launches), captured by [`ALLREDUCE_PCIE_EFFICIENCY`] and
//! [`ALLREDUCE_IB_EFFICIENCY`] — fitted so the Horovod columns of
//! Table 4 land near the paper's measurements.

use hetpipe_cluster::network::LinkKind;
use hetpipe_cluster::{Cluster, DeviceId};

/// Fraction of effective PCIe bandwidth a Horovod ring all-reduce
/// sustains on an NVLink-less node (host-staged copies with CPU
/// reduction; the paper's testbed has no GPUDirect peer access).
pub const ALLREDUCE_PCIE_EFFICIENCY: f64 = 0.18;

/// Fraction of effective InfiniBand bandwidth a cross-node Horovod
/// ring sustains (RDMA helps, but tensor-by-tensor launches and the
/// host staging on the PCIe hop still dominate). Fitted so the Horovod
/// columns of Table 4 land near the paper's measurements.
pub const ALLREDUCE_IB_EFFICIENCY: f64 = 0.20;

/// Per-step latency of one ring step (launch + NCCL/MPI handshake).
pub const RING_STEP_LATENCY_SECS: f64 = 150e-6;

/// The ring all-reduce cost model over a set of cluster devices.
#[derive(Debug, Clone)]
pub struct RingAllreduce {
    /// The slowest link's effective bandwidth on the ring, bytes/sec.
    bottleneck_bw: f64,
    ranks: usize,
}

impl RingAllreduce {
    /// Builds the model for a ring over `devices` laid out in order
    /// (the natural ring order: consecutive devices are neighbours,
    /// last wraps to first).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two devices are given.
    pub fn new(cluster: &Cluster, devices: &[DeviceId]) -> Self {
        assert!(devices.len() >= 2, "a ring needs at least two ranks");
        let mut bottleneck = f64::INFINITY;
        let n = devices.len();
        for i in 0..n {
            let a = devices[i];
            let b = devices[(i + 1) % n];
            let (link, eff) = if cluster.same_node(a, b) {
                (LinkKind::Pcie, ALLREDUCE_PCIE_EFFICIENCY)
            } else {
                (LinkKind::Infiniband, ALLREDUCE_IB_EFFICIENCY)
            };
            bottleneck = bottleneck.min(link.effective_bandwidth() * eff);
        }
        RingAllreduce {
            bottleneck_bw: bottleneck,
            ranks: n,
        }
    }

    /// Number of ranks on the ring.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Time in seconds to all-reduce `bytes` of gradients.
    ///
    /// `2 (N-1)/N · bytes / bw + 2 (N-1) · step latency`.
    pub fn allreduce_secs(&self, bytes: u64) -> f64 {
        let n = self.ranks as f64;
        let volume = 2.0 * (n - 1.0) / n * bytes as f64;
        volume / self.bottleneck_bw + 2.0 * (n - 1.0) * RING_STEP_LATENCY_SECS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_cluster::GpuKind;

    #[test]
    fn intra_node_ring_faster_than_cross_node() {
        let c = Cluster::paper_testbed();
        let intra = RingAllreduce::new(&c, &(0..4).map(DeviceId).collect::<Vec<_>>());
        let cross = RingAllreduce::new(&c, &(0..16).map(DeviceId).collect::<Vec<_>>());
        let bytes = 548 << 20;
        assert!(intra.allreduce_secs(bytes) < cross.allreduce_secs(bytes));
    }

    #[test]
    fn cost_scales_linearly_in_bytes() {
        let c = Cluster::paper_testbed();
        let ring = RingAllreduce::new(&c, &(0..4).map(DeviceId).collect::<Vec<_>>());
        let lat = 2.0 * 3.0 * RING_STEP_LATENCY_SECS;
        let t1 = ring.allreduce_secs(1 << 20) - lat;
        let t2 = ring.allreduce_secs(2 << 20) - lat;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn more_ranks_approach_2x_volume() {
        // The 2(N-1)/N factor grows with N; per-link volume for N=16 is
        // larger than for N=4 at the same payload.
        let c = Cluster::paper_testbed();
        let bytes = 100 << 20;
        let r4 = RingAllreduce::new(&c, &(0..4).map(DeviceId).collect::<Vec<_>>());
        // A 16-rank ring over identical PCIe links cannot exist on the
        // testbed (it must cross nodes), so compare pure factors.
        let n4 = 2.0 * 3.0 / 4.0 * bytes as f64;
        let n16 = 2.0 * 15.0 / 16.0 * bytes as f64;
        assert!(n16 > n4);
        assert_eq!(r4.ranks(), 4);
    }

    #[test]
    fn vgg19_allreduce_on_one_titan_v_node_matches_calibration() {
        // Calibration anchor: Horovod VGG-19 on 4[V] measures 164 img/s
        // in Table 4; with ~0.26s of compute that implies an all-reduce
        // of roughly 0.4-0.6s for the 548 MB parameter set.
        let c = Cluster::paper_testbed();
        let ring = RingAllreduce::new(&c, &(0..4).map(DeviceId).collect::<Vec<_>>());
        let t = ring.allreduce_secs(548 << 20);
        assert!(t > 0.3 && t < 0.8, "allreduce(548MB, 4xPCIe) = {t:.3}s");
        let _ = GpuKind::ALL;
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn single_rank_rejected() {
        let c = Cluster::paper_testbed();
        let _ = RingAllreduce::new(&c, &[DeviceId(0)]);
    }
}
