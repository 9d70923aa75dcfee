//! Transfer-time models for intra- and inter-node communication.
//!
//! Section 7 of the paper describes the communication model used by the
//! partitioning algorithm:
//!
//! - **Intra-node** (GPU-to-GPU over PCIe 3.0 x16): predicted from the
//!   15.75 GB/s peak *multiplied by a scaling-down constant* (as in
//!   Paleo), derived by the authors from a synthetic transfer benchmark.
//! - **Inter-node** (56 Gbps InfiniBand): a *linear regression* of
//!   transfer time on data size, i.e. a latency term plus an
//!   inverse-effective-bandwidth slope.
//!
//! The constants below are fitted jointly with the compute calibration
//! against the paper's measured throughputs. The paper scorecard
//! (`PAPER_SCORECARD.json`) records how close they come: its
//! `table4.*.horovod_ips` rows land at 0.96–1.21 of the paper's
//! all-reduce throughputs.

use crate::node::Cluster;
use crate::topology::DeviceId;

/// PCIe 3.0 x16 peak bandwidth in bytes/second (15.75 GB/s, Section 8.1).
pub const PCIE_PEAK_BYTES_PER_SEC: f64 = 15.75e9;

/// Paleo-style scaling-down constant applied to the PCIe peak.
///
/// The paper derives this constant empirically from synthetic GPU-to-GPU
/// transfers. Pipeline point-to-point copies use pinned-memory DMA and
/// sustain a large fraction of the peak; the (much lower) efficiency of
/// Horovod's host-staged all-reduce is modelled separately by
/// `ALLREDUCE_EFFICIENCY` in the allreduce crate. Fitted jointly with
/// the compute calibration.
pub const PCIE_SCALING_CONSTANT: f64 = 0.70;

/// Per-transfer fixed setup latency on PCIe, seconds.
pub const PCIE_LATENCY_SECS: f64 = 15e-6;

/// InfiniBand line rate in bytes/second (56 Gbps FDR, Section 8.1).
pub const IB_PEAK_BYTES_PER_SEC: f64 = 7.0e9;

/// Slope efficiency of the InfiniBand linear-regression model.
///
/// The paper fits transfer time = a + size / b on 27 samples collected
/// from arbitrary partitions of the two evaluation models; this is the
/// effective fraction of line rate appearing in the fitted slope `b`.
pub const IB_SLOPE_EFFICIENCY: f64 = 0.70;

/// Intercept of the InfiniBand linear-regression model, seconds.
pub const IB_LATENCY_SECS: f64 = 80e-6;

/// The physical medium a transfer crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Same-node GPU-to-GPU over the PCIe fabric.
    Pcie,
    /// Cross-node over InfiniBand.
    Infiniband,
    /// Same-device "transfer" (no data movement).
    Loopback,
}

impl LinkKind {
    /// Effective bandwidth of this link kind in bytes/second.
    ///
    /// Loopback is treated as infinitely fast (returns `f64::INFINITY`).
    pub fn effective_bandwidth(self) -> f64 {
        match self {
            LinkKind::Pcie => PCIE_PEAK_BYTES_PER_SEC * PCIE_SCALING_CONSTANT,
            LinkKind::Infiniband => IB_PEAK_BYTES_PER_SEC * IB_SLOPE_EFFICIENCY,
            LinkKind::Loopback => f64::INFINITY,
        }
    }

    /// Fixed per-transfer latency of this link kind in seconds.
    pub fn latency(self) -> f64 {
        match self {
            LinkKind::Pcie => PCIE_LATENCY_SECS,
            LinkKind::Infiniband => IB_LATENCY_SECS,
            LinkKind::Loopback => 0.0,
        }
    }

    /// Time to move `bytes` across this link, in seconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use hetpipe_cluster::LinkKind;
    /// let t = LinkKind::Infiniband.transfer_secs(1 << 20);
    /// assert!(t > 0.0 && t < 1.0);
    /// assert_eq!(LinkKind::Loopback.transfer_secs(1 << 30), 0.0);
    /// ```
    pub fn transfer_secs(self, bytes: u64) -> f64 {
        if matches!(self, LinkKind::Loopback) {
            return 0.0;
        }
        self.latency() + bytes as f64 / self.effective_bandwidth()
    }
}

/// A resolved communication path between two devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferPath {
    /// Source device.
    pub src: DeviceId,
    /// Destination device.
    pub dst: DeviceId,
    /// Medium the path crosses.
    pub link: LinkKind,
}

/// Cluster-level transfer-time oracle.
///
/// Wraps a [`Cluster`] and answers "how long does it take to move `b`
/// bytes from GPU `a` to GPU `b`" questions, resolving intra- vs
/// inter-node paths.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    cluster: Cluster,
}

impl NetworkModel {
    /// Creates the transfer oracle for `cluster`.
    pub fn new(cluster: Cluster) -> Self {
        NetworkModel { cluster }
    }

    /// The wrapped cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Resolves the path between two devices.
    pub fn path(&self, src: DeviceId, dst: DeviceId) -> TransferPath {
        let link = if src == dst {
            LinkKind::Loopback
        } else if self.cluster.same_node(src, dst) {
            LinkKind::Pcie
        } else {
            LinkKind::Infiniband
        };
        TransferPath { src, dst, link }
    }

    /// Time in seconds to move `bytes` from `src` to `dst`.
    pub fn transfer_secs(&self, src: DeviceId, dst: DeviceId, bytes: u64) -> f64 {
        self.path(src, dst).link.transfer_secs(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Cluster;

    #[test]
    fn link_speeds_ordering() {
        // Effective PCIe (5.5 GB/s) beats effective InfiniBand (4.9 GB/s),
        // which motivates the NP policy's low intra-VW overhead (§8.1).
        assert!(LinkKind::Pcie.effective_bandwidth() > LinkKind::Infiniband.effective_bandwidth());
    }

    #[test]
    fn transfer_time_linear_in_size() {
        let t1 = LinkKind::Infiniband.transfer_secs(1_000_000);
        let t2 = LinkKind::Infiniband.transfer_secs(2_000_000);
        let slope1 = t1 - IB_LATENCY_SECS;
        let slope2 = t2 - IB_LATENCY_SECS;
        assert!((slope2 / slope1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        assert_eq!(LinkKind::Pcie.transfer_secs(0), PCIE_LATENCY_SECS);
        assert_eq!(LinkKind::Infiniband.transfer_secs(0), IB_LATENCY_SECS);
        assert_eq!(LinkKind::Loopback.transfer_secs(0), 0.0);
    }

    #[test]
    fn path_resolution() {
        let net = NetworkModel::new(Cluster::paper_testbed());
        assert_eq!(net.path(DeviceId(0), DeviceId(0)).link, LinkKind::Loopback);
        assert_eq!(net.path(DeviceId(0), DeviceId(1)).link, LinkKind::Pcie);
        assert_eq!(
            net.path(DeviceId(0), DeviceId(4)).link,
            LinkKind::Infiniband
        );
    }

    #[test]
    fn cross_node_slower_than_intra_node() {
        let net = NetworkModel::new(Cluster::paper_testbed());
        let bytes = 100 << 20;
        let intra = net.transfer_secs(DeviceId(0), DeviceId(1), bytes);
        let inter = net.transfer_secs(DeviceId(0), DeviceId(4), bytes);
        assert!(inter > intra);
    }
}
