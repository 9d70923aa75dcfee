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
}

impl LinkKind {
    /// Effective bandwidth of this link kind in bytes/second.
    pub fn effective_bandwidth(self) -> f64 {
        match self {
            LinkKind::Pcie => PCIE_PEAK_BYTES_PER_SEC * PCIE_SCALING_CONSTANT,
            LinkKind::Infiniband => IB_PEAK_BYTES_PER_SEC * IB_SLOPE_EFFICIENCY,
        }
    }

    /// Fixed per-transfer latency of this link kind in seconds.
    pub fn latency(self) -> f64 {
        match self {
            LinkKind::Pcie => PCIE_LATENCY_SECS,
            LinkKind::Infiniband => IB_LATENCY_SECS,
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
    /// ```
    pub fn transfer_secs(self, bytes: u64) -> f64 {
        self.latency() + bytes as f64 / self.effective_bandwidth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Cluster;
    use crate::topology::DeviceId;

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
    }

    #[test]
    fn cross_node_slower_than_intra_node() {
        let cluster = Cluster::paper_testbed();
        let link = |a, b| {
            if cluster.same_node(DeviceId(a), DeviceId(b)) {
                LinkKind::Pcie
            } else {
                LinkKind::Infiniband
            }
        };
        let bytes = 100 << 20;
        let intra = link(0, 1).transfer_secs(bytes);
        let inter = link(0, 4).transfer_secs(bytes);
        assert!(inter > intra);
    }
}
