//! Virtual workers.
//!
//! A virtual worker (VW) encapsulates the notion of a "worker" in a
//! classic data-parallel system (Section 3): a group of `k` — possibly
//! heterogeneous, possibly individually too-small — GPUs that jointly
//! execute one copy of the model as a `k`-stage pipeline.

use hetpipe_cluster::network::LinkKind;
use hetpipe_cluster::{Cluster, DeviceId};
use hetpipe_partition::PartitionPlan;

/// A virtual worker: an ordered list of stage devices plus its
/// partition plan.
#[derive(Debug, Clone)]
pub struct VirtualWorker {
    /// Index of this VW among its peers (0-based).
    pub index: usize,
    /// Stage devices in pipeline order (`devices[q]` hosts stage `q`).
    pub devices: Vec<DeviceId>,
    /// The model partition assigned to the stages.
    pub plan: PartitionPlan,
    /// Minibatches concurrently in the pipeline (`Nm`).
    pub nm: usize,
}

impl VirtualWorker {
    /// Number of pipeline stages `k`.
    pub fn stages(&self) -> usize {
        self.devices.len()
    }

    /// The stage whose layer range contains layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside every stage range.
    pub fn stage_of_layer(&self, i: usize) -> usize {
        self.plan
            .ranges
            .iter()
            .position(|r| r.contains(&i))
            .expect("layer must belong to exactly one stage")
    }

    /// The inter-stage links implied by device placement: PCIe when two
    /// adjacent stages share a node, InfiniBand otherwise.
    pub fn links(cluster: &Cluster, devices: &[DeviceId]) -> Vec<LinkKind> {
        devices
            .windows(2)
            .map(|w| {
                if cluster.same_node(w[0], w[1]) {
                    LinkKind::Pcie
                } else {
                    LinkKind::Infiniband
                }
            })
            .collect()
    }

    /// The flat layout of per-stage state over `vws`: stage `s` of VW
    /// `v` is entry `offsets[v] + s`, and the last offset is the total
    /// stage count.
    pub fn stage_offsets(vws: &[VirtualWorker]) -> Vec<usize> {
        let mut offsets = vec![0];
        for vw in vws {
            offsets.push(offsets[offsets.len() - 1] + vw.stages());
        }
        offsets
    }

    /// A short label like `"VVQQ"` describing the VW's GPU kinds.
    pub fn label(&self, cluster: &Cluster) -> String {
        self.devices
            .iter()
            .map(|&d| cluster.kind_of(d).code())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_cluster::{GpuKind, LinkKind};
    use hetpipe_partition::{PartitionProblem, PartitionSolver};

    fn make_vw(cluster: &Cluster, devices: Vec<DeviceId>) -> VirtualWorker {
        let g = hetpipe_model::vgg19(32);
        let gpus = devices.iter().map(|&d| cluster.spec_of(d)).collect();
        let links = VirtualWorker::links(cluster, &devices);
        let plan = PartitionSolver::solve(&PartitionProblem::new(&g, gpus, links, 1)).unwrap();
        VirtualWorker {
            index: 0,
            devices,
            plan,
            nm: 1,
        }
    }

    #[test]
    fn links_follow_topology() {
        let c = Cluster::paper_testbed();
        // Same node: PCIe; across nodes: InfiniBand.
        let links = VirtualWorker::links(&c, &[DeviceId(0), DeviceId(1), DeviceId(4)]);
        assert_eq!(links, vec![LinkKind::Pcie, LinkKind::Infiniband]);
    }

    #[test]
    fn stage_of_layer_partitions() {
        let c = Cluster::paper_testbed();
        let vw = make_vw(
            &c,
            vec![DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)],
        );
        let g = hetpipe_model::vgg19(32);
        for i in 0..g.len() {
            let s = vw.stage_of_layer(i);
            assert!(vw.plan.ranges[s].contains(&i));
        }
        assert_eq!(vw.stage_of_layer(0), 0);
        assert_eq!(vw.stage_of_layer(g.len() - 1), 3);
    }

    #[test]
    fn label_reads_kinds() {
        let c = Cluster::paper_testbed();
        let vw = make_vw(
            &c,
            vec![DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)],
        );
        assert_eq!(vw.label(&c), "VRGQ");
        assert_eq!(vw.stages(), 4);
        let _ = GpuKind::ALL;
    }
}
