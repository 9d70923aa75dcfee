//! The fleet topology: homogeneous, node-disjoint replicated cells.
//!
//! A *cell* is one blueprint cluster hosting exactly one virtual
//! worker; the fleet replicates it `n` times. Cells are node-disjoint
//! and parameters are sharded VW-locally
//! ([`hetpipe_core::pserver::ShardMap::build_vw_local`]), so no GPU,
//! NIC, or shard timeline is shared between VWs: the WSP push and
//! pull gate on the parameter-server clocks is all that is left
//! between them.
//!
//! The topology expands to a single flat cluster with globally
//! addressed devices ([`FleetTopology::expanded`]), which is what
//! [`crate::run_fleet`] simulates.

use hetpipe_cluster::{Cluster, DeviceId, Node};
use hetpipe_core::VirtualWorker;

/// A fleet of `n_vws` identical, node-disjoint cells.
#[derive(Debug, Clone)]
pub struct FleetTopology {
    cell: Cluster,
    cell_vw: VirtualWorker,
    n_vws: usize,
}

impl FleetTopology {
    /// A fleet of `n_vws` copies of `cell`, each running a clone of
    /// `cell_vw` (whose stage devices must be cell-local).
    pub fn new(cell: Cluster, cell_vw: VirtualWorker, n_vws: usize) -> FleetTopology {
        assert!(n_vws > 0, "a fleet has at least one VW");
        assert!(
            cell_vw.devices.iter().all(|d| d.0 < cell.device_count()),
            "the blueprint VW must live on the cell"
        );
        FleetTopology {
            cell,
            cell_vw,
            n_vws,
        }
    }

    /// The blueprint cell cluster.
    pub fn cell(&self) -> &Cluster {
        &self.cell
    }

    /// The blueprint VW (cell-local device ids).
    pub fn cell_vw(&self) -> &VirtualWorker {
        &self.cell_vw
    }

    /// Number of VWs (= cells).
    pub fn n_vws(&self) -> usize {
        self.n_vws
    }

    /// GPUs per cell.
    pub fn devices_per_cell(&self) -> usize {
        self.cell.device_count()
    }

    /// Nodes per cell.
    pub fn nodes_per_cell(&self) -> usize {
        self.cell.node_count()
    }

    /// Per-cell VW clones: cell `e` hosts `cell_vws()[e]`, still
    /// addressed in cell-local device ids.
    pub fn cell_vws(&self) -> Vec<VirtualWorker> {
        (0..self.n_vws)
            .map(|e| VirtualWorker {
                index: e,
                ..self.cell_vw.clone()
            })
            .collect()
    }

    /// The equivalent flat topology for the executor: one cluster
    /// concatenating every cell's nodes, and the VWs re-addressed to
    /// their cell's global device ids.
    pub fn expanded(&self) -> (Cluster, Vec<VirtualWorker>) {
        expand(&self.cell, &self.cell_vws())
    }
}

/// One cluster concatenating a copy of `cell` per VW of `cell_vws`,
/// and each VW re-addressed to its copy's global device ids: cell
/// `e`'s device `d` is global device `e·devs + d`.
pub(crate) fn expand(cell: &Cluster, cell_vws: &[VirtualWorker]) -> (Cluster, Vec<VirtualWorker>) {
    let mut cluster = Cluster::new();
    for _ in cell_vws {
        for node in cell.nodes() {
            cluster.add_node(Node::new(node.gpu_kind, node.gpu_count));
        }
    }
    let devs = cell.device_count();
    let vws = cell_vws
        .iter()
        .enumerate()
        .map(|(e, vw)| VirtualWorker {
            index: e,
            devices: vw
                .devices
                .iter()
                .map(|d| DeviceId(e * devs + d.0))
                .collect(),
            plan: vw.plan.clone(),
            nm: vw.nm,
        })
        .collect();
    (cluster, vws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_cluster::GpuKind;
    use hetpipe_core::{Planner, RecomputePolicy, Schedule};
    use hetpipe_model::resnet152;

    fn topology(nodes: usize, gpus_per_node: usize, n_vws: usize) -> FleetTopology {
        let mut cell = Cluster::new();
        for _ in 0..nodes {
            cell.add_node(Node::new(GpuKind::Rtx2060, gpus_per_node));
        }
        let graph = resnet152(32);
        let devices: Vec<DeviceId> = cell.devices().collect();
        let vw = Planner::new(&cell, &graph, Schedule::HetPipeWave, RecomputePolicy::None)
            .worker(0, &devices, 4)
            .expect("feasible cell");
        FleetTopology::new(cell, vw, n_vws)
    }

    #[test]
    fn expansion_replicates_cells_disjointly() {
        let t = topology(2, 2, 3);
        let (cluster, vws) = t.expanded();
        assert_eq!(cluster.node_count(), 6);
        assert_eq!(cluster.device_count(), 12);
        assert_eq!(vws.len(), 3);
        // Every VW's devices live on its own cell's nodes only.
        for (e, vw) in vws.iter().enumerate() {
            for &d in &vw.devices {
                let node = cluster.node_of(d);
                assert!(
                    node.0 / t.nodes_per_cell() == e,
                    "vw {e} device {d:?} strayed to node {node:?}"
                );
            }
        }
    }
}
