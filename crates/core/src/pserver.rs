//! Sharded parameter servers and placement policies.
//!
//! Section 8.1 of the paper: parameter servers each handle a portion of
//! the model parameters and run on every node. Two placement policies:
//!
//! - **Default**: layers are placed round-robin over all parameter
//!   servers (as TensorFlow's `replica_device_setter` does) — most
//!   synchronization traffic crosses nodes.
//! - **Local** (with ED allocation): the layers of partition `q` are
//!   placed on the parameter server of the node that hosts stage `q` in
//!   every virtual worker — synchronization traffic becomes intra-node
//!   only. The paper measures VGG-19 cross-node traffic dropping from
//!   515 MB (Horovod) to 103 MB with ED-local.

use crate::vw::VirtualWorker;
use hetpipe_cluster::{Cluster, NodeId};
use hetpipe_model::ModelGraph;

/// Parameter placement policy (Section 8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placement {
    /// Round-robin layers over all nodes' parameter servers.
    #[default]
    Default,
    /// Co-locate each partition's layers with the node hosting that
    /// stage (meaningful under the ED allocation policy).
    Local,
}

/// One synchronization transfer: a stage pushing (or pulling) the bytes
/// of its layers that live on a given shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncChunk {
    /// The pipeline stage on the worker side.
    pub stage: usize,
    /// Node hosting the stage's GPU.
    pub gpu_node: NodeId,
    /// Node hosting the parameter-server shard.
    pub shard_node: NodeId,
    /// Parameter bytes moved.
    pub bytes: u64,
}

impl SyncChunk {
    /// Whether this chunk crosses nodes (InfiniBand) or stays local
    /// (PCIe/host memory).
    pub fn crosses_nodes(&self) -> bool {
        self.gpu_node != self.shard_node
    }
}

/// A mapping of every layer to the parameter-server shard holding it.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shard_of_layer: Vec<NodeId>,
    /// Replicated-cell mode ([`ShardMap::build_vw_local`]): every VW
    /// synchronizes with shards on its *own* stage nodes, so the
    /// reference map above is ignored by [`ShardMap::chunks_for`].
    vw_local: bool,
}

impl ShardMap {
    /// Builds the shard map for the given placement.
    ///
    /// For [`Placement::Local`] the map is derived from the reference
    /// virtual worker `vw_ref` (under ED every VW maps stage `q` to the
    /// same node, so any VW works as a reference).
    pub fn build(
        placement: Placement,
        graph: &ModelGraph,
        cluster: &Cluster,
        vw_ref: &VirtualWorker,
    ) -> ShardMap {
        let shard_of_layer = match placement {
            Placement::Default => (0..graph.len())
                .map(|i| NodeId(i % cluster.node_count()))
                .collect(),
            Placement::Local => (0..graph.len())
                .map(|i| {
                    let stage = vw_ref.stage_of_layer(i);
                    cluster.node_of(vw_ref.devices[stage])
                })
                .collect(),
        };
        ShardMap {
            shard_of_layer,
            vw_local: false,
        }
    }

    /// Builds the replicated-cell shard map of the fleet topology:
    /// every VW's shard for stage `q`'s layers is the node hosting
    /// *its own* stage `q` — [`Placement::Local`] applied per VW
    /// rather than from one shared reference worker. On a fleet of
    /// node-disjoint cells this keeps every VW's synchronization
    /// traffic on resources the VW owns: VWs then meet only through
    /// the parameter-server clocks, never on a shared timeline.
    pub fn build_vw_local(graph: &ModelGraph) -> ShardMap {
        ShardMap {
            // Unused in vw-local mode; kept so `shard_of` stays total.
            shard_of_layer: vec![NodeId(0); graph.len()],
            vw_local: true,
        }
    }

    /// Whether this map is the per-VW-local replicated-cell mode.
    pub fn is_vw_local(&self) -> bool {
        self.vw_local
    }

    /// The shard holding layer `i`.
    pub fn shard_of(&self, i: usize) -> NodeId {
        self.shard_of_layer[i]
    }

    /// The synchronization chunks of one wave push (or pull) for `vw`:
    /// for every (stage, shard) pair with parameters, one chunk with the
    /// summed bytes.
    pub fn chunks_for(
        &self,
        graph: &ModelGraph,
        cluster: &Cluster,
        vw: &VirtualWorker,
    ) -> Vec<SyncChunk> {
        let mut chunks = Vec::new();
        for (stage, range) in vw.plan.ranges.iter().enumerate() {
            let gpu_node = cluster.node_of(vw.devices[stage]);
            // Accumulate bytes per shard for this stage. In vw-local
            // mode the stage's shard is its own hosting node.
            let mut per_shard = std::collections::BTreeMap::new();
            for i in range.clone() {
                let bytes = graph.layers()[i].param_bytes;
                if bytes > 0 {
                    let shard = if self.vw_local {
                        gpu_node
                    } else {
                        self.shard_of(i)
                    };
                    *per_shard.entry(shard).or_insert(0u64) += bytes;
                }
            }
            for (shard_node, bytes) in per_shard {
                chunks.push(SyncChunk {
                    stage,
                    gpu_node,
                    shard_node,
                    bytes,
                });
            }
        }
        chunks
    }

    /// Cross-node bytes of one wave push for `vw` (one direction).
    pub fn cross_node_bytes(
        &self,
        graph: &ModelGraph,
        cluster: &Cluster,
        vw: &VirtualWorker,
    ) -> u64 {
        self.chunks_for(graph, cluster, vw)
            .iter()
            .filter(|c| c.crosses_nodes())
            .map(|c| c.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_cluster::DeviceId;
    use hetpipe_model::vgg19;
    use hetpipe_partition::{PartitionProblem, PartitionSolver};

    fn ed_vw(cluster: &Cluster, graph: &ModelGraph) -> VirtualWorker {
        let devices = vec![DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)];
        let gpus = devices.iter().map(|&d| cluster.spec_of(d)).collect();
        let links = VirtualWorker::links(cluster, &devices);
        let plan = PartitionSolver::solve(&PartitionProblem::new(graph, gpus, links, 1)).unwrap();
        VirtualWorker {
            index: 0,
            devices,
            plan,
            nm: 1,
        }
    }

    #[test]
    fn default_round_robin() {
        let c = Cluster::paper_testbed();
        let g = vgg19(32);
        let vw = ed_vw(&c, &g);
        let m = ShardMap::build(Placement::Default, &g, &c, &vw);
        assert_eq!(m.shard_of(0), NodeId(0));
        assert_eq!(m.shard_of(1), NodeId(1));
        assert_eq!(m.shard_of(5), NodeId(1));
    }

    #[test]
    fn local_placement_kills_cross_node_sync() {
        let c = Cluster::paper_testbed();
        let g = vgg19(32);
        let vw = ed_vw(&c, &g);
        let local = ShardMap::build(Placement::Local, &g, &c, &vw);
        assert_eq!(local.cross_node_bytes(&g, &c, &vw), 0);
        let default = ShardMap::build(Placement::Default, &g, &c, &vw);
        let cross = default.cross_node_bytes(&g, &c, &vw);
        // Round-robin over 4 nodes leaves ~3/4 of the bytes remote.
        let frac = cross as f64 / g.total_param_bytes() as f64;
        assert!(frac > 0.5, "cross-node fraction = {frac:.2}");
    }

    #[test]
    fn chunks_cover_all_parameters() {
        let c = Cluster::paper_testbed();
        let g = vgg19(32);
        let vw = ed_vw(&c, &g);
        for placement in [Placement::Default, Placement::Local] {
            let m = ShardMap::build(placement, &g, &c, &vw);
            let total: u64 = m.chunks_for(&g, &c, &vw).iter().map(|ch| ch.bytes).sum();
            assert_eq!(total, g.total_param_bytes(), "{placement:?}");
        }
    }

    #[test]
    fn vw_local_chunks_stay_on_each_vws_own_nodes() {
        // Two VWs on disjoint nodes: the shared Local map (built from
        // VW 0) sends VW 1's sync across nodes; the vw-local map keeps
        // every VW's chunks on its own nodes — the fleet topology.
        let c = Cluster::paper_testbed();
        let g = vgg19(32);
        let mk = |devices: Vec<DeviceId>| {
            let gpus = devices.iter().map(|&d| c.spec_of(d)).collect();
            let links = VirtualWorker::links(&c, &devices);
            let plan = PartitionSolver::solve(&PartitionProblem::new(&g, gpus, links, 1)).unwrap();
            VirtualWorker {
                index: 0,
                devices,
                plan,
                nm: 1,
            }
        };
        // Node-partition style: VW 0 entirely on node 0, VW 1 on node 1.
        let vw0 = mk((0..4).map(DeviceId).collect());
        let vw1 = mk((4..8).map(DeviceId).collect());
        let shared = ShardMap::build(Placement::Local, &g, &c, &vw0);
        assert!(shared.cross_node_bytes(&g, &c, &vw1) > 0);
        let local = ShardMap::build_vw_local(&g);
        assert!(local.is_vw_local());
        for vw in [&vw0, &vw1] {
            assert_eq!(local.cross_node_bytes(&g, &c, vw), 0);
            let total: u64 = local.chunks_for(&g, &c, vw).iter().map(|ch| ch.bytes).sum();
            assert_eq!(total, g.total_param_bytes());
        }
    }

    #[test]
    fn chunk_stage_nodes_match_devices() {
        let c = Cluster::paper_testbed();
        let g = vgg19(32);
        let vw = ed_vw(&c, &g);
        let m = ShardMap::build(Placement::Default, &g, &c, &vw);
        for ch in m.chunks_for(&g, &c, &vw) {
            assert_eq!(ch.gpu_node, c.node_of(vw.devices[ch.stage]));
        }
    }
}
