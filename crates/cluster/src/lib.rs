//! Hardware substrate for the HetPipe reproduction.
//!
//! The original paper evaluates on a physical testbed of four nodes, each
//! with four homogeneous GPUs, where the GPU model differs across nodes
//! (Table 1 of the paper): TITAN V, TITAN RTX, GeForce RTX 2060, and
//! Quadro P4000. Intra-node GPU communication uses PCIe 3.0 x16
//! (15.75 GB/s peak) and inter-node communication uses 56 Gbps InfiniBand.
//!
//! This crate models that hardware analytically:
//!
//! - [`gpu`] — GPU specifications and a calibrated *effective throughput*
//!   model (fitted to the paper's measured single-pipeline throughputs
//!   rather than raw FLOPs, because e.g. the TITAN V outperforms the
//!   TITAN RTX on training despite a lower boost clock).
//! - [`node`] — nodes (homogeneous GPU sets) and heterogeneous clusters,
//!   including a builder for the exact testbed of the paper.
//! - [`network`] — transfer-time models: PCIe with a Paleo-style
//!   scaling-down constant and InfiniBand with a linear regression
//!   (latency + inverse-bandwidth), as described in Section 7.
//! - [`topology`] — device identities and path resolution (intra- vs
//!   inter-node) between any two GPUs of a cluster.

pub mod gpu;
pub mod network;
pub mod node;
pub mod topology;

pub use gpu::{Architecture, GpuKind, GpuSpec};
pub use network::LinkKind;
pub use node::{Cluster, Node};
pub use topology::{DeviceId, NodeId};
