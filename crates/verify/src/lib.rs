//! Static verification for the HetPipe reproduction: proofs about
//! schedules and the WSP gate protocol that hold *before any
//! simulation runs*.
//!
//! The rest of the workspace checks its invariants dynamically — the
//! DES audits occupancy on traces, `tests/staleness_props.rs` samples
//! the WSP algebra, the fleet parity tests compare engines. Each of those
//! observes *some* executions. This crate closes the gap to *all*
//! executions, for small configurations, along three axes:
//!
//! - [`graph`] — the committed op queues of every schedule become an
//!   explicit dependency DAG (program order + data edges + cross-worker
//!   WSP push/gate coupling); a topological sort is a machine-checked
//!   **deadlock-freedom certificate** per configuration, replacing the
//!   "by construction" argument, and prefix walks of the same queues
//!   give **structural occupancy bounds** completing the
//!   `measured ≤ structural ≤ declared` chain of
//!   [`hetpipe_des::OccupancyBound`].
//! - [`isolation`] / [`lookahead`] — the **fleet-decomposition
//!   certificates** (the contract the parallel per-VW engines are
//!   built against). Every dependency-graph node declares a
//!   read/write footprint in the [`hetpipe_des::footprint`]
//!   vocabulary, whose resources are owned by one VW, by the
//!   parameter server, or by the environment. The isolation pass
//!   proves, edge by edge, that (1) every committed dependence is
//!   *explained* by its endpoints' footprints — an unexplained edge
//!   means an event class under-declares what it touches — and
//!   (2) every cross-VW dependence is the WSP push→gate coupling on
//!   PS-owned state, emitting an [`isolation::IsolationCertificate`]
//!   per configuration (fault scripts compose in as write-only
//!   environment rate edges). The lookahead pass then proves each
//!   VW's gate cadence matches the closed form in `(Nm, D)` —
//!   `s_global + 1 = (D + 2)·Nm − 1` stage-0 forwards of warmup, then
//!   exactly `Nm` per gate-to-gate segment
//!   ([`lookahead::LookaheadWitness`]): a static certificate of where
//!   the fleet's engines meet the parameter server.
//! - [`staleness`] — the WSP staleness algebra is checked at **every**
//!   minibatch of a warmup-covering horizon, with a wave-shift
//!   invariance witness as the induction step extending the finite
//!   check to the infinite stream.
//! - [`checker`] / [`gatecheck`] — an in-tree, loom-style
//!   **exhaustive-interleaving model checker**: a pure shadow state
//!   machine (one atomic step per engine action) is driven through
//!   *every* interleaving of the scenario programs, proving the per-VW
//!   **gate protocol** (no engine ever reads a push it shouldn't see
//!   under bound `D`). Sleep-set partial-order reduction
//!   ([`checker::explore_por`]) collapses provably-commuting
//!   reorderings so 4-engine scenarios (63M unreduced interleavings)
//!   stay enumerable; 3-thread scenarios are still pinned to their
//!   unreduced multinomials as the exhaustiveness check. A
//!   deliberately broken variant (an engine advancing past a closed
//!   gate) is kept in-tree as a negative control: the checker must
//!   find its counterexample, which is what makes the green runs on
//!   the real protocol evidence instead of vacuity.
//!
//! Every pass here consumes the same artifacts the executor runs —
//! [`hetpipe_schedule::committed_queues`] extraction and the real
//! [`hetpipe_schedule::WspParams`] algebra — so a proof about the
//! model is a proof about the code paths, not about a drawing of them.
//!
//! The `verify_all` binary (in `hetpipe-bench`) sweeps the standing
//! model/cluster/schedule matrix through all of these axes and exits
//! non-zero on any violation; CI runs it next to the benchmark gates.

pub mod checker;
pub mod gatecheck;
pub mod graph;
pub mod isolation;
pub mod lookahead;
pub mod staleness;

pub use checker::{explore, explore_por, interleaving_count, Explored, ShadowSpec, Violation};
pub use gatecheck::{
    check_broken_gate_protocol, check_gate_protocol, GateOp, GateReport, GateState,
    ShadowGateProtocol,
};
pub use graph::{
    dependency_graph, structural_occupancy, verify_deadlock_free, verify_queues, CycleError,
    DagProof, DepEdge, DepGraphData, DepNode, EdgeKind, OccupancyReport,
};
pub use isolation::{
    verify_isolation, verify_isolation_with, verify_script_isolation, verify_vw_isolation,
    FootprintModel, IsolationCertificate, IsolationViolation, IsolationViolationClass,
};
pub use lookahead::{
    check_interaction_points, lookahead_bound, verify_lookahead, LookaheadWitness,
};
pub use staleness::{
    interleaved_chunk_versions, verify_version_rule, verify_wsp_bound, ChunkVersionDemand,
    StalenessProof,
};
