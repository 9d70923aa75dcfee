//! Static verification for the HetPipe reproduction: proofs about
//! schedules and the WSP gate protocol that hold *before any
//! simulation runs*.
//!
//! The rest of the workspace checks its invariants dynamically — the
//! DES audits occupancy on traces, `tests/staleness_props.rs` samples
//! the WSP algebra, the fleet parity tests compare runs. Each of those
//! observes *some* executions. This crate closes the gap to *all*
//! executions, for small configurations, along four axes:
//!
//! - [`graph`] — the committed op queues of every schedule become an
//!   explicit dependency DAG (program order + data edges + cross-worker
//!   WSP push/gate coupling); a topological sort is a machine-checked
//!   **deadlock-freedom certificate** per configuration, replacing the
//!   "by construction" argument, and prefix walks of the same queues
//!   give **structural occupancy bounds** completing the
//!   `measured ≤ structural ≤ declared` chain of
//!   [`hetpipe_des::OccupancyBound`].
//! - [`lookahead`] — the **lookahead certificate**: each VW's gate
//!   cadence matches the closed form in `(Nm, D)` —
//!   `s_global + 1 = (D + 2)·Nm − 1` stage-0 forwards of warmup, then
//!   exactly `Nm` per gate-to-gate segment
//!   ([`lookahead::LookaheadWitness`]): a static certificate of where
//!   each VW meets the parameter server.
//! - [`staleness`] — the WSP staleness algebra is checked at **every**
//!   minibatch of a warmup-covering horizon, with a wave-shift
//!   invariance witness as the induction step extending the finite
//!   check to the infinite stream.
//! - [`checker`] / [`gatecheck`] — an in-tree, loom-style
//!   **exhaustive-interleaving model checker**: a pure shadow state
//!   machine (one atomic step per worker action) is driven through
//!   *every* interleaving of the scenario programs, proving the WSP
//!   **gate protocol** (no worker ever reads a push it shouldn't see
//!   under bound `D`). Sleep-set partial-order reduction
//!   ([`checker::explore_por`]) collapses provably-commuting
//!   reorderings so 4-worker scenarios (63M unreduced interleavings)
//!   stay enumerable; 3-worker scenarios are still pinned to their
//!   unreduced multinomials as the exhaustiveness check. A
//!   deliberately broken variant (a worker advancing past a closed
//!   gate) is kept in-tree as a negative control: the checker must
//!   find its counterexample, which is what makes the green runs on
//!   the real protocol evidence instead of vacuity.
//!
//! Every pass here consumes the same artifacts the executor runs —
//! [`hetpipe_schedule::committed_queues`] extraction and the real
//! [`hetpipe_schedule::WspParams`] algebra — so a proof about the
//! model is a proof about the code paths, not about a drawing of them.
//!
//! No simulation engine consumes these certificates. The executor
//! (`hetpipe_core::exec`) runs every VW on one event queue and
//! evaluates the WSP gate directly (`min_clock` over the push clocks),
//! so the certificates stand as static proofs about the schedules and
//! the gate rule, not as preconditions of a run.
//!
//! The `verify_all` binary (in `hetpipe-bench`) sweeps the standing
//! model/cluster/schedule matrix through all of these axes and exits
//! non-zero on any violation; CI runs it next to the benchmark gates.

pub mod checker;
pub mod gatecheck;
pub mod graph;
pub mod lookahead;
pub mod staleness;

pub use checker::{explore, explore_por, interleaving_count, Explored, ShadowSpec, Violation};
pub use gatecheck::{
    check_broken_gate_protocol, check_gate_protocol, GateOp, GateReport, GateState,
    ShadowGateProtocol,
};
pub use graph::{
    structural_occupancy, verify_deadlock_free, verify_queues, CycleError, DagProof,
    OccupancyReport,
};
pub use lookahead::{
    check_interaction_points, lookahead_bound, verify_lookahead, LookaheadWitness,
};
pub use staleness::{
    interleaved_chunk_versions, verify_version_rule, verify_wsp_bound, ChunkVersionDemand,
    StalenessProof,
};
