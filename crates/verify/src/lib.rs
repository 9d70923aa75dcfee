//! Static verification for the HetPipe reproduction: proofs about
//! schedules, and a model checker for the code that trains, that hold
//! *before any simulation runs*.
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
//! - [`checker`] — an in-tree, loom-style **exhaustive-interleaving
//!   model checker**: a [`Spec`]'s threads are stepped in *every*
//!   order, each distinct state visited once (a visited set of whole
//!   states), with the invariant judged at every reachable state.
//!   `hetpipe-bench`'s `gatecheck` module runs it over the real
//!   trainer (`hetpipe_train::Trainer`), one thread per worker, to
//!   prove the WSP **gate rule**: no worker computes on weights older
//!   than its gate, and push clocks stay within the mode's distance.
//!
//! Every pass here consumes the same artifacts the executor runs —
//! [`hetpipe_schedule::committed_queues`] extraction and the real
//! [`hetpipe_schedule::WspParams`] algebra — so a proof about the
//! model is a proof about the code paths, not about a drawing of them.
//!
//! No simulation engine consumes these certificates. The executor
//! (`hetpipe_core::exec`) runs every VW on one event queue and
//! evaluates the WSP gate through [`hetpipe_schedule::PushClocks`],
//! the trainer's clock type too, so the certificates stand as static
//! proofs about the schedules and the gate rule, not as preconditions
//! of a run.
//!
//! The `verify_all` binary (in `hetpipe-bench`) sweeps the standing
//! model/cluster/schedule matrix through all of these axes and exits
//! non-zero on any violation; CI runs it next to the benchmark gates.

pub mod checker;
pub mod graph;
pub mod lookahead;
pub mod staleness;

pub use checker::{explore, Explored, Spec, Violation};
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
