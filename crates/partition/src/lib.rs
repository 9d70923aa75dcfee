//! Heterogeneity- and memory-aware model partitioning.
//!
//! Section 7 of the paper: *"the goal of our partitioning algorithm is to
//! minimize the maximum execution time of the partitions within the
//! bounds of satisfying the memory requirement"*, solved there with
//! CPLEX. This crate solves the identical optimization exactly, without
//! an external solver:
//!
//! - [`cost`] — per-stage execution time: layer compute on the stage's
//!   GPU plus the time to receive activations (forward) and local
//!   gradients (backward) over the stage's incoming links, read from
//!   one [`LayerTable`] of per-layer rows per GPU spec and link kind.
//! - [`solver`] — an interval dynamic program over contiguous layer
//!   ranges, O(k · L²), exact for the min–max objective with
//!   position-dependent memory constraints.
//! - [`brute`] — exhaustive enumeration of cut sets, used by tests to
//!   certify the DP's optimality on small instances.
//! - [`order`] — stage orders: with heterogeneous GPUs the assignment
//!   of GPUs to pipeline positions matters (late stages hold fewer
//!   in-flight minibatches, so memory-poor GPUs prefer late positions);
//!   enumerates the distinct kind-orders and scores them with a
//!   caller's evaluator.
//!
//! [`solver::NmSweep`]'s walk over `Nm = 1, 2, …` up to the first
//! infeasible `Nm` is the crate's one `Max_m` search
//! ([`max_feasible_nm_with`] returns its end).

pub mod brute;
pub mod cost;
pub mod order;
pub mod solver;

pub use cost::{LayerTable, PartitionProblem, StageCostModel};
pub use order::evaluate_orders;
pub use solver::{max_feasible_nm_with, NmSweep, PartitionError, PartitionPlan, PartitionSolver};
