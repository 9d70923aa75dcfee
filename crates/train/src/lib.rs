//! Real SGD training under WSP staleness semantics.
//!
//! The paper's convergence experiments (Figures 5–6) train real models
//! on real hardware; this crate is the laptop-scale substitute that
//! preserves what matters for convergence: *the staleness pattern of
//! gradients*. `N` virtual workers share the calling thread, one
//! minibatch per step, in an order drawn from the run's seed; each runs
//! a *pipelined* SGD loop in which minibatch `p`'s gradient is computed
//! against the weights as of `p`'s injection and applied `s_local`
//! injections later (exactly HetPipe's `w_p` semantics), waves of `Nm`
//! updates are pushed to a shared parameter server as one aggregated
//! delta, and the clock-distance bound `D` gates progress. A run is a
//! function of its configuration, bit for bit. Its state between two
//! steps is a [`Trainer`], which `hetpipe-bench`'s `verify_all`
//! model-checks in every step order.
//!
//! - [`tensor`] — a minimal dense matrix with the kernels an MLP needs,
//!   backward passes checked against numerical gradients.
//! - [`mlp`] — a multi-layer perceptron with manual backprop.
//! - [`sgd`] — SGD with momentum.
//! - [`data`] — deterministic synthetic classification datasets.
//! - [`ps`] — the parameter server (push clocks, waves, gated pulls).
//! - [`runner`] — the [`Trainer`] state and the seeded single-threaded
//!   training harness for WSP / BSP / SSP / ASP, with a staleness audit
//!   trail.
//! - [`convex`] — convex problem instances and a deterministic
//!   noisy-weight executor for validating the Theorem-1 regret bound.

pub mod convex;
pub mod data;
pub mod mlp;
pub mod ps;
pub mod runner;
pub mod sgd;
pub mod tensor;

pub use data::Dataset;
pub use mlp::Mlp;
pub use ps::ParameterServer;
pub use runner::{train, Mode, TrainConfig, TrainOutcome, Trainer};
pub use tensor::Matrix;
