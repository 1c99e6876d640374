//! Tape-based reverse-mode automatic differentiation.
//!
//! This crate replaces the autograd engine of the framework the paper runs
//! on. A [`Tape`] records a DAG of matrix operations executed eagerly
//! (values are computed at record time); [`Tape::backward`] then walks the
//! tape in reverse, accumulating gradients into every parameter node.
//!
//! The op set is exactly what the paper's models and losses need:
//! dense/sparse products, bias broadcast, ReLU, softmax cross-entropy over
//! masked node sets, the orthogonality penalty `‖WWᵀ − I‖_F` (paper Eq. 6),
//! the CMD distance (paper Eq. 11) with analytic gradients through the
//! client-side means and central moments, and the proximal penalty used by
//! the FedProx baseline.
//!
//! Design notes: nodes are addressed by index ([`Var`] is `Copy`), so the
//! tape is `Send` and each simulated client can differentiate on its own
//! pool worker ([`fedomd_tensor::par`]) with zero shared state.
//!
//! Every intermediate a tape produces is drawn from a [`Workspace`] — a
//! size-keyed buffer pool carried across steps via
//! [`Tape::with_workspace`] / [`Tape::recycle`] — so a steady-state
//! training loop reuses the same allocations round after round. Pooled
//! and unpooled execution are bit-identical (see the `workspace` module
//! docs for the argument).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod check;
pub mod cmd;
pub mod tape;
pub mod workspace;

pub use cmd::CmdTargets;
pub use tape::{Tape, Var};
pub use workspace::Workspace;

#[cfg(test)]
mod proptests;
