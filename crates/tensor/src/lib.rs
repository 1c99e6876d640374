//! Dense `f32` linear algebra for the FedOMD reproduction.
//!
//! This crate stands in for the dense-tensor half of the deep-learning
//! framework the paper runs on (PyTorch): a row-major [`Matrix`] type with
//! rayon-parallel GEMM kernels, element-wise operations, reductions,
//! activation functions, weight initialisers, and the column-statistics
//! routines (means and higher-order central moments) that the CMD loss of
//! the paper is built from.
//!
//! Everything is deterministic given a seed: all randomness flows through
//! [`rng::seeded`], a ChaCha8 generator whose stream is stable across
//! platforms and releases.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod activation;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;

pub use activation::{relu, relu_backward, sigmoid, softmax_rows};
pub use init::{he_normal, xavier_uniform};
pub use matrix::Matrix;
pub use rng::seeded;
pub use stats::{central_moments, column_means};
