//! Sparse matrix substrate for graph propagation.
//!
//! The paper's graph convolutions all propagate through the symmetrically
//! normalised adjacency `Ŝ = D^{-1/2}(A + I)D^{-1/2}` (its Eq. 7/9 and the
//! `Ã` of §4.1). This crate provides the CSR storage for that operator, a
//! register-blocked sparse-dense product ([`Csr::spmm`]), and the
//! normalisation constructors ([`normalized_adjacency`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod csr;
pub mod norm;

pub use csr::Csr;
pub use norm::{normalized_adjacency, row_normalized_adjacency};
