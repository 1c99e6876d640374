//! A reusable buffer pool for tape intermediates and gradients.
//!
//! Every optimisation step allocates a few dozen matrices — forward values,
//! backward deltas, gradient accumulators — whose shapes repeat exactly
//! from step to step. A [`Workspace`] keeps those `Vec<f32>` backing
//! buffers alive between steps, keyed by element count, so a steady-state
//! training loop touches the allocator only on its very first step.
//!
//! The pool is **content-agnostic**: buffers come back with stale garbage
//! and the taker overwrites every element (the `*_into` kernels zero-fill,
//! [`Workspace::take_copy`] copies, [`Workspace::take_zeroed`] clears).
//! Because every write path produces exactly the bytes the allocating path
//! would have produced, a pooled step is bit-identical to an unpooled one.
//!
//! The workspace also caches CSR transposes: the backward rule of the
//! propagation `Ŝ·H` multiplies by `Ŝᵀ`, and recomputing the transpose from
//! scratch every step dwarfs the SpMM itself on small graphs. Entries are keyed by
//! `Arc` pointer identity *and keep the source `Arc` alive*, so a freed
//! allocation can never alias a stale cache slot.

#![expect(
    clippy::disallowed_types,
    reason = "the pool is looked up by size; its one iteration sums lengths, in any order"
)]

use std::collections::HashMap;
use std::sync::Arc;

use fedomd_sparse::Csr;
use fedomd_tensor::Matrix;

/// Buffers retained per element-count class; beyond this, extra buffers
/// are simply dropped. A two-layer model's step needs well under this
/// many live buffers of any one size.
const MAX_PER_CLASS: usize = 32;

/// Cached CSR transposes. Only the propagation operators `Ŝ` of
/// [`Tape::spmm`](crate::Tape::spmm) land here: a federation client sees
/// one or two of them (FedLIT's per-type operators are the most at 3). The
/// CSR input layer ([`Tape::csr_matmul`](crate::Tape::csr_matmul)) takes
/// its weight gradient by scattering from its own rows and caches none.
const MAX_TRANSPOSES: usize = 8;

/// A size-keyed pool of `f32` buffers plus a CSR-transpose cache,
/// recycled across optimisation steps, epochs, and federated rounds.
///
/// A `Workspace` is plain data (`Send`), so each simulated client can own
/// one and carry it across pool worker threads between rounds.
#[derive(Default)]
pub struct Workspace {
    pool: HashMap<usize, Vec<Vec<f32>>>,
    transposes: Vec<(Arc<Csr>, Arc<Csr>)>,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pooled buffers (diagnostics/tests).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.values().map(Vec::len).sum()
    }

    /// Number of cached transposes (diagnostics/tests).
    pub fn cached_transposes(&self) -> usize {
        self.transposes.len()
    }

    fn take_buf(&mut self, len: usize) -> Vec<f32> {
        match self.pool.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => buf,
            None => vec![0.0; len],
        }
    }

    /// A `rows × cols` matrix with **unspecified contents** — the caller
    /// must overwrite every element (e.g. via a `*_into` kernel).
    pub fn take_uninit(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_buf(rows * cols))
    }

    /// A `rows × cols` matrix of zeros.
    pub fn take_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.take_uninit(rows, cols);
        m.as_mut_slice().fill(0.0);
        m
    }

    /// A pooled copy of `src` (bitwise-equal contents).
    pub fn take_copy(&mut self, src: &Matrix) -> Matrix {
        let mut m = self.take_uninit(src.rows(), src.cols());
        m.as_mut_slice().copy_from_slice(src.as_slice());
        m
    }

    /// Returns a matrix's backing buffer to the pool.
    pub fn recycle(&mut self, m: Matrix) {
        let buf = m.into_vec();
        if buf.is_empty() {
            return;
        }
        let class = self.pool.entry(buf.len()).or_default();
        if class.len() < MAX_PER_CLASS {
            class.push(buf);
        }
    }

    /// The transpose of `s`, computed once per distinct operator and
    /// cached. Keyed by `Arc` pointer identity; the cache holds a clone of
    /// the source `Arc`, so the key can never dangle or be reused by a new
    /// allocation while the entry lives.
    pub fn transposed(&mut self, s: &Arc<Csr>) -> Arc<Csr> {
        if let Some((_, t)) = self.transposes.iter().find(|(src, _)| Arc::ptr_eq(src, s)) {
            return t.clone();
        }
        let t = Arc::new(s.transpose());
        if self.transposes.len() >= MAX_TRANSPOSES {
            self.transposes.remove(0);
        }
        self.transposes.push((s.clone(), t.clone()));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_is_clean_after_dirty_recycle() {
        let mut ws = Workspace::new();
        let mut m = ws.take_uninit(2, 3);
        m.as_mut_slice().fill(f32::NAN);
        ws.recycle(m);
        assert_eq!(ws.pooled_buffers(), 1);
        let z = ws.take_zeroed(3, 2);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(ws.pooled_buffers(), 0, "the 6-element buffer was reused");
    }

    #[test]
    fn take_copy_is_bitwise_equal() {
        let mut ws = Workspace::new();
        let src = Matrix::from_vec(1, 4, vec![1.5, -0.0, f32::NAN, f32::INFINITY]);
        let cp = ws.take_copy(&src);
        for (a, b) in cp.as_slice().iter().zip(src.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pool_reuses_only_matching_sizes() {
        let mut ws = Workspace::new();
        ws.recycle(Matrix::zeros(2, 2));
        let _ = ws.take_uninit(3, 3); // different size: fresh allocation
        assert_eq!(ws.pooled_buffers(), 1, "4-element buffer still pooled");
        let _ = ws.take_uninit(1, 4); // same element count, different shape
        assert_eq!(ws.pooled_buffers(), 0, "keyed by element count");
    }

    #[test]
    fn class_size_is_capped() {
        let mut ws = Workspace::new();
        for _ in 0..(MAX_PER_CLASS + 10) {
            ws.recycle(Matrix::zeros(1, 5));
        }
        assert_eq!(ws.pooled_buffers(), MAX_PER_CLASS);
    }

    #[test]
    fn empty_matrices_are_not_pooled() {
        let mut ws = Workspace::new();
        ws.recycle(Matrix::zeros(0, 3));
        assert_eq!(ws.pooled_buffers(), 0);
    }

    #[test]
    fn transpose_cache_hits_by_pointer_identity() {
        let s = Arc::new(fedomd_sparse::normalized_adjacency(
            4,
            &[(0, 1), (1, 2), (2, 3)],
        ));
        let mut ws = Workspace::new();
        let t1 = ws.transposed(&s);
        let t2 = ws.transposed(&s);
        assert!(Arc::ptr_eq(&t1, &t2), "second lookup must hit the cache");
        assert_eq!(ws.cached_transposes(), 1);
        // A structurally identical but distinct Arc is a different key.
        let s2 = Arc::new(fedomd_sparse::normalized_adjacency(
            4,
            &[(0, 1), (1, 2), (2, 3)],
        ));
        let t3 = ws.transposed(&s2);
        assert!(!Arc::ptr_eq(&t1, &t3));
        assert_eq!(ws.cached_transposes(), 2);
    }

    #[test]
    fn transpose_cache_evicts_oldest_at_cap() {
        let mut ws = Workspace::new();
        let arcs: Vec<Arc<Csr>> = (0..MAX_TRANSPOSES + 2)
            .map(|i| Arc::new(fedomd_sparse::normalized_adjacency(2 + i, &[(0, 1)])))
            .collect();
        for s in &arcs {
            let _ = ws.transposed(s);
        }
        assert_eq!(ws.cached_transposes(), MAX_TRANSPOSES);
        // The first two were evicted; the rest still hit.
        let before = ws.cached_transposes();
        let _ = ws.transposed(&arcs[MAX_TRANSPOSES + 1]);
        assert_eq!(ws.cached_transposes(), before);
    }

    #[test]
    fn transposed_matches_direct_transpose() {
        let s = Arc::new(fedomd_sparse::normalized_adjacency(
            5,
            &[(0, 2), (1, 3), (2, 4)],
        ));
        let mut ws = Workspace::new();
        let t = ws.transposed(&s);
        let direct = s.transpose();
        let x = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32 * 0.1);
        let a = t.spmm(&x);
        let b = direct.spmm(&x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
}
