//! Compressed-sparse-row matrices and the parallel SpMM kernel.

use fedomd_tensor::Matrix;
use rayon::prelude::*;

/// Ceiling on stored entries per parallel SpMM task: large enough that
/// task overhead amortises over thousands of multiply-adds. The actual
/// target also divides the matrix's nnz across the rayon pool (with 4×
/// oversubscription for work stealing) so small graphs still fan out
/// instead of collapsing into one serial block; see
/// [`Csr::spmm`]. Scheduling never affects results — every output row is
/// accumulated independently in its own task.
const SPMM_TARGET_NNZ: usize = 4096;
/// Floor on stored entries per parallel SpMM task, so the thread-scaled
/// target can't shatter tiny graphs into tasks dominated by overhead.
const SPMM_MIN_TARGET_NNZ: usize = 256;
/// Column-chunk width of the register-blocked row kernel: 16 f32 lanes =
/// two AVX2 vectors of accumulators living in registers across all of a
/// row's stored entries, instead of a load/store of the output row per
/// entry.
const SPMM_CHUNK: usize = 16;

/// Register-blocked kernel over the row range starting at `r0` covering
/// `out` (`out.len() / n` rows, `out` fully overwritten). Columns are
/// processed in [`SPMM_CHUNK`]-wide chunks; within a chunk the row's
/// stored entries run in CSR order into a stack accumulator, so every
/// output element sees exactly the entry-order accumulation (from `0.0`)
/// of [`Csr::spmm_ref`] — bit-identical by construction, pinned by
/// `prop_spmm_bitwise_matches_ref`, except in which NaN survives where two
/// different NaNs meet in one add (`prop_spmm_matches_ref_up_to_which_nan`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn spmm_rows_body(
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x_data: &[f32],
    n: usize,
    r0: usize,
    out: &mut [f32],
) {
    for (i, out_row) in out.chunks_mut(n).enumerate() {
        let r = r0 + i;
        let (lo, hi) = (indptr[r], indptr[r + 1]);
        let idx = &indices[lo..hi];
        let vals = &values[lo..hi];
        let mut j0 = 0;
        while j0 + SPMM_CHUNK <= n {
            let mut acc = [0.0f32; SPMM_CHUNK];
            for (&c, &v) in idx.iter().zip(vals) {
                let x_row = &x_data[c as usize * n + j0..c as usize * n + j0 + SPMM_CHUNK];
                for (a, &xv) in acc.iter_mut().zip(x_row) {
                    *a += v * xv;
                }
            }
            out_row[j0..j0 + SPMM_CHUNK].copy_from_slice(&acc);
            j0 += SPMM_CHUNK;
        }
        if j0 < n {
            // Ragged tail: same kernel on the trailing `w < SPMM_CHUNK`
            // columns (unused accumulator lanes are never stored).
            let w = n - j0;
            let mut acc = [0.0f32; SPMM_CHUNK];
            for (&c, &v) in idx.iter().zip(vals) {
                let x_row = &x_data[c as usize * n + j0..c as usize * n + j0 + w];
                for (a, &xv) in acc[..w].iter_mut().zip(x_row) {
                    *a += v * xv;
                }
            }
            out_row[j0..].copy_from_slice(&acc[..w]);
        }
    }
}

/// Baseline-ISA instantiation of the row kernel.
#[allow(clippy::too_many_arguments)]
fn spmm_rows_generic(
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x_data: &[f32],
    n: usize,
    r0: usize,
    out: &mut [f32],
) {
    spmm_rows_body(indptr, indices, values, x_data, n, r0, out);
}

/// AVX2 instantiation: identical Rust code, wider auto-vectorisation.
/// Plain lane-wise IEEE mul/add without contraction keeps it bit-identical
/// to [`spmm_rows_generic`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn spmm_rows_avx2(
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x_data: &[f32],
    n: usize,
    r0: usize,
    out: &mut [f32],
) {
    spmm_rows_body(indptr, indices, values, x_data, n, r0, out);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code, reason = "AVX2 dispatch after runtime detection")]
fn run_spmm_rows(
    avx2: bool,
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x_data: &[f32],
    n: usize,
    r0: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when `is_x86_feature_detected!`
        // confirmed support at the kernel entry point.
        unsafe { spmm_rows_avx2(indptr, indices, values, x_data, n, r0, out) };
        return;
    }
    let _ = avx2;
    spmm_rows_generic(indptr, indices, values, x_data, n, r0, out);
}

/// Transposed-product scatter `out += Aᵀ·G`: walks `A`'s rows in
/// ascending order and adds `v · g_row(r)` into `out`'s row `c` for each
/// stored `(c, v)` of row `r`. Every output element therefore sees its
/// terms in ascending `r`, the order in which row `c` of
/// [`Csr::transpose`] stores them, so from a `+0.0` start it is
/// bit-identical to `A.transpose().spmm(G)` when `A`'s values and `G` are
/// finite (see [`Csr::spmm_t_into`] for why that condition).
#[inline(always)]
fn spmm_t_body(
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    g_data: &[f32],
    n: usize,
    out: &mut [f32],
) {
    for (r, g_row) in g_data.chunks_exact(n).enumerate() {
        let (lo, hi) = (indptr[r], indptr[r + 1]);
        for (&c, &v) in indices[lo..hi].iter().zip(&values[lo..hi]) {
            let out_row = &mut out[c as usize * n..(c as usize + 1) * n];
            for (o, &gv) in out_row.iter_mut().zip(g_row) {
                *o += v * gv;
            }
        }
    }
}

/// Baseline-ISA instantiation of the scatter kernel.
fn spmm_t_generic(
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    g_data: &[f32],
    n: usize,
    out: &mut [f32],
) {
    spmm_t_body(indptr, indices, values, g_data, n, out);
}

/// AVX2 instantiation of the scatter kernel: identical Rust code, wider
/// auto-vectorisation, separate lane-wise multiply and add (no FMA), so
/// it is bit-identical to [`spmm_t_generic`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn spmm_t_avx2(
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    g_data: &[f32],
    n: usize,
    out: &mut [f32],
) {
    spmm_t_body(indptr, indices, values, g_data, n, out);
}

#[inline]
fn detect_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A sparse `f32` matrix in CSR form.
///
/// Invariants (checked by [`Csr::validate`], maintained by all
/// constructors): `indptr.len() == rows + 1`, `indptr` is non-decreasing,
/// `indptr[rows] == indices.len() == values.len()`, and within each row the
/// column indices are strictly increasing (no duplicates).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from COO triplets `(row, col, value)`.
    ///
    /// Triplets may arrive in any order; duplicates are summed. Entries that
    /// sum to exactly zero are kept (callers that care can [`Csr::prune`]).
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn from_coo(rows: usize, cols: usize, mut entries: Vec<(usize, usize, f32)>) -> Self {
        for &(r, c, _) in &entries {
            assert!(
                r < rows && c < cols,
                "from_coo: entry ({r},{c}) out of bounds for {rows}x{cols}"
            );
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(entries.len());
        let mut values: Vec<f32> = Vec::with_capacity(entries.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in entries {
            if last == Some((r, c)) {
                #[expect(
                    clippy::expect_used,
                    reason = "`last == Some` only after a prior iteration pushed onto \
                              `values`, so `last_mut` is `Some`"
                )]
                let summed = values.last_mut().expect("values nonempty when last is set");
                *summed += v;
            } else {
                indptr[r + 1] += 1;
                indices.push(c as u32);
                values.push(v);
                last = Some((r, c));
            }
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        let out = Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        };
        debug_assert!(out.validate().is_ok());
        out
    }

    /// `dense` as CSR when fewer than `max_density` of its entries are
    /// non-zero, else `None`. The caller picks the cut-over: the
    /// workspace's one is `fedomd_nn::INPUT_CSR_MAX_DENSITY`, applied by
    /// `fedomd_nn::ConstOperand` to every constant left operand of a
    /// trained product.
    ///
    /// Stores exactly the `v != 0.0` entries (a `-0.0` is not stored), in
    /// ascending column order: the terms, and the order, in which the
    /// serial reference GEMM kernels accumulate a product whose right
    /// operand is finite. One pass: each row is compacted into a row-sized scratch
    /// window and appended, and the first row that reaches the cap ends
    /// the scan, so a dense operand costs a partial scan and nothing is
    /// counted twice. The compaction writes every entry and advances only
    /// past non-zeros, so it does not branch on the data. The buffers are
    /// reserved for at most a quarter of the entries and grow past that
    /// only for a denser operand: reserving at a cap of ½, or counting
    /// first and reserving exactly, both measured a slower set-up
    /// (`wide_tcp`'s `setup_s` +17 to +38 %, with more page faults).
    pub fn from_zero_heavy(dense: &Matrix, max_density: f64) -> Option<Csr> {
        let (rows, cols) = dense.shape();
        // For an integer count, `nnz < d·len` ⟺ `nnz < ⌈d·len⌉`.
        let cap = (max_density * dense.len() as f64).ceil() as usize;
        if cap == 0 {
            return None;
        }
        let reserve = cap.min(dense.len().div_ceil(4));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(reserve);
        let mut values = Vec::with_capacity(reserve);
        let mut row_idx = vec![0u32; cols];
        let mut row_val = vec![0.0f32; cols];
        for (r, row) in dense.as_slice().chunks_exact(cols).enumerate() {
            let mut k = 0;
            for (c, &v) in row.iter().enumerate() {
                row_idx[k] = c as u32;
                row_val[k] = v;
                k += usize::from(v != 0.0);
            }
            if indices.len() + k >= cap {
                return None;
            }
            indices.extend_from_slice(&row_idx[..k]);
            values.extend_from_slice(&row_val[..k]);
            indptr[r + 1] = indices.len();
        }
        indices.shrink_to_fit();
        values.shrink_to_fit();
        let out = Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        };
        debug_assert!(out.validate().is_ok());
        Some(out)
    }

    /// An all-zero sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The sparse identity.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column indices, values)` of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Checks the CSR invariants, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.rows + 1 {
            return Err(format!(
                "indptr length {} != rows+1 {}",
                self.indptr.len(),
                self.rows + 1
            ));
        }
        if self.indptr[self.rows] != self.indices.len() || self.indices.len() != self.values.len() {
            return Err("indptr tail / indices / values lengths disagree".into());
        }
        for r in 0..self.rows {
            if self.indptr[r] > self.indptr[r + 1] {
                return Err(format!("indptr decreases at row {r}"));
            }
            let (idx, _) = self.row(r);
            for w in idx.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {r}: indices not strictly increasing"));
                }
            }
            if let Some(&last) = idx.last() {
                if last as usize >= self.cols {
                    return Err(format!("row {r}: column {last} out of bounds"));
                }
            }
        }
        Ok(())
    }

    /// Sparse-dense product `C = S · X` (the graph-propagation kernel).
    ///
    /// Parallelised over nnz-balanced row blocks: the `indptr` array *is*
    /// the prefix sum of per-row nnz, so [`Csr::balanced_row_blocks`] cuts
    /// the rows into blocks of roughly equal stored-entry counts (scaled
    /// to the rayon pool, bounded by [`SPMM_MIN_TARGET_NNZ`] and
    /// [`SPMM_TARGET_NNZ`]) by binary-searching it. One task per block
    /// fixes both the task-per-row overhead on small rows and the load
    /// imbalance on power-law degree graphs; a one-thread pool takes the
    /// plain row sweep instead, since partitioning cannot pay off there.
    /// Per-row accumulation order is unchanged on every path, so results
    /// are bit-identical to [`Csr::spmm_ref`] — up to which NaN comes out
    /// where two different NaNs meet in one output (a stored `0.0` times
    /// an inf, or `inf - inf`, then a NaN feature): that choice is the
    /// operand order the compiler gives each add, and is unspecified.
    ///
    /// # Panics
    /// Panics when `self.cols() != x.rows()`.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.spmm_body(x, &mut out);
        out
    }

    /// [`Csr::spmm`] into a caller-provided output (overwritten, any prior
    /// contents ignored). Lets the autograd workspace recycle buffers.
    ///
    /// # Panics
    /// Panics when the inner dimensions or the output shape disagree.
    pub fn spmm_into(&self, x: &Matrix, out: &mut Matrix) {
        out.as_mut_slice().fill(0.0);
        self.spmm_body(x, out);
    }

    /// Accumulating kernel shared by [`Csr::spmm`] / [`Csr::spmm_into`];
    /// `out` must be zeroed on entry.
    fn spmm_body(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            x.rows(),
            "spmm: inner dimensions disagree ({}x{} · {}x{})",
            self.rows,
            self.cols,
            x.rows(),
            x.cols()
        );
        let n = x.cols();
        assert_eq!(
            out.shape(),
            (self.rows, n),
            "spmm_into: output shape mismatch"
        );
        if self.rows == 0 || n == 0 {
            // Explicit `n == 0` handling: the result is the (empty)
            // all-zero matrix. The previous kernel's `n.max(1)` chunking
            // degenerated into one bogus task per output element here.
            return;
        }
        // Aim for ~4 blocks per thread (work-stealing slack) but keep each
        // block big enough to amortise its task, and never bigger than the
        // ceiling that bounds load imbalance on power-law graphs. On a
        // one-thread pool (the vendored sequential rayon shim) the plain
        // row sweep is optimal and partitioning is pure overhead, so skip
        // it — likewise when the whole matrix fits one block anyway.
        let threads = rayon::current_num_threads();
        let per_thread = self.nnz() / (4 * threads).max(1);
        let target = per_thread.clamp(SPMM_MIN_TARGET_NNZ, SPMM_TARGET_NNZ);
        if threads <= 1 || self.nnz() <= target {
            run_spmm_rows(
                detect_avx2(),
                &self.indptr,
                &self.indices,
                &self.values,
                x.as_slice(),
                n,
                0,
                out.as_mut_slice(),
            );
        } else {
            self.spmm_blocked(x, out, target);
        }
    }

    /// The nnz-balanced blocked kernel behind [`Csr::spmm`]: one rayon
    /// task per ≈`target`-entry row block, each running the
    /// register-blocked row kernel. Per-row accumulation is identical to
    /// the serial sweep — partitioning only changes which task computes a
    /// row, never the arithmetic inside it.
    fn spmm_blocked(&self, x: &Matrix, out: &mut Matrix, target: usize) {
        let n = x.cols();
        let x_data = x.as_slice();
        let blocks = self.balanced_row_blocks(target);
        let avx2 = detect_avx2();

        // Carve the output into one contiguous mutable slice per block.
        let mut tasks = Vec::with_capacity(blocks.len());
        let mut rest = out.as_mut_slice();
        for &(r0, r1) in &blocks {
            let (head, tail) = rest.split_at_mut((r1 - r0) * n);
            tasks.push((r0, head));
            rest = tail;
        }
        tasks.into_par_iter().for_each(|(r0, chunk)| {
            run_spmm_rows(
                avx2,
                &self.indptr,
                &self.indices,
                &self.values,
                x_data,
                n,
                r0,
                chunk,
            );
        });
    }

    /// Transposed product `out = Aᵀ · G` without forming `Aᵀ` (`out` is
    /// overwritten, any prior contents ignored): the weight gradient of a
    /// layer whose constant left operand is this matrix. `out` is cleared
    /// to `+0.0`, then `A`'s rows are walked in ascending order and each
    /// stored `(c, v)` of row `r` adds `v · G[r, :]` into `out[c, :]`.
    /// Each output element gets the same IEEE operations, in the same
    /// ascending-row order, as in `A.transpose().spmm(G)`, so the two are
    /// bit-identical for every input. Serial.
    ///
    /// The one freedom left is the operand order of each add, which the
    /// compiler picks: the scatter reads its accumulator from memory, so
    /// it issues `o + p` as `p + o`. IEEE addition commutes except in
    /// which NaN it returns when both operands are NaN, and that needs a
    /// NaN product `p`, which finite values never make. So when a stored
    /// value or an entry of `G` is not finite, the product runs on a
    /// temporary transpose instead. The check is two vectorised passes,
    /// a few per cent of the scatter.
    ///
    /// # Panics
    /// Panics when `self.rows() != g.rows()` or `out` is not
    /// `self.cols() × g.cols()`.
    #[allow(unsafe_code, reason = "AVX2 dispatch after runtime detection")]
    pub fn spmm_t_into(&self, g: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows,
            g.rows(),
            "spmm_t_into: inner dimensions disagree ({}x{}ᵀ · {}x{})",
            self.rows,
            self.cols,
            g.rows(),
            g.cols()
        );
        let n = g.cols();
        assert_eq!(
            out.shape(),
            (self.cols, n),
            "spmm_t_into: output shape mismatch"
        );
        // `fold` rather than `all`: no early exit, so the loop vectorises.
        let finite = self.values.iter().fold(true, |ok, v| ok & v.is_finite());
        if !(finite && g.all_finite()) {
            self.transpose().spmm_into(g, out);
            return;
        }
        out.as_mut_slice().fill(0.0);
        if n == 0 {
            return;
        }
        let (indptr, indices, values) = (&self.indptr, &self.indices, &self.values);
        let (g_data, out_data) = (g.as_slice(), out.as_mut_slice());
        #[cfg(target_arch = "x86_64")]
        if detect_avx2() {
            // SAFETY: `detect_avx2` just confirmed AVX2 support via
            // `is_x86_feature_detected!`.
            unsafe { spmm_t_avx2(indptr, indices, values, g_data, n, out_data) };
            return;
        }
        spmm_t_generic(indptr, indices, values, g_data, n, out_data);
    }

    /// Serial reference SpMM (the pre-PR4 per-row kernel, minus the
    /// per-row rayon task). Oracle for the bit-identity proptests.
    pub fn spmm_ref(&self, x: &Matrix) -> Matrix {
        assert_eq!(self.cols, x.rows(), "spmm_ref: inner dimensions disagree");
        let n = x.cols();
        let x_data = x.as_slice();
        let mut out = Matrix::zeros(self.rows, n);
        for (r, out_row) in out.as_mut_slice().chunks_mut(n.max(1)).enumerate() {
            if n == 0 {
                break;
            }
            let (idx, vals) = self.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                let x_row = &x_data[c as usize * n..(c as usize + 1) * n];
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o += v * xv;
                }
            }
        }
        out
    }

    /// Partitions `[0, rows)` into contiguous blocks of ≈`target` stored
    /// entries (each at least one row): each block is the shortest row
    /// range from its start whose nnz reaches `target`, found by binary
    /// search over the `indptr` prefix sums. Rows heavier than `target`
    /// become single-row blocks; trailing light rows pool into one block.
    fn balanced_row_blocks(&self, target: usize) -> Vec<(usize, usize)> {
        let mut blocks = Vec::new();
        let mut r0 = 0;
        while r0 < self.rows {
            let goal = self.indptr[r0] + target;
            let boundaries = &self.indptr[r0 + 1..self.rows + 1];
            let i = boundaries.partition_point(|&v| v < goal);
            let r1 = (r0 + 1 + i).min(self.rows);
            blocks.push((r0, r1));
            r0 = r1;
        }
        blocks
    }

    /// Sparse-vector product `y = S · x`.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(self.cols, x.len(), "spmv: dimension mismatch");
        (0..self.rows)
            .map(|r| {
                let (idx, vals) = self.row(r);
                idx.iter().zip(vals).map(|(&c, &v)| v * x[c as usize]).sum()
            })
            .collect()
    }

    /// The transposed matrix (counting sort over columns).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            counts[c + 1] += counts[c];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                let pos = cursor[c as usize];
                indices[pos] = r as u32;
                values[pos] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// The block-diagonal matrix `diag(parts[0], parts[1], ..)`: part `p`'s
    /// rows and columns, both shifted past those of the parts before it.
    /// Each row keeps its part's entries in their order, so a product
    /// with it computes every row with the terms, and in the order, of
    /// that part's own product.
    pub fn block_diag(parts: &[&Csr]) -> Csr {
        let rows = parts.iter().map(|p| p.rows).sum();
        let nnz = parts.iter().map(|p| p.nnz()).sum();
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut cols = 0;
        for p in parts {
            let base = indices.len();
            indptr.extend(p.indptr[1..].iter().map(|&e| base + e));
            indices.extend(p.indices.iter().map(|&c| c + cols as u32));
            values.extend_from_slice(&p.values);
            cols += p.cols;
        }
        let out = Csr {
            rows,
            cols,
            indptr,
            indices,
            values,
        };
        debug_assert!(out.validate().is_ok());
        out
    }

    /// True when the matrix equals its transpose (within `tol`).
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            return false;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Removes explicitly stored zeros.
    pub fn prune(&self) -> Csr {
        let mut entries = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                if v != 0.0 {
                    entries.push((r, c as usize, v));
                }
            }
        }
        Csr::from_coo(self.rows, self.cols, entries)
    }

    /// Densifies: for tests, and for the rare product whose dense
    /// operand holds a NaN or ±inf (`Tape::csr_matmul`'s fallback).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (idx, vals) = self.row(r);
            for (&c, &v) in idx.iter().zip(vals) {
                m[(r, c as usize)] += v;
            }
        }
        m
    }

    /// Sum of absolute values in each row (used for spectral bounds).
    pub fn row_abs_sums(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| self.row(r).1.iter().map(|v| v.abs()).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Csr {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        Csr::from_coo(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
    }

    #[test]
    fn from_coo_builds_valid_csr() {
        let s = small();
        assert_eq!(s.nnz(), 4);
        s.validate().expect("valid");
        assert_eq!(s.row(0), (&[0u32, 2][..], &[1.0f32, 2.0][..]));
        assert_eq!(s.row_nnz(1), 0);
    }

    #[test]
    fn from_coo_merges_duplicates() {
        let s = Csr::from_coo(2, 2, vec![(0, 1, 1.0), (0, 1, 2.5), (1, 0, -1.0)]);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.row(0), (&[1u32][..], &[3.5f32][..]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_coo_rejects_out_of_bounds() {
        let _ = Csr::from_coo(2, 2, vec![(0, 5, 1.0)]);
    }

    #[test]
    fn spmm_matches_dense_product() {
        let s = small();
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let got = s.spmm(&x);
        let expected = fedomd_tensor::gemm::matmul_naive(&s.to_dense(), &x);
        got.assert_close(&expected, 1e-5);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let x = Matrix::from_fn(5, 3, |r, c| (r + c) as f32);
        Csr::identity(5).spmm(&x).assert_close(&x, 1e-6);
    }

    #[test]
    fn spmv_matches_spmm_single_column() {
        let s = small();
        let x = vec![1.0, -1.0, 2.0];
        let y = s.spmv(&x);
        let xm = Matrix::from_vec(3, 1, x);
        let ym = s.spmm(&xm);
        for r in 0..3 {
            assert!((y[r] - ym[(r, 0)]).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let s = small();
        let tt = s.transpose().transpose();
        assert_eq!(s, tt);
        s.transpose()
            .to_dense()
            .assert_close(&s.to_dense().transpose(), 1e-6);
    }

    #[test]
    fn symmetry_detection() {
        let sym = Csr::from_coo(2, 2, vec![(0, 1, 2.0), (1, 0, 2.0), (0, 0, 1.0)]);
        assert!(sym.is_symmetric(1e-6));
        assert!(!small().is_symmetric(1e-6));
        assert!(!Csr::zeros(2, 3).is_symmetric(1e-6));
    }

    #[test]
    fn prune_drops_stored_zeros() {
        let s = Csr::from_coo(2, 2, vec![(0, 0, 1.0), (0, 1, -1.0), (0, 1, 1.0)]);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.prune().nnz(), 1);
    }

    #[test]
    fn empty_matrix_operations() {
        let s = Csr::zeros(3, 4);
        let x = Matrix::zeros(4, 2);
        assert_eq!(s.spmm(&x), Matrix::zeros(3, 2));
        assert_eq!(s.transpose().rows(), 4);
        s.validate().expect("valid empty");
    }

    #[test]
    fn spmm_with_zero_columns_yields_empty_result() {
        // Regression for the `n == 0` degenerate case of the old
        // `n.max(1)` chunking: must return a well-formed `rows × 0`
        // matrix, not panic or mis-chunk.
        let s = small();
        let x = Matrix::zeros(3, 0);
        let out = s.spmm(&x);
        assert_eq!(out.shape(), (3, 0));
        assert_eq!(s.spmm_ref(&x).shape(), (3, 0));
        let mut pre = Matrix::zeros(3, 0);
        s.spmm_into(&x, &mut pre);
        assert_eq!(pre.shape(), (3, 0));
    }

    #[test]
    fn spmm_into_overwrites_stale_contents() {
        let s = small();
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 - 5.0);
        let mut out = Matrix::from_fn(3, 4, |_, _| f32::NAN);
        s.spmm_into(&x, &mut out);
        let want = s.spmm_ref(&x);
        for (a, b) in out.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn spmm_t_into_overwrites_stale_contents() {
        let s = small();
        let g = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 - 5.0);
        let mut out = Matrix::from_fn(3, 4, |_, _| f32::NAN);
        s.spmm_t_into(&g, &mut out);
        assert_bits_eq(&out, &s.transpose().spmm_ref(&g));
    }

    /// The density cut-over most extraction tests use.
    const QUARTER: f64 = 0.25;

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn from_zero_heavy_round_trips_bitwise() {
        // 6 of 40 entries non-zero, including ±inf, a subnormal and a
        // negative value; rows 1 and 4 and columns 0, 5, 6, 7 are empty.
        let mut m = Matrix::zeros(5, 8);
        m[(0, 3)] = 1.5;
        m[(0, 4)] = -2.25;
        m[(2, 1)] = f32::INFINITY;
        m[(2, 2)] = f32::MIN_POSITIVE / 8.0;
        m[(3, 1)] = f32::NEG_INFINITY;
        m[(3, 4)] = 7.0;
        let s = Csr::from_zero_heavy(&m, QUARTER).expect("15 % dense");
        s.validate().expect("valid");
        assert_eq!(s.nnz(), 6);
        assert_eq!(s.row(0), (&[3u32, 4][..], &[1.5f32, -2.25][..]));
        assert_eq!(s.row_nnz(1), 0);
        assert_eq!(s.row_nnz(4), 0);
        assert_bits_eq(&s.to_dense(), &m);
    }

    #[test]
    fn from_zero_heavy_keeps_a_quarter_dense_matrix_dense() {
        let mut m = Matrix::zeros(4, 4);
        for i in 0..3 {
            m[(i, i)] = 1.0;
        }
        assert_eq!(Csr::from_zero_heavy(&m, QUARTER).map(|s| s.nnz()), Some(3));
        m[(3, 3)] = 1.0; // exactly ¼ non-zero: not zero-heavy
        assert!(Csr::from_zero_heavy(&m, QUARTER).is_none());
        assert!(Csr::from_zero_heavy(&Matrix::full(3, 3, 1.0), QUARTER).is_none());
    }

    #[test]
    fn from_zero_heavy_does_not_store_negative_zero() {
        let mut m = Matrix::zeros(3, 4);
        m[(0, 1)] = -0.0;
        m[(1, 2)] = -0.0;
        m[(2, 0)] = 0.5;
        let s = Csr::from_zero_heavy(&m, QUARTER).expect("zero-heavy");
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.row(2), (&[0u32][..], &[0.5f32][..]));
    }

    #[test]
    fn from_zero_heavy_handles_all_zero_and_empty_shapes() {
        let z = Csr::from_zero_heavy(&Matrix::zeros(6, 3), QUARTER).expect("all zero");
        assert_eq!(z, Csr::zeros(6, 3));
        // No entries at all: `0 < ¼·0` is false.
        assert!(Csr::from_zero_heavy(&Matrix::zeros(0, 5), QUARTER).is_none());
        assert!(Csr::from_zero_heavy(&Matrix::zeros(5, 0), QUARTER).is_none());
    }

    #[test]
    fn balanced_blocks_partition_and_balance() {
        // Power-law-ish degrees: one hub row, many light rows.
        let mut entries = Vec::new();
        for c in 0..200 {
            entries.push((0, c, 1.0)); // hub
        }
        for r in 1..50 {
            entries.push((r, r % 7, 1.0));
        }
        let s = Csr::from_coo(50, 200, entries);
        let target = 16;
        let blocks = s.balanced_row_blocks(target);
        // Contiguous cover of [0, rows).
        assert_eq!(blocks.first().expect("nonempty").0, 0);
        assert_eq!(blocks.last().expect("nonempty").1, 50);
        for w in blocks.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        for &(r0, r1) in &blocks {
            assert!(r1 > r0);
            let nnz: usize = (r0..r1).map(|r| s.row_nnz(r)).sum();
            // Every block is the *shortest* prefix reaching the target:
            // dropping its last row must fall below target (or the block
            // is the tail).
            if r1 < 50 {
                assert!(nnz >= target);
            }
            if r1 - r0 > 1 {
                let without_last: usize = (r0..r1 - 1).map(|r| s.row_nnz(r)).sum();
                assert!(without_last < target);
            }
        }
        // The hub row starts a block and is heavier than the target, so
        // it sits alone instead of dragging light rows into its task.
        assert_eq!(blocks[0], (0, 1));
    }

    /// Every row of a block-diagonal matrix is its part's row, shifted
    /// right past the earlier parts' columns; parts with no rows, no
    /// columns or no entries add exactly their shape.
    #[test]
    fn block_diag_rows_are_the_parts_rows_shifted() {
        let (a, b) = (small(), Csr::identity(2));
        let parts = [
            &Csr::zeros(0, 2),
            &a,
            &Csr::zeros(2, 0),
            &b,
            &Csr::zeros(1, 1),
        ];
        let d = Csr::block_diag(&parts);
        d.validate().expect("valid");
        assert_eq!((d.rows(), d.cols(), d.nnz()), (8, 8, a.nnz() + b.nnz()));
        let (mut row, mut col) = (0, 0);
        for p in parts {
            for r in 0..p.rows() {
                let (idx, vals) = p.row(r);
                let shifted: Vec<u32> = idx.iter().map(|&c| c + col as u32).collect();
                assert_eq!(d.row(row + r), (&shifted[..], vals));
            }
            (row, col) = (row + p.rows(), col + p.cols());
        }
        let empty = Csr::block_diag(&[]);
        empty.validate().expect("valid");
        assert_eq!((empty.rows(), empty.cols(), empty.nnz()), (0, 0, 0));
    }

    #[test]
    fn balanced_blocks_of_all_empty_rows_is_single_block() {
        let s = Csr::zeros(17, 5);
        assert_eq!(s.balanced_row_blocks(64), vec![(0, 17)]);
    }

    proptest! {
        #[test]
        fn prop_spmm_matches_dense(
            rows in 1usize..12, cols in 1usize..12, n in 1usize..6,
            entries in proptest::collection::vec((0usize..12, 0usize..12, -2.0f32..2.0), 0..40)
        ) {
            let entries: Vec<_> = entries
                .into_iter()
                .filter(|&(r, c, _)| r < rows && c < cols)
                .collect();
            let s = Csr::from_coo(rows, cols, entries);
            prop_assert!(s.validate().is_ok());
            let x = Matrix::from_fn(cols, n, |r, c| ((r * 3 + c * 7) % 5) as f32 - 2.0);
            let got = s.spmm(&x);
            let want = fedomd_tensor::gemm::matmul_naive(&s.to_dense(), &x);
            got.assert_close(&want, 1e-3);
        }

        /// The one-pass extraction keeps exactly the non-zeros, and only
        /// below the density cap it is given.
        #[test]
        fn prop_from_zero_heavy_is_the_nonzeros_below_the_cap(
            rows in 0usize..12, cols in 0usize..12,
            cells in proptest::collection::vec((0u32..100, -2.0f32..2.0), 144),
            pct in 0u32..80, half in 0u8..2,
        ) {
            let cap = if half == 1 { 0.5 } else { QUARTER };
            let m = Matrix::from_fn(rows, cols, |r, c| {
                let (roll, v) = cells[r * 12 + c];
                if roll < pct { v } else if roll % 2 == 0 { -0.0 } else { 0.0 }
            });
            let mut entries = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    if m[(r, c)] != 0.0 {
                        entries.push((r, c, m[(r, c)]));
                    }
                }
            }
            let zero_heavy = (entries.len() as f64) < cap * m.len() as f64;
            let want = zero_heavy.then(|| Csr::from_coo(rows, cols, entries));
            prop_assert_eq!(Csr::from_zero_heavy(&m, cap), want);
        }

        /// The scatter `Aᵀ·G` is `to_bits` equal to SpMM on the stored
        /// transpose and to the reference kernel on it: `A` with empty
        /// rows and columns and explicitly stored `±0.0`, `G` with NaN and
        /// ±inf, widths from 0 across the 16-column register chunk, and
        /// an output buffer full of stale NaNs. Where two different NaNs
        /// meet in an add (`0·inf` then a NaN of `G`), the register-blocked
        /// SpMM and the reference already return different ones, so
        /// against the reference a NaN only has to be a NaN.
        #[test]
        fn prop_spmm_t_into_is_the_transposed_spmm(
            rows in 0usize..40, cols in 1usize..24, n in 0usize..40,
            entries in proptest::collection::vec((0usize..40, 0usize..24, 0u8..4, -2.0f32..2.0), 0..240),
            empty in 0u8..2,
            specials in proptest::collection::vec((0usize..4096, 0u8..4), 0..4),
        ) {
            let entries: Vec<_> = entries
                .into_iter()
                .filter(|&(r, c, _, _)| r < rows && c < cols)
                .filter(|&(r, c, _, _)| empty == 0 || (r % 3 != 1 && c % 4 != 2))
                .map(|(r, c, kind, v)| match kind {
                    0 => (r, c, 0.0),
                    1 => (r, c, -0.0),
                    _ => (r, c, v),
                })
                .collect();
            let s = Csr::from_coo(rows, cols, entries);
            let mut g = Matrix::from_fn(rows, n, |r, c| ((r * 5 + c * 3) % 7) as f32 * 0.5 - 1.5);
            if rows * n > 0 {
                for (i, kind) in specials {
                    g.as_mut_slice()[i % (rows * n)] = match kind {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        _ => -0.0,
                    };
                }
            }
            let mut got = Matrix::from_fn(cols, n, |_, _| f32::NAN);
            s.spmm_t_into(&g, &mut got);
            let t = s.transpose();
            let (spmm, reference) = (t.spmm(&g), t.spmm_ref(&g));
            prop_assert_eq!(got.shape(), spmm.shape());
            prop_assert_eq!(got.shape(), reference.shape());
            for ((a, b), c) in got.as_slice().iter().zip(spmm.as_slice()).zip(reference.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
                prop_assert!(a.to_bits() == c.to_bits() || (a.is_nan() && c.is_nan()));
            }
        }

        #[test]
        fn prop_transpose_involution(
            entries in proptest::collection::vec((0usize..10, 0usize..10, -1.0f32..1.0), 0..30)
        ) {
            let s = Csr::from_coo(10, 10, entries);
            prop_assert_eq!(s.transpose().transpose(), s);
        }

        /// The tentpole invariant: nnz-balanced, register-blocked SpMM is
        /// bit-identical to the retained per-row reference, including
        /// empty rows and a NaN and an inf among the features. The stored
        /// values are non-zero and one column holds the only inf, so no
        /// output meets two different NaNs; where that can happen,
        /// `prop_spmm_matches_ref_up_to_which_nan` holds the contract.
        /// `n` up to 36 crosses the 16-column register chunk (full chunks,
        /// a ragged tail, and `n < SPMM_CHUNK` entirely-ragged shapes).
        #[test]
        fn prop_spmm_bitwise_matches_ref(
            rows in 1usize..60, cols in 1usize..20, n in 0usize..36,
            entries in proptest::collection::vec((0usize..60, 0usize..20, -2.0f32..2.0), 0..200),
            nonfinite in 0usize..3, target in 1usize..32,
        ) {
            let entries: Vec<_> = entries
                .into_iter()
                .filter(|&(r, c, _)| r < rows && c < cols)
                .collect();
            let s = Csr::from_coo(rows, cols, entries);
            let mut x = Matrix::from_fn(cols, n, |r, c| ((r * 3 + c * 7) % 5) as f32 - 2.0);
            let total = cols * n;
            for i in 0..nonfinite.min(total) {
                let idx = (i * 13 + 5) % total;
                x.as_mut_slice()[idx] = if i % 2 == 0 { f32::NAN } else { f32::INFINITY };
            }
            let got = s.spmm(&x);
            let want = s.spmm_ref(&x);
            prop_assert_eq!(got.shape(), want.shape());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            // The blocked kernel (which a one-thread pool skips) stays
            // bit-identical at every block granularity.
            if n > 0 {
                let mut blocked = Matrix::zeros(rows, n);
                s.spmm_blocked(&x, &mut blocked, target);
                for (a, b) in blocked.as_slice().iter().zip(want.as_slice()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            // The partition is a contiguous cover regardless of target.
            let blocks = s.balanced_row_blocks(target);
            prop_assert_eq!(blocks.iter().map(|&(r0, r1)| r1 - r0).sum::<usize>(), rows);
            for w in blocks.windows(2) {
                prop_assert_eq!(w[0].1, w[1].0);
            }
        }

        /// The contract where two different NaNs can meet: stored `±0.0`
        /// next to non-zeros, and NaN, ±inf and `-0.0` anywhere among the
        /// features, so `0·inf` or `inf - inf` meets a NaN feature in one
        /// output. Which NaN survives is unspecified; every element that
        /// is not NaN on both sides is `to_bits` equal, on the serial
        /// sweep and on the blocked kernel at every block granularity.
        #[test]
        fn prop_spmm_matches_ref_up_to_which_nan(
            rows in 1usize..30, cols in 1usize..12, n in 0usize..36,
            entries in proptest::collection::vec((0usize..30, 0usize..12, 0u8..4, -2.0f32..2.0), 0..120),
            specials in proptest::collection::vec((0usize..4096, 0u8..4), 0..8),
            target in 1usize..32,
        ) {
            let entries: Vec<_> = entries
                .into_iter()
                .filter(|&(r, c, _, _)| r < rows && c < cols)
                .map(|(r, c, kind, v)| match kind {
                    0 => (r, c, 0.0),
                    1 => (r, c, -0.0),
                    _ => (r, c, v),
                })
                .collect();
            let s = Csr::from_coo(rows, cols, entries);
            let mut x = Matrix::from_fn(cols, n, |r, c| ((r * 3 + c * 7) % 5) as f32 - 2.0);
            if n > 0 {
                for (i, kind) in specials {
                    x.as_mut_slice()[i % (cols * n)] = match kind {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        _ => -0.0,
                    };
                }
            }
            let want = s.spmm_ref(&x);
            let mut blocked = Matrix::zeros(rows, n);
            if n > 0 {
                s.spmm_blocked(&x, &mut blocked, target);
            }
            for got in [s.spmm(&x), blocked] {
                prop_assert_eq!(got.shape(), want.shape());
                for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                    prop_assert!(
                        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                        "{:#010x} vs {:#010x}", a.to_bits(), b.to_bits()
                    );
                }
            }
        }
    }

    /// Two different NaNs meeting in one output: a stored `0.0` times an
    /// infinite feature makes the default NaN (`0xFFC0_0000` on x86-64),
    /// and the next term brings a NaN feature (`f32::NAN`, `0x7FC0_0000`).
    /// At width 8 the register-blocked kernel keeps one and the reference
    /// the other on x86-64; each add's operand order is the compiler's, so
    /// the contract is only that both are NaN.
    #[test]
    fn two_nans_meeting_in_one_output_leave_either_nan() {
        let s = Csr::from_coo(1, 2, vec![(0, 0, 0.0), (0, 1, 1.0)]);
        let mut x = Matrix::zeros(2, 8);
        x.row_mut(0).fill(f32::INFINITY);
        x.row_mut(1).fill(f32::NAN);
        let (got, want) = (s.spmm(&x), s.spmm_ref(&x));
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!(a.is_nan() && b.is_nan(), "{a} vs {b}");
        }
    }
}
