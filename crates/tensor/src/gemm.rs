//! Cache-blocked, panel-packed dense matrix multiplication kernels.
//!
//! Three product shapes cover everything the forward and backward passes
//! need without ever materialising a transpose:
//!
//! * [`matmul`]      — `C = A · B`
//! * [`matmul_tn`]   — `C = Aᵀ · B` (weight gradients)
//! * [`matmul_nt`]   — `C = A · Bᵀ` (input gradients)
//!
//! # Kernel architecture
//!
//! All three shapes funnel into one BLIS-style blocked driver
//! ([`gemm_packed`]): the output is split into `MC`-row blocks
//! (parallelised with rayon), the summation dimension into `KC`-deep
//! panels, and the columns into `NC`-wide panels. Each task packs the
//! operands into thread-local scratch buffers — `A` micro-panels
//! interleaved `MR` rows at a time, `B` micro-panels `NR` columns at a
//! time — so the register-tiled microkernel reads both operands
//! contiguously regardless of the logical transpose. The packing buffers
//! live in `thread_local` storage and are reused across calls: steady
//! state does no allocation.
//!
//! The `MR × NR` microkernel keeps the whole output tile in registers
//! across a full `KC` sweep, eliminating the per-`k` store/reload of the
//! previous i-k-j kernels. When the CPU supports AVX2 a
//! runtime-dispatched copy of the *same* Rust code is compiled with
//! `#[target_feature(enable = "avx2")]`, doubling SIMD width over the
//! baseline x86-64 codegen.
//!
//! # Bit-for-bit determinism
//!
//! Checkpoint/golden tests pin training output at the bit level, so these
//! kernels must reproduce the previous implementation exactly:
//!
//! * Every output element is accumulated **k-sequentially in ascending
//!   order** — blocking over `KC` only partitions the sum, each partial
//!   continues on the stored running value, and edge tiles load the
//!   existing output into the register tile before accumulating.
//! * No `f32::mul_add`: rustc never contracts `a * b + c` into an FMA, and
//!   auto-vectorisation is lane-wise IEEE, so scalar, SSE2 and AVX2 paths
//!   all round identically.
//! * The old kernels skipped `a == 0` terms when `B` was entirely finite
//!   (guarded by an `O(kn)` scan). The packed kernels drop both the
//!   skip and the scan: with finite `B` each skipped term is `±0.0`, and a
//!   running sum that starts at `+0.0` can never become `-0.0` (IEEE
//!   round-to-nearest returns `+0.0` for `x + (-x)` and `+0.0 + -0.0`), so
//!   adding the term is bitwise invisible. With non-finite `B` the old
//!   kernels never skipped. Both cases therefore produce identical bits,
//!   NaN propagation included — and the pre-scan disappears from the
//!   dense hot path entirely.
//!
//! The same argument gives every kernel here one NaN contract. Each
//! output element sums the same terms in the same order, so the packed
//! kernels give the reference kernels' bits except in which NaN survives
//! where two different NaNs meet in one add (a `0 · inf` or `inf - inf`,
//! whose NaN has the sign bit set on x86-64, then a NaN operand): that
//! choice is the operand order the compiler gives each vectorised add,
//! and is unspecified. `prop_packed_bitwise_matches_ref` and
//! `prop_tn_direct_bitwise_matches_ref` assert `to_bits` equality unless
//! both sides are NaN; on finite operands
//! `prop_packed_bitwise_matches_ref_on_finite_operands` asserts it
//! strictly.
//!
//! # Zero-heavy left operands
//!
//! The dispatch looks at shapes only, never at the values: a product on a
//! zero-heavy operand runs through the packed kernel at full SIMD width,
//! zeros and all. Skipping zeros pays only for a left operand that stays
//! constant across training steps, and there it is decided once, at
//! set-up: `fedomd_nn` keeps such an operand as CSR when it is less than
//! `fedomd_nn::INPUT_CSR_MAX_DENSITY` non-zero (`Csr::from_zero_heavy`),
//! and the autograd tape runs the forward as SpMM and the weight gradient
//! as a scatter from the CSR rows. Both accumulate the stored terms in
//! ascending `k` from `+0.0`, so by the skip-invisibility argument above
//! they match these kernels bit for bit. The tape falls back to
//! [`matmul`] / [`matmul_tn`] on the densified operand exactly when a
//! skipped term would not be invisible: a non-finite right operand.
//!
//! The pre-PR4 kernels are additionally retained serially as
//! [`matmul_ref`] / [`matmul_tn_ref`] / [`matmul_nt_ref`]: they serve as
//! the oracle for the bit-identity proptests below and as the dispatch
//! target for tiny products where packing overhead dominates.

use crate::matrix::Matrix;
use rayon::prelude::*;
use std::cell::RefCell;

/// Microkernel register-tile height (output rows held in registers).
const MR: usize = 4;
/// Microkernel register-tile width (output columns held in registers).
/// `MR × NR` accumulators fill 8 YMM registers under AVX2.
const NR: usize = 16;
/// Output rows per parallel task / packed `A` block (multiple of `MR`).
const MC: usize = 128;
/// Summation depth per packed panel; `KC × MR` and `KC × NR` micro-panels
/// stay L1-resident.
const KC: usize = 256;
/// Output columns per packed `B` panel (multiple of `NR`).
const NC: usize = 512;
/// Products with `m·k·n` at or below this run on the serial reference
/// kernels: packing setup would cost more than it saves.
const SMALL_FLOPS: usize = 32 * 32 * 32;
thread_local! {
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// A strided read-only view of an operand, so one packing routine serves
/// plain, transposed-left and transposed-right products.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

/// Packs `mc` rows × `kc` cols of `a` (from `(i0, p0)`) into MR-interleaved
/// micro-panels: element `(ir·MR + r, kk)` lands at `ir·kc·MR + kk·MR + r`.
/// Rows past `mc` are zero-padded so the microkernel never branches.
///
/// The two loop orders below read the source contiguously for row-major
/// (`cs == 1`) and transposed (`rs == 1`) views respectively; they fill
/// identical bytes, only the memory access order differs.
fn pack_a(a: View<'_>, i0: usize, mc: usize, p0: usize, kc: usize, buf: &mut Vec<f32>) {
    let panels = mc.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kc * MR, 0.0);
    if a.cs == 1 {
        for ir in 0..panels {
            let rows = MR.min(mc - ir * MR);
            let base = ir * kc * MR;
            for r in 0..rows {
                let src = &a.data[(i0 + ir * MR + r) * a.rs + p0..];
                for kk in 0..kc {
                    buf[base + kk * MR + r] = src[kk];
                }
            }
        }
    } else {
        // Transposed source: each logical column (p0 + kk) is a contiguous
        // run of the underlying row-major data, so sweep it once and
        // scatter into the (L2-resident) panel buffer.
        for kk in 0..kc {
            let src = &a.data[(p0 + kk) * a.cs + i0..];
            for ir in 0..panels {
                let rows = MR.min(mc - ir * MR);
                let base = ir * kc * MR + kk * MR;
                for r in 0..rows {
                    buf[base + r] = src[ir * MR + r];
                }
            }
        }
    }
}

/// Packs `kc` rows × `nc` cols of `b` (from `(p0, j0)`) into NR-interleaved
/// micro-panels: element `(kk, jr·NR + j)` lands at `jr·kc·NR + kk·NR + j`.
/// Columns past `nc` are zero-padded. Loop orders mirror [`pack_a`].
fn pack_b(b: View<'_>, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut Vec<f32>) {
    let panels = nc.div_ceil(NR);
    buf.clear();
    buf.resize(panels * kc * NR, 0.0);
    if b.cs == 1 {
        for jr in 0..panels {
            let cols = NR.min(nc - jr * NR);
            let base = jr * kc * NR;
            for kk in 0..kc {
                let src = &b.data[(p0 + kk) * b.rs + j0 + jr * NR..];
                for j in 0..cols {
                    buf[base + kk * NR + j] = src[j];
                }
            }
        }
    } else {
        // Transposed source: logical column (j0 + …) is contiguous.
        for jr in 0..panels {
            let cols = NR.min(nc - jr * NR);
            let base = jr * kc * NR;
            for j in 0..cols {
                let src = &b.data[(j0 + jr * NR + j) * b.cs + p0..];
                for kk in 0..kc {
                    buf[base + kk * NR + j] = src[kk];
                }
            }
        }
    }
}

/// The register-tiled inner kernel: loads the `MR × NR` output tile,
/// accumulates `kc` rank-1 updates in ascending `k` order, stores it back.
/// Plain `mul` + `add` only — see the module docs on determinism.
#[inline(always)]
fn microkernel_body(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
    }
    for kk in 0..kc {
        let av = &a[kk * MR..kk * MR + MR];
        let bv = &b[kk * NR..kk * NR + NR];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = av[r];
            for (j, accv) in acc_row.iter_mut().enumerate() {
                *accv += ar * bv[j];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + NR].copy_from_slice(acc_row);
    }
}

/// Baseline-ISA instantiation of the microkernel.
fn microkernel_generic(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    microkernel_body(kc, a, b, c, ldc);
}

/// AVX2 instantiation: identical Rust code, wider auto-vectorisation.
/// Lane-wise IEEE arithmetic without contraction keeps it bit-identical
/// to [`microkernel_generic`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn microkernel_avx2(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    microkernel_body(kc, a, b, c, ldc);
}

#[inline(always)]
#[allow(unsafe_code, reason = "AVX2 dispatch after runtime detection")]
fn run_microkernel(avx2: bool, kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when `is_x86_feature_detected!`
        // confirmed support in `gemm_packed`.
        unsafe { microkernel_avx2(kc, a, b, c, ldc) };
        return;
    }
    let _ = avx2;
    microkernel_generic(kc, a, b, c, ldc);
}

/// Direct-A microkernel: reads `MRE` rows of a row-major `A` straight from
/// the source (`a[r·lda..]` contiguous in `k`) instead of a packed panel.
/// Used when the `B` panel is a single micro-panel wide, where a packed
/// `A` panel would be written and read exactly once — pure overhead.
/// The accumulation sequence per output element is identical to
/// [`microkernel_body`].
#[inline(always)]
fn microkernel_direct_body<const MRE: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MRE];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
    }
    for kk in 0..kc {
        let bv = &b[kk * NR..kk * NR + NR];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = a[r * lda + kk];
            for (j, accv) in acc_row.iter_mut().enumerate() {
                *accv += ar * bv[j];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + NR].copy_from_slice(acc_row);
    }
}

/// AVX2 instantiation of the direct-A microkernel (see
/// [`microkernel_avx2`] for the bit-identity argument).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn microkernel_direct_avx2<const MRE: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    microkernel_direct_body::<MRE>(kc, a, lda, b, c, ldc);
}

#[inline(always)]
#[allow(unsafe_code, reason = "AVX2 dispatch after runtime detection")]
fn run_microkernel_direct<const MRE: usize>(
    avx2: bool,
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when `is_x86_feature_detected!`
        // confirmed support in `gemm_packed`.
        unsafe { microkernel_direct_avx2::<MRE>(kc, a, lda, b, c, ldc) };
        return;
    }
    let _ = avx2;
    microkernel_direct_body::<MRE>(kc, a, lda, b, c, ldc);
}

/// Direct-A tile runner: dispatches `mr_eff` to a monomorphised
/// microkernel (the match arms must cover `1..=MR`) and stages through a
/// scratch tile when the column edge is ragged.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn run_tile_direct(
    avx2: bool,
    kc: usize,
    a: &[f32],
    lda: usize,
    mr_eff: usize,
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    nr_eff: usize,
) {
    let dispatch = |c: &mut [f32], ldc: usize| match mr_eff {
        4 => run_microkernel_direct::<4>(avx2, kc, a, lda, b_panel, c, ldc),
        3 => run_microkernel_direct::<3>(avx2, kc, a, lda, b_panel, c, ldc),
        2 => run_microkernel_direct::<2>(avx2, kc, a, lda, b_panel, c, ldc),
        1 => run_microkernel_direct::<1>(avx2, kc, a, lda, b_panel, c, ldc),
        #[expect(
            clippy::unreachable,
            reason = "mr_eff = min(MR - i, MR) with MR = 4: the dispatch above is \
                      exhaustive for every reachable value"
        )]
        _ => unreachable!("mr_eff bounded by MR"),
    };
    if nr_eff == NR {
        dispatch(c, ldc);
    } else {
        let mut tile = [0.0f32; MR * NR];
        for r in 0..mr_eff {
            for j in 0..nr_eff {
                tile[r * NR + j] = c[r * ldc + j];
            }
        }
        dispatch(&mut tile, NR);
        for r in 0..mr_eff {
            for j in 0..nr_eff {
                c[r * ldc + j] = tile[r * NR + j];
            }
        }
    }
}

/// Runs one `mr_eff × nr_eff` output tile. Full tiles accumulate straight
/// into `c`; edge tiles stage through an on-stack scratch tile that is
/// *loaded from* `c` first, so partial sums keep accumulating in place and
/// the addition sequence per element is unchanged.
#[inline(always)]
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
fn run_tile(
    avx2: bool,
    kc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    if mr_eff == MR && nr_eff == NR {
        run_microkernel(avx2, kc, a_panel, b_panel, c, ldc);
    } else {
        let mut tile = [0.0f32; MR * NR];
        for r in 0..mr_eff {
            for j in 0..nr_eff {
                tile[r * NR + j] = c[r * ldc + j];
            }
        }
        run_microkernel(avx2, kc, a_panel, b_panel, &mut tile, NR);
        for r in 0..mr_eff {
            for j in 0..nr_eff {
                c[r * ldc + j] = tile[r * NR + j];
            }
        }
    }
}

/// Blocked, packed driver: `c += a · b` on an `m × n` output with
/// summation depth `kdim`, where `c` starts zeroed (or holds a partial
/// result with the same accumulation history as the reference kernels).
fn gemm_packed(m: usize, n: usize, kdim: usize, a: View<'_>, b: View<'_>, c: &mut [f32]) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;

    // With at most one B micro-panel per KC block, a packed A panel would
    // be written and read exactly once; read A in place instead (only
    // possible when its rows are contiguous).
    let direct_a = a.cs == 1 && n <= NR;

    c.par_chunks_mut(MC * n)
        .enumerate()
        .for_each(|(blk, c_chunk)| {
            let i0 = blk * MC;
            let mc = c_chunk.len() / n;
            PACK_A.with(|pa_cell| {
                PACK_B.with(|pb_cell| {
                    let pa = &mut *pa_cell.borrow_mut();
                    let pb = &mut *pb_cell.borrow_mut();
                    for p0 in (0..kdim).step_by(KC) {
                        let kc = KC.min(kdim - p0);
                        if !direct_a {
                            pack_a(a, i0, mc, p0, kc, pa);
                        }
                        for j0 in (0..n).step_by(NC) {
                            let nc = NC.min(n - j0);
                            pack_b(b, p0, kc, j0, nc, pb);
                            for jr in 0..nc.div_ceil(NR) {
                                let nr_eff = NR.min(nc - jr * NR);
                                let b_panel = &pb[jr * kc * NR..(jr + 1) * kc * NR];
                                for ir in 0..mc.div_ceil(MR) {
                                    let mr_eff = MR.min(mc - ir * MR);
                                    let c_off = ir * MR * n + j0 + jr * NR;
                                    if direct_a {
                                        let a_sub = &a.data[(i0 + ir * MR) * a.rs + p0..];
                                        run_tile_direct(
                                            avx2,
                                            kc,
                                            a_sub,
                                            a.rs,
                                            mr_eff,
                                            b_panel,
                                            &mut c_chunk[c_off..],
                                            n,
                                            nr_eff,
                                        );
                                    } else {
                                        let a_panel = &pa[ir * kc * MR..(ir + 1) * kc * MR];
                                        run_tile(
                                            avx2,
                                            kc,
                                            a_panel,
                                            b_panel,
                                            &mut c_chunk[c_off..],
                                            n,
                                            mr_eff,
                                            nr_eff,
                                        );
                                    }
                                }
                            }
                        }
                    }
                })
            });
        });
}

// `run_tile_direct`'s monomorphised dispatch enumerates 1..=MR.
const _: () = assert!(MR == 4, "update run_tile_direct's dispatch arms with MR");

/// Output rows (= `A` columns) per task of the tall-skinny tn path. At
/// 128 a stripe reads 512 contiguous bytes per `A` storage row — whole
/// cache lines, unlike an MR-wide tile whose 16-byte strided reads waste
/// 3/4 of every line fetched — and its `NR`-padded accumulator block is
/// 8 KiB, small enough to live in L1 for the whole sweep.
const TN_STRIPE: usize = 128;

/// Inner kernel of the tall-skinny `C = Aᵀ·B` path (`n ≤ NR`): one
/// stripe of `we ≤ TN_STRIPE` output rows (= `A` columns `i0..i0+we`)
/// accumulated over all `m` summation rows in ascending order against a
/// single NR-padded packed `B` panel. The per-element sequence is the
/// always-add variant of [`gemm_tn_ref`]'s — identical bits by the
/// skip-invisibility argument in the module docs. Padded columns
/// (`j ≥ n`) accumulate into lanes that are never stored.
#[inline(always)]
fn tn_stripe_body(
    a_data: &[f32],
    k: usize,
    m: usize,
    i0: usize,
    bp: &[f32],
    n: usize,
    tile: &mut [f32],
) {
    let we = tile.len() / n;
    let mut acc = [[0.0f32; NR]; TN_STRIPE];
    for l in 0..m {
        let av = &a_data[l * k + i0..l * k + i0 + we];
        let bv = &bp[l * NR..(l + 1) * NR];
        for (acc_row, &ar) in acc[..we].iter_mut().zip(av) {
            for (accv, &b) in acc_row.iter_mut().zip(bv) {
                *accv += ar * b;
            }
        }
    }
    for (r, acc_row) in acc[..we].iter().enumerate() {
        tile[r * n..(r + 1) * n].copy_from_slice(&acc_row[..n]);
    }
}

/// Baseline-ISA instantiation of the tall-skinny tn kernel.
fn tn_stripe_generic(
    a_data: &[f32],
    k: usize,
    m: usize,
    i0: usize,
    bp: &[f32],
    n: usize,
    tile: &mut [f32],
) {
    tn_stripe_body(a_data, k, m, i0, bp, n, tile);
}

/// AVX2 instantiation: identical Rust code, wider auto-vectorisation.
/// Lane-wise IEEE arithmetic without contraction keeps it bit-identical
/// to [`tn_stripe_generic`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tn_stripe_avx2(
    a_data: &[f32],
    k: usize,
    m: usize,
    i0: usize,
    bp: &[f32],
    n: usize,
    tile: &mut [f32],
) {
    tn_stripe_body(a_data, k, m, i0, bp, n, tile);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code, reason = "AVX2 dispatch after runtime detection")]
fn run_tn_stripe(
    avx2: bool,
    a_data: &[f32],
    k: usize,
    m: usize,
    i0: usize,
    bp: &[f32],
    n: usize,
    tile: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when `is_x86_feature_detected!`
        // confirmed support in `gemm_tn_direct`.
        unsafe { tn_stripe_avx2(a_data, k, m, i0, bp, n, tile) };
        return;
    }
    let _ = avx2;
    tn_stripe_generic(a_data, k, m, i0, bp, n, tile);
}

/// Tall-skinny `C = Aᵀ·B` driver for `n ≤ NR` (e.g. the
/// `2708×1433 · 2708×16` weight gradient of a 16-unit hidden layer).
///
/// The packed path is a bad fit here twice over: with at most one `B`
/// micro-panel, every packed `A` panel is written and read exactly once
/// (pure packing overhead), and the tn `View` has strided logical rows
/// (`cs = k`) so `gemm_packed`'s direct-A shortcut can never fire.
/// Instead `B` is packed once into a single `m × NR` zero-padded panel
/// and `A`'s storage is streamed in place, one `TN_STRIPE`-column stripe
/// at a time — each stripe reads its columns contiguously from every
/// row, sequentially down the matrix, so `A` is fetched exactly once in
/// whole cache lines. `c` must be zeroed on entry; results are
/// bit-identical to [`gemm_tn_ref`] (pinned by
/// `prop_tn_direct_bitwise_matches_ref`).
fn gemm_tn_direct(a_data: &[f32], b_data: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    debug_assert!(n <= NR && n > 0);
    debug_assert_eq!(c.len(), k * n);
    if m == 0 || k == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;

    // Pack B once: storage row l lands at bp[l·NR..l·NR+n], the padded
    // columns stay zero (their accumulator lanes are never stored).
    let mut bp = vec![0.0f32; m * NR];
    for (l, row) in b_data.chunks(n).enumerate() {
        bp[l * NR..l * NR + n].copy_from_slice(row);
    }

    c.par_chunks_mut(TN_STRIPE * n)
        .enumerate()
        .for_each(|(blk, tile)| {
            let i0 = blk * TN_STRIPE;
            run_tn_stripe(avx2, a_data, k, m, i0, &bp, n, tile);
        });
}

/// `C = A · B` where `A` is `m x k` and `B` is `k x n`.
///
/// # Panics
/// Panics when the inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_body(a, b, &mut c);
    c
}

/// [`matmul`] into a caller-provided output (overwritten, any prior
/// contents ignored). Lets the autograd workspace recycle buffers.
///
/// # Panics
/// Panics when the inner dimensions or the output shape disagree.
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    c.as_mut_slice().fill(0.0);
    matmul_body(a, b, c);
}

/// Accumulating driver shared by [`matmul`] / [`matmul_into`]; `c` must be
/// zeroed on entry.
fn matmul_body(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions disagree ({}x{} · {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(c.shape(), (m, n), "matmul_into: output shape mismatch");
    if m * k * n <= SMALL_FLOPS {
        gemm_nn_ref(a.as_slice(), b.as_slice(), m, k, n, c.as_mut_slice());
    } else {
        let av = View {
            data: a.as_slice(),
            rs: k,
            cs: 1,
        };
        let bv = View {
            data: b.as_slice(),
            rs: n,
            cs: 1,
        };
        gemm_packed(m, n, k, av, bv, c.as_mut_slice());
    }
}

/// `C = Aᵀ · B` where `A` is `m x k` and `B` is `m x n`; the result is `k x n`.
///
/// Used for weight gradients (`∂L/∂W = Xᵀ · ∂L/∂Y`).
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    matmul_tn_body(a, b, &mut c);
    c
}

/// [`matmul_tn`] into a caller-provided output (overwritten).
pub fn matmul_tn_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    c.as_mut_slice().fill(0.0);
    matmul_tn_body(a, b, c);
}

fn matmul_tn_body(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: row counts disagree ({}x{} vs {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(c.shape(), (k, n), "matmul_tn_into: output shape mismatch");
    if m * k * n <= SMALL_FLOPS {
        gemm_tn_ref(a.as_slice(), b.as_slice(), m, k, n, c.as_mut_slice());
    } else if n <= NR {
        // Tall-skinny outputs (narrow B) skip the packing machinery
        // entirely — see `gemm_tn_direct`.
        gemm_tn_direct(a.as_slice(), b.as_slice(), m, k, n, c.as_mut_slice());
    } else {
        // Logical left operand is Aᵀ (`k × m`): element (i, l) = A[l, i].
        let av = View {
            data: a.as_slice(),
            rs: 1,
            cs: k,
        };
        let bv = View {
            data: b.as_slice(),
            rs: n,
            cs: 1,
        };
        gemm_packed(k, n, m, av, bv, c.as_mut_slice());
    }
}

/// `C = A · Bᵀ` where `A` is `m x k` and `B` is `n x k`; the result is `m x n`.
///
/// Used for input gradients (`∂L/∂X = ∂L/∂Y · Wᵀ`).
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    matmul_nt_body(a, b, &mut c);
    c
}

/// [`matmul_nt`] into a caller-provided output (overwritten).
pub fn matmul_nt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    c.as_mut_slice().fill(0.0);
    matmul_nt_body(a, b, c);
}

fn matmul_nt_body(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: column counts disagree ({}x{} vs {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k) = a.shape();
    let n = b.rows();
    assert_eq!(c.shape(), (m, n), "matmul_nt_into: output shape mismatch");
    if m * k * n <= SMALL_FLOPS {
        gemm_nt_ref(a.as_slice(), b.as_slice(), m, k, n, c.as_mut_slice());
    } else {
        let av = View {
            data: a.as_slice(),
            rs: k,
            cs: 1,
        };
        // Logical right operand is Bᵀ (`k × n`): element (l, j) = B[j, l].
        let bv = View {
            data: b.as_slice(),
            rs: 1,
            cs: k,
        };
        gemm_packed(m, n, k, av, bv, c.as_mut_slice());
    }
}

// ---------------------------------------------------------------------------
// Reference kernels: the pre-PR4 implementations, kept serial and verbatim.
// They are the bit-level oracle for the packed kernels and the dispatch
// target for tiny shapes.
// ---------------------------------------------------------------------------

fn gemm_nn_ref(a_data: &[f32], b_data: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    // The `aik == 0` fast path silently turns `0·NaN` / `0·∞` into `0`.
    // IEEE semantics only permit the skip when B is free of non-finite
    // values, hence the scan.
    let b_finite = b_data.iter().all(|v| v.is_finite());
    for i in 0..m {
        let a_row = &a_data[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 && b_finite {
                continue;
            }
            let b_row = &b_data[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += aik * bv;
            }
        }
    }
}

fn gemm_tn_ref(a_data: &[f32], b_data: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    let b_finite = b_data.iter().all(|v| v.is_finite());
    for row in 0..m {
        let a_row = &a_data[row * k..(row + 1) * k];
        let b_row = &b_data[row * n..(row + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 && b_finite {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

fn gemm_nt_ref(a_data: &[f32], b_data: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    for i in 0..m {
        let a_row = &a_data[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b_data[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *cv += acc;
        }
    }
}

/// Serial reference `C = A · B` with the original zero-skip/`b_finite`
/// semantics. Oracle for bit-identity tests.
pub fn matmul_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul_ref: inner dimensions disagree");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    gemm_nn_ref(a.as_slice(), b.as_slice(), m, k, n, c.as_mut_slice());
    c
}

/// Serial reference `C = Aᵀ · B`. Oracle for bit-identity tests.
pub fn matmul_tn_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn_ref: row counts disagree");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(k, n);
    gemm_tn_ref(a.as_slice(), b.as_slice(), m, k, n, c.as_mut_slice());
    c
}

/// Serial reference `C = A · Bᵀ`. Oracle for bit-identity tests.
pub fn matmul_nt_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt_ref: column counts disagree");
    let (m, k) = a.shape();
    let n = b.rows();
    let mut c = Matrix::zeros(m, n);
    gemm_nt_ref(a.as_slice(), b.as_slice(), m, k, n, c.as_mut_slice());
    c
}

/// Reference scalar implementation used by tests and property checks.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc += a[(i, kk)] as f64 * b[(kk, j)] as f64;
            }
            c[(i, j)] = acc as f32;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % 2000) as f32 - 1000.0) / 500.0
        })
    }

    /// Forces the packed path regardless of the small-shape cutoff.
    fn packed_nn(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        let av = View {
            data: a.as_slice(),
            rs: k,
            cs: 1,
        };
        let bv = View {
            data: b.as_slice(),
            rs: n,
            cs: 1,
        };
        gemm_packed(m, n, k, av, bv, c.as_mut_slice());
        c
    }

    fn packed_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Matrix::zeros(k, n);
        let av = View {
            data: a.as_slice(),
            rs: 1,
            cs: k,
        };
        let bv = View {
            data: b.as_slice(),
            rs: n,
            cs: 1,
        };
        gemm_packed(k, n, m, av, bv, c.as_mut_slice());
        c
    }

    fn packed_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = b.rows();
        let mut c = Matrix::zeros(m, n);
        let av = View {
            data: a.as_slice(),
            rs: k,
            cs: 1,
        };
        let bv = View {
            data: b.as_slice(),
            rs: 1,
            cs: k,
        };
        gemm_packed(m, n, k, av, bv, c.as_mut_slice());
        c
    }

    /// Exact bitwise equality, NaN patterns included.
    fn assert_bits_eq(c: &Matrix, r: &Matrix) {
        assert_eq!(c.shape(), r.shape());
        for (i, (&cv, &rv)) in c.as_slice().iter().zip(r.as_slice()).enumerate() {
            assert_eq!(cv.to_bits(), rv.to_bits(), "element {i}: {cv:?} vs {rv:?}");
        }
    }

    /// `to_bits` equality as a property failure (so the draw is printed),
    /// except that where `nan_may_differ` both sides being NaN is enough:
    /// which NaN survives where two different NaNs meet is unspecified
    /// (module docs).
    fn check_bits(c: &Matrix, r: &Matrix, nan_may_differ: bool) -> Result<(), TestCaseError> {
        prop_assert_eq!(c.shape(), r.shape());
        for (i, (&cv, &rv)) in c.as_slice().iter().zip(r.as_slice()).enumerate() {
            if !(nan_may_differ && cv.is_nan() && rv.is_nan()) {
                prop_assert_eq!(
                    cv.to_bits(),
                    rv.to_bits(),
                    "element {}: {:?} vs {:?}",
                    i,
                    cv,
                    rv
                );
            }
        }
        Ok(())
    }

    #[test]
    fn matmul_matches_naive() {
        let a = mat(17, 23, 1);
        let b = mat(23, 9, 2);
        matmul(&a, &b).assert_close(&matmul_naive(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = mat(8, 8, 3);
        matmul(&a, &Matrix::identity(8)).assert_close(&a, 1e-6);
        matmul(&Matrix::identity(8), &a).assert_close(&a, 1e-6);
    }

    #[test]
    fn matmul_tn_equals_transpose_then_mul() {
        let a = mat(19, 7, 4);
        let b = mat(19, 11, 5);
        matmul_tn(&a, &b).assert_close(&matmul_naive(&a.transpose(), &b), 1e-4);
    }

    #[test]
    fn matmul_tn_tall_skinny_dispatch_is_bit_identical() {
        // Large enough to clear SMALL_FLOPS, with n ≤ NR: dispatches to
        // `gemm_tn_direct` through the public entry point (the 2708×1433×16 bench shape in
        // miniature, crossing the MR tile edge with k = 521).
        let a = mat(300, 521, 40);
        let b = mat(300, 16, 41);
        assert_bits_eq(&matmul_tn(&a, &b), &matmul_tn_ref(&a, &b));
        // Ragged n below NR too.
        let b7 = mat(300, 7, 42);
        assert_bits_eq(&matmul_tn(&a, &b7), &matmul_tn_ref(&a, &b7));
    }

    #[test]
    fn matmul_nt_equals_mul_with_transpose() {
        let a = mat(13, 21, 6);
        let b = mat(10, 21, 7);
        matmul_nt(&a, &b).assert_close(&matmul_naive(&a, &b.transpose()), 1e-4);
    }

    #[test]
    fn large_block_boundary_shapes() {
        // Cross the MR/NR/MC boundaries on every dimension.
        let a = mat(65, 33, 8);
        let b = mat(33, 34, 9);
        matmul(&a, &b).assert_close(&matmul_naive(&a, &b), 1e-3);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn matmul_rejects_mismatched_shapes() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn zero_dimension_edge_cases() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        assert_eq!(matmul(&a, &b).shape(), (0, 4));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_times_nonfinite_is_nan_not_zero() {
        // Regression: the `aik == 0` fast path used to skip the product
        // entirely, reporting 0 where IEEE arithmetic says 0·NaN = NaN.
        let zero = Matrix::from_fn(1, 1, |_, _| 0.0);
        let nan = Matrix::from_fn(1, 1, |_, _| f32::NAN);
        let inf = Matrix::from_fn(1, 1, |_, _| f32::INFINITY);
        assert!(matmul(&zero, &nan)[(0, 0)].is_nan());
        assert!(matmul(&zero, &inf)[(0, 0)].is_nan());
        assert!(matmul_tn(&zero, &nan)[(0, 0)].is_nan());
        assert!(matmul_tn(&zero, &inf)[(0, 0)].is_nan());
        assert!(matmul_nt(&zero, &nan)[(0, 0)].is_nan());
    }

    #[test]
    fn finite_b_keeps_the_zero_skip_exact() {
        // A fully zero A row yields an exactly zero C row, never -0.0
        // noise — on both the reference and the packed path.
        let mut a = mat(4, 6, 11);
        for j in 0..6 {
            a[(2, j)] = 0.0;
        }
        let b = mat(6, 5, 12);
        for c in [matmul(&a, &b), packed_nn(&a, &b)] {
            for j in 0..5 {
                assert_eq!(c[(2, j)].to_bits(), 0.0f32.to_bits());
            }
        }
    }

    #[test]
    fn packed_bitwise_matches_ref_on_ragged_large_shapes() {
        // Cross every blocking boundary: MR=4, NR=16, MC=128, KC=256.
        for &(m, k, n) in &[
            (129usize, 300usize, 17usize),
            (257, 70, 33),
            (130, 260, 15),
            (4, 513, 16),
            (541, 97, 3),
        ] {
            let a = mat(m, k, m as u64 * 31 + n as u64);
            let b = mat(k, n, k as u64 * 17 + 5);
            assert_bits_eq(&packed_nn(&a, &b), &matmul_ref(&a, &b));

            let a_tn = mat(m, k, 77);
            let b_tn = mat(m, n, 78);
            assert_bits_eq(&packed_tn(&a_tn, &b_tn), &matmul_tn_ref(&a_tn, &b_tn));

            let b_nt = mat(n, k, 79);
            assert_bits_eq(&packed_nt(&a, &b_nt), &matmul_nt_ref(&a, &b_nt));
        }
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        let a = mat(37, 41, 21);
        let b = mat(41, 19, 22);
        let mut c = Matrix::from_fn(37, 19, |_, _| f32::NAN);
        matmul_into(&a, &b, &mut c);
        assert_bits_eq(&c, &matmul(&a, &b));

        let g = mat(37, 19, 23);
        let mut dw = Matrix::from_fn(41, 19, |_, _| 123.0);
        matmul_tn_into(&a, &g, &mut dw);
        assert_bits_eq(&dw, &matmul_tn(&a, &g));

        let mut dx = Matrix::from_fn(37, 41, |_, _| -7.5);
        matmul_nt_into(&g, &b, &mut dx);
        assert_bits_eq(&dx, &matmul_nt(&g, &b));
    }

    /// Zeroes all but `keep` of every `span` entries: a zero-heavy operand
    /// like a bag-of-words feature matrix.
    fn sparsify(m: &mut Matrix, keep: usize, span: usize) {
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            if i % span >= keep {
                *v = 0.0;
            }
        }
    }

    #[test]
    fn zero_heavy_operands_match_the_skip_ref_bitwise() {
        // Large enough to clear SMALL_FLOPS, left operand ~6 % non-zero:
        // the packed kernels add every `0 · b` term the reference kernels
        // skip, and must not change a bit (wide and narrow `tn` both).
        let mut a = mat(130, 70, 51);
        sparsify(&mut a, 1, 16);
        let b = mat(70, 40, 52);
        assert_bits_eq(&matmul(&a, &b), &matmul_ref(&a, &b));

        let b_tn = mat(130, 40, 53);
        assert_bits_eq(&matmul_tn(&a, &b_tn), &matmul_tn_ref(&a, &b_tn));
        let b_narrow = mat(130, 16, 59);
        assert_bits_eq(&matmul_tn(&a, &b_narrow), &matmul_tn_ref(&a, &b_narrow));
    }

    #[test]
    fn zero_heavy_operands_keep_nonfinite_b_semantics() {
        // With NaN/∞ in B nothing may be skipped: 0·NaN = NaN wherever
        // the reference has a NaN. Which NaN survives where a `0 · inf`
        // meets a NaN of B is unspecified (module docs).
        let mut a = mat(130, 70, 54);
        sparsify(&mut a, 1, 16);
        let mut b = mat(70, 40, 55);
        inject_nonfinite(&mut b, 56, 3);
        let want = matmul_ref(&a, &b);
        assert!(want.as_slice().iter().any(|v| v.is_nan()));
        check_bits(&matmul(&a, &b), &want, true).expect("nn");

        let mut b_tn = mat(130, 40, 57);
        inject_nonfinite(&mut b_tn, 58, 3);
        let want = matmul_tn_ref(&a, &b_tn);
        assert!(want.as_slice().iter().any(|v| v.is_nan()));
        check_bits(&matmul_tn(&a, &b_tn), &want, true).expect("tn");
    }

    /// The first failing draws of `prop_packed_bitwise_matches_ref` and
    /// `prop_tn_direct_bitwise_matches_ref` under a strict `to_bits`
    /// assertion. In the direct `tn` draw, output (12, 0) sums
    /// `a[7, 12] · b[7, 0] = 0 · inf` (a NaN with the sign bit set on
    /// x86-64) and then `a[11, 12] = NaN` (sign bit clear) times a finite
    /// value; on x86-64 the reference keeps the first NaN and the direct
    /// kernel the second. In the `nt` draw, an all-zero row of `A` meets
    /// an inf and a NaN of `B` in output 3. Both sides are NaN; which NaN
    /// survives is unspecified.
    #[test]
    fn two_nans_meeting_in_one_output_leave_either_nan() {
        let nan_both = |c: &Matrix, r: &Matrix, i: usize| {
            assert!(c.as_slice()[i].is_nan() && r.as_slice()[i].is_nan());
            check_bits(c, r, true).expect("equal bits or NaN on both sides");
        };
        // prop_packed_bitwise_matches_ref: m = 1, k = 16, n = 4, seed = 412,
        // inj_a = inj_b = 2, zr = 2.
        let mut a = mat(1, 16, 412);
        inject_nonfinite(&mut a, 414, 2);
        zero_rows(&mut a, 416, 2);
        let mut b_nt = mat(4, 16, 421);
        inject_nonfinite(&mut b_nt, 422, 2);
        nan_both(&packed_nt(&a, &b_nt), &matmul_nt_ref(&a, &b_nt), 3);

        // prop_tn_direct_bitwise_matches_ref: m = 17, k = 28, n = 8,
        // seed = 358, inj_a = 1, inj_b = 2, zr = 2.
        let mut a = mat(17, 28, 358);
        let mut b = mat(17, 8, 359);
        inject_nonfinite(&mut a, 360, 1);
        inject_nonfinite(&mut b, 361, 2);
        zero_rows(&mut a, 362, 2);
        assert_eq!(a[(7, 12)], 0.0);
        assert_eq!(b[(7, 0)], f32::INFINITY);
        assert!(a[(11, 12)].is_nan());
        let mut c = Matrix::zeros(28, 8);
        gemm_tn_direct(a.as_slice(), b.as_slice(), 17, 28, 8, c.as_mut_slice());
        nan_both(&c, &matmul_tn_ref(&a, &b), 12 * 8);
    }

    #[test]
    fn packed_paper_scale_shape_matches_ref() {
        // A scaled-down version of the paper-scale 2708×1433×16 product
        // that still spans multiple MC and KC blocks.
        let a = mat(300, 520, 41);
        let b = mat(520, 16, 42);
        assert_bits_eq(&packed_nn(&a, &b), &matmul_ref(&a, &b));
    }

    /// Elementwise comparison that treats non-finite values by class:
    /// NaN matches NaN, ±∞ matches the same signed ∞, finite values match
    /// approximately. Both kernels and the naive reference accumulate over
    /// `kk` in ascending order, so the non-finite class of every output
    /// element is deterministic.
    fn assert_same_class(c: &Matrix, r: &Matrix, tol: f32) {
        assert_eq!(c.shape(), r.shape());
        for (i, (&cv, &rv)) in c.as_slice().iter().zip(r.as_slice()).enumerate() {
            if rv.is_nan() {
                assert!(cv.is_nan(), "element {i}: expected NaN, got {cv}");
            } else if rv.is_infinite() {
                assert_eq!(cv, rv, "element {i}: expected {rv}, got {cv}");
            } else {
                assert!((cv - rv).abs() <= tol, "element {i}: {cv} vs {rv}");
            }
        }
    }

    /// Plants NaN / +∞ / -∞ at seed-derived positions.
    fn inject_nonfinite(m: &mut Matrix, seed: u64, count: usize) {
        let (rows, cols) = m.shape();
        if rows * cols == 0 {
            return;
        }
        let mut x = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        for _ in 0..count {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let idx = (x as usize) % (rows * cols);
            m.as_mut_slice()[idx] = match x % 3 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                _ => f32::NEG_INFINITY,
            };
        }
    }

    /// Zeroes out seed-derived rows entirely (exercises the reference
    /// kernels' zero-skip against the packed kernels' always-add).
    fn zero_rows(m: &mut Matrix, seed: u64, count: usize) {
        let rows = m.rows();
        if rows == 0 {
            return;
        }
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for _ in 0..count {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let r = (x as usize) % rows;
            for v in m.row_mut(r) {
                *v = 0.0;
            }
        }
    }

    proptest! {
        /// The packed kernels reproduce the reference kernels bit for bit
        /// across ragged shapes, zeroed rows, and non-finite
        /// contamination of either operand, up to which NaN survives
        /// where two meet; draws without NaN/±inf are checked strictly.
        #[test]
        fn prop_packed_bitwise_matches_ref(
            m in 1usize..40, k in 1usize..40, n in 1usize..40,
            seed in 0u64..1000,
            inj_a in 0usize..3, inj_b in 0usize..3, zr in 0usize..3,
        ) {
            let nan_may_differ = inj_a + inj_b > 0;
            let mut a = mat(m, k, seed);
            let mut b = mat(k, n, seed.wrapping_add(1));
            inject_nonfinite(&mut a, seed.wrapping_add(2), inj_a);
            inject_nonfinite(&mut b, seed.wrapping_add(3), inj_b);
            zero_rows(&mut a, seed.wrapping_add(4), zr);
            check_bits(&packed_nn(&a, &b), &matmul_ref(&a, &b), nan_may_differ)?;

            let mut a_tn = mat(m, k, seed.wrapping_add(5));
            let mut b_tn = mat(m, n, seed.wrapping_add(6));
            inject_nonfinite(&mut a_tn, seed.wrapping_add(7), inj_a);
            inject_nonfinite(&mut b_tn, seed.wrapping_add(8), inj_b);
            check_bits(&packed_tn(&a_tn, &b_tn), &matmul_tn_ref(&a_tn, &b_tn), nan_may_differ)?;

            let mut b_nt = mat(n, k, seed.wrapping_add(9));
            inject_nonfinite(&mut b_nt, seed.wrapping_add(10), inj_b);
            check_bits(&packed_nt(&a, &b_nt), &matmul_nt_ref(&a, &b_nt), nan_may_differ)?;
        }

        /// The tall-skinny direct-tn kernel (forced, bypassing dispatch)
        /// reproduces the reference bit for bit over its whole `n ≤ NR`
        /// domain, with zeroed rows and non-finite contamination of
        /// either operand, up to which NaN survives where two meet; draws
        /// without NaN/±inf are checked strictly.
        #[test]
        fn prop_tn_direct_bitwise_matches_ref(
            m in 1usize..40, k in 1usize..40, n in 1usize..=NR,
            seed in 0u64..1000,
            inj_a in 0usize..3, inj_b in 0usize..3, zr in 0usize..3,
        ) {
            let nan_may_differ = inj_a + inj_b > 0;
            let mut a = mat(m, k, seed);
            let mut b = mat(m, n, seed.wrapping_add(1));
            inject_nonfinite(&mut a, seed.wrapping_add(2), inj_a);
            inject_nonfinite(&mut b, seed.wrapping_add(3), inj_b);
            zero_rows(&mut a, seed.wrapping_add(4), zr);
            let mut c = Matrix::zeros(k, n);
            gemm_tn_direct(a.as_slice(), b.as_slice(), m, k, n, c.as_mut_slice());
            check_bits(&c, &matmul_tn_ref(&a, &b), nan_may_differ)?;
        }

        /// On finite operands every dispatch target (the packed kernel in
        /// all three shapes and the direct `tn` kernel) gives the
        /// reference kernels' bits exactly, also on zero-heavy left
        /// operands, whose `0 · b` terms the references skip.
        #[test]
        fn prop_packed_bitwise_matches_ref_on_finite_operands(
            m in 1usize..64, k in 1usize..64, n in 1usize..40,
            seed in 0u64..1000, keep in 1usize..=16, zr in 0usize..3,
        ) {
            let mut a = mat(m, k, seed);
            sparsify(&mut a, keep, 16);
            zero_rows(&mut a, seed.wrapping_add(1), zr);
            let b = mat(k, n, seed.wrapping_add(2));
            check_bits(&packed_nn(&a, &b), &matmul_ref(&a, &b), false)?;

            let b_tn = mat(m, n, seed.wrapping_add(3));
            check_bits(&packed_tn(&a, &b_tn), &matmul_tn_ref(&a, &b_tn), false)?;
            let b_narrow = mat(m, n.min(NR), seed.wrapping_add(4));
            let mut c = Matrix::zeros(k, n.min(NR));
            gemm_tn_direct(a.as_slice(), b_narrow.as_slice(), m, k, n.min(NR), c.as_mut_slice());
            check_bits(&c, &matmul_tn_ref(&a, &b_narrow), false)?;

            let b_nt = mat(n, k, seed.wrapping_add(5));
            check_bits(&packed_nt(&a, &b_nt), &matmul_nt_ref(&a, &b_nt), false)?;
        }

        /// The public entry points (which dispatch small shapes to the
        /// reference kernels) agree with the refs bitwise too.
        #[test]
        fn prop_public_matches_ref_bitwise(
            m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..500,
        ) {
            let a = mat(m, k, seed);
            let b = mat(k, n, seed.wrapping_add(1));
            assert_bits_eq(&matmul(&a, &b), &matmul_ref(&a, &b));
        }

        #[test]
        fn prop_kernels_match_naive_on_nonfinite_inputs(
            m in 1usize..12, k in 1usize..12, n in 1usize..12,
            seed in 0u64..500, inj_a in 0usize..4, inj_b in 0usize..4,
        ) {
            let mut a = mat(m, k, seed);
            let mut b = mat(k, n, seed.wrapping_add(1));
            inject_nonfinite(&mut a, seed.wrapping_add(2), inj_a);
            inject_nonfinite(&mut b, seed.wrapping_add(3), inj_b);
            assert_same_class(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-2);

            // Aᵀ·B via matmul_tn on (m x k, m x n) operands.
            let mut a_tn = mat(m, k, seed.wrapping_add(4));
            let mut b_tn = mat(m, n, seed.wrapping_add(5));
            inject_nonfinite(&mut a_tn, seed.wrapping_add(6), inj_a);
            inject_nonfinite(&mut b_tn, seed.wrapping_add(7), inj_b);
            assert_same_class(
                &matmul_tn(&a_tn, &b_tn),
                &matmul_naive(&a_tn.transpose(), &b_tn),
                1e-2,
            );

            // A·Bᵀ via matmul_nt on (m x k, n x k) operands.
            let mut b_nt = mat(n, k, seed.wrapping_add(8));
            inject_nonfinite(&mut b_nt, seed.wrapping_add(9), inj_b);
            assert_same_class(
                &matmul_nt(&a, &b_nt),
                &matmul_naive(&a, &b_nt.transpose()),
                1e-2,
            );
        }

        #[test]
        fn prop_matmul_matches_naive(m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0u64..1000) {
            let a = mat(m, k, seed);
            let b = mat(k, n, seed.wrapping_add(1));
            matmul(&a, &b).assert_close(&matmul_naive(&a, &b), 1e-3);
        }

        #[test]
        fn prop_tn_nt_consistency(m in 1usize..16, k in 1usize..16, n in 1usize..16, seed in 0u64..1000) {
            let a = mat(m, k, seed);
            let b = mat(m, n, seed.wrapping_add(2));
            let tn = matmul_tn(&a, &b);
            // Aᵀ B = Aᵀ (Bᵀ)ᵀ, computed the nt way on explicit transposes.
            let nt = matmul_nt(&a.transpose(), &b.transpose());
            prop_assert_eq!(tn.shape(), (k, n));
            tn.assert_close(&nt, 1e-3);
        }

        #[test]
        fn prop_distributivity(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..500) {
            // A(B + C) == AB + AC
            let a = mat(m, k, seed);
            let b = mat(k, n, seed + 10);
            let c = mat(k, n, seed + 20);
            let mut bc = b.clone();
            for (x, y) in bc.as_mut_slice().iter_mut().zip(c.as_slice()) { *x += *y; }
            let lhs = matmul(&a, &bc);
            let ab = matmul(&a, &b);
            let ac = matmul(&a, &c);
            let mut rhs = ab.clone();
            for (x, y) in rhs.as_mut_slice().iter_mut().zip(ac.as_slice()) { *x += *y; }
            lhs.assert_close(&rhs, 1e-2);
        }
    }
}
