//! Microbenchmark of the dense GEMM kernels — the `nf²` factor in every
//! client-time row of the paper's Table 3 — and of the sparse input layer
//! that replaces the first of them on zero-heavy `Ŝ·X`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::{setup_federation, FederationConfig};
use fedomd_sparse::Csr;
use fedomd_tensor::gemm::{matmul, matmul_nt, matmul_tn};
use fedomd_tensor::rng::seeded;
use fedomd_tensor::Matrix;
use rand::Rng;

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = seeded(seed);
    fedomd_tensor::init::standard_normal(rows, cols, &mut rng)
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    // Shapes drawn from the actual workloads: (nodes × features) · (features × hidden).
    // 2708×1433×16 is the paper-scale Cora first layer (Table 3's dominant cost).
    for &(m, k, n) in &[
        (560usize, 96usize, 64usize),
        (2708, 256, 64),
        (1024, 1024, 64),
        (2708, 1433, 16),
    ] {
        let a = rand_matrix(m, k, 1);
        let b = rand_matrix(k, n, 2);
        group.bench_with_input(
            BenchmarkId::new("nn", format!("{m}x{k}x{n}")),
            &(&a, &b),
            |bch, (a, b)| bch.iter(|| matmul(a, b)),
        );
        // Backward shapes.
        let g = rand_matrix(m, n, 3);
        group.bench_with_input(
            BenchmarkId::new("tn_weight_grad", format!("{m}x{k}x{n}")),
            &(&a, &g),
            |bch, (a, g)| bch.iter(|| matmul_tn(a, g)),
        );
        group.bench_with_input(
            BenchmarkId::new("nt_input_grad", format!("{m}x{k}x{n}")),
            &(&g, &b),
            |bch, (g, b)| bch.iter(|| matmul_nt(g, b)),
        );
    }
    group.finish();
}

/// The first layer's two products on `A = Ŝ·X` with hidden width 64: the
/// dense `matmul` (the packed kernel, which never skips a zero) against
/// the CSR forward, and for the weight gradient `Aᵀ·G` the dense
/// `matmul_tn` against the CSR row scatter (`csr_wgrad`, what the tape
/// runs) and SpMM on a stored transpose (`csr_t_wgrad`). Same bits on
/// every path.
///
/// Operands: a `cora_paper` shard (Cora, 3 parties, seed 0), and a
/// `computer_paper`-shaped 2700 × 767 matrix at 10/25/35/50/65 %
/// density, the sweep that sets `fedomd_nn::INPUT_CSR_MAX_DENSITY`.
fn bench_input_layer(c: &mut Criterion) {
    let hidden = 64;
    let ds = generate(&spec(DatasetName::Cora), 0);
    let clients = setup_federation(&ds, &FederationConfig::paper(3, 0));
    let cora = (*clients[0].input.sx).clone();
    let (n, f) = cora.shape();
    let mut operands = vec![(format!("{n}x{f}x{hidden}"), cora)];
    for pct in [10u64, 25, 35, 50, 65] {
        let mut rng = seeded(6 + pct);
        let a = Matrix::from_fn(2700, 767, |_, _| {
            if rng.gen_range(0u64..100) < pct {
                rng.gen_range(-1.0f32..1.0)
            } else {
                0.0
            }
        });
        operands.push((format!("2700x767x{hidden}@{pct}%"), a));
    }

    let mut group = c.benchmark_group("input_layer");
    for (shape, a) in &operands {
        let csr = Csr::from_zero_heavy(a, 1.0).expect("every operand has a zero");
        let csr_t = csr.transpose();
        let (n, f) = a.shape();
        let w = rand_matrix(f, hidden, 4);
        let g = rand_matrix(n, hidden, 5);
        let mut out = Matrix::zeros(f, hidden);
        group.bench_function(BenchmarkId::new("dense_fwd", shape), |b| {
            b.iter(|| matmul(a, &w))
        });
        group.bench_function(BenchmarkId::new("csr_fwd", shape), |b| {
            b.iter(|| csr.spmm(&w))
        });
        group.bench_function(BenchmarkId::new("dense_wgrad", shape), |b| {
            b.iter(|| matmul_tn(a, &g))
        });
        group.bench_function(BenchmarkId::new("csr_wgrad", shape), |b| {
            b.iter(|| csr.spmm_t_into(&g, black_box(&mut out)))
        });
        group.bench_function(BenchmarkId::new("csr_t_wgrad", shape), |b| {
            b.iter(|| csr_t.spmm(&g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_input_layer);
criterion_main!(benches);
