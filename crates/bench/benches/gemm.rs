//! Microbenchmark of the dense GEMM kernels — the `nf²` factor in every
//! client-time row of the paper's Table 3 — and of the sparse input layer
//! that replaces the first of them on zero-heavy `Ŝ·X`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::{setup_federation, FederationConfig};
use fedomd_sparse::Csr;
use fedomd_tensor::gemm::{matmul, matmul_nt, matmul_tn};
use fedomd_tensor::rng::seeded;
use fedomd_tensor::Matrix;

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

/// The first layer's two products on a `cora_paper` shard (Cora, 3
/// parties, seed 0, hidden 64): the dense dispatcher on `Ŝ·X` against the
/// CSR forward and the CSR-transpose weight gradient. Same bits either way.
fn bench_input_layer(c: &mut Criterion) {
    let ds = generate(&spec(DatasetName::Cora), 0);
    let clients = setup_federation(&ds, &FederationConfig::paper(3, 0));
    let sx = &clients[0].input.sx;
    let csr = Csr::from_zero_heavy(sx).expect("Cora's Ŝ·X is zero-heavy");
    let csr_t = csr.transpose();
    let (n, f) = sx.shape();
    let hidden = 64;
    let w = rand_matrix(f, hidden, 4);
    let g = rand_matrix(n, hidden, 5);
    let shape = format!("{n}x{f}x{hidden}");

    let mut group = c.benchmark_group("input_layer");
    group.bench_function(BenchmarkId::new("dense_fwd", &shape), |b| {
        b.iter(|| matmul(sx, &w))
    });
    group.bench_function(BenchmarkId::new("csr_fwd", &shape), |b| {
        b.iter(|| csr.spmm(&w))
    });
    group.bench_function(BenchmarkId::new("dense_wgrad", &shape), |b| {
        b.iter(|| matmul_tn(sx, &g))
    });
    group.bench_function(BenchmarkId::new("csr_wgrad", &shape), |b| {
        b.iter(|| csr_t.spmm(&g))
    });
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_input_layer);
criterion_main!(benches);
