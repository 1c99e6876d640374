//! Secure aggregation composed with real model parameters: masked uploads
//! must aggregate to the plaintext FedAvg result within 1e-4 (the masks
//! cancel up to f32 rounding, not exactly), while each
//! individual upload reveals nothing — the property the paper's
//! "upload their model parameters with encryption" (§1) requires.

use fedomd_federated::helpers::fedavg;
use fedomd_federated::secure_agg::{secure_weighted_sum, MaskingContext};
use fedomd_nn::{Gcn, Model};
use fedomd_tensor::rng::seeded;
use fedomd_tensor::Matrix;

#[test]
fn secure_fedavg_matches_plaintext_fedavg_on_model_params() {
    let m = 4;
    let models: Vec<Gcn> = (0..m)
        .map(|i| Gcn::new(12, 8, 3, &mut seeded(i as u64)))
        .collect();
    let sets: Vec<Vec<Matrix>> = models.iter().map(|mo| mo.params()).collect();

    let plain = fedavg(&sets, &vec![1.0; m]);

    // Securely aggregate parameter-by-parameter.
    for (p_idx, plain_p) in plain.iter().enumerate() {
        let values: Vec<Matrix> = sets.iter().map(|s| s[p_idx].clone()).collect();
        let weights = vec![1.0 / m as f32; m];
        let secure = secure_weighted_sum(&values, &weights, 0xFEED, 3);
        secure.assert_close(plain_p, 1e-4);
    }
}

#[test]
fn masked_weight_upload_hides_the_local_model() {
    let model = Gcn::new(12, 8, 3, &mut seeded(42));
    let w = model.params().remove(0);
    let mut masked = w.clone();
    MaskingContext {
        client: 1,
        n_parties: 5,
        session_seed: 7,
        round: 0,
    }
    .mask(&mut masked);

    // The masked upload must be dominated by mask energy, not signal: the
    // relative perturbation is large.
    let diff = fedomd_tensor::ops::sub(&masked, &w);
    assert!(
        diff.frobenius_norm() > 2.0 * w.frobenius_norm(),
        "mask too weak: |mask| {} vs |w| {}",
        diff.frobenius_norm(),
        w.frobenius_norm()
    );
}

#[test]
fn dropped_client_breaks_cancellation_detectably() {
    // If one client's masked upload goes missing, the sum is garbage —
    // the well-known limitation the full Bonawitz protocol patches with
    // secret-shared mask recovery (out of scope here, but the failure mode
    // should be *loud*, not silent).
    let values: Vec<Matrix> = (0..3)
        .map(|i| {
            let mut rng = seeded(i as u64);
            fedomd_tensor::init::standard_normal(4, 4, &mut rng)
        })
        .collect();
    let n = values.len();
    let masked: Vec<Matrix> = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let mut m = fedomd_tensor::ops::scale(v, 1.0 / n as f32);
            MaskingContext {
                client: i,
                n_parties: n,
                session_seed: 5,
                round: 0,
            }
            .mask(&mut m);
            m
        })
        .collect();

    // Full sum equals plaintext mean.
    let full = fedomd_federated::secure_agg::aggregate_masked(&masked, &vec![1.0; n]);
    let mut mean = Matrix::zeros(4, 4);
    for v in &values {
        fedomd_tensor::ops::axpy(&mut mean, 1.0 / n as f32, v);
    }
    full.assert_close(&mean, 1e-4);

    // Partial sum (client 2 dropped) is far from the partial plaintext mean.
    let partial = fedomd_federated::secure_agg::aggregate_masked(&masked[..2], &[1.0; 2]);
    let mut partial_mean = Matrix::zeros(4, 4);
    for v in &values[..2] {
        fedomd_tensor::ops::axpy(&mut partial_mean, 1.0 / n as f32, v);
    }
    let err = fedomd_tensor::ops::sub(&partial, &partial_mean).frobenius_norm();
    assert!(err > 1.0, "dropout corruption should be loud, got {err}");
}
