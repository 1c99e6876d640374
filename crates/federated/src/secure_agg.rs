//! Secure aggregation by pairwise additive masking.
//!
//! The paper's setting (§1, Fig. 2) has parties "upload their model
//! parameters with encryption" so the server only learns the aggregate.
//! This module implements the standard pairwise-mask construction
//! (Bonawitz et al.-style, without dropout recovery): every ordered pair
//! of clients `(i, j)` derives a shared mask stream from a common seed;
//! client `i` *adds* the stream for `j > i` and *subtracts* it for
//! `j < i`, so all masks cancel in the server's sum — up to f32 rounding,
//! which the tests bound at 1e-4 — while each individual upload is
//! indistinguishable from noise.
//!
//! FedOMD's statistics exchange (means and central moments) is a sum of
//! per-client vectors scaled by `n_i / Σn`, so the same masking protects
//! it — which is why the trainer can treat the protocol output as "the
//! server's" without any party revealing its raw statistics.

use fedomd_tensor::rng::{derive, seeded};
use fedomd_tensor::Matrix;
use rand::Rng;

/// A participant's view of the masking session: its index, the total
/// party count, and the session seed shared out-of-band.
#[derive(Clone, Copy, Debug)]
pub struct MaskingContext {
    /// This client's index in `0..n_parties`.
    pub client: usize,
    /// Number of participating clients.
    pub n_parties: usize,
    /// Session seed all pairs derive their shared streams from (stands in
    /// for the Diffie–Hellman agreement of the real protocol).
    pub session_seed: u64,
    /// Round number (fresh masks every round).
    pub round: u64,
}

impl MaskingContext {
    fn pair_seed(&self, a: usize, b: usize) -> u64 {
        let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
        derive(self.session_seed, (self.round << 32) ^ (lo << 16) ^ hi)
    }

    /// Masks a flat parameter vector in place.
    ///
    /// # Panics
    /// Panics when `client >= n_parties`.
    pub fn mask(&self, values: &mut Matrix) {
        assert!(self.client < self.n_parties, "client index out of range");
        for other in 0..self.n_parties {
            if other == self.client {
                continue;
            }
            let sign = if other > self.client { 1.0f32 } else { -1.0 };
            let mut rng = seeded(self.pair_seed(self.client, other));
            for v in values.as_mut_slice() {
                // Uniform masks in a fixed range: the identical stream is
                // added by one party and subtracted by the other, so the
                // masks cancel up to f32 rounding of the masked sums
                // (within 1e-4 of the plaintext sum in the tests).
                *v += sign * rng.gen_range(-1.0f32..1.0);
            }
        }
    }
}

/// Server-side aggregation of masked uploads: a plain weighted sum. The
/// pairwise masks cancel; nothing to remove.
///
/// # Panics
/// Panics on arity/shape mismatch or empty input.
pub fn aggregate_masked(uploads: &[Matrix], weights: &[f32]) -> Matrix {
    assert!(!uploads.is_empty(), "aggregate_masked: no uploads");
    assert_eq!(
        uploads.len(),
        weights.len(),
        "aggregate_masked: weight arity"
    );
    let mut out = Matrix::zeros(uploads[0].rows(), uploads[0].cols());
    for (u, &w) in uploads.iter().zip(weights) {
        assert_eq!(u.shape(), out.shape(), "aggregate_masked: shape mismatch");
        fedomd_tensor::ops::axpy(&mut out, w, u);
    }
    out
}

/// Convenience: masks every client's copy and aggregates, returning the
/// same result (up to float error) as the plaintext weighted sum. Used by
/// tests and the `secure_fedavg` example path.
pub fn secure_weighted_sum(
    values: &[Matrix],
    weights: &[f32],
    session_seed: u64,
    round: u64,
) -> Matrix {
    let n = values.len();
    let masked: Vec<Matrix> = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            // Weighted inputs are masked *after* scaling so the masks (which
            // are unweighted) still cancel: client i uploads w_i·v_i + m_i.
            let mut m = fedomd_tensor::ops::scale(v, weights[i]);
            MaskingContext {
                client: i,
                n_parties: n,
                session_seed,
                round,
            }
            .mask(&mut m);
            m
        })
        .collect();
    aggregate_masked(&masked, &vec![1.0; n])
}

/// The frame-transported variant of [`secure_weighted_sum`]: each client's
/// masked, pre-weighted upload is encoded as a `WeightUpdate` frame, sent
/// over `chan`, and the server aggregates whatever arrives (with pairwise
/// masking, a dropped client leaves its partners' masks uncancelled — the
/// reason the real protocol needs dropout recovery; callers on lossy
/// channels should check that all parties arrived).
///
/// Returns the aggregate and the sender ids that contributed. Because the
/// `f32` wire codec is bit-exact, on a fault-free channel the result is
/// bit-identical to [`secure_weighted_sum`].
pub fn secure_weighted_sum_frames(
    values: &[Matrix],
    weights: &[f32],
    session_seed: u64,
    round: u64,
    chan: &mut dyn fedomd_transport::Channel,
) -> (Matrix, Vec<u32>) {
    use fedomd_transport::{Envelope, Payload, Tensor};
    let n = values.len();
    assert!(n > 0, "secure_weighted_sum_frames: no values");
    for (i, v) in values.iter().enumerate() {
        let mut m = fedomd_tensor::ops::scale(v, weights[i]);
        MaskingContext {
            client: i,
            n_parties: n,
            session_seed,
            round,
        }
        .mask(&mut m);
        chan.upload(Envelope {
            round,
            sender: i as u32,
            payload: Payload::WeightUpdate {
                params: vec![Tensor::from(&m)],
            },
        });
    }
    let received = chan.server_collect(round);
    assert!(
        !received.is_empty(),
        "secure_weighted_sum_frames: every upload was dropped"
    );
    let mut senders = Vec::with_capacity(received.len());
    #[expect(
        clippy::expect_used,
        clippy::panic,
        clippy::wildcard_enum_match_arm,
        reason = "protocol invariant of the masking round: every masked upload is \
                  exactly one WeightUpdate tensor by construction (see `mask_upload`); \
                  anything else is a routing bug the simulation wants loud"
    )]
    let uploads: Vec<Matrix> = received
        .into_iter()
        .map(|env| {
            senders.push(env.sender);
            match env.payload {
                Payload::WeightUpdate { mut params } => params
                    .pop()
                    .expect("one tensor per masked upload")
                    .into_matrix(),
                other => panic!("expected WeightUpdate, got {}", other.kind()),
            }
        })
        .collect();
    (
        aggregate_masked(&uploads, &vec![1.0; uploads.len()]),
        senders,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedomd_tensor::rng::seeded;

    fn randm(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        fedomd_tensor::init::standard_normal(rows, cols, &mut rng)
    }

    #[test]
    fn masks_cancel_in_the_sum_up_to_rounding() {
        let values: Vec<Matrix> = (0..4).map(|i| randm(3, 5, i)).collect();
        let weights = vec![0.25f32; 4];
        let secure = secure_weighted_sum(&values, &weights, 99, 0);
        let mut plain = Matrix::zeros(3, 5);
        for (v, &w) in values.iter().zip(&weights) {
            fedomd_tensor::ops::axpy(&mut plain, w, v);
        }
        secure.assert_close(&plain, 1e-4);
    }

    #[test]
    fn single_upload_is_noise_like() {
        // A masked upload must not resemble the underlying values: the
        // correlation with the plaintext should be far from 1.
        let v = randm(10, 10, 1);
        let mut masked = v.clone();
        MaskingContext {
            client: 0,
            n_parties: 5,
            session_seed: 7,
            round: 0,
        }
        .mask(&mut masked);
        let diff = fedomd_tensor::ops::sub(&masked, &v);
        // Four pairwise masks, each uniform(-1,1): the perturbation's
        // energy must be substantial relative to the signal.
        assert!(diff.frobenius_norm() > 0.5 * v.frobenius_norm());
    }

    #[test]
    fn fresh_masks_every_round() {
        let v = randm(4, 4, 2);
        let mask_at = |round: u64| {
            let mut m = v.clone();
            MaskingContext {
                client: 0,
                n_parties: 3,
                session_seed: 5,
                round,
            }
            .mask(&mut m);
            m
        };
        assert_ne!(mask_at(0), mask_at(1));
    }

    #[test]
    fn two_party_masks_are_antisymmetric() {
        // Client 0 adds what client 1 subtracts.
        let zero = Matrix::zeros(2, 3);
        let mut a = zero.clone();
        let mut b = zero.clone();
        MaskingContext {
            client: 0,
            n_parties: 2,
            session_seed: 3,
            round: 1,
        }
        .mask(&mut a);
        MaskingContext {
            client: 1,
            n_parties: 2,
            session_seed: 3,
            round: 1,
        }
        .mask(&mut b);
        let sum = fedomd_tensor::ops::add(&a, &b);
        assert!(
            sum.max_abs() < 1e-6,
            "masks do not cancel: {}",
            sum.max_abs()
        );
    }

    #[test]
    #[should_panic(expected = "client index out of range")]
    fn out_of_range_client_rejected() {
        let mut v = Matrix::zeros(1, 1);
        MaskingContext {
            client: 3,
            n_parties: 3,
            session_seed: 0,
            round: 0,
        }
        .mask(&mut v);
    }

    #[test]
    fn framed_secure_sum_matches_direct_bit_for_bit() {
        use fedomd_transport::Channel;
        let values: Vec<Matrix> = (0..4).map(|i| randm(3, 5, 10 + i)).collect();
        let weights = vec![0.1f32, 0.2, 0.3, 0.4];
        let direct = secure_weighted_sum(&values, &weights, 42, 3);
        let mut chan = fedomd_transport::InProcChannel::new();
        let (framed, senders) = secure_weighted_sum_frames(&values, &weights, 42, 3, &mut chan);
        assert_eq!(senders, vec![0, 1, 2, 3]);
        // Masked f32 values roundtrip the wire bit-exactly, and the
        // server sums in the same sender order, so the aggregates are
        // bit-identical — masking still cancels after framing.
        assert_eq!(framed, direct);
        // And the masked frames really crossed a channel: every one was
        // collected, and none was lost.
        assert_eq!(senders.len(), 4);
        assert!(chan.drain_lost().is_empty());
    }

    #[test]
    fn framed_secure_sum_reports_missing_parties() {
        use fedomd_transport::{Channel, FaultConfig, SimNetChannel};
        let values: Vec<Matrix> = (0..3).map(|i| randm(2, 2, 20 + i)).collect();
        let weights = vec![1.0f32; 3];
        // Find a fault seed that drops at least one of the three uploads.
        for seed in 0..64 {
            let cfg = FaultConfig {
                seed,
                drop_prob: 0.4,
                max_retries: 0,
                ..Default::default()
            };
            let mut chan = SimNetChannel::new(cfg);
            if chan.drain_lost().is_empty() {
                let (_, senders) =
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        secure_weighted_sum_frames(&values, &weights, 7, 0, &mut chan)
                    })) {
                        Ok(ok) => ok,
                        Err(_) => continue, // every upload dropped: also a loss case
                    };
                if senders.len() < 3 {
                    // The caller can see the dropout and abort the round.
                    assert!(!chan.drain_lost().is_empty());
                    return;
                }
            }
        }
        panic!("no fault seed in 0..64 dropped an upload at p=0.4 — simnet faults broken");
    }
}
