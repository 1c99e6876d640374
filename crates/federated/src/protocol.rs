//! The 2-round statistics exchange of Algorithm 1 (lines 4–18, 25).
//!
//! Round 1: every client uploads its per-layer activation means `M_i^l`
//! and sample count `n_i`; the server returns the weighted global means
//! `M^l = Σ n_i M_i^l / Σ n_i` (Eq. 10).
//!
//! Round 2: every client re-centres its activations on the *global* mean
//! and uploads the central moments `[S_i^l]_j` for `j = 2..=J`; the server
//! returns their weighted averages `[S^l]_j`.
//!
//! Because the weighted average of client moments about a common centre is
//! exactly the pooled moment, the pair `(M^l, [S^l]_j)` equals what a
//! centralised computation over the union of all activations would give —
//! the "implicitly calculate the IID distribution by only 2-round
//! interaction" claim of the paper — which
//! `distributed_protocol_matches_centralized` below verifies.
//!
//! # Streaming accumulators
//!
//! Both reductions are sample-weighted sums, so the server does not need
//! the full set of client payloads in memory at once: [`MeanAccumulator`]
//! and [`MomentAccumulator`] fold one payload at a time
//! (`push(payload, n_samples)`) and divide by the total sample count once
//! at [`finish`](MeanAccumulator::finish). Peak memory is O(model), not
//! O(clients × model) — the property that makes 1k–10k client cohorts
//! possible.
//!
//! Both are reshaping wrappers over the crate's one weighted fold (in
//! [`crate::helpers`], beside [`AGG_LANES`](crate::helpers::AGG_LANES)),
//! which FedAvg's [`UpdateAccumulator`](crate::UpdateAccumulator) shares:
//! a mean layer is a `1 × d` block and a moment layer an `orders × d`
//! block, so one shape rule, fixed by the first push, and one finiteness
//! check admit every uplink payload. The result is a function of the push
//! order alone.

use fedomd_autograd::CmdTargets;
use fedomd_tensor::stats::{central_moments_upto, column_means};
use fedomd_tensor::Matrix;

use crate::helpers::{Lanes, UpdateShapeError};

/// Server-side result of the exchange: per hidden layer, the global mean
/// and the global central moments (orders `2..=max`).
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalStats {
    /// `means[layer][dim]`.
    pub means: Vec<Vec<f32>>,
    /// `moments[layer][order - 2][dim]`.
    pub moments: Vec<Vec<Vec<f32>>>,
}

impl GlobalStats {
    /// Total scalars a single client uploads across both rounds (means +
    /// moments), for communication accounting.
    pub fn uplink_scalars(&self) -> usize {
        let mean_scalars: usize = self.means.iter().map(|m| m.len()).sum();
        let moment_scalars: usize = self
            .moments
            .iter()
            .map(|layer| layer.iter().map(|o| o.len()).sum::<usize>())
            .sum();
        mean_scalars + moment_scalars
    }
}

/// Client side of round 1: per-layer column means of the hidden
/// activations (Algorithm 1 line 4).
pub fn client_means(hidden: &[&Matrix]) -> Vec<Vec<f32>> {
    hidden.iter().map(|z| column_means(z)).collect()
}

/// Streaming fold of round-1 client means (Eq. 10), each layer a `1 × d`
/// block. `push` one `(means, n_samples)` payload per client as it
/// arrives — payloads are consumed, never retained — then `finish` to
/// obtain the sample-weighted global means.
#[derive(Clone, Debug, Default)]
pub struct MeanAccumulator(Lanes);

impl MeanAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Payloads folded so far.
    pub fn pushed(&self) -> usize {
        self.0.pushed()
    }

    /// Folds one client's means, weighted by its sample count, or refuses
    /// them (leaving the accumulator untouched) when their layers differ
    /// from the first push's or hold a NaN or an infinity.
    pub fn push(&mut self, means: &[Vec<f32>], n_samples: usize) -> Result<(), UpdateShapeError> {
        let shapes = means.iter().map(|m| (1, m.len()));
        self.0
            .push(shapes, means.iter().map(Vec::as_slice), n_samples as f64)
    }

    /// The weighted global means; `None` for an empty round or a zero
    /// total sample count.
    pub fn finish(self) -> Option<Vec<Vec<f32>>> {
        self.0.finish_blocks(|_, mean| mean)
    }
}

/// Client side of round 2 (Algorithm 1 lines 12-13): central moments of
/// orders `2..=max_order` about the *global* means.
pub fn client_moments_about(
    hidden: &[&Matrix],
    global_means: &[Vec<f32>],
    max_order: u32,
) -> Vec<Vec<Vec<f32>>> {
    assert_eq!(
        hidden.len(),
        global_means.len(),
        "client_moments_about: layer arity mismatch"
    );
    hidden
        .iter()
        .zip(global_means)
        .map(|(z, m)| central_moments_upto(z, m, max_order))
        .collect()
}

/// Streaming fold of round-2 client central moments
/// (`moments[layer][order][dim]`), each layer an `orders × d` block: the
/// counterpart of [`MeanAccumulator`]. A layer whose orders differ in
/// length is refused as [`UpdateShapeError::Ragged`].
#[derive(Clone, Debug, Default)]
pub struct MomentAccumulator(Lanes);

impl MomentAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Payloads folded so far.
    pub fn pushed(&self) -> usize {
        self.0.pushed()
    }

    /// Folds one client's moments, weighted by its sample count, or
    /// refuses them as [`MeanAccumulator::push`] does.
    pub fn push(
        &mut self,
        moments: &[Vec<Vec<f32>>],
        n_samples: usize,
    ) -> Result<(), UpdateShapeError> {
        let shapes = moments
            .iter()
            .enumerate()
            .map(|(param, orders)| {
                let d = orders.first().map_or(0, Vec::len);
                if orders.iter().all(|o| o.len() == d) {
                    Ok((orders.len(), d))
                } else {
                    Err(UpdateShapeError::Ragged { param })
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.0.push(
            shapes.into_iter(),
            moments.iter().flatten().map(Vec::as_slice),
            n_samples as f64,
        )
    }

    /// The weighted global moments; `None` for an empty round or a zero
    /// total sample count.
    pub fn finish(self) -> Option<Vec<Vec<Vec<f32>>>> {
        self.0.finish_blocks(|(orders, d), layer| {
            (0..orders)
                .map(|o| layer[o * d..(o + 1) * d].to_vec())
                .collect()
        })
    }
}

/// Runs the full 2-round protocol over per-client hidden activations and
/// returns the global stats; `None` when a round aggregates nothing or
/// refuses a payload.
pub fn exchange(per_client_hidden: &[Vec<&Matrix>], max_order: u32) -> Option<GlobalStats> {
    let n_samples = |h: &[&Matrix]| h.first().map_or(0, |z| z.rows());
    // Round 1.
    let mut mean_acc = MeanAccumulator::new();
    for h in per_client_hidden {
        mean_acc.push(&client_means(h), n_samples(h)).ok()?;
    }
    let means = mean_acc.finish()?;
    // Round 2.
    let mut moment_acc = MomentAccumulator::new();
    for h in per_client_hidden {
        let moments = client_moments_about(h, &means, max_order);
        moment_acc.push(&moments, n_samples(h)).ok()?;
    }
    let moments = moment_acc.finish()?;
    Some(GlobalStats { means, moments })
}

/// Converts global stats into per-layer CMD targets for the loss.
pub fn build_targets(stats: &GlobalStats) -> Vec<CmdTargets> {
    stats
        .means
        .iter()
        .zip(&stats.moments)
        .map(|(mean, moments)| CmdTargets {
            mean: mean.clone(),
            moments: moments.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UpdateAccumulator;
    use fedomd_tensor::rng::seeded;
    use proptest::prelude::*;
    use rand::Rng;

    fn act(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        fedomd_tensor::init::standard_normal(rows, cols, &mut rng).map(|v| v.abs() * 0.3)
    }

    #[test]
    fn mean_fold_is_weighted() {
        let mut acc = MeanAccumulator::new();
        acc.push(&[vec![0.0f32, 0.0]], 1).expect("well-formed");
        acc.push(&[vec![3.0f32, 6.0]], 2).expect("well-formed");
        let m = acc.finish().expect("two clients");
        assert!((m[0][0] - 2.0).abs() < 1e-6);
        assert!((m[0][1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn distributed_protocol_matches_centralized() {
        // Three clients with different sizes and distributions; pooled
        // statistics must equal the protocol's output exactly.
        let z1 = act(13, 5, 1);
        let z2 = act(29, 5, 2).map(|v| v + 0.2);
        let z3 = act(7, 5, 3).map(|v| v * 2.0);

        let stats = exchange(&[vec![&z1], vec![&z2], vec![&z3]], 5).expect("3 clients");

        // Centralised: stack all rows.
        let mut pooled = Vec::new();
        pooled.extend_from_slice(z1.as_slice());
        pooled.extend_from_slice(z2.as_slice());
        pooled.extend_from_slice(z3.as_slice());
        let pooled = Matrix::from_vec(13 + 29 + 7, 5, pooled);
        let c_mean = column_means(&pooled);
        for (a, b) in stats.means[0].iter().zip(&c_mean) {
            assert!((a - b).abs() < 1e-5, "mean mismatch: {a} vs {b}");
        }
        for (o, j) in (2u32..=5).enumerate() {
            let c_mom = fedomd_tensor::stats::central_moments(&pooled, &c_mean, j);
            for (a, b) in stats.moments[0][o].iter().zip(&c_mom) {
                assert!((a - b).abs() < 1e-4, "order {j} mismatch: {a} vs {b}");
            }
        }
    }

    #[test]
    fn multi_layer_stats_keep_layers_separate() {
        let l1 = act(10, 3, 4);
        let l2 = act(10, 3, 5).map(|v| v + 5.0);
        let stats = exchange(&[vec![&l1, &l2]], 3).expect("1 client");
        assert_eq!(stats.means.len(), 2);
        // Layer 2 was shifted by +5, its mean must reflect that.
        assert!(stats.means[1][0] > stats.means[0][0] + 3.0);
    }

    #[test]
    fn identical_clients_reproduce_their_own_stats() {
        let z = act(20, 4, 6);
        let stats = exchange(&[vec![&z], vec![&z]], 4).expect("2 clients");
        let own_mean = column_means(&z);
        for (a, b) in stats.means[0].iter().zip(&own_mean) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn targets_align_with_stats() {
        let z = act(15, 4, 7);
        let stats = exchange(&[vec![&z]], 5).expect("1 client");
        let targets = build_targets(&stats);
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].max_order(), 5);
        assert_eq!(targets[0].mean, stats.means[0]);
    }

    #[test]
    fn uplink_scalar_accounting() {
        let z = act(9, 4, 8);
        let stats = exchange(&[vec![&z, &z]], 5).expect("1 client");
        // 2 layers × 4 dims means + 2 layers × 4 orders × 4 dims moments.
        assert_eq!(stats.uplink_scalars(), 2 * 4 + 2 * 4 * 4);
    }

    #[test]
    fn empty_exchange_rejected() {
        assert_eq!(exchange(&[], 5), None);
        assert_eq!(MeanAccumulator::new().finish(), None);
        assert_eq!(MomentAccumulator::new().finish(), None);
    }

    #[test]
    fn zero_total_samples_rejected() {
        let mut acc = MeanAccumulator::new();
        for _ in 0..3 {
            acc.push(&[vec![1.0f32, 2.0]], 0).expect("well-formed");
        }
        assert_eq!(acc.finish(), None);
    }

    /// Moments whose per-layer, per-order lengths are `dims`.
    fn moments_of(dims: &[&[usize]]) -> Vec<Vec<Vec<f32>>> {
        dims.iter()
            .map(|layer| layer.iter().map(|&d| vec![1.0; d]).collect())
            .collect()
    }

    #[test]
    fn shape_mismatches_are_typed_errors() {
        let mut acc = MeanAccumulator::new();
        acc.push(&[vec![1.0, 2.0], vec![3.0]], 4)
            .expect("first push");
        assert_eq!(
            acc.push(&[vec![1.0, 2.0]], 4).unwrap_err(),
            UpdateShapeError::Arity {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            acc.push(&[vec![1.0, 2.0], vec![3.0, 4.0]], 4).unwrap_err(),
            UpdateShapeError::Shape {
                param: 1,
                expected: (1, 1),
                got: (1, 2)
            }
        );
        // A failed push leaves the accumulator usable.
        acc.push(&[vec![5.0, 6.0], vec![7.0]], 2)
            .expect("well-formed");
        assert_eq!(acc.pushed(), 2);

        let mut macc = MomentAccumulator::new();
        macc.push(&[vec![vec![1.0], vec![2.0]]], 3)
            .expect("first push");
        assert_eq!(
            macc.push(&[vec![vec![1.0]]], 3).unwrap_err(),
            UpdateShapeError::Shape {
                param: 0,
                expected: (2, 1),
                got: (1, 1)
            }
        );

        // Moments regrouped across layers, with equal flat lengths: one
        // order moved from layer 1 to layer 0.
        let mut macc = MomentAccumulator::new();
        macc.push(&moments_of(&[&[3], &[3, 3]]), 3)
            .expect("first push");
        assert_eq!(
            macc.push(&moments_of(&[&[3, 3], &[3]]), 3).unwrap_err(),
            UpdateShapeError::Shape {
                param: 0,
                expected: (1, 3),
                got: (2, 3)
            }
        );
        // A layer whose orders differ in length, as the first push or a
        // later one, and with the flat length of the fixed shape.
        assert_eq!(
            MomentAccumulator::new()
                .push(&moments_of(&[&[3], &[3, 4]]), 3)
                .unwrap_err(),
            UpdateShapeError::Ragged { param: 1 }
        );
        assert_eq!(
            macc.push(&moments_of(&[&[3], &[2, 4]]), 3).unwrap_err(),
            UpdateShapeError::Ragged { param: 1 }
        );
        assert_eq!(macc.pushed(), 1);
    }

    /// The fold every accumulator must equal bit for bit, written eagerly
    /// and independently of `helpers`: eight lanes allocated and zeroed up
    /// front, payload `i` added into lane `i % 8`, and every element summed
    /// over all eight lanes from `+0.0` before the one division.
    fn eager_oracle(payloads: &[(Vec<f32>, f64)]) -> Option<Vec<f32>> {
        let len = payloads.first()?.0.len();
        let mut lanes = vec![vec![0.0f64; len]; 8];
        let mut total = 0.0f64;
        for (i, (values, w)) in payloads.iter().enumerate() {
            for (a, &v) in lanes[i % 8].iter_mut().zip(values) {
                *a += w * v as f64;
            }
            total += w;
        }
        if total <= 0.0 {
            return None;
        }
        let avg = (0..len).map(|e| {
            let mut sum = 0.0f64;
            for lane in &lanes {
                sum += lane[e];
            }
            (sum / total) as f32
        });
        Some(avg.collect())
    }

    /// `len` values of payload `i`: spread over 2⁸⁰ in magnitude, so the
    /// `f64` sums round (`zeros` 0), all `−0.0` (`zeros` 1), or a mix of
    /// `+0.0`, `−0.0` and spread values (`zeros` 2).
    fn values(len: usize, seed: u64, i: usize, zeros: u8) -> Vec<f32> {
        let mut rng = seeded(seed.wrapping_add(i as u64));
        (0..len)
            .map(|_| match (zeros, rng.gen_range(0..3)) {
                (0, _) | (2, 2) => rng.gen_range(-2.0f32..2.0) * 2f32.powi(rng.gen_range(-40..40)),
                (1, _) | (2, 1) => -0.0,
                _ => 0.0,
            })
            .collect()
    }

    /// The lane count shows in the bits only where the `f64` sums round
    /// differently, which spread values alone rarely make visible in an
    /// `f32` result. Nine pushes that cancel pin it: in eight lanes push 8
    /// cancels push 0 in lane 0 and the seven ones survive; in one lane
    /// each `1e20 + 1` rounds the one away and the mean would be 0.
    #[test]
    fn nine_pushes_fold_in_eight_lanes() {
        let payloads: Vec<(Vec<f32>, f64)> = (0..9)
            .map(|i| match i {
                0 => (vec![1e20], 1.0),
                8 => (vec![-1e20], 1.0),
                _ => (vec![1.0], 1.0),
            })
            .collect();
        let mut acc = MeanAccumulator::new();
        for (v, _) in &payloads {
            acc.push(std::slice::from_ref(v), 1).expect("well-formed");
        }
        let got = acc.finish().expect("nine clients");
        assert_eq!(bits(&got[0]), [((7.0f64 / 9.0) as f32).to_bits()]);
        assert_eq!(
            Some(bits(&got[0])),
            eager_oracle(&payloads).map(|m| bits(&m))
        );
    }

    /// Cuts `flat` into the lengths of `lens`.
    fn split(flat: &[f32], lens: impl IntoIterator<Item = usize>) -> Vec<Vec<f32>> {
        let mut rest = flat;
        lens.into_iter()
            .map(|n| {
                let (head, tail) = rest.split_at(n);
                rest = tail;
                head.to_vec()
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Overwrites a few entries with NaN/±∞.
    fn poison_slice(values: &mut [f32], seed: u64) {
        const SPECIALS: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut rng = seeded(seed);
        for _ in 0..1 + values.len() / 5 {
            let i = rng.gen_range(0..values.len());
            values[i] = SPECIALS[rng.gen_range(0..SPECIALS.len())];
        }
    }

    proptest! {
        /// The mean fold is the eager oracle, bit for bit, over 1–20
        /// pushes with ragged and zero sample counts and signed zeros —
        /// including agreeing that an all-zero-count round has no mean.
        #[test]
        fn mean_fold_is_the_eager_oracle(
            seed in 0u64..1_000_000,
            dims in proptest::collection::vec(1usize..6, 1..4),
            samples in proptest::collection::vec(0usize..50, 1..21),
            zeros in 0u8..3,
        ) {
            let len: usize = dims.iter().sum();
            let flat: Vec<(Vec<f32>, f64)> = samples
                .iter()
                .enumerate()
                .map(|(i, &n)| (values(len, seed, i, zeros), n as f64))
                .collect();
            let mut acc = MeanAccumulator::new();
            for ((v, _), &n) in flat.iter().zip(&samples) {
                acc.push(&split(v, dims.iter().copied()), n).unwrap();
            }
            let got = acc.finish().map(|m| bits(&m.concat()));
            prop_assert_eq!(got, eager_oracle(&flat).map(|m| bits(&m)));
        }

        #[test]
        fn moment_fold_is_the_eager_oracle(
            seed in 0u64..1_000_000,
            dims in proptest::collection::vec(1usize..5, 1..3),
            orders in 1usize..5,
            samples in proptest::collection::vec(0usize..50, 1..21),
            zeros in 0u8..3,
        ) {
            let len = orders * dims.iter().sum::<usize>();
            let flat: Vec<(Vec<f32>, f64)> = samples
                .iter()
                .enumerate()
                .map(|(i, &n)| (values(len, seed, i, zeros), n as f64))
                .collect();
            let mut acc = MomentAccumulator::new();
            for ((v, _), &n) in flat.iter().zip(&samples) {
                let layers = split(v, dims.iter().map(|d| orders * d));
                let moments: Vec<Vec<Vec<f32>>> = layers
                    .iter()
                    .zip(&dims)
                    .map(|(layer, &d)| split(layer, vec![d; orders]))
                    .collect();
                acc.push(&moments, n).unwrap();
            }
            let got = acc.finish().map(|m| bits(&m.concat().concat()));
            prop_assert_eq!(got, eager_oracle(&flat).map(|m| bits(&m)));
        }

        /// FedAvg's fold is the same oracle, over parameter lists with
        /// fractional and zero weights.
        #[test]
        fn update_fold_is_the_eager_oracle(
            seed in 0u64..1_000_000,
            shapes in proptest::collection::vec((1usize..4, 1usize..5), 1..4),
            weights in proptest::collection::vec(0usize..12, 1..21),
            zeros in 0u8..3,
        ) {
            let len: usize = shapes.iter().map(|&(r, c)| r * c).sum();
            let flat: Vec<(Vec<f32>, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (values(len, seed, i, zeros), w as f64 * 0.25))
                .collect();
            let mut acc = UpdateAccumulator::new();
            for (v, w) in &flat {
                let params: Vec<Matrix> = split(v, shapes.iter().map(|&(r, c)| r * c))
                    .into_iter()
                    .zip(&shapes)
                    .map(|(data, &(r, c))| Matrix::from_vec(r, c, data))
                    .collect();
                acc.try_push(&params, *w).unwrap();
            }
            let got = acc.finish().map(|ps| {
                let flat: Vec<f32> = ps.iter().flat_map(|p| p.as_slice().to_vec()).collect();
                bits(&flat)
            });
            prop_assert_eq!(got, eager_oracle(&flat).map(|m| bits(&m)));
        }

        /// A mean upload holding a NaN or an infinity is refused, and the
        /// fold is then the oracle over the other uploads.
        #[test]
        fn a_non_finite_mean_upload_is_refused_and_leaves_the_fold_untouched(
            seed in 0u64..1_000_000,
            dims in proptest::collection::vec(1usize..6, 1..4),
            samples in proptest::collection::vec(1usize..50, 2..21),
            victim in 0usize..20,
        ) {
            let len: usize = dims.iter().sum();
            let victim = victim % samples.len();
            let mut acc = MeanAccumulator::new();
            let mut kept = Vec::new();
            for (i, &n) in samples.iter().enumerate() {
                let mut v = values(len, seed, i, 0);
                if i == victim {
                    poison_slice(&mut v, seed ^ 0x5EED);
                    let refused = acc.push(&split(&v, dims.iter().copied()), n);
                    prop_assert_eq!(refused, Err(UpdateShapeError::NonFinite));
                } else {
                    acc.push(&split(&v, dims.iter().copied()), n).unwrap();
                    kept.push((v, n as f64));
                }
            }
            prop_assert_eq!(acc.pushed(), samples.len() - 1);
            let got = acc.finish().map(|m| bits(&m.concat()));
            prop_assert_eq!(got, eager_oracle(&kept).map(|m| bits(&m)));
        }

        /// The same refusal for central moments.
        #[test]
        fn a_non_finite_moment_upload_is_refused_and_leaves_the_fold_untouched(
            seed in 0u64..1_000_000,
            d in 1usize..5,
            orders in 1usize..5,
            samples in proptest::collection::vec(1usize..50, 2..21),
            victim in 0usize..20,
        ) {
            let victim = victim % samples.len();
            let mut acc = MomentAccumulator::new();
            let mut kept = Vec::new();
            for (i, &n) in samples.iter().enumerate() {
                let mut v = values(orders * d, seed, i, 0);
                if i == victim {
                    poison_slice(&mut v, seed ^ 0x5EED);
                    let refused = acc.push(&[split(&v, vec![d; orders])], n);
                    prop_assert_eq!(refused, Err(UpdateShapeError::NonFinite));
                } else {
                    acc.push(&[split(&v, vec![d; orders])], n).unwrap();
                    kept.push((v, n as f64));
                }
            }
            prop_assert_eq!(acc.pushed(), samples.len() - 1);
            let got = acc.finish().map(|m| bits(&m.concat().concat()));
            prop_assert_eq!(got, eager_oracle(&kept).map(|m| bits(&m)));
        }
    }
}
