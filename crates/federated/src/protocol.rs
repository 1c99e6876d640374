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
//! Accumulation runs in `f64` across [`AGG_LANES`] fixed lanes: push `i`
//! lands in lane `i % AGG_LANES`, and `finish` folds the lane partials in
//! lane order before the single division. Because the lane an item maps to
//! depends only on its push index — never on thread count or arrival
//! timing — the result is a function of the push order alone: the
//! streaming round loops and the batch references ([`aggregate_means`],
//! [`aggregate_moments`]) build identical lane partials and produce
//! bit-identical results.

use fedomd_autograd::CmdTargets;
use fedomd_tensor::stats::{central_moments_upto, column_means};
use fedomd_tensor::Matrix;
use std::fmt;

use crate::helpers::AGG_LANES;

/// Typed failure of a server-side aggregation (replaces the panics the
/// aggregation entry points used to raise on malformed input).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// `finish` was called before any payload was pushed (an empty round).
    NoClients,
    /// Every pushed payload reported zero samples, so the weighted average
    /// is undefined.
    ZeroTotalSamples,
    /// A payload's hidden-layer count differs from the first payload's.
    LayerArity { expected: usize, got: usize },
    /// A payload's moment-order count differs from the first payload's.
    OrderArity {
        layer: usize,
        expected: usize,
        got: usize,
    },
    /// A payload's per-layer dimension differs from the first payload's.
    Dimension {
        layer: usize,
        expected: usize,
        got: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NoClients => write!(f, "no clients: nothing was pushed"),
            ProtocolError::ZeroTotalSamples => write!(f, "zero total samples across clients"),
            ProtocolError::LayerArity { expected, got } => {
                write!(f, "layer arity mismatch: expected {expected}, got {got}")
            }
            ProtocolError::OrderArity {
                layer,
                expected,
                got,
            } => write!(
                f,
                "order arity mismatch at layer {layer}: expected {expected}, got {got}"
            ),
            ProtocolError::Dimension {
                layer,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch at layer {layer}: expected {expected}, got {got}"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

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

/// The fixed-lane `f64` partial sums behind both statistics accumulators,
/// over payloads flattened in row-major order: push `i` folds `n · payload`
/// into lane `i % AGG_LANES`.
#[derive(Clone, Debug, Default)]
struct Lanes {
    /// `lanes[lane][element]`.
    lanes: Vec<Vec<f64>>,
    total_samples: u64,
    pushed: u64,
}

impl Lanes {
    /// Folds one flattened payload of `len` elements, weighted by its
    /// sample count.
    fn push<'a>(&mut self, len: usize, values: impl Iterator<Item = &'a f32>, n_samples: usize) {
        if self.pushed == 0 {
            self.lanes = vec![vec![0.0f64; len]; AGG_LANES];
        }
        let w = n_samples as f64;
        let lane = &mut self.lanes[(self.pushed % AGG_LANES as u64) as usize];
        for (a, &m) in lane.iter_mut().zip(values) {
            *a += w * m as f64;
        }
        self.total_samples += n_samples as u64;
        self.pushed += 1;
    }

    /// Folds the lane partials in lane order and divides by the total
    /// sample count, element by element.
    fn finish(&self) -> Result<std::vec::IntoIter<f32>, ProtocolError> {
        if self.pushed == 0 {
            return Err(ProtocolError::NoClients);
        }
        if self.total_samples == 0 {
            return Err(ProtocolError::ZeroTotalSamples);
        }
        let total = self.total_samples as f64;
        let len = self.lanes.first().map_or(0, Vec::len);
        let avg: Vec<f32> = (0..len)
            .map(|e| {
                let mut sum = 0.0f64;
                for lane in &self.lanes {
                    sum += lane[e];
                }
                (sum / total) as f32
            })
            .collect();
        Ok(avg.into_iter())
    }
}

/// Streaming fold of round-1 client means (Eq. 10).
///
/// `push` one `(means, n_samples)` payload per client as it arrives —
/// payloads are consumed, never retained — then `finish` to obtain the
/// sample-weighted global means. See the module docs for the lane scheme
/// that keeps streaming and batch reductions bit-identical.
#[derive(Clone, Debug, Default)]
pub struct MeanAccumulator {
    lanes: Lanes,
    /// Per-layer dimension, fixed by the first push.
    dims: Vec<usize>,
}

impl MeanAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Payloads folded so far.
    pub fn pushed(&self) -> u64 {
        self.lanes.pushed
    }

    /// Folds one client's means, weighted by its sample count. The first
    /// push fixes the expected shape; later pushes are validated against
    /// it (and leave the accumulator untouched when they mismatch).
    pub fn push(&mut self, means: &[Vec<f32>], n_samples: usize) -> Result<(), ProtocolError> {
        let dims: Vec<usize> = means.iter().map(Vec::len).collect();
        if self.lanes.pushed == 0 {
            self.dims = dims;
        } else if dims.len() != self.dims.len() {
            return Err(ProtocolError::LayerArity {
                expected: self.dims.len(),
                got: dims.len(),
            });
        } else if let Some((layer, (&expected, &got))) = self
            .dims
            .iter()
            .zip(&dims)
            .enumerate()
            .find(|(_, (e, g))| e != g)
        {
            return Err(ProtocolError::Dimension {
                layer,
                expected,
                got,
            });
        }
        let len = self.dims.iter().sum();
        self.lanes.push(len, means.iter().flatten(), n_samples);
        Ok(())
    }

    /// Folds the lane partials in lane order and divides by the total
    /// sample count: the weighted global means.
    pub fn finish(self) -> Result<Vec<Vec<f32>>, ProtocolError> {
        let mut avg = self.lanes.finish()?;
        Ok(self
            .dims
            .iter()
            .map(|&d| avg.by_ref().take(d).collect())
            .collect())
    }
}

/// Server side of round 1 (Eq. 10): sample-weighted average of client
/// means, per layer. Batch wrapper over [`MeanAccumulator`] — the
/// sequential reference the streaming round loops are pinned
/// bit-identical to.
pub fn aggregate_means(
    client_stats: &[(Vec<Vec<f32>>, usize)],
) -> Result<Vec<Vec<f32>>, ProtocolError> {
    let mut acc = MeanAccumulator::new();
    for (means, n) in client_stats {
        acc.push(means, *n)?;
    }
    acc.finish()
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

/// Streaming fold of round-2 client central moments — the
/// `moments[layer][order][dim]` counterpart of [`MeanAccumulator`], with
/// the same lane scheme and bit-identity guarantees.
#[derive(Clone, Debug, Default)]
pub struct MomentAccumulator {
    lanes: Lanes,
    /// `dims[layer][order]`, fixed by the first push.
    dims: Vec<Vec<usize>>,
}

impl MomentAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Payloads folded so far.
    pub fn pushed(&self) -> u64 {
        self.lanes.pushed
    }

    fn check_shape(&self, dims: &[Vec<usize>]) -> Result<(), ProtocolError> {
        if dims.len() != self.dims.len() {
            return Err(ProtocolError::LayerArity {
                expected: self.dims.len(),
                got: dims.len(),
            });
        }
        for (layer, (want, got)) in self.dims.iter().zip(dims).enumerate() {
            if want.len() != got.len() {
                return Err(ProtocolError::OrderArity {
                    layer,
                    expected: want.len(),
                    got: got.len(),
                });
            }
            if let Some((&expected, &got)) = want.iter().zip(got).find(|(e, g)| e != g) {
                return Err(ProtocolError::Dimension {
                    layer,
                    expected,
                    got,
                });
            }
        }
        Ok(())
    }

    /// Folds one client's moments, weighted by its sample count.
    pub fn push(
        &mut self,
        moments: &[Vec<Vec<f32>>],
        n_samples: usize,
    ) -> Result<(), ProtocolError> {
        let dims: Vec<Vec<usize>> = moments
            .iter()
            .map(|layer| layer.iter().map(Vec::len).collect())
            .collect();
        if self.lanes.pushed == 0 {
            self.dims = dims;
        } else {
            self.check_shape(&dims)?;
        }
        let len = self.dims.iter().flatten().sum();
        self.lanes
            .push(len, moments.iter().flatten().flatten(), n_samples);
        Ok(())
    }

    /// Folds the lane partials in lane order and divides by the total
    /// sample count: the weighted global moments.
    pub fn finish(self) -> Result<Vec<Vec<Vec<f32>>>, ProtocolError> {
        let mut avg = self.lanes.finish()?;
        Ok(self
            .dims
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|&d| avg.by_ref().take(d).collect())
                    .collect()
            })
            .collect())
    }
}

/// Server side of round 2: sample-weighted average of client moments.
/// Batch wrapper over [`MomentAccumulator`].
pub fn aggregate_moments(
    client_stats: &[(Vec<Vec<Vec<f32>>>, usize)],
) -> Result<Vec<Vec<Vec<f32>>>, ProtocolError> {
    let mut acc = MomentAccumulator::new();
    for (moments, n) in client_stats {
        acc.push(moments, *n)?;
    }
    acc.finish()
}

/// Runs the full 2-round protocol over per-client hidden activations and
/// returns the global stats.
pub fn exchange(
    per_client_hidden: &[Vec<&Matrix>],
    max_order: u32,
) -> Result<GlobalStats, ProtocolError> {
    // Round 1.
    let mut mean_acc = MeanAccumulator::new();
    for h in per_client_hidden {
        mean_acc.push(&client_means(h), h.first().map_or(0, |z| z.rows()))?;
    }
    let means = mean_acc.finish()?;
    // Round 2.
    let mut moment_acc = MomentAccumulator::new();
    for h in per_client_hidden {
        moment_acc.push(
            &client_moments_about(h, &means, max_order),
            h.first().map_or(0, |z| z.rows()),
        )?;
    }
    let moments = moment_acc.finish()?;
    Ok(GlobalStats { means, moments })
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
    use fedomd_tensor::rng::seeded;
    use proptest::prelude::*;
    use rand::Rng;

    fn act(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        fedomd_tensor::init::standard_normal(rows, cols, &mut rng).map(|v| v.abs() * 0.3)
    }

    #[test]
    fn aggregate_means_is_weighted() {
        let a = (vec![vec![0.0f32, 0.0]], 1usize);
        let b = (vec![vec![3.0f32, 6.0]], 2usize);
        let m = aggregate_means(&[a, b]).expect("two well-formed clients");
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
        assert_eq!(exchange(&[], 5).unwrap_err(), ProtocolError::NoClients);
        assert_eq!(aggregate_means(&[]).unwrap_err(), ProtocolError::NoClients);
        assert_eq!(
            aggregate_moments(&[]).unwrap_err(),
            ProtocolError::NoClients
        );
    }

    #[test]
    fn zero_total_samples_rejected() {
        let stats = vec![(vec![vec![1.0f32, 2.0]], 0usize); 3];
        assert_eq!(
            aggregate_means(&stats).unwrap_err(),
            ProtocolError::ZeroTotalSamples
        );
    }

    #[test]
    fn shape_mismatches_are_typed_errors() {
        let mut acc = MeanAccumulator::new();
        acc.push(&[vec![1.0, 2.0], vec![3.0]], 4)
            .expect("first push");
        assert_eq!(
            acc.push(&[vec![1.0, 2.0]], 4).unwrap_err(),
            ProtocolError::LayerArity {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            acc.push(&[vec![1.0, 2.0], vec![3.0, 4.0]], 4).unwrap_err(),
            ProtocolError::Dimension {
                layer: 1,
                expected: 1,
                got: 2
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
            ProtocolError::OrderArity {
                layer: 0,
                expected: 2,
                got: 1
            }
        );
    }

    /// Deterministic per-client payload for the bit-identity proptests.
    fn mean_payload(dims: &[usize], seed: u64) -> Vec<Vec<f32>> {
        let mut rng = seeded(seed);
        dims.iter()
            .map(|&d| (0..d).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect()
    }

    fn moment_payload(dims: &[usize], orders: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
        let mut rng = seeded(seed);
        dims.iter()
            .map(|&d| {
                (0..orders)
                    .map(|_| (0..d).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
                    .collect()
            })
            .collect()
    }

    /// Overwrites a few entries with NaN/±∞. The aggregation paths make
    /// no finiteness checks, so a poisoned upload must flow through the
    /// streaming and batch folds bit-identically — the same IEEE
    /// operations in the same order — rather than diverging in one of
    /// them.
    fn poison_slice(values: &mut [f32], seed: u64) {
        const SPECIALS: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut rng = seeded(seed);
        for _ in 0..1 + values.len() / 5 {
            let i = rng.gen_range(0..values.len());
            values[i] = SPECIALS[rng.gen_range(0..SPECIALS.len())];
        }
    }

    proptest! {
        /// The streaming accumulator and the batch reference agree bit for
        /// bit on ragged sample counts — including agreeing on the error
        /// when every count is zero.
        #[test]
        fn mean_streaming_batch_bit_identical(
            seed in 0u64..1_000_000,
            dims in proptest::collection::vec(1usize..6, 1..4),
            samples in proptest::collection::vec(0usize..50, 1..24),
        ) {
            let payloads: Vec<(Vec<Vec<f32>>, usize)> = samples
                .iter()
                .enumerate()
                .map(|(i, &n)| (mean_payload(&dims, seed.wrapping_add(i as u64)), n))
                .collect();

            let batch = aggregate_means(&payloads);
            let mut acc = MeanAccumulator::new();
            for (m, n) in &payloads {
                acc.push(m, *n).unwrap();
            }
            let streaming = acc.finish();

            match batch {
                Ok(ref b) => {
                    let t = streaming.unwrap();
                    for l in 0..b.len() {
                        for d in 0..b[l].len() {
                            prop_assert_eq!(b[l][d].to_bits(), t[l][d].to_bits());
                        }
                    }
                }
                Err(e) => {
                    prop_assert_eq!(streaming.unwrap_err(), e);
                }
            }
        }

        #[test]
        fn moment_streaming_batch_bit_identical(
            seed in 0u64..1_000_000,
            dims in proptest::collection::vec(1usize..5, 1..3),
            orders in 1usize..5,
            samples in proptest::collection::vec(0usize..50, 1..24),
        ) {
            let payloads: Vec<(Vec<Vec<Vec<f32>>>, usize)> = samples
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    (moment_payload(&dims, orders, seed.wrapping_add(i as u64)), n)
                })
                .collect();

            let batch = aggregate_moments(&payloads);
            let mut acc = MomentAccumulator::new();
            for (m, n) in &payloads {
                acc.push(m, *n).unwrap();
            }
            let streaming = acc.finish();

            match batch {
                Ok(ref b) => {
                    let t = streaming.unwrap();
                    for l in 0..b.len() {
                        for o in 0..b[l].len() {
                            for d in 0..b[l][o].len() {
                                prop_assert_eq!(b[l][o][d].to_bits(), t[l][o][d].to_bits());
                            }
                        }
                    }
                }
                Err(e) => {
                    prop_assert_eq!(streaming.unwrap_err(), e);
                }
            }
        }

        /// A poisoned mean upload (NaN/±∞ entries) corrupts the streaming
        /// and batch paths identically — bit for bit, NaN payloads
        /// included.
        #[test]
        fn mean_nonfinite_payloads_stay_bit_identical(
            seed in 0u64..1_000_000,
            dims in proptest::collection::vec(1usize..6, 1..4),
            samples in proptest::collection::vec(1usize..50, 2..24),
            victim in 0usize..24,
        ) {
            let mut payloads: Vec<(Vec<Vec<f32>>, usize)> = samples
                .iter()
                .enumerate()
                .map(|(i, &n)| (mean_payload(&dims, seed.wrapping_add(i as u64)), n))
                .collect();
            let victim = victim % payloads.len();
            for (l, layer) in payloads[victim].0.iter_mut().enumerate() {
                poison_slice(layer, seed ^ (l as u64 + 1));
            }

            let batch = aggregate_means(&payloads).unwrap();
            let mut seq = MeanAccumulator::new();
            for (m, n) in &payloads {
                seq.push(m, *n).unwrap();
            }
            let seq = seq.finish().unwrap();

            for l in 0..batch.len() {
                for d in 0..batch[l].len() {
                    let want = batch[l][d].to_bits();
                    prop_assert_eq!(want, seq[l][d].to_bits());
                }
            }
        }

        /// Same pinning for the raw-moment paths: one client uploading
        /// non-finite moments poisons every aggregation path the same way.
        #[test]
        fn moment_nonfinite_payloads_stay_bit_identical(
            seed in 0u64..1_000_000,
            dims in proptest::collection::vec(1usize..5, 1..3),
            orders in 1usize..5,
            samples in proptest::collection::vec(1usize..50, 2..24),
            victim in 0usize..24,
        ) {
            let mut payloads: Vec<(Vec<Vec<Vec<f32>>>, usize)> = samples
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    (moment_payload(&dims, orders, seed.wrapping_add(i as u64)), n)
                })
                .collect();
            let victim = victim % payloads.len();
            for (l, layer) in payloads[victim].0.iter_mut().enumerate() {
                for (o, ord) in layer.iter_mut().enumerate() {
                    poison_slice(ord, seed ^ ((l * 8 + o) as u64 + 1));
                }
            }

            let batch = aggregate_moments(&payloads).unwrap();
            let mut seq = MomentAccumulator::new();
            for (m, n) in &payloads {
                seq.push(m, *n).unwrap();
            }
            let seq = seq.finish().unwrap();

            for l in 0..batch.len() {
                for o in 0..batch[l].len() {
                    for d in 0..batch[l][o].len() {
                        let want = batch[l][o][d].to_bits();
                        prop_assert_eq!(want, seq[l][o][d].to_bits());
                    }
                }
            }
        }
    }
}
