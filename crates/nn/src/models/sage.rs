//! A two-layer GraphSAGE with mean aggregation (paper ref. 12) — the local
//! model inside the FedSage+ baseline. Each layer computes
//! `h = ReLU(X·W_self + Ā·X·W_neigh)` where `Ā` is the row-stochastic
//! (mean) aggregator.

use std::sync::Arc;

use fedomd_autograd::Tape;
use fedomd_sparse::Csr;
use fedomd_tensor::{xavier_uniform, Matrix};
use rand_chacha::ChaCha8Rng;

use crate::model::{ForwardOut, GraphInput, Model};

/// Two SAGE layers with separate self/neighbour weights.
#[derive(Clone)]
pub struct GraphSage {
    w_self0: Matrix,
    w_neigh0: Matrix,
    w_self1: Matrix,
    w_neigh1: Matrix,
    /// Row-stochastic mean aggregator (kept by the model because the
    /// generic [`GraphInput`] carries the symmetric Ŝ instead).
    mean_agg: Option<Arc<Csr>>,
}

impl GraphSage {
    /// Xavier-initialised SAGE.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        Self {
            w_self0: xavier_uniform(in_dim, hidden, rng),
            w_neigh0: xavier_uniform(in_dim, hidden, rng),
            w_self1: xavier_uniform(hidden, out_dim, rng),
            w_neigh1: xavier_uniform(hidden, out_dim, rng),
            mean_agg: None,
        }
    }

    /// Installs a row-stochastic aggregator to use instead of the input's
    /// symmetric Ŝ (FedSage+ builds it from the augmented local graph).
    pub fn with_mean_aggregator(mut self, agg: Arc<Csr>) -> Self {
        self.mean_agg = Some(agg);
        self
    }

    fn aggregator(&self, input: &GraphInput) -> Arc<Csr> {
        self.mean_agg.clone().unwrap_or_else(|| input.s.clone())
    }
}

impl Model for GraphSage {
    fn forward(&self, tape: &mut Tape, input: &GraphInput) -> ForwardOut {
        let agg = self.aggregator(input);
        let x = tape.constant_copied(&input.x);
        let ws0 = tape.param_copied(&self.w_self0);
        let wn0 = tape.param_copied(&self.w_neigh0);
        let ws1 = tape.param_copied(&self.w_self1);
        let wn1 = tape.param_copied(&self.w_neigh1);

        let ax = tape.spmm(agg.clone(), x);
        let h_self = tape.matmul(x, ws0);
        let h_neigh = tape.matmul(ax, wn0);
        let h = tape.add(h_self, h_neigh);
        let h = tape.relu(h);

        let ah = tape.spmm(agg, h);
        let o_self = tape.matmul(h, ws1);
        let o_neigh = tape.matmul(ah, wn1);
        let logits = tape.add(o_self, o_neigh);

        ForwardOut {
            logits,
            hidden: vec![h],
            param_vars: vec![ws0, wn0, ws1, wn1],
            ortho_weight_vars: Vec::new(),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<Matrix> {
        vec![
            self.w_self0.clone(),
            self.w_neigh0.clone(),
            self.w_self1.clone(),
            self.w_neigh1.clone(),
        ]
    }

    fn set_params(&mut self, params: &[Matrix]) {
        assert_eq!(
            params.len(),
            4,
            "GraphSage::set_params: expected 4 matrices"
        );
        let shapes = [
            self.w_self0.shape(),
            self.w_neigh0.shape(),
            self.w_self1.shape(),
            self.w_neigh1.shape(),
        ];
        for (p, s) in params.iter().zip(shapes) {
            assert_eq!(p.shape(), s, "GraphSage::set_params: shape mismatch");
        }
        self.w_self0 = params[0].clone();
        self.w_neigh0 = params[1].clone();
        self.w_self1 = params[2].clone();
        self.w_neigh1 = params[3].clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests_support::{ring_input, train_to_fit};
    use fedomd_sparse::row_normalized_adjacency;
    use fedomd_tensor::rng::seeded;

    #[test]
    fn forward_shapes() {
        let mut rng = seeded(0);
        let m = GraphSage::new(4, 8, 3, &mut rng);
        let input = ring_input(6, 4);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &input);
        assert_eq!(tape.value(out.logits).shape(), (6, 3));
        assert_eq!(out.param_vars.len(), 4);
    }

    #[test]
    fn custom_mean_aggregator_is_used() {
        let mut rng = seeded(1);
        let input = ring_input(6, 4);
        // A path (not the ring): degrees differ, so the row-stochastic
        // aggregator genuinely differs from the input's symmetric Ŝ.
        let agg = Arc::new(row_normalized_adjacency(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        ));
        let base = GraphSage::new(4, 8, 3, &mut rng);
        let snap = base.params();
        let mut with_agg = GraphSage::new(4, 8, 3, &mut seeded(1)).with_mean_aggregator(agg);
        with_agg.set_params(&snap);

        let mut t1 = Tape::new();
        let o1 = base.forward(&mut t1, &input);
        let mut t2 = Tape::new();
        let o2 = with_agg.forward(&mut t2, &input);
        // Different aggregators must change the logits.
        let d = fedomd_tensor::ops::sq_distance(t1.value(o1.logits), t2.value(o2.logits));
        assert!(d > 1e-8, "aggregator had no effect");
    }

    #[test]
    fn sage_learns_separable_labels() {
        let mut rng = seeded(2);
        let m = GraphSage::new(4, 16, 2, &mut rng);
        let acc = train_to_fit(Box::new(m), 4, 2, 200, 0.05);
        assert!(acc > 0.9, "SAGE failed to fit: acc {acc}");
    }
}
