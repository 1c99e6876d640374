//! A two-layer GraphSAGE with mean aggregation (paper ref. 12) — the local
//! model inside the FedSage+ baseline. Each layer computes
//! `h = ReLU(X·W_self + Ā·X·W_neigh)` where `Ā` is the input's
//! propagation operator `s`: FedSage+ builds its mended inputs on the
//! row-stochastic (mean) aggregator, so the first layer's `Ā·X` is the
//! input's cached `sx`.

use fedomd_autograd::Tape;
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
}

impl GraphSage {
    /// Xavier-initialised SAGE.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        Self {
            w_self0: xavier_uniform(in_dim, hidden, rng),
            w_neigh0: xavier_uniform(in_dim, hidden, rng),
            w_self1: xavier_uniform(hidden, out_dim, rng),
            w_neigh1: xavier_uniform(hidden, out_dim, rng),
        }
    }
}

impl Model for GraphSage {
    fn forward(&self, tape: &mut Tape, input: &GraphInput) -> ForwardOut {
        let ws0 = tape.param_copied(&self.w_self0);
        let wn0 = tape.param_copied(&self.w_neigh0);
        let ws1 = tape.param_copied(&self.w_self1);
        let wn1 = tape.param_copied(&self.w_neigh1);

        let h_self = input.x_operand().matmul(tape, ws0);
        let h_neigh = input.sx_operand().matmul(tape, wn0);
        let h = tape.add(h_self, h_neigh);
        let h = tape.relu(h);

        let ah = tape.spmm(input.s.clone(), h);
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
    use fedomd_tensor::gemm::matmul;
    use fedomd_tensor::ops::axpy;
    use fedomd_tensor::rng::seeded;
    use std::sync::Arc;

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

    /// On an input built on a row-stochastic aggregator `Ā` (a path, so
    /// degrees differ and `Ā` is not the symmetric `Ŝ`), the forward is
    /// `ReLU(X·Ws0 + Ā·X·Wn0)·Ws1 + Ā·H·Wn1`.
    #[test]
    fn the_input_operator_is_the_mean_aggregator() {
        let ring = ring_input(6, 4);
        let agg = Arc::new(row_normalized_adjacency(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        ));
        let input = GraphInput::new(agg.clone(), (*ring.x).clone());
        let m = GraphSage::new(4, 8, 3, &mut seeded(1));
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &input);

        let x = &*input.x;
        let mut h = matmul(x, &m.w_self0);
        axpy(&mut h, 1.0, &matmul(&agg.spmm(x), &m.w_neigh0));
        h.map_inplace(|v| v.max(0.0));
        let mut want = matmul(&h, &m.w_self1);
        axpy(&mut want, 1.0, &matmul(&agg.spmm(&h), &m.w_neigh1));
        tape.value(out.logits).assert_close(&want, 1e-5);
    }

    #[test]
    fn sage_learns_separable_labels() {
        let mut rng = seeded(2);
        let m = GraphSage::new(4, 16, 2, &mut rng);
        let acc = train_to_fit(Box::new(m), 4, 2, 200, 0.05);
        assert!(acc > 0.9, "SAGE failed to fit: acc {acc}");
    }
}
