//! A 2-layer multi-layer perceptron: the paper's FedMLP local model
//! ("a 2-layer multi-layer perception model with a hidden dimension of
//! 64"), which ignores the graph entirely.

use fedomd_autograd::Tape;
use fedomd_tensor::{xavier_uniform, Matrix};
use rand_chacha::ChaCha8Rng;

use crate::model::{ForwardOut, GraphInput, Model};

/// `logits = ReLU(X·W1 + b1)·W2 + b2`.
#[derive(Clone)]
pub struct Mlp {
    w1: Matrix,
    b1: Matrix,
    w2: Matrix,
    b2: Matrix,
}

impl Mlp {
    /// Xavier-initialised MLP.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        Self {
            w1: xavier_uniform(in_dim, hidden, rng),
            b1: Matrix::zeros(1, hidden),
            w2: xavier_uniform(hidden, out_dim, rng),
            b2: Matrix::zeros(1, out_dim),
        }
    }
}

impl Model for Mlp {
    fn forward(&self, tape: &mut Tape, input: &GraphInput) -> ForwardOut {
        let w1 = tape.param_copied(&self.w1);
        let b1 = tape.param_copied(&self.b1);
        let w2 = tape.param_copied(&self.w2);
        let b2 = tape.param_copied(&self.b2);

        let h = input.x_operand().matmul(tape, w1);
        let h = tape.add_bias(h, b1);
        let h = tape.relu(h);
        let logits = tape.matmul(h, w2);
        let logits = tape.add_bias(logits, b2);

        ForwardOut {
            logits,
            hidden: vec![h],
            param_vars: vec![w1, b1, w2, b2],
            ortho_weight_vars: Vec::new(),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<Matrix> {
        vec![
            self.w1.clone(),
            self.b1.clone(),
            self.w2.clone(),
            self.b2.clone(),
        ]
    }

    fn set_params(&mut self, params: &[Matrix]) {
        assert_eq!(params.len(), 4, "Mlp::set_params: expected 4 matrices");
        assert_eq!(
            params[0].shape(),
            self.w1.shape(),
            "Mlp::set_params: w1 shape"
        );
        assert_eq!(
            params[1].shape(),
            self.b1.shape(),
            "Mlp::set_params: b1 shape"
        );
        assert_eq!(
            params[2].shape(),
            self.w2.shape(),
            "Mlp::set_params: w2 shape"
        );
        assert_eq!(
            params[3].shape(),
            self.b2.shape(),
            "Mlp::set_params: b2 shape"
        );
        self.w1 = params[0].clone();
        self.b1 = params[1].clone();
        self.w2 = params[2].clone();
        self.b2 = params[3].clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests_support::{ring_input, train_to_fit};
    use fedomd_tensor::rng::seeded;

    #[test]
    fn forward_shapes() {
        let mut rng = seeded(0);
        let m = Mlp::new(4, 8, 3, &mut rng);
        let input = ring_input(6, 4);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &input);
        assert_eq!(tape.value(out.logits).shape(), (6, 3));
        assert_eq!(out.hidden.len(), 1);
        assert_eq!(tape.value(out.hidden[0]).shape(), (6, 8));
        assert_eq!(out.param_vars.len(), 4);
        assert!(out.ortho_weight_vars.is_empty());
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = seeded(1);
        let mut m = Mlp::new(3, 5, 2, &mut rng);
        let snap = m.params();
        let mut m2 = Mlp::new(3, 5, 2, &mut seeded(99));
        m2.set_params(&snap);
        for (a, b) in m2.params().iter().zip(&snap) {
            assert_eq!(a, b);
        }
        assert_eq!(m.n_scalars(), 3 * 5 + 5 + 5 * 2 + 2);
        m.set_params(&snap);
    }

    #[test]
    fn mlp_learns_linearly_separable_labels() {
        let mut rng = seeded(2);
        let m = Mlp::new(4, 16, 2, &mut rng);
        let acc = train_to_fit(Box::new(m), 4, 2, 150, 0.05);
        assert!(acc > 0.9, "MLP failed to fit separable data: acc {acc}");
    }
}
