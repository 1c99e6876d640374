//! The 2-layer graph convolutional network of Kipf & Welling (paper
//! reference 17) — the local model behind the LocGCN and FedGCN baselines:
//! `logits = Ŝ · ReLU(Ŝ·X·W₀) · W₁`.

use fedomd_autograd::Tape;
use fedomd_tensor::{xavier_uniform, Matrix};
use rand_chacha::ChaCha8Rng;

use crate::model::{ForwardOut, GraphInput, Model};

/// Two-layer GCN without biases (the standard Planetoid configuration).
#[derive(Clone)]
pub struct Gcn {
    w0: Matrix,
    w1: Matrix,
}

impl Gcn {
    /// Xavier-initialised GCN.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        Self {
            w0: xavier_uniform(in_dim, hidden, rng),
            w1: xavier_uniform(hidden, out_dim, rng),
        }
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.w0.cols()
    }
}

impl Model for Gcn {
    fn forward(&self, tape: &mut Tape, input: &GraphInput) -> ForwardOut {
        let w0 = tape.param_copied(&self.w0);
        let w1 = tape.param_copied(&self.w1);

        // First propagation Ŝ·X is cached in the input.
        let h = input.sx_operand().matmul(tape, w0);
        let h = tape.relu(h);
        let hp = tape.spmm(input.s.clone(), h);
        let logits = tape.matmul(hp, w1);

        ForwardOut {
            logits,
            hidden: vec![h],
            param_vars: vec![w0, w1],
            ortho_weight_vars: Vec::new(),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<Matrix> {
        vec![self.w0.clone(), self.w1.clone()]
    }

    fn set_params(&mut self, params: &[Matrix]) {
        assert_eq!(params.len(), 2, "Gcn::set_params: expected 2 matrices");
        assert_eq!(
            params[0].shape(),
            self.w0.shape(),
            "Gcn::set_params: w0 shape"
        );
        assert_eq!(
            params[1].shape(),
            self.w1.shape(),
            "Gcn::set_params: w1 shape"
        );
        self.w0 = params[0].clone();
        self.w1 = params[1].clone();
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
        let m = Gcn::new(4, 8, 3, &mut rng);
        let input = ring_input(7, 4);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &input);
        assert_eq!(tape.value(out.logits).shape(), (7, 3));
        assert_eq!(out.hidden.len(), 1);
        assert_eq!(out.param_vars.len(), 2);
    }

    #[test]
    fn gcn_learns_separable_labels() {
        let mut rng = seeded(1);
        let m = Gcn::new(4, 16, 2, &mut rng);
        let acc = train_to_fit(Box::new(m), 4, 2, 200, 0.1);
        assert!(acc > 0.9, "GCN failed to fit: acc {acc}");
    }

    #[test]
    fn uses_cached_sx() {
        // Forward through the tape must equal a hand-rolled dense forward.
        let mut rng = seeded(2);
        let m = Gcn::new(3, 4, 2, &mut rng);
        let input = ring_input(5, 3);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &input);

        let h = fedomd_tensor::activation::relu(&fedomd_tensor::gemm::matmul(&input.sx, &m.w0));
        let hp = input.s.spmm(&h);
        let logits = fedomd_tensor::gemm::matmul(&hp, &m.w1);
        tape.value(out.logits).assert_close(&logits, 1e-5);
    }

    #[test]
    #[should_panic(expected = "expected 2 matrices")]
    fn set_params_arity_checked() {
        let mut rng = seeded(3);
        let mut m = Gcn::new(3, 4, 2, &mut rng);
        m.set_params(&[]);
    }
}
