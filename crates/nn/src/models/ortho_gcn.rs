//! The paper's local model (its Table 1): a GCNConv input layer, a stack of
//! OrthoConv hidden layers, and a GCNConv output layer.
//!
//! An OrthoConv propagates `Z ← ReLU(Ŝ · Z · W̃_k)` where `W̃_k` is the
//! hidden weight re-scaled to the Frobenius norm of an orthonormal matrix
//! (`√d_h`), the "spectral bounding normalization" `Q̃ = Q/‖Q‖_F` of §4.3.
//! Orthogonality itself is maintained by (a) the soft penalty of Eq. 6,
//! applied by the trainer to [`ForwardOut::ortho_weight_vars`], and (b) a
//! periodic Newton–Schulz projection in [`Model::post_step`]. The
//! normalisation factor is treated as a constant of the step
//! (stop-gradient), as weight-norm style parameterisations do.

use fedomd_autograd::Tape;
use fedomd_tensor::{xavier_uniform, Matrix};
use rand_chacha::ChaCha8Rng;

use crate::model::{ForwardOut, GraphInput, Model};
use crate::ortho::newton_schulz;

/// Hyper-parameters of the Ortho-GCN stack.
#[derive(Clone, Copy, Debug)]
pub struct OrthoGcnConfig {
    /// Input feature dimension `d_i`.
    pub in_dim: usize,
    /// Hidden width `d_h` (paper: 64).
    pub hidden_dim: usize,
    /// Output classes `d_o`.
    pub out_dim: usize,
    /// Number of OrthoConv hidden layers (paper default: 2; swept 2..10 in
    /// its Table 7).
    pub hidden_layers: usize,
    /// Run Newton–Schulz every this many optimiser steps (0 disables).
    pub ns_interval: usize,
    /// Newton–Schulz iterations per projection.
    pub ns_iters: usize,
}

impl OrthoGcnConfig {
    /// The paper's defaults: 64 hidden units, 2 OrthoConv layers.
    pub fn paper(in_dim: usize, out_dim: usize) -> Self {
        Self {
            in_dim,
            hidden_dim: 64,
            out_dim,
            hidden_layers: 2,
            ns_interval: 10,
            ns_iters: 3,
        }
    }
}

/// The Ortho-GCN model.
#[derive(Clone)]
pub struct OrthoGcn {
    cfg: OrthoGcnConfig,
    w_in: Matrix,
    hidden_ws: Vec<Matrix>,
    w_out: Matrix,
    steps: usize,
}

impl OrthoGcn {
    /// Xavier-initialised Ortho-GCN; hidden weights start Newton–Schulz
    /// orthogonalised so the Eq. 6 penalty begins near its minimum.
    pub fn new(cfg: OrthoGcnConfig, rng: &mut ChaCha8Rng) -> Self {
        assert!(
            cfg.hidden_layers >= 1,
            "OrthoGcn: need at least one hidden layer"
        );
        let w_in = xavier_uniform(cfg.in_dim, cfg.hidden_dim, rng);
        let hidden_ws = (1..cfg.hidden_layers)
            .map(|_| newton_schulz(&xavier_uniform(cfg.hidden_dim, cfg.hidden_dim, rng), 20))
            .collect();
        let w_out = xavier_uniform(cfg.hidden_dim, cfg.out_dim, rng);
        Self {
            cfg,
            w_in,
            hidden_ws,
            w_out,
            steps: 0,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &OrthoGcnConfig {
        &self.cfg
    }

    /// Number of OrthoConv layers actually present.
    pub fn n_ortho_layers(&self) -> usize {
        self.hidden_ws.len()
    }
}

impl Model for OrthoGcn {
    fn forward(&self, tape: &mut Tape, input: &GraphInput) -> ForwardOut {
        let w_in = tape.param_copied(&self.w_in);

        // Layer 1 (GCNConv): Z¹ = ReLU(Ŝ·X·W⁰); Ŝ·X is cached.
        let mut z = input.sx_operand().matmul(tape, w_in);
        z = tape.relu(z);

        let mut hidden = vec![z];
        let mut param_vars = vec![w_in];
        let mut ortho_weight_vars = Vec::with_capacity(self.hidden_ws.len());

        // OrthoConv stack: Z ← ReLU(Ŝ·Z·W̃_k).
        let target = (self.cfg.hidden_dim as f32).sqrt();
        for wk in &self.hidden_ws {
            let norm = wk.frobenius_norm().max(1e-12);
            let wv = tape.param_copied(wk);
            param_vars.push(wv);
            ortho_weight_vars.push(wv);

            let zw = tape.matmul(z, wv);
            let zw = tape.scale(zw, target / norm);
            let zp = tape.spmm(input.s.clone(), zw);
            z = tape.relu(zp);
            hidden.push(z);
        }

        // Output layer (GCNConv): logits = Ŝ·Z^{l-1}·W^{l-1}. Softmax is
        // folded into the cross-entropy loss op.
        let w_out = tape.param_copied(&self.w_out);
        param_vars.push(w_out);
        let zw = tape.matmul(z, w_out);
        let logits = tape.spmm(input.s.clone(), zw);

        ForwardOut {
            logits,
            hidden,
            param_vars,
            ortho_weight_vars,
        }
    }

    fn boxed_clone(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<Matrix> {
        let mut out = Vec::with_capacity(self.hidden_ws.len() + 2);
        out.push(self.w_in.clone());
        out.extend(self.hidden_ws.iter().cloned());
        out.push(self.w_out.clone());
        out
    }

    fn set_params(&mut self, params: &[Matrix]) {
        assert_eq!(
            params.len(),
            self.hidden_ws.len() + 2,
            "OrthoGcn::set_params: expected {} matrices",
            self.hidden_ws.len() + 2
        );
        assert_eq!(
            params[0].shape(),
            self.w_in.shape(),
            "OrthoGcn::set_params: w_in shape"
        );
        self.w_in = params[0].clone();
        for (i, wk) in self.hidden_ws.iter_mut().enumerate() {
            assert_eq!(
                params[i + 1].shape(),
                wk.shape(),
                "OrthoGcn::set_params: hidden shape"
            );
            *wk = params[i + 1].clone();
        }
        let last = params.len() - 1;
        assert_eq!(
            params[last].shape(),
            self.w_out.shape(),
            "OrthoGcn::set_params: w_out shape"
        );
        self.w_out = params[last].clone();
    }

    fn post_step(&mut self) {
        self.steps += 1;
        if self.cfg.ns_interval > 0 && self.steps.is_multiple_of(self.cfg.ns_interval) {
            for wk in &mut self.hidden_ws {
                *wk = newton_schulz(wk, self.cfg.ns_iters);
            }
        }
    }

    // The step counter drives the periodic Newton–Schulz pass above, so it
    // is part of the model's resumable state: restoring parameters without
    // it would shift the NS cadence of a resumed run.
    fn steps(&self) -> usize {
        self.steps
    }

    fn set_steps(&mut self, steps: usize) {
        self.steps = steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests_support::{ring_input, train_to_fit};
    use crate::ortho::orthogonality_residual;
    use fedomd_tensor::rng::seeded;

    fn cfg(hidden_layers: usize) -> OrthoGcnConfig {
        OrthoGcnConfig {
            in_dim: 4,
            hidden_dim: 8,
            out_dim: 3,
            hidden_layers,
            ns_interval: 5,
            ns_iters: 3,
        }
    }

    #[test]
    fn forward_shapes_match_table1() {
        let mut rng = seeded(0);
        let m = OrthoGcn::new(cfg(3), &mut rng);
        let input = ring_input(9, 4);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &input);
        assert_eq!(tape.value(out.logits).shape(), (9, 3));
        // hidden layers: Z¹ plus one per OrthoConv (hidden_layers - 1 of them).
        assert_eq!(out.hidden.len(), 3);
        for h in &out.hidden {
            assert_eq!(tape.value(*h).shape(), (9, 8));
        }
        // params: w_in + 2 hidden + w_out.
        assert_eq!(out.param_vars.len(), 4);
        assert_eq!(out.ortho_weight_vars.len(), 2);
    }

    #[test]
    fn single_hidden_layer_has_no_ortho_convs() {
        let mut rng = seeded(1);
        let m = OrthoGcn::new(cfg(1), &mut rng);
        assert_eq!(m.n_ortho_layers(), 0);
        let input = ring_input(5, 4);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &input);
        assert!(out.ortho_weight_vars.is_empty());
        assert_eq!(out.hidden.len(), 1);
    }

    #[test]
    fn init_is_near_orthogonal() {
        let mut rng = seeded(2);
        let m = OrthoGcn::new(cfg(4), &mut rng);
        for wk in &m.hidden_ws {
            let r = orthogonality_residual(wk);
            assert!(r < 0.35, "init residual {r} too large");
        }
    }

    #[test]
    fn post_step_reorthogonalises() {
        let mut rng = seeded(3);
        let mut m = OrthoGcn::new(cfg(2), &mut rng);
        // Corrupt the hidden weight badly.
        m.hidden_ws[0] = m.hidden_ws[0].map(|v| v * 3.0 + 0.1);
        let before = orthogonality_residual(&m.hidden_ws[0]);
        for _ in 0..5 {
            m.post_step();
        }
        let after = orthogonality_residual(&m.hidden_ws[0]);
        assert!(
            after < before,
            "NS projection did not improve: {before} -> {after}"
        );
    }

    #[test]
    fn ortho_gcn_learns_separable_labels() {
        let mut rng = seeded(4);
        let m = OrthoGcn::new(
            OrthoGcnConfig {
                in_dim: 4,
                hidden_dim: 16,
                out_dim: 2,
                hidden_layers: 2,
                ns_interval: 0,
                ns_iters: 0,
            },
            &mut rng,
        );
        let acc = train_to_fit(Box::new(m), 4, 2, 200, 0.1);
        assert!(acc > 0.9, "OrthoGcn failed to fit: acc {acc}");
    }

    #[test]
    fn deep_stack_keeps_activations_alive() {
        // The depth-robustness claim of the paper's Table 7: with
        // orthogonal hidden weights a 9-OrthoConv stack must not collapse
        // activations to zero.
        let mut rng = seeded(5);
        let m = OrthoGcn::new(
            OrthoGcnConfig {
                in_dim: 4,
                hidden_dim: 8,
                out_dim: 3,
                hidden_layers: 10,
                ns_interval: 0,
                ns_iters: 0,
            },
            &mut rng,
        );
        let input = ring_input(12, 4);
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &input);
        let last = tape.value(*out.hidden.last().expect("has hidden"));
        assert!(last.all_finite());
        assert!(
            last.max_abs() > 1e-4,
            "activations collapsed: {}",
            last.max_abs()
        );
        assert!(
            last.max_abs() < 1e4,
            "activations exploded: {}",
            last.max_abs()
        );
    }

    #[test]
    fn params_roundtrip_preserves_arity() {
        let mut rng = seeded(6);
        let m = OrthoGcn::new(cfg(3), &mut rng);
        let snap = m.params();
        assert_eq!(snap.len(), 4);
        let mut m2 = OrthoGcn::new(cfg(3), &mut seeded(60));
        m2.set_params(&snap);
        for (a, b) in m2.params().iter().zip(&snap) {
            assert_eq!(a, b);
        }
    }
}
