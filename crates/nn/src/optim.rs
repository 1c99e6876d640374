//! Optimisers: SGD with momentum and Adam, both with decoupled weight
//! decay (the paper fixes weight decay to 1e-4, §5.1).

use fedomd_tensor::Matrix;

/// A first-order optimiser over a flat list of parameter matrices.
pub trait Optimizer: Send {
    /// Applies one update. `params` and `grads` must be aligned and keep
    /// the same arity/shapes across calls (state is positional).
    fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]);

    /// Clears momentum/moment state (used when a client receives fresh
    /// global weights and local state is stale).
    fn reset(&mut self);

    /// The configured learning rate.
    fn learning_rate(&self) -> f32;
}

/// Stochastic gradient descent with classical momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Plain SGD (`momentum = 0`).
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self::with_momentum(lr, 0.0, weight_decay)
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "Sgd: learning rate must be positive");
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Snapshots the momentum velocity (empty before the first step), for
    /// run checkpoints.
    pub fn state(&self) -> Vec<Matrix> {
        self.velocity.clone()
    }

    /// Restores a snapshot taken by [`Sgd::state`]. Like
    /// [`Adam::set_state`], a list not aligned with the parameters of the
    /// upcoming steps is silently re-initialised.
    pub fn set_state(&mut self, velocity: Vec<Matrix>) {
        self.velocity = velocity;
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "Sgd::step: arity mismatch");
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
        }
        for ((p, g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            assert_eq!(p.shape(), g.shape(), "Sgd::step: shape mismatch");
            for ((pv, &gv), vv) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(v.as_mut_slice())
            {
                let eff = gv + self.weight_decay * *pv;
                *vv = self.momentum * *vv + eff;
                *pv -= self.lr * *vv;
            }
        }
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adam (Kingma & Ba) with decoupled weight decay (AdamW-style).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

/// The moment state of an [`Adam`] optimiser, exportable for run
/// checkpoints. A freshly constructed `Adam` has `t = 0` and empty moment
/// lists (state is allocated lazily on the first step).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdamState {
    /// Step counter driving bias correction.
    pub t: u64,
    /// First-moment estimates, aligned with the parameter list.
    pub m: Vec<Matrix>,
    /// Second-moment estimates, aligned with the parameter list.
    pub v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the standard `β₁ = 0.9, β₂ = 0.999, ε = 1e-8`.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "Adam: learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Snapshots the mutable state (step counter and both moment lists).
    pub fn state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a snapshot taken by [`Adam::state`]. The moment lists must
    /// be aligned with the parameters of the upcoming [`Optimizer::step`]
    /// calls — a mismatched arity triggers the lazy re-initialisation path
    /// and silently discards the restored moments.
    ///
    /// # Panics
    /// Panics when `m` and `v` have different arity.
    pub fn set_state(&mut self, state: AdamState) {
        assert_eq!(
            state.m.len(),
            state.v.len(),
            "AdamState: m/v arity mismatch"
        );
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "Adam::step: arity mismatch");
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            assert_eq!(p.shape(), g.shape(), "Adam::step: shape mismatch");
            for (((pv, &gv), mv), vv) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice())
                .zip(v.as_mut_slice())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                // Decoupled weight decay, applied directly to the weights.
                *pv -= self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * *pv);
            }
        }
    }

    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimises f(w) = 0.5‖w − target‖² with gradient (w − target).
    fn converges(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let target = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]);
        let mut params = vec![Matrix::zeros(2, 2)];
        for _ in 0..steps {
            let grad = fedomd_tensor::ops::sub(&params[0], &target);
            opt.step(&mut params, &[grad]);
        }
        fedomd_tensor::ops::sub(&params[0], &target).frobenius_norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.2, 0.0);
        assert!(converges(&mut opt, 200) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        assert!(converges(&mut opt, 300) < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1, 0.0);
        assert!(converges(&mut opt, 500) < 1e-2);
    }

    #[test]
    fn weight_decay_shrinks_weights_under_zero_gradient() {
        let mut opt = Sgd::new(0.1, 0.5);
        let mut params = vec![Matrix::full(1, 1, 1.0)];
        let zero_grad = vec![Matrix::zeros(1, 1)];
        for _ in 0..10 {
            opt.step(&mut params, &zero_grad);
        }
        assert!(params[0][(0, 0)] < 1.0);
        assert!(params[0][(0, 0)] > 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Adam::new(0.1, 0.0);
        let mut params = vec![Matrix::zeros(1, 1)];
        opt.step(&mut params, &[Matrix::full(1, 1, 1.0)]);
        opt.reset();
        assert_eq!(opt.t, 0);
        assert!(opt.m.is_empty());
    }

    #[test]
    fn sgd_velocity_roundtrip_continues_identically() {
        let grad = [Matrix::from_vec(1, 2, vec![0.5, -1.0])];
        let mut straight = Sgd::with_momentum(0.1, 0.9, 0.0);
        let mut a = vec![Matrix::zeros(1, 2)];
        straight.step(&mut a, &grad);
        let mut restored = Sgd::with_momentum(0.1, 0.9, 0.0);
        restored.set_state(straight.state());
        let mut b = a.clone();
        straight.step(&mut a, &grad);
        restored.step(&mut b, &grad);
        assert_eq!(a[0].as_slice(), b[0].as_slice());
        assert_eq!(
            straight.state()[0].as_slice(),
            restored.state()[0].as_slice()
        );
    }

    #[test]
    fn adam_state_roundtrip_continues_identically() {
        // Two optimisers: one steps straight through, the other is
        // snapshotted halfway and restored into a fresh instance. Their
        // trajectories must match bit for bit.
        let target = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]);
        let step = |opt: &mut Adam, params: &mut Vec<Matrix>| {
            let grad = fedomd_tensor::ops::sub(&params[0], &target);
            opt.step(params, &[grad]);
        };

        let mut full = Adam::new(0.1, 1e-4);
        let mut full_params = vec![Matrix::zeros(2, 2)];
        for _ in 0..10 {
            step(&mut full, &mut full_params);
        }

        let mut head = Adam::new(0.1, 1e-4);
        let mut params = vec![Matrix::zeros(2, 2)];
        for _ in 0..5 {
            step(&mut head, &mut params);
        }
        let snap = head.state();
        assert_eq!(snap.t, 5);
        let mut tail = Adam::new(0.1, 1e-4);
        tail.set_state(snap);
        for _ in 0..5 {
            step(&mut tail, &mut params);
        }

        assert_eq!(params, full_params);
        assert_eq!(tail.state(), full.state());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn step_rejects_arity_mismatch() {
        let mut opt = Sgd::new(0.1, 0.0);
        let mut params = vec![Matrix::zeros(1, 1)];
        opt.step(&mut params, &[]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0, 0.0);
    }
}
