//! SCAFFOLD (Karimireddy et al. 2020, paper ref. 16): FedAvg over the MLP
//! with control variates correcting client drift.
//!
//! Per round, client `i` minimises its loss with the corrected gradient
//! `g − c_i + c`; after `K` local steps it refreshes its control variate
//! with option II of the paper,
//! `c_i⁺ = c_i − c + (w_global − w_i)/(K·η)`, and the server updates
//! `c ← c + mean_i(c_i⁺ − c_i)`. Uplink carries weights *and* the control
//! deltas, which is why SCAFFOLD's server cost row in the paper's Table 3
//! carries the extra `N·f²` term.

use rayon::prelude::*;

use fedomd_autograd::Workspace;
use fedomd_nn::{Model, Optimizer, Sgd};
use fedomd_tensor::rng::derive;
use fedomd_tensor::Matrix;

use crate::client::ClientData;
use crate::comms::{Direction, TrafficClass};
use crate::config::{RunResult, TrainConfig};
use crate::engine::{build_model, ModelKind, RoundDriver};
use crate::helpers::{evaluate, fedavg, local_step};
use fedomd_telemetry::{NullObserver, Phase, PhaseStopwatch, RoundEvent, RoundObserver};

/// Runs SCAFFOLD to completion, without telemetry.
pub fn run_scaffold(clients: &[ClientData], n_classes: usize, cfg: &TrainConfig) -> RunResult {
    run_scaffold_observed(clients, n_classes, cfg, &mut NullObserver)
}

/// Runs SCAFFOLD to completion, reporting round milestones to `obs`.
pub fn run_scaffold_observed(
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    obs: &mut dyn RoundObserver,
) -> RunResult {
    assert!(!clients.is_empty(), "run_scaffold: no clients");
    let m = clients.len();
    let mut models: Vec<Box<dyn Model>> = clients
        .iter()
        .map(|c| {
            build_model(
                ModelKind::Mlp,
                c,
                n_classes,
                cfg.hidden_dim,
                derive(cfg.seed, 0xB000),
            )
        })
        .collect();
    // SCAFFOLD's control-variate refresh (option II) assumes SGD-style
    // local steps — `c_i⁺ = c_i − c + (w_global − w_i)/(K·η)` reads the
    // accumulated gradient out of the weight delta, which adaptive
    // optimisers (Adam) break badly. Momentum-SGD at 3× the federation's
    // base rate keeps the refresh meaningful (momentum folds into an
    // effective step size) while training at a pace comparable to the
    // Adam-based baselines.
    let sgd_lr = cfg.lr * 3.0;
    let mut optimizers: Vec<Sgd> = models
        .iter()
        .map(|_| Sgd::with_momentum(sgd_lr, 0.9, cfg.weight_decay))
        .collect();

    let zeros_like = |params: &[Matrix]| -> Vec<Matrix> {
        params
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect()
    };
    let template = models[0].params();
    // Server control variate c and per-client c_i.
    let mut server_c = zeros_like(&template);
    let mut client_c: Vec<Vec<Matrix>> = (0..m).map(|_| zeros_like(&template)).collect();

    let mut driver = RoundDriver::new(cfg);
    driver.announce("SCAFFOLD", m, obs);
    let n_scalars = models[0].n_scalars();
    let k_steps = cfg.local_epochs.max(1);
    let mut workspaces: Vec<Workspace> = models.iter().map(|_| Workspace::new()).collect();

    for round in 0..cfg.rounds {
        obs.on_event(&RoundEvent::RoundStarted {
            round: round as u64,
        });
        let global = models[0].params();
        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        let server_c_ref = &server_c;
        let global_ref = &global;

        // Parallel local training with corrected gradients; returns the
        // refreshed control variate deltas.
        let outcomes: Vec<(f32, Vec<Matrix>)> = models
            .par_iter_mut()
            .zip(optimizers.par_iter_mut())
            .zip(clients.par_iter())
            .zip(client_c.par_iter_mut())
            .zip(workspaces.par_iter_mut())
            .map(|((((model, opt), client), ci), ws)| {
                let mut loss = 0.0;
                for _ in 0..k_steps {
                    loss = local_step(
                        model,
                        client,
                        opt,
                        ws,
                        |_, _| Vec::new(),
                        |grads| {
                            for ((g, c_i), c) in grads.iter_mut().zip(ci.iter()).zip(server_c_ref) {
                                for ((gv, &cv_i), &cv) in g
                                    .as_mut_slice()
                                    .iter_mut()
                                    .zip(c_i.as_slice())
                                    .zip(c.as_slice())
                                {
                                    *gv += cv - cv_i;
                                }
                            }
                        },
                    );
                }
                // Option II refresh: c_i⁺ = c_i − c + (w_global − w_i)/(Kη).
                let inv = 1.0 / (k_steps as f32 * opt.learning_rate());
                let params = model.params();
                let mut delta = Vec::with_capacity(ci.len());
                for ((c_i, c), (g, w)) in ci
                    .iter_mut()
                    .zip(server_c_ref)
                    .zip(global_ref.iter().zip(&params))
                {
                    let mut d = Matrix::zeros(c_i.rows(), c_i.cols());
                    let ci_s = c_i.as_mut_slice();
                    let (c_s, g_s, w_s) = (c.as_slice(), g.as_slice(), w.as_slice());
                    for (idx, d_v) in d.as_mut_slice().iter_mut().enumerate() {
                        let new = ci_s[idx] - c_s[idx] + (g_s[idx] - w_s[idx]) * inv;
                        *d_v = new - ci_s[idx];
                        ci_s[idx] = new;
                    }
                    delta.push(d);
                }
                (loss, delta)
            })
            .collect();
        for (client, (loss, _)) in outcomes.iter().enumerate() {
            obs.on_event(&RoundEvent::LocalStepDone {
                client: client as u32,
                epoch: (k_steps - 1) as u32,
                loss: *loss as f64,
                ce: *loss as f64,
                ortho: 0.0,
                cmd: 0.0,
            });
        }
        sw.finish(obs);

        // Server: aggregate weights and control deltas.
        let sw = PhaseStopwatch::start(Phase::Aggregation);
        let param_sets: Vec<Vec<Matrix>> = models.iter().map(|mo| mo.params()).collect();
        let new_global = fedavg(&param_sets, &vec![1.0; m]);
        for (_, delta) in &outcomes {
            for (c, d) in server_c.iter_mut().zip(delta) {
                fedomd_tensor::ops::axpy(c, 1.0 / m as f32, d);
            }
        }
        for model in models.iter_mut() {
            model.set_params(&new_global);
        }
        sw.finish(obs);
        obs.on_event(&RoundEvent::AggregationDone { participants: m });
        for _ in 0..m {
            // Weights up/down plus control-variate deltas up and c down.
            driver
                .comms
                .record_scalars(Direction::Uplink, TrafficClass::Weights, 2 * n_scalars);
            driver
                .comms
                .record_scalars(Direction::Downlink, TrafficClass::Weights, 2 * n_scalars);
        }

        let mean_loss =
            outcomes.iter().map(|(l, _)| *l as f64).sum::<f64>() / outcomes.len() as f64;
        let eval = driver.eval_if_due(round, obs, || evaluate(&models, clients));
        driver.end_round(round, mean_loss, eval, obs);
        if driver.stopped() {
            break;
        }
    }
    driver.finish_observed("SCAFFOLD", obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{setup_federation, FederationConfig};
    use fedomd_data::{generate, spec, DatasetName};

    #[test]
    fn scaffold_learns_above_chance() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
        let cfg = TrainConfig {
            rounds: 40,
            patience: 30,
            ..TrainConfig::mini(0)
        };
        let r = run_scaffold(&clients, ds.n_classes, &cfg);
        assert!(r.test_acc > 1.0 / ds.n_classes as f64, "acc {}", r.test_acc);
        assert!(r.test_acc.is_finite());
        // Double traffic versus plain FedAvg.
        assert!(r.comms.uplink_bytes > 0);
    }

    #[test]
    fn scaffold_is_deterministic() {
        let ds = generate(&spec(DatasetName::CoraMini), 1);
        let clients = setup_federation(&ds, &FederationConfig::mini(2, 1));
        let cfg = TrainConfig {
            rounds: 8,
            ..TrainConfig::mini(1)
        };
        let a = run_scaffold(&clients, ds.n_classes, &cfg);
        let b = run_scaffold(&clients, ds.n_classes, &cfg);
        assert_eq!(a.test_acc, b.test_acc);
    }
}
