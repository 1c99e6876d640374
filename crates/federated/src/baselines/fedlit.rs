//! FedLIT (Xie et al. 2023, paper ref. 34): federated node classification
//! under latent link-type heterogeneity.
//!
//! Mechanism (simplified faithfully, DESIGN.md §3): edges are soft-typed by
//! a federated k-means over edge embeddings `|x_u − x_v|`; each latent type
//! `t` gets its own normalised propagation operator `Ŝ_t` and its own
//! weights, and layers sum over types:
//! `H = ReLU(Σ_t Ŝ_t·X·W⁰_t)`, `logits = Σ_t Ŝ_t·H·W¹_t`.
//! Centroids are aggregated on the server between k-means iterations (the
//! `N·f²`-ish extra server cost in the paper's Table 3 row), then weights
//! are trained with plain FedAvg.
//!
//! The paper observes FedLIT needs "massive samples to cluster latent link
//! types" — with tiny parties the per-type subgraphs become sparse and
//! unstable, which this implementation reproduces.

use std::sync::Arc;

use rayon::prelude::*;

use fedomd_autograd::{Tape, Workspace};
use fedomd_nn::{Adam, ForwardOut, GraphInput, Model};
use fedomd_sparse::{normalized_adjacency, Csr};
use fedomd_tensor::rng::{derive, seeded};
use fedomd_tensor::{xavier_uniform, Matrix};

use crate::client::ClientData;
use crate::comms::{Direction, TrafficClass};
use crate::config::{RunResult, TrainConfig};
use crate::engine::RoundDriver;
use crate::helpers::{evaluate, fedavg, local_step};
use fedomd_telemetry::{NullObserver, Phase, PhaseStopwatch, RoundEvent, RoundObserver};

/// Number of latent link types.
const N_TYPES: usize = 3;
/// Federated k-means iterations.
const KMEANS_ITERS: usize = 4;

/// Edge embedding `|x_u − x_v|`.
fn edge_embedding(x: &Matrix, u: usize, v: usize) -> Vec<f32> {
    x.row(u)
        .iter()
        .zip(x.row(v))
        .map(|(a, b)| (a - b).abs())
        .collect()
}

fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Federated k-means over all clients' edge embeddings: clients assign
/// locally, upload (sum, count) per centroid, server averages. Returns per
/// client the type of each local edge.
/// Per-client k-means scratch: (edge-type assignment, per-centroid sums).
type LocalKmeans = (Vec<usize>, Vec<(Vec<f64>, usize)>);

fn federated_edge_kmeans(clients: &[ClientData], seed: u64) -> Vec<Vec<usize>> {
    let f = clients[0].input.n_features();
    // Initialise centroids from a deterministic spread of one client's edges.
    let mut rng = seeded(derive(seed, 0xE000));
    let mut centroids: Vec<Vec<f32>> = (0..N_TYPES)
        .map(|_| {
            (0..f)
                .map(|_| 0.05 * fedomd_tensor::init::gaussian(&mut rng).abs())
                .collect()
        })
        .collect();

    let mut assignments: Vec<Vec<usize>> = clients.iter().map(|c| vec![0; c.edges.len()]).collect();

    for _ in 0..KMEANS_ITERS {
        // Local assignment + local sums.
        let locals: Vec<LocalKmeans> = clients
            .par_iter()
            .map(|c| {
                let mut assign = vec![0usize; c.edges.len()];
                let mut sums: Vec<(Vec<f64>, usize)> =
                    (0..N_TYPES).map(|_| (vec![0.0; f], 0)).collect();
                for (e, &(u, v)) in c.edges.iter().enumerate() {
                    let emb = edge_embedding(&c.input.x, u, v);
                    #[expect(
                        clippy::expect_used,
                        reason = "squared distances of finite embeddings are finite (so \
                                  the partial_cmp is total), and N_TYPES is a positive \
                                  constant (so min_by over the range is never empty)"
                    )]
                    let t = (0..N_TYPES)
                        .min_by(|&a, &b| {
                            sq_dist(&emb, &centroids[a])
                                .partial_cmp(&sq_dist(&emb, &centroids[b]))
                                .expect("finite distances")
                        })
                        .expect("N_TYPES > 0");
                    assign[e] = t;
                    sums[t].1 += 1;
                    for (s, x) in sums[t].0.iter_mut().zip(&emb) {
                        *s += *x as f64;
                    }
                }
                (assign, sums)
            })
            .collect();

        // Server: merge sums into new centroids.
        for t in 0..N_TYPES {
            let mut total = vec![0.0f64; f];
            let mut count = 0usize;
            for (_, sums) in &locals {
                count += sums[t].1;
                for (a, b) in total.iter_mut().zip(&sums[t].0) {
                    *a += *b;
                }
            }
            if count > 0 {
                centroids[t] = total
                    .into_iter()
                    .map(|v| (v / count as f64) as f32)
                    .collect();
            }
        }
        assignments = locals.into_iter().map(|(a, _)| a).collect();
    }
    assignments
}

/// Per-type propagation operators for one client (self-loops everywhere so
/// every type's operator is well defined even with zero edges of that type).
fn type_operators(client: &ClientData, assign: &[usize]) -> Vec<Arc<Csr>> {
    let n = client.n_nodes();
    (0..N_TYPES)
        .map(|t| {
            let edges: Vec<(usize, usize)> = client
                .edges
                .iter()
                .zip(assign)
                .filter(|(_, &a)| a == t)
                .map(|(&e, _)| e)
                .collect();
            Arc::new(normalized_adjacency(n, &edges))
        })
        .collect()
}

/// The per-type two-layer GCN of FedLIT.
#[derive(Clone)]
struct FedLitModel {
    ops: Vec<Arc<Csr>>,
    w0: Vec<Matrix>,
    w1: Vec<Matrix>,
}

impl FedLitModel {
    fn new(ops: Vec<Arc<Csr>>, f: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let w0 = (0..ops.len())
            .map(|_| xavier_uniform(f, hidden, &mut rng))
            .collect();
        let w1 = (0..ops.len())
            .map(|_| xavier_uniform(hidden, classes, &mut rng))
            .collect();
        Self { ops, w0, w1 }
    }
}

impl Model for FedLitModel {
    fn forward(&self, tape: &mut Tape, input: &GraphInput) -> ForwardOut {
        let x = tape.constant_copied(&input.x);
        let mut param_vars = Vec::with_capacity(2 * self.ops.len());

        let mut h_sum = None;
        let mut w0_vars = Vec::with_capacity(self.ops.len());
        for (op, w0) in self.ops.iter().zip(&self.w0) {
            let w = tape.param_copied(w0);
            w0_vars.push(w);
            let sx = tape.spmm(op.clone(), x);
            let term = tape.matmul(sx, w);
            h_sum = Some(match h_sum {
                None => term,
                Some(acc) => tape.add(acc, term),
            });
        }
        #[expect(
            clippy::expect_used,
            reason = "`self.ops` holds one operator per edge type and N_TYPES is a \
                      positive constant, so the accumulator is Some"
        )]
        let h = tape.relu(h_sum.expect("at least one type"));

        let mut logit_sum = None;
        let mut w1_vars = Vec::with_capacity(self.ops.len());
        for (op, w1) in self.ops.iter().zip(&self.w1) {
            let w = tape.param_copied(w1);
            w1_vars.push(w);
            let sh = tape.spmm(op.clone(), h);
            let term = tape.matmul(sh, w);
            logit_sum = Some(match logit_sum {
                None => term,
                Some(acc) => tape.add(acc, term),
            });
        }
        #[expect(
            clippy::expect_used,
            reason = "as above: the per-type loop ran at least once"
        )]
        let logits = logit_sum.expect("at least one type");

        param_vars.extend(w0_vars);
        param_vars.extend(w1_vars);
        ForwardOut {
            logits,
            hidden: vec![h],
            param_vars,
            ortho_weight_vars: Vec::new(),
        }
    }

    fn boxed_clone(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<Matrix> {
        self.w0.iter().chain(&self.w1).cloned().collect()
    }

    fn set_params(&mut self, params: &[Matrix]) {
        let t = self.ops.len();
        assert_eq!(
            params.len(),
            2 * t,
            "FedLitModel::set_params: expected {} matrices",
            2 * t
        );
        for (i, w) in self.w0.iter_mut().enumerate() {
            assert_eq!(
                params[i].shape(),
                w.shape(),
                "FedLitModel::set_params: w0 shape"
            );
            *w = params[i].clone();
        }
        for (i, w) in self.w1.iter_mut().enumerate() {
            assert_eq!(
                params[t + i].shape(),
                w.shape(),
                "FedLitModel::set_params: w1 shape"
            );
            *w = params[t + i].clone();
        }
    }
}

/// Runs FedLIT to completion, without telemetry.
pub fn run_fedlit(clients: &[ClientData], n_classes: usize, cfg: &TrainConfig) -> RunResult {
    run_fedlit_observed(clients, n_classes, cfg, &mut NullObserver)
}

/// Runs FedLIT to completion, reporting round milestones to `obs`.
pub fn run_fedlit_observed(
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    obs: &mut dyn RoundObserver,
) -> RunResult {
    assert!(!clients.is_empty(), "run_fedlit: no clients");
    let m = clients.len();
    let f = clients[0].input.n_features();
    let mut driver = RoundDriver::new(cfg);
    driver.announce("FedLIT", m, obs);

    // Federated link-type clustering.
    let sw = PhaseStopwatch::start(Phase::Aggregation);
    let assignments = federated_edge_kmeans(clients, cfg.seed);
    sw.finish(obs);
    for (c, _) in clients.iter().zip(&assignments) {
        // Each k-means iteration ships N_TYPES centroid sums (f floats each).
        driver.comms.record_scalars(
            Direction::Uplink,
            TrafficClass::Stats,
            KMEANS_ITERS * N_TYPES * f,
        );
        driver.comms.record_scalars(
            Direction::Downlink,
            TrafficClass::Stats,
            KMEANS_ITERS * N_TYPES * f,
        );
        let _ = c;
    }

    let mut models: Vec<Box<dyn Model>> = clients
        .iter()
        .zip(&assignments)
        .map(|(c, assign)| {
            let ops = type_operators(c, assign);
            Box::new(FedLitModel::new(
                ops,
                f,
                cfg.hidden_dim,
                n_classes,
                derive(cfg.seed, 0xE100),
            )) as Box<dyn Model>
        })
        .collect();
    let mut optimizers: Vec<Adam> = models
        .iter()
        .map(|_| Adam::new(cfg.lr, cfg.weight_decay))
        .collect();
    let n_scalars = models[0].n_scalars();
    let mut workspaces: Vec<Workspace> = models.iter().map(|_| Workspace::new()).collect();

    for round in 0..cfg.rounds {
        obs.on_event(&RoundEvent::RoundStarted {
            round: round as u64,
        });
        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        let losses: Vec<f32> = models
            .par_iter_mut()
            .zip(optimizers.par_iter_mut())
            .zip(clients.par_iter())
            .zip(workspaces.par_iter_mut())
            .map(|(((model, opt), client), ws)| {
                let mut loss = 0.0;
                for _ in 0..cfg.local_epochs {
                    loss = local_step(model, client, opt, ws, |_, _| Vec::new(), |_| {});
                }
                loss
            })
            .collect();
        for (client, &loss) in losses.iter().enumerate() {
            obs.on_event(&RoundEvent::LocalStepDone {
                client: client as u32,
                epoch: (cfg.local_epochs.max(1) - 1) as u32,
                loss: loss as f64,
                ce: loss as f64,
                ortho: 0.0,
                cmd: 0.0,
            });
        }
        sw.finish(obs);

        let sw = PhaseStopwatch::start(Phase::Aggregation);
        let sets: Vec<Vec<Matrix>> = models.iter().map(|mo| mo.params()).collect();
        let global = fedavg(&sets, &vec![1.0; m]);
        for mo in models.iter_mut() {
            mo.set_params(&global);
        }
        sw.finish(obs);
        obs.on_event(&RoundEvent::AggregationDone { participants: m });
        for _ in 0..m {
            driver
                .comms
                .record_scalars(Direction::Uplink, TrafficClass::Weights, n_scalars);
            driver
                .comms
                .record_scalars(Direction::Downlink, TrafficClass::Weights, n_scalars);
        }

        let mean_loss = losses.iter().map(|&l| l as f64).sum::<f64>() / losses.len() as f64;
        let eval = driver.eval_if_due(round, obs, || evaluate(&models, clients));
        driver.end_round(round, mean_loss, eval, obs);
        if driver.stopped() {
            break;
        }
    }
    driver.finish_observed("FedLIT", obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{setup_federation, FederationConfig};
    use fedomd_data::{generate, spec, DatasetName};

    fn mini_clients() -> (Vec<ClientData>, usize) {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        (
            setup_federation(&ds, &FederationConfig::mini(3, 0)),
            ds.n_classes,
        )
    }

    #[test]
    fn kmeans_assigns_every_edge_a_type() {
        let (clients, _) = mini_clients();
        let assigns = federated_edge_kmeans(&clients, 0);
        assert_eq!(assigns.len(), clients.len());
        for (c, a) in clients.iter().zip(&assigns) {
            assert_eq!(a.len(), c.edges.len());
            assert!(a.iter().all(|&t| t < N_TYPES));
        }
    }

    #[test]
    fn type_operators_cover_all_types() {
        let (clients, _) = mini_clients();
        let assigns = federated_edge_kmeans(&clients, 0);
        let ops = type_operators(&clients[0], &assigns[0]);
        assert_eq!(ops.len(), N_TYPES);
        for op in &ops {
            assert_eq!(op.rows(), clients[0].n_nodes());
            // Self-loops guarantee nnz >= n even for empty types.
            assert!(op.nnz() >= clients[0].n_nodes());
        }
    }

    #[test]
    fn fedlit_model_forward_shapes() {
        let (clients, k) = mini_clients();
        let assigns = federated_edge_kmeans(&clients, 0);
        let ops = type_operators(&clients[0], &assigns[0]);
        let f = clients[0].input.n_features();
        let model = FedLitModel::new(ops, f, 16, k, 0);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &clients[0].input);
        assert_eq!(tape.value(out.logits).shape(), (clients[0].n_nodes(), k));
        assert_eq!(out.param_vars.len(), 2 * N_TYPES);
    }

    #[test]
    fn fedlit_runs_and_learns_something() {
        let (clients, k) = mini_clients();
        let cfg = TrainConfig {
            rounds: 30,
            patience: 25,
            ..TrainConfig::mini(0)
        };
        let r = run_fedlit(&clients, k, &cfg);
        assert!(r.test_acc.is_finite());
        assert!(
            r.test_acc > 1.0 / k as f64,
            "acc {} at or below chance",
            r.test_acc
        );
        assert!(
            r.comms.stats_uplink_bytes > 0,
            "centroid traffic not accounted"
        );
    }
}
