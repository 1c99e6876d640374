//! FedLIT (Xie et al. 2023, paper ref. 34): federated node classification
//! under latent link-type heterogeneity.
//!
//! Mechanism (simplified faithfully, DESIGN.md §3): edges are soft-typed by
//! a federated k-means over edge embeddings `|x_u − x_v|`; each latent type
//! `t` gets its own normalised propagation operator `Ŝ_t` and its own
//! weights, and layers sum over types:
//! `H = ReLU(Σ_t Ŝ_t·X·W⁰_t)`, `logits = Σ_t Ŝ_t·H·W¹_t`.
//! Centroids are aggregated on the server between k-means iterations (the
//! `N·f²`-ish extra server cost in the paper's Table 3 row): each client
//! uploads one `StatsRound1` per latent type, its mean edge embedding
//! weighted by its edge count, and the server folds them through
//! [`MeanAccumulator`] and sends the centroids down as `GlobalStats`. The
//! weights are then trained with plain FedAvg on the one round
//! ([`crate::engine::run`]).
//!
//! The paper observes FedLIT needs "massive samples to cluster latent link
//! types" — with tiny parties the per-type subgraphs become sparse and
//! unstable, which this implementation reproduces.

use std::sync::Arc;

use fedomd_autograd::{Tape, Var};
use fedomd_nn::{ConstOperand, ForwardOut, GraphInput, Model};
use fedomd_sparse::{normalized_adjacency, Csr};
use fedomd_telemetry::{Phase, PhaseStopwatch, RoundObserver};
use fedomd_tensor::rng::{derive, seeded};
use fedomd_tensor::{par, xavier_uniform, Matrix};
use fedomd_transport::{Envelope, Payload, SERVER_SENDER};

use crate::client::ClientData;
use crate::config::TrainConfig;
use crate::engine::charge;
use crate::protocol::MeanAccumulator;

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

/// One client's k-means step: the type of each local edge (its nearest
/// centroid), and per type the sum and count of its edge embeddings.
fn assign(c: &ClientData, centroids: &[Vec<f32>]) -> (Vec<usize>, Vec<(Vec<f64>, usize)>) {
    let f = c.input.n_features();
    let mut types = vec![0usize; c.edges.len()];
    let mut sums: Vec<(Vec<f64>, usize)> = (0..N_TYPES).map(|_| (vec![0.0; f], 0)).collect();
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
        types[e] = t;
        sums[t].1 += 1;
        for (s, x) in sums[t].0.iter_mut().zip(&emb) {
            *s += *x as f64;
        }
    }
    (types, sums)
}

/// Federated k-means over all clients' edge embeddings: clients assign
/// locally and upload their per-type means weighted by edge count, the
/// server averages them into the next centroids. The last of the
/// `KMEANS_ITERS` assignments needs no exchange. Reports every frame to
/// `obs` as `FrameSent` and returns per client the type of each local
/// edge.
fn federated_edge_kmeans(
    clients: &[ClientData],
    seed: u64,
    obs: &mut dyn RoundObserver,
) -> Vec<Vec<usize>> {
    let f = clients.first().map_or(0, |c| c.input.n_features());
    // Initialise centroids from a deterministic spread of one client's edges.
    let mut rng = seeded(derive(seed, 0xE000));
    let mut centroids: Vec<Vec<f32>> = (0..N_TYPES)
        .map(|_| {
            (0..f)
                .map(|_| 0.05 * fedomd_tensor::init::gaussian(&mut rng).abs())
                .collect()
        })
        .collect();

    for _ in 1..KMEANS_ITERS {
        let locals = par::map(clients, |_, c| assign(c, &centroids));
        // Server: fold each type's means into its new centroid; a type no
        // client saw keeps its centroid.
        let mut accs: Vec<MeanAccumulator> = (0..N_TYPES).map(|_| MeanAccumulator::new()).collect();
        for (i, (_, sums)) in locals.into_iter().enumerate() {
            for (acc, (sum, n)) in accs.iter_mut().zip(sums) {
                let means = vec![sum
                    .into_iter()
                    .map(|v| if n > 0 { (v / n as f64) as f32 } else { 0.0 })
                    .collect()];
                let _folded = acc.push(&means, n).is_ok();
                let up = Envelope {
                    round: 0,
                    sender: i as u32,
                    payload: Payload::StatsRound1 {
                        means,
                        n_samples: n as u64,
                    },
                };
                charge(obs, &up, 1);
            }
        }
        for (centroid, acc) in centroids.iter_mut().zip(accs) {
            if let Some(mean) = acc.finish().ok().and_then(|l| l.into_iter().next()) {
                *centroid = mean;
            }
        }
        let down = Envelope {
            round: 0,
            sender: SERVER_SENDER,
            payload: Payload::GlobalStats {
                means: centroids.clone(),
                moments: Vec::new(),
            },
        };
        charge(obs, &down, clients.len());
    }
    par::map(clients, |_, c| assign(c, &centroids).0)
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
    /// Per type `Ŝ_t·X`: the first layer's operands, constant across
    /// steps, so built once with the model.
    sx: Vec<ConstOperand>,
    w0: Vec<Matrix>,
    w1: Vec<Matrix>,
}

impl FedLitModel {
    fn new(ops: Vec<Arc<Csr>>, x: &Matrix, hidden: usize, classes: usize, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let w0 = (0..ops.len())
            .map(|_| xavier_uniform(x.cols(), hidden, &mut rng))
            .collect();
        let w1 = (0..ops.len())
            .map(|_| xavier_uniform(hidden, classes, &mut rng))
            .collect();
        let sx = ops
            .iter()
            .map(|op| ConstOperand::new(Arc::new(op.spmm(x))))
            .collect();
        Self { ops, sx, w0, w1 }
    }
}

/// One layer's pre-activation `Σ_t term(t, W_t)` in type order, recording
/// each type's weight in `vars`.
fn type_sum(
    tape: &mut Tape,
    ws: &[Matrix],
    vars: &mut Vec<Var>,
    mut term: impl FnMut(&mut Tape, usize, Var) -> Var,
) -> Var {
    let mut sum = None;
    for (t, w) in ws.iter().enumerate() {
        let w = tape.param_copied(w);
        vars.push(w);
        let term = term(tape, t, w);
        sum = Some(match sum {
            None => term,
            Some(acc) => tape.add(acc, term),
        });
    }
    #[expect(
        clippy::expect_used,
        reason = "the model holds one weight per edge type and N_TYPES is a \
                  positive constant, so the accumulator is Some"
    )]
    sum.expect("at least one type")
}

impl Model for FedLitModel {
    fn forward(&self, tape: &mut Tape, _input: &GraphInput) -> ForwardOut {
        let mut param_vars = Vec::with_capacity(2 * self.ops.len());
        let pre = type_sum(tape, &self.w0, &mut param_vars, |tape, t, w| {
            self.sx[t].matmul(tape, w)
        });
        let h = tape.relu(pre);
        let logits = type_sum(tape, &self.w1, &mut param_vars, |tape, t, w| {
            let propagated = tape.spmm(self.ops[t].clone(), h);
            tape.matmul(propagated, w)
        });
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
        assert_eq!(
            params.len(),
            2 * self.ops.len(),
            "FedLitModel::set_params: arity"
        );
        for (w, p) in self.w0.iter_mut().chain(&mut self.w1).zip(params) {
            assert_eq!(w.shape(), p.shape(), "FedLitModel::set_params: shape");
            w.clone_from(p);
        }
    }
}

/// FedLIT's set-up: the federated link-type clustering (timed as a
/// [`Phase::Aggregation`] segment, its frames reported to `obs`), then
/// per client a [`FedLitModel`] over its own type operators, all from one
/// common init.
pub(crate) fn setup(
    cfg: &TrainConfig,
    clients: &[ClientData],
    n_classes: usize,
    obs: &mut dyn RoundObserver,
) -> Vec<Box<dyn Model>> {
    let sw = PhaseStopwatch::start(Phase::Aggregation);
    let assignments = federated_edge_kmeans(clients, cfg.seed, obs);
    sw.finish(obs);
    clients
        .iter()
        .zip(&assignments)
        .map(|(c, assign)| {
            Box::new(FedLitModel::new(
                type_operators(c, assign),
                &c.input.x,
                cfg.hidden_dim,
                n_classes,
                derive(cfg.seed, 0xE100),
            )) as Box<dyn Model>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{run_baseline, Baseline};
    use crate::client::{setup_federation, FederationConfig};
    use crate::comms::CommsLog;
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
        let assigns = federated_edge_kmeans(&clients, 0, &mut CommsLog::new());
        assert_eq!(assigns.len(), clients.len());
        for (c, a) in clients.iter().zip(&assigns) {
            assert_eq!(a.len(), c.edges.len());
            assert!(a.iter().all(|&t| t < N_TYPES));
        }
    }

    #[test]
    fn type_operators_cover_all_types() {
        let (clients, _) = mini_clients();
        let assigns = federated_edge_kmeans(&clients, 0, &mut CommsLog::new());
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
        let assigns = federated_edge_kmeans(&clients, 0, &mut CommsLog::new());
        let ops = type_operators(&clients[0], &assigns[0]);
        let model = FedLitModel::new(ops, &clients[0].input.x, 16, k, 0);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &clients[0].input);
        assert_eq!(tape.value(out.logits).shape(), (clients[0].n_nodes(), k));
        assert_eq!(out.param_vars.len(), 2 * N_TYPES);
    }

    /// FedLIT's model reads its own client's operands, not its input, so
    /// a stacked evaluation of it refuses the logits instead of counting
    /// other shards on them.
    #[test]
    #[should_panic(expected = "ignored its stacked input")]
    fn a_stacked_fedlit_model_is_refused() {
        let (clients, k) = mini_clients();
        let assigns = federated_edge_kmeans(&clients, 0, &mut CommsLog::new());
        let ops = type_operators(&clients[0], &assigns[0]);
        let model = FedLitModel::new(ops, &clients[0].input.x, 16, k, 0);
        let _ = crate::EvalCounts::stacked(&model, &[&clients[0], &clients[1]]);
    }

    #[test]
    fn fedlit_runs_and_learns_something() {
        let (clients, k) = mini_clients();
        let cfg = TrainConfig {
            rounds: 30,
            patience: 25,
            ..TrainConfig::mini(0)
        };
        let r = run_baseline(Baseline::FedLit, &clients, k, &cfg);
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

    #[test]
    fn kmeans_traffic_is_one_frame_per_type_up_and_one_down() {
        let (clients, _) = mini_clients();
        let mut comms = CommsLog::new();
        federated_edge_kmeans(&clients, 0, &mut comms);
        let f = clients[0].input.n_features();
        let exchanges = (KMEANS_ITERS - 1) * clients.len();
        let up = Envelope {
            round: 0,
            sender: 0,
            payload: Payload::StatsRound1 {
                means: vec![vec![0.0; f]],
                n_samples: 1,
            },
        };
        let down = Envelope {
            round: 0,
            sender: SERVER_SENDER,
            payload: Payload::GlobalStats {
                means: vec![vec![0.0; f]; N_TYPES],
                moments: Vec::new(),
            },
        };
        assert_eq!(
            comms.uplink_bytes,
            (exchanges * N_TYPES * up.encoded_len()) as u64
        );
        assert_eq!(comms.stats_uplink_bytes, comms.uplink_bytes);
        assert_eq!(
            comms.downlink_bytes,
            (exchanges * down.encoded_len()) as u64
        );
    }
}
