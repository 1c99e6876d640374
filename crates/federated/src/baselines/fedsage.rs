//! FedSage+ (Zhang et al. 2021, paper ref. 38): local GraphSAGE training
//! over graphs *augmented with generated missing neighbours*.
//!
//! Faithful simplified mechanism (DESIGN.md §3):
//!
//! 1. **Impair** — each client hides a fraction of its nodes, producing
//!    supervision for "how many neighbours am I missing and what do they
//!    look like".
//! 2. **NeighGen** — a linear generator (count head + feature head) is
//!    trained on the impaired graph; the "+" federation of the original
//!    paper (cross-client feature gradients) becomes FedAvg over the
//!    generator weights, folded by the server's [`ServerRound`].
//! 3. **Mend** — the generator runs on the intact local graph; nodes with
//!    high predicted missing-count receive synthetic neighbours with the
//!    predicted features.
//! 4. **Train** — FedAvg over [`GraphSage`] on the mended graphs, on the
//!    one round ([`crate::engine::run`]).
//!
//! Under the paper's 1 % label rate the generator is trained from very few
//! reliable nodes, which is exactly the failure mode §5.2 attributes to
//! FedSage+ ("demand ... massive samples to ... maintain sampling
//! effectiveness").

use std::sync::Arc;

use rayon::prelude::*;

use fedomd_autograd::Tape;
use fedomd_nn::{Adam, ConstOperand, GraphInput, GraphSage, Model, Optimizer};
use fedomd_sparse::row_normalized_adjacency;
use fedomd_telemetry::{Phase, PhaseStopwatch, RoundObserver};
use fedomd_tensor::rng::{derive, seeded};
use fedomd_tensor::{xavier_uniform, Matrix};
use fedomd_transport::{from_tensors, to_tensors, Envelope, Payload, SERVER_SENDER};

use crate::client::ClientData;
use crate::config::TrainConfig;
use crate::engine::charge;
use crate::session::ServerRound;

/// Fraction of nodes hidden to create generator supervision.
const HIDE_FRACTION: f64 = 0.25;
/// Generator training epochs.
const GEN_EPOCHS: usize = 30;
/// Maximum synthetic neighbours generated per node (the paper's `g`).
const MAX_GEN_PER_NODE: usize = 2;

/// The linear missing-neighbour generator: a count head `f → 1` and a
/// feature head `f → f`.
struct NeighGen {
    w_count: Matrix,
    w_feat: Matrix,
}

impl NeighGen {
    fn new(f: usize, seed: u64) -> Self {
        let mut rng = seeded(seed);
        Self {
            w_count: xavier_uniform(f, 1, &mut rng),
            w_feat: xavier_uniform(f, f, &mut rng),
        }
    }

    fn params(&self) -> Vec<Matrix> {
        vec![self.w_count.clone(), self.w_feat.clone()]
    }

    fn set_params(&mut self, p: &[Matrix]) {
        self.w_count = p[0].clone();
        self.w_feat = p[1].clone();
    }

    /// One Adam step on the impaired-graph supervision.
    fn train_step(
        &mut self,
        opt: &mut Adam,
        x_impaired: &ConstOperand,
        target_counts: &Matrix,
        target_feats: &Matrix,
    ) {
        let n = target_counts.rows().max(1) as f32;
        let mut tape = Tape::new();
        let wc = tape.param(self.w_count.clone());
        let wf = tape.param(self.w_feat.clone());
        let pred_c = x_impaired.matmul(&mut tape, wc);
        let pred_f = x_impaired.matmul(&mut tape, wf);
        let lc = tape.sq_diff(pred_c, target_counts);
        let lf = tape.sq_diff(pred_f, target_feats);
        let lc = tape.scale(lc, 1.0 / n);
        let lf = tape.scale(lf, 1.0 / n);
        let loss = tape.add(lc, lf);
        tape.backward(loss);
        #[expect(
            clippy::expect_used,
            reason = "both params were registered on this tape and participate in \
                      `loss`, so `backward` always writes their grads"
        )]
        let grads = vec![
            tape.grad(wc).cloned().expect("wc grad"),
            tape.grad(wf).cloned().expect("wf grad"),
        ];
        let mut params = self.params();
        opt.step(&mut params, &grads);
        self.set_params(&params);
    }

    /// Predicted (counts, features) on the intact graph.
    fn predict(&self, x: &ConstOperand) -> (Matrix, Matrix) {
        (x.product(&self.w_count), x.product(&self.w_feat))
    }
}

/// Generator supervision from hiding a node subset: for each kept node,
/// how many of its neighbours were hidden and their mean feature vector.
fn impair(client: &ClientData, seed: u64) -> (Matrix, Matrix, Matrix) {
    let n = client.n_nodes();
    let mut rng = seeded(seed);
    use rand::Rng;
    let hidden: Vec<bool> = (0..n).map(|_| rng.gen_bool(HIDE_FRACTION)).collect();

    let f = client.input.n_features();
    let mut counts = Matrix::zeros(n, 1);
    let mut feats = Matrix::zeros(n, f);
    for &(u, v) in &client.edges {
        for (a, b) in [(u, v), (v, u)] {
            if !hidden[a] && hidden[b] {
                counts[(a, 0)] += 1.0;
                let row = client.input.x.row(b).to_vec();
                for (fv, xv) in feats.row_mut(a).iter_mut().zip(&row) {
                    *fv += xv;
                }
            }
        }
    }
    for r in 0..n {
        let c = counts[(r, 0)];
        if c > 0.0 {
            for fv in feats.row_mut(r) {
                *fv /= c;
            }
        }
    }
    // Inputs are the intact features of the *kept* nodes; hidden nodes get
    // zeroed supervision so they contribute nothing.
    let mut x = (*client.input.x).clone();
    for r in 0..n {
        if hidden[r] {
            for v in x.row_mut(r) {
                *v = 0.0;
            }
            counts[(r, 0)] = 0.0;
            for v in feats.row_mut(r) {
                *v = 0.0;
            }
        }
    }
    (x, counts, feats)
}

/// The mended client: original data plus synthetic neighbours, its input
/// built on the row-stochastic aggregator SAGE uses, so that the input's
/// cached `sx` is SAGE's first-layer `Ā·X`.
fn mend(client: &ClientData, gen: &NeighGen, seed: u64) -> ClientData {
    let n = client.n_nodes();
    let f = client.input.n_features();
    let (counts, feats) = gen.predict(client.input.x_operand());
    let mut rng = seeded(seed);

    let mut new_feats: Vec<Vec<f32>> = Vec::new();
    let mut new_edges: Vec<(usize, usize)> = client.edges.clone();
    for u in 0..n {
        let want = counts[(u, 0)].round().max(0.0) as usize;
        for _ in 0..want.min(MAX_GEN_PER_NODE) {
            let idx = n + new_feats.len();
            let mut feat = feats.row(u).to_vec();
            for v in &mut feat {
                *v += 0.01 * fedomd_tensor::init::gaussian(&mut rng);
            }
            new_feats.push(feat);
            new_edges.push((u, idx));
        }
    }

    let total = n + new_feats.len();
    let mut x = Matrix::zeros(total, f);
    for r in 0..n {
        x.row_mut(r).copy_from_slice(client.input.x.row(r));
    }
    for (i, feat) in new_feats.iter().enumerate() {
        x.row_mut(n + i).copy_from_slice(feat);
    }
    let mut labels = client.labels.clone();
    labels.extend(std::iter::repeat_n(0, new_feats.len())); // never in any mask

    let agg = Arc::new(row_normalized_adjacency(total, &new_edges));
    ClientData {
        input: GraphInput::new(agg, x),
        labels,
        splits: client.splits.clone(),
        global_ids: client.global_ids.clone(),
        edges: new_edges,
    }
}

/// FedSage+'s set-up: federated NeighGen training (timed as a
/// [`Phase::LocalTrain`] segment, its frames reported to `obs`), then the
/// mended shards, whose inputs carry their mean aggregators, each with a
/// [`GraphSage`], all from one common init.
pub(crate) fn setup(
    cfg: &TrainConfig,
    clients: &[ClientData],
    n_classes: usize,
    obs: &mut dyn RoundObserver,
) -> (Vec<ClientData>, Vec<Box<dyn Model>>) {
    let m = clients.len();
    let f = clients.first().map_or(0, |c| c.input.n_features());

    // --- Phase 1+2: federated NeighGen training ---
    let sw = PhaseStopwatch::start(Phase::LocalTrain);
    let supervision: Vec<(ConstOperand, Matrix, Matrix)> = clients
        .par_iter()
        .enumerate()
        .map(|(i, c)| {
            let (x, counts, feats) = impair(c, derive(cfg.seed, 0xC100 + i as u64));
            (ConstOperand::new(Arc::new(x)), counts, feats)
        })
        .collect();
    let mut gens: Vec<NeighGen> = (0..m)
        .map(|_| NeighGen::new(f, derive(cfg.seed, 0xC200)))
        .collect();
    let mut gen_opts: Vec<Adam> = (0..m).map(|_| Adam::new(cfg.lr, 0.0)).collect();
    for _ in 0..GEN_EPOCHS {
        gens.par_iter_mut()
            .zip(gen_opts.par_iter_mut())
            .zip(supervision.par_iter())
            .for_each(|((g, opt), (x, tc, tf))| g.train_step(opt, x, tc, tf));
        // The "+": federate the generator itself.
        let mut server = ServerRound::new(false);
        for (i, g) in gens.iter().enumerate() {
            let up = Envelope {
                round: 0,
                sender: i as u32,
                payload: Payload::WeightUpdate {
                    params: to_tensors(&g.params()),
                },
            };
            charge(obs, &up, 1);
            let _admitted = server.admit(up).is_ok();
        }
        if let (_, Some(down)) = server.close_updates() {
            let down = Envelope {
                round: 0,
                sender: SERVER_SENDER,
                payload: down,
            };
            charge(obs, &down, m);
            if let Payload::GlobalModel { params } = down.payload {
                let global = from_tensors(params);
                for g in &mut gens {
                    g.set_params(&global);
                }
            }
        }
    }
    sw.finish(obs);

    // --- Phase 3: mend local graphs ---
    let mended: Vec<ClientData> = clients
        .par_iter()
        .zip(gens.par_iter())
        .enumerate()
        .map(|(i, (c, g))| mend(c, g, derive(cfg.seed, 0xC300 + i as u64)))
        .collect();

    // --- Phase 4's local models: GraphSage on the mended graphs ---
    let models = mended
        .iter()
        .map(|_| {
            let mut rng = seeded(derive(cfg.seed, 0xC400));
            Box::new(GraphSage::new(f, cfg.hidden_dim, n_classes, &mut rng)) as Box<dyn Model>
        })
        .collect();
    (mended, models)
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
    fn impair_produces_consistent_supervision() {
        let (clients, _) = mini_clients();
        let (x, counts, feats) = impair(&clients[0], 1);
        let n = clients[0].n_nodes();
        assert_eq!(x.rows(), n);
        assert_eq!(counts.shape(), (n, 1));
        assert_eq!(feats.rows(), n);
        // Some nodes should have hidden neighbours.
        assert!(counts.sum() > 0.0, "no supervision generated");
        // Counts are non-negative integers.
        assert!(counts
            .as_slice()
            .iter()
            .all(|&c| c >= 0.0 && c.fract() == 0.0));
    }

    #[test]
    fn mend_adds_nodes_and_edges() {
        let (clients, _) = mini_clients();
        let gen = NeighGen::new(clients[0].input.n_features(), 0);
        // Force positive predicted counts by biasing the count head.
        let mut g = gen;
        g.w_count = Matrix::full(clients[0].input.n_features(), 1, 1.0);
        let mended = mend(&clients[0], &g, 2);
        assert!(mended.n_nodes() >= clients[0].n_nodes());
        assert!(mended.edges.len() >= clients[0].edges.len());
        // The input's operator is the row-stochastic mean aggregator.
        let agg = &mended.input.s;
        assert_eq!(agg.rows(), mended.n_nodes());
        for (sum, r) in agg.row_abs_sums().iter().zip(0..) {
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Original masks survive untouched.
        assert_eq!(mended.splits.train, clients[0].splits.train);
    }

    #[test]
    fn fedsage_runs_and_learns_something() {
        let (clients, k) = mini_clients();
        let cfg = TrainConfig {
            rounds: 30,
            patience: 25,
            ..TrainConfig::mini(0)
        };
        let r = run_baseline(Baseline::FedSagePlus, &clients, k, &cfg);
        assert!(r.test_acc.is_finite());
        assert!(
            r.test_acc > 1.0 / k as f64,
            "acc {} at or below chance",
            r.test_acc
        );
        assert!(r.comms.uplink_bytes > 0);
    }

    #[test]
    fn neighgen_traffic_is_one_weight_frame_each_way_per_epoch() {
        let (clients, k) = mini_clients();
        let mut comms = CommsLog::new();
        let cfg = TrainConfig::mini(0);
        let (mended, models) = setup(&cfg, &clients, k, &mut comms);
        assert_eq!((mended.len(), models.len()), (clients.len(), clients.len()));
        let f = clients[0].input.n_features();
        let frame = Envelope {
            round: 0,
            sender: 0,
            payload: Payload::WeightUpdate {
                params: to_tensors(&NeighGen::new(f, 0).params()),
            },
        }
        .encoded_len();
        let per_way = (GEN_EPOCHS * clients.len() * frame) as u64;
        assert_eq!(comms.uplink_bytes, per_way);
        assert_eq!(comms.downlink_bytes, per_way);
        assert_eq!(comms.stats_uplink_bytes, 0);
    }
}
