//! Quantifying the non-i.i.d.-ness of a federation — the measurable form
//! of the paper's Fig. 1 ("the feature space in each participant is not
//! identically distributed") and Fig. 4 (label skew).
//!
//! Three instruments:
//!
//! * [`label_skew`] — mean pairwise total-variation distance between party
//!   label distributions (0 = identical, →1 = disjoint).
//! * [`feature_shift`] — mean pairwise CMD distance between party *raw
//!   feature* distributions, using the same Eq. 11 metric FedOMD optimises
//!   on hidden features; this is the quantity the constraint shrinks.
//! * [`cross_edge_loss`] — fraction of global edges destroyed by the cut
//!   (what FedSage+ tries to compensate for).

use fedomd_autograd::cmd::{cmd_value, CmdTargets};
use fedomd_federated::ClientData;

/// Mean pairwise total-variation distance between party label
/// distributions over `n_classes`.
///
/// # Panics
/// Panics with fewer than two clients.
pub fn label_skew(clients: &[ClientData], n_classes: usize) -> f64 {
    assert!(clients.len() >= 2, "label_skew: need at least two clients");
    let dists: Vec<Vec<f64>> = clients
        .iter()
        .map(|c| {
            let mut h = vec![0.0f64; n_classes];
            for &l in &c.labels {
                h[l] += 1.0;
            }
            let total: f64 = h.iter().sum();
            h.into_iter().map(|v| v / total.max(1.0)).collect()
        })
        .collect();
    pairwise_mean(dists.len(), |i, j| {
        dists[i]
            .iter()
            .zip(&dists[j])
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0
    })
}

/// Mean pairwise CMD distance (orders ≤ `max_order`, width 1) between the
/// parties' raw feature matrices.
pub fn feature_shift(clients: &[ClientData], max_order: u32) -> f64 {
    assert!(
        clients.len() >= 2,
        "feature_shift: need at least two clients"
    );
    let targets: Vec<CmdTargets> = clients
        .iter()
        .map(|c| CmdTargets::from_matrix(&c.input.x, max_order))
        .collect();
    pairwise_mean(clients.len(), |i, j| {
        // CMD of party i's features against party j's statistics.
        cmd_value(&clients[i].input.x, &targets[j], 1.0) as f64
    })
}

/// Fraction of global edges lost to the cut: `1 − Σ local edges / global`.
pub fn cross_edge_loss(clients: &[ClientData], global_edges: usize) -> f64 {
    if global_edges == 0 {
        return 0.0;
    }
    let local: usize = clients.iter().map(|c| c.edges.len()).sum();
    1.0 - local as f64 / global_edges as f64
}

fn pairwise_mean(n: usize, f: impl Fn(usize, usize) -> f64) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += f(i, j);
            count += 1;
        }
    }
    total / count.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedomd_data::{generate, spec, DatasetName};
    use fedomd_federated::{setup_federation, FederationConfig};
    use fedomd_graph::SplitRatios;

    fn louvain_clients() -> (Vec<ClientData>, usize, usize) {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(4, 0));
        (clients, ds.n_classes, ds.n_edges())
    }

    /// A federation cut at random (node i -> party i % m) is nearly i.i.d.
    fn random_clients(m: usize) -> (Vec<ClientData>, usize, usize) {
        use fedomd_graph::Splits;
        use fedomd_nn::GraphInput;
        use std::sync::Arc;
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = (0..m)
            .map(|p| {
                let nodes: Vec<usize> = (0..ds.n_nodes()).filter(|&u| u % m == p).collect();
                let (g, ids) = ds.graph.induced_subgraph(&nodes);
                let labels: Vec<usize> = ids.iter().map(|&i| ds.labels[i]).collect();
                let x = ds.features.select_rows(&ids);
                let edges = g.edges().to_vec();
                let s = Arc::new(fedomd_sparse::normalized_adjacency(g.n_nodes(), &edges));
                let splits = fedomd_graph::split_nodes(&labels, SplitRatios::mini(), p as u64);
                let _ = Splits::default();
                ClientData {
                    input: GraphInput::new(s, x),
                    labels,
                    splits,
                    global_ids: ids,
                    edges,
                }
            })
            .collect();
        (clients, ds.n_classes, ds.n_edges())
    }

    #[test]
    fn louvain_cut_is_more_skewed_than_random_cut() {
        let (louvain, k, _) = louvain_clients();
        let (random, _, _) = random_clients(4);
        let skew_l = label_skew(&louvain, k);
        let skew_r = label_skew(&random, k);
        assert!(
            skew_l > skew_r * 2.0,
            "Louvain skew {skew_l:.3} not clearly above random {skew_r:.3}"
        );
    }

    #[test]
    fn feature_shift_detects_the_community_dialects() {
        let (louvain, _, _) = louvain_clients();
        let (random, _, _) = random_clients(4);
        let shift_l = feature_shift(&louvain, 5);
        let shift_r = feature_shift(&random, 5);
        assert!(shift_l > 0.0);
        assert!(
            shift_l > shift_r,
            "Louvain feature shift {shift_l:.4} not above random {shift_r:.4}"
        );
    }

    #[test]
    fn cross_edge_loss_bounds() {
        let (louvain, _, global_edges) = louvain_clients();
        let loss = cross_edge_loss(&louvain, global_edges);
        assert!((0.0..=1.0).contains(&loss));
        // A community cut keeps most edges.
        assert!(loss < 0.6, "cut destroyed {loss:.2} of edges");
        // Random cut destroys more.
        let (random, _, ge) = random_clients(4);
        assert!(cross_edge_loss(&random, ge) > loss);
    }

    #[test]
    fn zero_edges_is_zero_loss() {
        let (louvain, _, _) = louvain_clients();
        assert_eq!(cross_edge_loss(&louvain, 0), 0.0);
    }
}
