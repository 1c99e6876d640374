//! Per-party data and the federation setup (Louvain cut → client bundles).

use std::sync::Arc;

use fedomd_data::Dataset;
use fedomd_graph::{
    assign_parties, extract_parties, louvain_cut, rebalance_empty_parties, split_nodes,
    LouvainConfig, PartySubgraph, SplitRatios, Splits,
};
use fedomd_nn::GraphInput;
use fedomd_sparse::normalized_adjacency;
use fedomd_tensor::rng::derive;

/// Everything one party owns: its local subgraph, features, labels, and
/// train/val/test split (local node ids throughout).
#[derive(Clone)]
pub struct ClientData {
    /// Graph input: local `Ŝ`, `X`, cached `Ŝ·X`.
    pub input: GraphInput,
    /// Local labels.
    pub labels: Vec<usize>,
    /// Local train/val/test node indices.
    pub splits: Splits,
    /// Mapping `local id → global id` in the original dataset.
    pub global_ids: Vec<usize>,
    /// Local undirected edge list (for baselines that re-derive operators).
    pub edges: Vec<(usize, usize)>,
}

impl ClientData {
    /// Number of local nodes.
    pub fn n_nodes(&self) -> usize {
        self.labels.len()
    }
}

/// How to cut the global dataset into parties.
#[derive(Clone, Copy, Debug)]
pub struct FederationConfig {
    /// Number of parties `M`.
    pub n_parties: usize,
    /// Louvain resolution (paper Fig. 7 sweeps this).
    pub resolution: f64,
    /// Split ratios (paper: 1 % / 20 % / 20 %).
    pub ratios: SplitRatios,
    /// Seed controlling Louvain tie-breaking and splits.
    pub seed: u64,
}

impl FederationConfig {
    /// The paper's default setup for `m` parties.
    pub fn paper(m: usize, seed: u64) -> Self {
        Self {
            n_parties: m,
            resolution: 1.0,
            ratios: SplitRatios::paper(),
            seed,
        }
    }

    /// The mini-scale setup: same cut, scale-adjusted label rate (see
    /// [`SplitRatios::mini`]).
    pub fn mini(m: usize, seed: u64) -> Self {
        Self {
            ratios: SplitRatios::mini(),
            ..Self::paper(m, seed)
        }
    }
}

/// Cuts `dataset` into `cfg.n_parties` clients: Louvain at the configured
/// resolution, greedy community→party packing, induced subgraphs, per-party
/// stratified splits.
pub fn setup_federation(dataset: &Dataset, cfg: &FederationConfig) -> Vec<ClientData> {
    bundle_parties(dataset, cfg, louvain_parties(dataset, cfg))
}

/// The Louvain cut of [`setup_federation`], before bundling.
fn louvain_parties(dataset: &Dataset, cfg: &FederationConfig) -> Vec<PartySubgraph> {
    let louvain_cfg = LouvainConfig {
        resolution: cfg.resolution,
        seed: derive(cfg.seed, 0x10),
        ..Default::default()
    };
    louvain_cut(&dataset.graph, cfg.n_parties, &louvain_cfg)
}

/// Cuts `dataset` along its **planted** communities (`dataset.communities`)
/// instead of re-discovering them with Louvain: greedy community→party
/// packing, bulk subgraph extraction, per-party stratified splits.
///
/// This is the affordable path to thousand-party federations — Louvain on
/// a graph wide enough for 5000 parties dominates setup, while the planted
/// cut is linear in nodes and edges. `cfg.resolution` is ignored (there is
/// nothing to rediscover); splits and tie-breaking still follow
/// `cfg.seed`, so the cut is deterministic per seed.
///
/// Panics when the dataset has no community vector (real-world datasets
/// without planted structure should go through [`setup_federation`]).
pub fn setup_federation_planted(dataset: &Dataset, cfg: &FederationConfig) -> Vec<ClientData> {
    assert_eq!(
        dataset.communities.len(),
        dataset.n_nodes(),
        "dataset {:?} has no planted communities; use setup_federation",
        dataset.name
    );
    let party_of_comm = assign_parties(&dataset.communities, cfg.n_parties);
    let mut node_party: Vec<usize> = dataset
        .communities
        .iter()
        .map(|&c| party_of_comm[c])
        .collect();
    rebalance_empty_parties(&mut node_party, cfg.n_parties);
    let parties = extract_parties(&dataset.graph, &node_party, cfg.n_parties);
    bundle_parties(dataset, cfg, parties)
}

/// Turns party subgraphs into full client bundles.
fn bundle_parties(
    dataset: &Dataset,
    cfg: &FederationConfig,
    parties: Vec<PartySubgraph>,
) -> Vec<ClientData> {
    parties
        .into_iter()
        .enumerate()
        .map(|(i, p)| bundle_party(dataset, cfg, i, p))
        .collect()
}

/// Party `i`'s bundle: local labels/features, normalised operator (and
/// the cached `Ŝ·X`), stratified splits.
fn bundle_party(
    dataset: &Dataset,
    cfg: &FederationConfig,
    i: usize,
    p: PartySubgraph,
) -> ClientData {
    let labels: Vec<usize> = p.global_ids.iter().map(|&g| dataset.labels[g]).collect();
    let features = dataset.features.select_rows(&p.global_ids);
    let edges = p.graph.edges().to_vec();
    let s = Arc::new(normalized_adjacency(p.graph.n_nodes(), &edges));
    let input = GraphInput::new(s, features);
    let splits = split_nodes(&labels, cfg.ratios, derive(cfg.seed, 0x20 + i as u64));
    ClientData {
        input,
        labels,
        splits,
        global_ids: p.global_ids,
        edges,
    }
}

/// One client's shard of the federation: the `ClientData` that
/// [`setup_federation`] would hand to party `id`, or `None` when `id` is
/// out of range.
///
/// A multi-process `fedomd-client` calls this with its own id so every
/// process regenerates the identical Louvain cut from the shared
/// `(dataset, cfg)` and bundles only its own party — no shard files need
/// to be distributed, and the cut is bitwise the one the in-process
/// simulator uses (the deterministic-per-seed property of the cut itself).
pub fn client_shard(dataset: &Dataset, cfg: &FederationConfig, id: usize) -> Option<ClientData> {
    if id >= cfg.n_parties {
        return None;
    }
    let party = louvain_parties(dataset, cfg).into_iter().nth(id)?;
    Some(bundle_party(dataset, cfg, id, party))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedomd_data::{generate, spec, DatasetName};

    fn mini() -> Dataset {
        generate(&spec(DatasetName::CoraMini), 0)
    }

    #[test]
    fn setup_produces_m_nonempty_clients() {
        let ds = mini();
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
        assert_eq!(clients.len(), 3);
        for c in &clients {
            assert!(c.n_nodes() > 0);
            assert_eq!(c.input.n_nodes(), c.n_nodes());
            assert!(!c.splits.train.is_empty(), "client has no train nodes");
            assert!(!c.splits.test.is_empty(), "client has no test nodes");
        }
    }

    #[test]
    fn clients_partition_the_node_set() {
        let ds = mini();
        let clients = setup_federation(&ds, &FederationConfig::mini(5, 1));
        let mut seen = vec![false; ds.n_nodes()];
        for c in &clients {
            for &g in &c.global_ids {
                assert!(!seen[g]);
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn labels_and_features_are_consistent_with_global() {
        let ds = mini();
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 2));
        for c in &clients {
            for (local, &global) in c.global_ids.iter().enumerate() {
                assert_eq!(c.labels[local], ds.labels[global]);
                assert_eq!(c.input.x.row(local), ds.features.row(global));
            }
        }
    }

    #[test]
    fn label_distribution_is_non_iid() {
        // The paper's Fig. 4 premise: party label histograms differ.
        let ds = mini();
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 3));
        let hist = |c: &ClientData| {
            let mut h = vec![0f64; ds.n_classes];
            for &l in &c.labels {
                h[l] += 1.0;
            }
            let total: f64 = h.iter().sum();
            h.into_iter().map(|v| v / total).collect::<Vec<_>>()
        };
        let h0 = hist(&clients[0]);
        let h1 = hist(&clients[1]);
        let tv: f64 = h0.iter().zip(&h1).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
        assert!(
            tv > 0.1,
            "total-variation distance {tv} too small to be non-i.i.d."
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = mini();
        let a = setup_federation(&ds, &FederationConfig::mini(4, 9));
        let b = setup_federation(&ds, &FederationConfig::mini(4, 9));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.global_ids, y.global_ids);
            assert_eq!(x.splits.train, y.splits.train);
        }
    }

    #[test]
    fn client_shard_matches_the_full_federation_slice() {
        let ds = mini();
        let cfg = FederationConfig::mini(3, 5);
        let all = setup_federation(&ds, &cfg);
        for (i, expect) in all.iter().enumerate() {
            let shard = client_shard(&ds, &cfg, i).expect("in-range id");
            assert_eq!(shard.global_ids, expect.global_ids);
            assert_eq!(shard.labels, expect.labels);
            assert_eq!(shard.splits.train, expect.splits.train);
            assert_eq!(shard.splits.val, expect.splits.val);
            assert_eq!(shard.splits.test, expect.splits.test);
        }
        assert!(client_shard(&ds, &cfg, 3).is_none());
    }

    #[test]
    fn planted_cut_covers_all_nodes_and_is_non_iid() {
        let ds = generate(&fedomd_data::SynthParams::many_party(40), 0);
        let clients = setup_federation_planted(&ds, &FederationConfig::mini(40, 0));
        assert_eq!(clients.len(), 40);
        let mut seen = vec![false; ds.n_nodes()];
        for c in &clients {
            assert!(c.n_nodes() > 0, "planted cut left an empty party");
            for &g in &c.global_ids {
                assert!(!seen[g]);
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Parties cut along communities inherit skewed label histograms.
        let hist = |c: &ClientData| {
            let mut h = vec![0f64; ds.n_classes];
            for &l in &c.labels {
                h[l] += 1.0;
            }
            let total: f64 = h.iter().sum();
            h.into_iter().map(|v| v / total).collect::<Vec<_>>()
        };
        let h0 = hist(&clients[0]);
        let h1 = hist(&clients[1]);
        let tv: f64 = h0.iter().zip(&h1).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
        assert!(tv > 0.1, "planted parties look i.i.d. (tv {tv})");
    }

    #[test]
    fn planted_cut_is_deterministic_per_seed() {
        let ds = generate(&fedomd_data::SynthParams::many_party(25), 3);
        let a = setup_federation_planted(&ds, &FederationConfig::mini(25, 7));
        let b = setup_federation_planted(&ds, &FederationConfig::mini(25, 7));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.global_ids, y.global_ids);
            assert_eq!(x.splits.train, y.splits.train);
        }
    }

    #[test]
    #[should_panic(expected = "no planted communities")]
    fn planted_cut_rejects_datasets_without_communities() {
        let mut ds = mini();
        ds.communities.clear();
        let _ = setup_federation_planted(&ds, &FederationConfig::mini(3, 0));
    }

    #[test]
    fn higher_resolution_gives_more_fragmented_parties() {
        let ds = mini();
        let lo = FederationConfig {
            resolution: 0.5,
            ..FederationConfig::mini(3, 4)
        };
        let hi = FederationConfig {
            resolution: 20.0,
            ..FederationConfig::mini(3, 4)
        };
        let edges = |cfg: &FederationConfig| -> usize {
            setup_federation(&ds, cfg)
                .iter()
                .map(|c| c.edges.len())
                .sum()
        };
        // More, smaller communities ⇒ more cross-party edges dropped.
        assert!(edges(&hi) <= edges(&lo));
    }
}
