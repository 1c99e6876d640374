//! Louvain community detection (Blondel et al. 2008, the paper's reference 2)
//! with the `resolution` hyper-parameter studied in the paper's Fig. 7.
//!
//! The implementation is the standard two-phase method: repeated greedy
//! local moves maximising the (resolution-scaled) modularity gain, followed
//! by aggregation of communities into super-nodes, until the modularity
//! stops improving. Node visit order is shuffled deterministically from the
//! configured seed, so partitions are reproducible.

use crate::graph::Graph;
use fedomd_tensor::rng::seeded;
use rand::seq::SliceRandom;

/// Configuration of the Louvain run.
#[derive(Clone, Copy, Debug)]
pub struct LouvainConfig {
    /// Resolution `γ` of the modularity objective
    /// `Q = Σ_c [ Σ_in/(2m) − γ (Σ_tot/(2m))² ]`. Larger values produce more,
    /// smaller communities (the behaviour the paper sweeps in Fig. 7).
    pub resolution: f64,
    /// RNG seed for the node-visit shuffle.
    pub seed: u64,
    /// Maximum passes of the outer (aggregate) loop; a safety valve only —
    /// convergence normally happens in a handful of passes.
    pub max_levels: usize,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self {
            resolution: 1.0,
            seed: 0,
            max_levels: 32,
        }
    }
}

/// Weighted multigraph used internally between aggregation levels.
struct WGraph {
    n: usize,
    /// Adjacency as (neighbor, weight); may include a self-loop entry.
    adj: Vec<Vec<(usize, f64)>>,
    /// Total edge weight `m` (each undirected edge counted once; self-loops
    /// counted once with their full weight).
    total_weight: f64,
    /// Weighted degree per node (self-loops count twice, per convention).
    degree: Vec<f64>,
}

impl WGraph {
    fn from_graph(g: &Graph) -> Self {
        let n = g.n_nodes();
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in g.edges() {
            adj[u].push((v, 1.0));
            adj[v].push((u, 1.0));
        }
        let degree: Vec<f64> = adj
            .iter()
            .map(|nb| nb.iter().map(|&(_, w)| w).sum())
            .collect();
        let total_weight = g.n_edges() as f64;
        Self {
            n,
            adj,
            total_weight,
            degree,
        }
    }
}

/// Runs Louvain and returns a community label per node, labels dense `0..k`.
pub fn louvain(g: &Graph, cfg: &LouvainConfig) -> Vec<usize> {
    if g.n_nodes() == 0 {
        return Vec::new();
    }
    if g.n_edges() == 0 {
        return (0..g.n_nodes()).collect();
    }

    let mut wg = WGraph::from_graph(g);
    // membership[node in ORIGINAL graph] -> current super-node id.
    let mut membership: Vec<usize> = (0..g.n_nodes()).collect();
    let mut rng = seeded(cfg.seed);

    for _level in 0..cfg.max_levels {
        let (assign, improved) = one_level(&wg, cfg.resolution, &mut rng);
        let assign = renumber(&assign);
        for m in membership.iter_mut() {
            *m = assign[*m];
        }
        let n_comms = assign.iter().copied().max().map_or(0, |m| m + 1);
        if !improved || n_comms == wg.n {
            break;
        }
        wg = aggregate(&wg, &assign, n_comms);
    }
    renumber(&membership)
}

/// One pass of greedy local moves. Returns (community per node, improved?).
fn one_level(
    wg: &WGraph,
    resolution: f64,
    rng: &mut rand_chacha::ChaCha8Rng,
) -> (Vec<usize>, bool) {
    let n = wg.n;
    let m2 = 2.0 * wg.total_weight; // 2m
    let mut community: Vec<usize> = (0..n).collect();
    // Σ_tot per community: total weighted degree of members.
    let mut sigma_tot: Vec<f64> = wg.degree.clone();

    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);

    let mut improved_any = false;
    // neighbour-community weights scratch buffer, reset per node.
    let mut nbw: Vec<f64> = vec![0.0; n];
    let mut touched: Vec<usize> = Vec::new();

    loop {
        let mut moved = 0usize;
        for &u in &order {
            let cu = community[u];
            // Collect edge weight from u to each neighbouring community.
            touched.clear();
            let mut self_loop = 0.0;
            for &(v, w) in &wg.adj[u] {
                if v == u {
                    self_loop += w;
                    continue;
                }
                let cv = community[v];
                if nbw[cv] == 0.0 {
                    touched.push(cv);
                }
                nbw[cv] += w;
            }
            let _ = self_loop; // self-loop weight cancels in the gain comparison

            // Remove u from its community.
            sigma_tot[cu] -= wg.degree[u];
            let w_to_own = nbw[cu];

            // Best destination: maximise ΔQ ∝ w(u→c) − γ k_u Σ_tot(c) / 2m.
            let mut best_c = cu;
            let mut best_gain = w_to_own - resolution * wg.degree[u] * sigma_tot[cu] / m2;
            for &c in &touched {
                if c == cu {
                    continue;
                }
                let gain = nbw[c] - resolution * wg.degree[u] * sigma_tot[c] / m2;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_c = c;
                }
            }

            sigma_tot[best_c] += wg.degree[u];
            if best_c != cu {
                community[u] = best_c;
                moved += 1;
                improved_any = true;
            }
            for &c in &touched {
                nbw[c] = 0.0;
            }
        }
        if moved == 0 {
            break;
        }
    }
    (community, improved_any)
}

/// Renumbers labels to be dense `0..k`, first-seen order.
fn renumber(labels: &[usize]) -> Vec<usize> {
    #[expect(
        clippy::disallowed_types,
        reason = "looked up by key, never iterated: ids follow first-seen order"
    )]
    let mut map = std::collections::HashMap::new();
    let mut next = 0usize;
    labels
        .iter()
        .map(|&l| {
            *map.entry(l).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect()
}

/// Builds the aggregated weighted graph where each community becomes one
/// super-node; intra-community weight becomes a self-loop.
fn aggregate(wg: &WGraph, assign: &[usize], n_comms: usize) -> WGraph {
    // BTreeMap, not HashMap: the iteration below fixes the super-graph's
    // adjacency order, and through it float summation order and move
    // tie-breaking, so partitions are reproducible across runs.
    let mut weights: std::collections::BTreeMap<(usize, usize), f64> =
        std::collections::BTreeMap::new();
    for u in 0..wg.n {
        let cu = assign[u];
        for &(v, w) in &wg.adj[u] {
            let cv = assign[v];
            if cu <= cv {
                // Each undirected edge appears twice in adj (u->v and v->u);
                // count it once. Self-loops (u == v) appear once already.
                if cu < cv || u <= v {
                    *weights.entry((cu, cv)).or_insert(0.0) += w;
                }
            }
        }
    }
    let mut adj = vec![Vec::new(); n_comms];
    let mut total_weight = 0.0;
    for (&(a, b), &w) in &weights {
        total_weight += w;
        if a == b {
            adj[a].push((a, 2.0 * w)); // self-loop contributes 2w to degree
        } else {
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
    }
    let degree: Vec<f64> = adj
        .iter()
        .map(|nb| nb.iter().map(|&(_, w)| w).sum())
        .collect();
    WGraph {
        n: n_comms,
        adj,
        total_weight,
        degree,
    }
}

/// Modularity of a partition at a given resolution (for tests/diagnostics).
pub fn modularity(g: &Graph, labels: &[usize], resolution: f64) -> f64 {
    assert_eq!(labels.len(), g.n_nodes());
    let m = g.n_edges() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let k = labels.iter().copied().max().map_or(0, |x| x + 1);
    let mut intra = vec![0.0f64; k];
    let mut tot = vec![0.0f64; k];
    for &(u, v) in g.edges() {
        if labels[u] == labels[v] {
            intra[labels[u]] += 1.0;
        }
    }
    for u in 0..g.n_nodes() {
        tot[labels[u]] += g.degree(u) as f64;
    }
    (0..k)
        .map(|c| intra[c] / m - resolution * (tot[c] / (2.0 * m)).powi(2))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 5-cliques joined by a single bridge edge.
    fn two_cliques() -> Graph {
        let mut edges = Vec::new();
        for a in 0..5 {
            for b in (a + 1)..5 {
                edges.push((a, b));
                edges.push((a + 5, b + 5));
            }
        }
        edges.push((4, 5));
        Graph::new(10, &edges)
    }

    #[test]
    fn separates_two_cliques() {
        let g = two_cliques();
        let labels = louvain(&g, &LouvainConfig::default());
        // All of clique 1 together, all of clique 2 together, different labels.
        for i in 1..5 {
            assert_eq!(labels[i], labels[0]);
            assert_eq!(labels[i + 5], labels[5]);
        }
        assert_ne!(labels[0], labels[5]);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = two_cliques();
        let cfg = LouvainConfig {
            seed: 7,
            ..Default::default()
        };
        assert_eq!(louvain(&g, &cfg), louvain(&g, &cfg));
    }

    #[test]
    fn higher_resolution_never_coarsens() {
        // A ring of 4 triangles.
        let mut edges = Vec::new();
        for t in 0..4 {
            let base = t * 3;
            edges.push((base, base + 1));
            edges.push((base, base + 2));
            edges.push((base + 1, base + 2));
            edges.push((base + 2, (base + 3) % 12));
        }
        let g = Graph::new(12, &edges);
        let low = louvain(
            &g,
            &LouvainConfig {
                resolution: 0.1,
                ..Default::default()
            },
        );
        let high = louvain(
            &g,
            &LouvainConfig {
                resolution: 8.0,
                ..Default::default()
            },
        );
        let n_low = low.iter().copied().max().unwrap() + 1;
        let n_high = high.iter().copied().max().unwrap() + 1;
        assert!(
            n_high >= n_low,
            "resolution 8 produced {n_high} communities < resolution 0.1's {n_low}"
        );
    }

    #[test]
    fn modularity_of_found_partition_beats_trivial() {
        let g = two_cliques();
        let labels = louvain(&g, &LouvainConfig::default());
        let q_found = modularity(&g, &labels, 1.0);
        let q_all_one = modularity(&g, &[0; 10], 1.0);
        assert!(q_found > q_all_one);
        assert!(q_found > 0.3, "two-clique modularity {q_found} too low");
    }

    #[test]
    fn labels_are_dense() {
        let g = two_cliques();
        let labels = louvain(&g, &LouvainConfig::default());
        let k = labels.iter().copied().max().unwrap() + 1;
        for c in 0..k {
            assert!(labels.contains(&c), "label {c} missing");
        }
    }

    #[test]
    fn edgeless_graph_gives_singletons() {
        let g = Graph::new(4, &[]);
        assert_eq!(louvain(&g, &LouvainConfig::default()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::new(0, &[]);
        assert!(louvain(&g, &LouvainConfig::default()).is_empty());
    }
}
