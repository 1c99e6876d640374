//! Property-based tests over random graphs: structural invariants of the
//! Louvain cut, the party assignment, and the splits must hold for *any*
//! topology, not just the planted ones the unit tests use.

#![cfg(test)]

use proptest::prelude::*;

use crate::graph::Graph;
use crate::louvain::{louvain, modularity, LouvainConfig};
use crate::partition::{assign_parties, louvain_cut};
use crate::split::{split_nodes, SplitRatios};

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| Graph::new(n, &edges))
    })
}

proptest! {
    /// Louvain labels are always dense 0..k and cover every node.
    #[test]
    fn louvain_labels_dense(g in arb_graph(30, 60), seed in 0u64..50) {
        let cfg = LouvainConfig { seed, ..Default::default() };
        let labels = louvain(&g, &cfg);
        prop_assert_eq!(labels.len(), g.n_nodes());
        let k = labels.iter().copied().max().unwrap() + 1;
        for c in 0..k {
            prop_assert!(labels.contains(&c), "label {} missing", c);
        }
    }

    /// Louvain's partition never has worse modularity than all-singletons.
    #[test]
    fn louvain_beats_singletons(g in arb_graph(25, 80)) {
        if g.n_edges() == 0 { return Ok(()); }
        let labels = louvain(&g, &Default::default());
        let singletons: Vec<usize> = (0..g.n_nodes()).collect();
        prop_assert!(
            modularity(&g, &labels, 1.0) >= modularity(&g, &singletons, 1.0) - 1e-9
        );
    }

    /// Connected nodes in the same Louvain community stay in one party, and
    /// every node lands in exactly one party.
    #[test]
    fn louvain_cut_partitions_nodes(g in arb_graph(30, 60), m in 1usize..6) {
        let parties = louvain_cut(&g, m, &Default::default());
        prop_assert_eq!(parties.len(), m);
        let mut seen = vec![0usize; g.n_nodes()];
        for p in &parties {
            for &gid in &p.global_ids {
                seen[gid] += 1;
            }
            // Local edges are internal: endpoints within bounds.
            for &(u, v) in p.graph.edges() {
                prop_assert!(u < p.graph.n_nodes() && v < p.graph.n_nodes());
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "node covered {:?} times", seen);
    }

    /// Greedy assignment balances: no party exceeds the ideal share by more
    /// than the largest community size.
    #[test]
    fn assignment_is_balanced(
        sizes in proptest::collection::vec(1usize..20, 1..12), m in 1usize..5
    ) {
        let mut community = Vec::new();
        for (c, &s) in sizes.iter().enumerate() {
            community.extend(std::iter::repeat_n(c, s));
        }
        let assign = assign_parties(&community, m);
        let mut load = vec![0usize; m];
        for (&party, &s) in assign.iter().zip(&sizes) {
            load[party] += s;
        }
        let total: usize = sizes.iter().sum();
        let biggest = *sizes.iter().max().expect("non-empty");
        let max_load = *load.iter().max().expect("m >= 1");
        prop_assert!(max_load <= total.div_ceil(m) + biggest);
    }

    /// Splits are always disjoint subsets of the node set, and the train
    /// fallback guarantees a non-empty train set for n >= 3.
    #[test]
    fn splits_disjoint_and_nonempty(
        labels in proptest::collection::vec(0usize..5, 3..200), seed in 0u64..20
    ) {
        let s = split_nodes(&labels, SplitRatios::mini(), seed);
        let mut seen = std::collections::BTreeSet::new();
        for &i in s.train.iter().chain(&s.val).chain(&s.test) {
            prop_assert!(i < labels.len());
            prop_assert!(seen.insert(i), "index {} duplicated", i);
        }
        prop_assert!(!s.train.is_empty());
    }
}
