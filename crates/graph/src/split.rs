//! Train/validation/test node splits.
//!
//! The paper (Table 2 caption) splits every dataset "into train, validation,
//! and test sets at a ratio of 1%, 20%, and 20%" — a deliberately tiny label
//! rate that FedSage+/FedLIT suffer under (§5.2). Splits are drawn per node
//! set with a seeded RNG and are stratified by class when possible, so each
//! class appears in the train set whenever it has enough nodes.

use fedomd_tensor::rng::seeded;
use rand::seq::SliceRandom;

/// Split fractions; the remainder after train+val+test is unlabeled.
#[derive(Clone, Copy, Debug)]
pub struct SplitRatios {
    pub train: f64,
    pub val: f64,
    pub test: f64,
}

impl SplitRatios {
    /// The paper's 1% / 20% / 20% setting.
    pub fn paper() -> Self {
        Self {
            train: 0.01,
            val: 0.20,
            test: 0.20,
        }
    }

    /// The mini-scale setting: datasets are ~5× smaller than the paper's,
    /// so a 5% train rate preserves the paper's *absolute* number of
    /// training nodes per party (a handful), which is what the learning
    /// regime actually depends on.
    pub fn mini() -> Self {
        Self {
            train: 0.05,
            val: 0.20,
            test: 0.20,
        }
    }
}

/// Index sets for one party (indices are into whatever node space the
/// caller passed in — local ids for per-party splits).
#[derive(Clone, Debug, Default)]
pub struct Splits {
    pub train: Vec<usize>,
    pub val: Vec<usize>,
    pub test: Vec<usize>,
}

/// Draws a class-stratified split over `n` nodes with the given labels.
///
/// Per class, `floor(train·count)` nodes go to train, then `val` and
/// `test` fractions; leftovers are unlabeled. The floor keeps the overall
/// label rate at the paper's brutal 1 % even for small parties — most
/// classes contribute *no* training node, which is precisely the regime
/// the paper studies (§5.2 discusses baselines degrading under this label
/// rate). A party that would end up with zero train nodes overall is
/// given one, from its largest class, so its CE loss is defined. Panics
/// when ratios sum to more than 1.
pub fn split_nodes(labels: &[usize], ratios: SplitRatios, seed: u64) -> Splits {
    assert!(
        ratios.train + ratios.val + ratios.test <= 1.0 + 1e-9,
        "split ratios sum to more than 1"
    );
    let n = labels.len();
    let n_classes = labels.iter().copied().max().map_or(0, |c| c + 1);
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &c) in labels.iter().enumerate() {
        per_class[c].push(i);
    }

    let mut rng = seeded(seed);
    let mut out = Splits::default();
    // Remember where each class's train quota ended so the zero-train
    // fallback can promote the next unassigned node of the largest class.
    let mut promotable: Option<usize> = None;
    let mut largest = 0usize;
    for nodes in per_class.iter_mut() {
        nodes.shuffle(&mut rng);
        let cnt = nodes.len();
        if cnt == 0 {
            continue;
        }
        let n_train = ((ratios.train * cnt as f64).floor() as usize).min(cnt);
        let n_val = ((ratios.val * cnt as f64).round() as usize).min(cnt - n_train);
        let n_test = ((ratios.test * cnt as f64).round() as usize).min(cnt - n_train - n_val);

        out.train.extend(&nodes[..n_train]);
        out.val.extend(&nodes[n_train..n_train + n_val]);
        out.test
            .extend(&nodes[n_train + n_val..n_train + n_val + n_test]);
        // A node beyond every quota is promotable to train if needed.
        if n_train + n_val + n_test < cnt && cnt > largest {
            largest = cnt;
            promotable = Some(nodes[cnt - 1]);
        }
    }
    if out.train.is_empty() {
        if let Some(node) = promotable {
            out.train.push(node);
        } else if let Some(&node) = out.test.first() {
            // Degenerate tiny party: move one test node to train.
            out.train.push(node);
            out.test.remove(0);
        }
    }
    out.train.sort_unstable();
    out.val.sort_unstable();
    out.test.sort_unstable();
    let _ = n;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize, k: usize) -> Vec<usize> {
        (0..n).map(|i| i % k).collect()
    }

    #[test]
    fn splits_are_disjoint() {
        let l = labels(500, 5);
        let s = split_nodes(&l, SplitRatios::paper(), 3);
        let mut seen = std::collections::BTreeSet::new();
        for idx in s.train.iter().chain(&s.val).chain(&s.test) {
            assert!(seen.insert(*idx), "index {idx} appears twice");
        }
    }

    #[test]
    fn paper_ratios_approximately_hold() {
        let l = labels(10_000, 10);
        let s = split_nodes(&l, SplitRatios::paper(), 0);
        assert!(
            (s.train.len() as f64 - 100.0).abs() <= 10.0,
            "train {}",
            s.train.len()
        );
        assert!(
            (s.val.len() as f64 - 2000.0).abs() <= 50.0,
            "val {}",
            s.val.len()
        );
        assert!(
            (s.test.len() as f64 - 2000.0).abs() <= 50.0,
            "test {}",
            s.test.len()
        );
    }

    #[test]
    fn every_class_reaches_train_when_possible() {
        let l = labels(700, 7);
        let s = split_nodes(&l, SplitRatios::paper(), 1);
        let classes: std::collections::BTreeSet<usize> = s.train.iter().map(|&i| l[i]).collect();
        assert_eq!(classes.len(), 7);
    }

    #[test]
    fn deterministic_per_seed_and_varies_across_seeds() {
        let l = labels(300, 3);
        let a = split_nodes(&l, SplitRatios::paper(), 5);
        let b = split_nodes(&l, SplitRatios::paper(), 5);
        let c = split_nodes(&l, SplitRatios::paper(), 6);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        assert_ne!(a.test, c.test, "different seeds should differ");
    }

    #[test]
    fn tiny_party_still_splits_sanely() {
        let l = vec![0, 0, 0, 1, 1, 1];
        let s = split_nodes(&l, SplitRatios::paper(), 0);
        assert!(!s.train.is_empty());
        let total = s.train.len() + s.val.len() + s.test.len();
        assert!(total <= 6);
    }

    #[test]
    #[should_panic(expected = "more than 1")]
    fn over_unity_ratios_rejected() {
        let _ = split_nodes(
            &[0, 1],
            SplitRatios {
                train: 0.5,
                val: 0.5,
                test: 0.5,
            },
            0,
        );
    }

    #[test]
    fn empty_labels_give_empty_splits() {
        let s = split_nodes(&[], SplitRatios::paper(), 0);
        assert!(s.train.is_empty() && s.val.is_empty() && s.test.is_empty());
    }
}
