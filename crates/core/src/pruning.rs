//! δ-derivable pattern pruning (paper §4.3, Definition 2, Figure 6).
//!
//! A stored pattern is δ-derivable when the estimator would reconstruct its
//! count from the *rest* of the summary within relative error δ; such
//! patterns are redundant and can be dropped. Following Figure 6 exactly,
//! pruning rebuilds the summary bottom-up: levels 1–2 are always kept
//! (they anchor the recursion), then each level-l pattern is estimated
//! against the summary built so far and kept only if its estimation error
//! exceeds δ. At δ = 0 the kept summary produces bit-identical estimates
//! for every pruned pattern (Lemma 5); larger δ trades accuracy for space
//! (Figures 10(c)/(d)).

use tl_twig::TwigKey;
use tl_xml::FxHashMap;

use crate::estimator::{estimate, EstimateOptions, Estimator};
use crate::Summary;

/// Outcome of a pruning pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PruneReport {
    /// Patterns examined (sizes ≥ 3).
    pub examined: usize,
    /// Patterns removed as δ-derivable.
    pub pruned: usize,
    /// Summary bytes before pruning.
    pub bytes_before: usize,
    /// Summary bytes after pruning.
    pub bytes_after: usize,
}

impl PruneReport {
    /// Fraction of examined patterns that were pruned.
    pub fn pruned_fraction(&self) -> f64 {
        if self.examined == 0 {
            0.0
        } else {
            self.pruned as f64 / self.examined as f64
        }
    }

    /// Space saved, in bytes.
    pub fn bytes_saved(&self) -> usize {
        self.bytes_before.saturating_sub(self.bytes_after)
    }
}

/// Relative estimation error with the convention of Definition 2
/// (`s ≥ 1` for stored patterns, so the denominator is safe).
fn relative_error(true_count: u64, estimate: f64) -> f64 {
    (true_count as f64 - estimate).abs() / (true_count as f64).max(1.0)
}

/// Prunes δ-derivable patterns, returning the pruned summary and a report.
///
/// The input summary must be unpruned (complete) for the error computation
/// to be meaningful; pruning an already-pruned summary is allowed and
/// simply re-examines the stored patterns.
pub fn prune_derivable(summary: &Summary, delta: f64) -> (Summary, PruneReport) {
    assert!(delta >= 0.0, "delta must be non-negative");
    let k = summary.max_size();
    let bytes_before = summary.heap_bytes();

    // Start from complete levels 1–2; levels >= 3 begin empty and *pruned*
    // so that estimation misses derive instead of reading zero.
    let mut levels: Vec<FxHashMap<TwigKey, u64>> = Vec::with_capacity(k);
    let mut pruned_flags: Vec<bool> = Vec::with_capacity(k);
    for size in 1..=k.min(2) {
        let mut m = FxHashMap::default();
        for (key, count) in summary.iter_level(size) {
            m.insert(key.clone(), count);
        }
        levels.push(m);
        pruned_flags.push(summary.is_pruned(size));
    }
    for _ in 3..=k {
        levels.push(FxHashMap::default());
        pruned_flags.push(true);
    }
    let mut kept = Summary::from_parts(levels, pruned_flags);

    let mut examined = 0usize;
    let mut pruned = 0usize;
    let opts = EstimateOptions::default();
    for size in 3..=k {
        // Deterministic order: sorted canonical keys.
        let mut patterns: Vec<(TwigKey, u64)> = summary
            .iter_level(size)
            .map(|(key, c)| (key.clone(), c))
            .collect();
        patterns.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (key, count) in patterns {
            examined += 1;
            let twig = key.decode();
            let est = estimate(&kept, &twig, Estimator::Recursive, &opts);
            if relative_error(count, est) <= delta + 1e-12 {
                pruned += 1;
            } else {
                kept.insert(key, count);
            }
        }
    }

    let report = PruneReport {
        examined,
        pruned,
        bytes_before,
        bytes_after: kept.heap_bytes(),
    };
    (kept, report)
}

#[cfg(test)]
mod tests {
    use tl_twig::canonical::key_of;
    use tl_xml::LabelInterner;

    use crate::Lookup;

    use super::*;

    fn summary_of(patterns: &[(&str, u64)], k: usize) -> (Summary, LabelInterner) {
        let mut it = LabelInterner::new();
        let mut levels = vec![FxHashMap::default(); k];
        for (q, c) in patterns {
            let t = tl_twig::parse_twig(q, &mut it).unwrap();
            levels[t.len() - 1].insert(key_of(&t), *c);
        }
        (Summary::from_parts(levels, vec![false; k]), it)
    }

    #[test]
    fn exactly_derivable_patterns_are_pruned_at_delta_zero() {
        // a[b][c] = 12*6/4 = 18 exactly: derivable.
        let (s, _) = summary_of(&[("a", 4), ("a/b", 12), ("a/c", 6), ("a[b][c]", 18)], 3);
        let (kept, report) = prune_derivable(&s, 0.0);
        assert_eq!(report.examined, 1);
        assert_eq!(report.pruned, 1);
        assert_eq!(kept.patterns_at(3), 0);
        assert!(kept.is_pruned(3));
        assert!(report.bytes_after < report.bytes_before);
    }

    #[test]
    fn non_derivable_patterns_are_kept() {
        // True count 10 differs from the independence estimate 18.
        let (s, mut it) = summary_of(&[("a", 4), ("a/b", 12), ("a/c", 6), ("a[b][c]", 10)], 3);
        let (kept, report) = prune_derivable(&s, 0.0);
        assert_eq!(report.pruned, 0);
        let key = key_of(&tl_twig::parse_twig("a[b][c]", &mut it).unwrap());
        assert_eq!(kept.lookup(&key), Lookup::Exact(10));
    }

    #[test]
    fn lemma5_estimates_unchanged_after_zero_pruning() {
        let _fp = tl_fault::failpoints::shared();
        // Build a real lattice from a document, prune at delta 0, and check
        // every original pattern still estimates to its exact count.
        let doc = tl_xml::parse_document(
            b"<r><a><b/><c/></a><a><b/><c/></a><a><b/></a><a><c/><c/></a></r>",
            tl_xml::ParseOptions::default(),
        )
        .unwrap();
        let mined = tl_miner::mine(&doc, tl_miner::MineConfig::with_max_size(3));
        let s = mined.lattice;
        let (kept, _) = prune_derivable(&s, 0.0);
        for size in 1..=3 {
            for (key, count) in s.iter_level(size) {
                let est = estimate(
                    &kept,
                    &key.decode(),
                    Estimator::Recursive,
                    &EstimateOptions::default(),
                );
                assert!(
                    (est - count as f64).abs() < 1e-6,
                    "pattern with count {count} re-estimates to {est}"
                );
            }
        }
    }

    #[test]
    fn larger_delta_prunes_more() {
        // Counts close-but-not-equal to the independence estimate.
        let (s, _) = summary_of(
            &[
                ("a", 4),
                ("a/b", 12),
                ("a/c", 6),
                ("a/d", 10),
                ("a[b][c]", 17), // 5.6% error vs 18
                ("a[b][d]", 20), // 50% error vs 30
            ],
            3,
        );
        let (_, r0) = prune_derivable(&s, 0.0);
        let (_, r10) = prune_derivable(&s, 0.10);
        let (_, r60) = prune_derivable(&s, 0.60);
        assert_eq!(r0.pruned, 0);
        assert_eq!(r10.pruned, 1);
        assert_eq!(r60.pruned, 2);
    }

    #[test]
    fn chained_derivations_survive_pruning() {
        // Level-4 pattern derivable from level-3 patterns that are
        // themselves derivable from level 2: pruning must keep estimates
        // consistent through the chain.
        let (s, mut it) = summary_of(
            &[
                ("a", 2),
                ("a/b", 4),
                ("a/c", 6),
                ("a/d", 8),
                ("a[b][c]", 12),    // = 4*6/2
                ("a[b][d]", 16),    // = 4*8/2
                ("a[c][d]", 24),    // = 6*8/2
                ("a[b][c][d]", 48), // = 12*24/6 etc., fully independent
            ],
            4,
        );
        let (kept, report) = prune_derivable(&s, 0.0);
        assert_eq!(report.pruned, 4, "all level 3-4 patterns are derivable");
        let q = tl_twig::parse_twig("a[b][c][d]", &mut it).unwrap();
        let est = estimate(&kept, &q, Estimator::Recursive, &EstimateOptions::default());
        assert!((est - 48.0).abs() < 1e-9, "est = {est}");
    }

    #[test]
    fn report_fraction() {
        let r = PruneReport {
            examined: 10,
            pruned: 4,
            bytes_before: 100,
            bytes_after: 60,
        };
        assert!((r.pruned_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(r.bytes_saved(), 40);
    }
}
