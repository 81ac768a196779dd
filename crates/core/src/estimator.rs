//! The decomposition estimators (paper §3).
//!
//! Both estimators reduce a twig query to patterns the summary stores:
//!
//! * **Recursive decomposition** (§3.2, Figure 4): pick two removable nodes
//!   `u, v`; estimate `ŝ(T) = ŝ(T−v) · ŝ(T−u) / ŝ(T−u−v)` (Lemma 1),
//!   recursing on each operand until it is resolvable from the summary.
//!   With *voting* (§3.2), the estimates over all removable pairs at each
//!   recursion node are averaged, damping error propagation from unlucky
//!   pair choices. Sub-twig estimates are memoized by canonical key, which
//!   keeps full voting polynomial (the set of distinct sub-twigs is small)
//!   while preserving the per-level-averaging semantics.
//! * **Fix-sized decomposition** (§3.3, Figure 5, Lemma 3): cover the twig
//!   with `n−k+1` k-subtrees in pre-order and take the telescoping product
//!   `ŝ(T) = Π s(tᵢ) / Π s(tᵢ ∩ coveredᵢ₋₁)`.
//!
//! Lookup misses behave per [`Lookup`](crate::Lookup): a miss on a
//! complete level is an exact zero (zero-selectivity queries answer 0, the
//! ≥90% negative-workload accuracy of §5.1), while a miss on a δ-pruned
//! level re-derives the count recursively (Lemma 5).
//!
//! Both estimators run on one kernel, the iterative decomposition DAG of
//! the crate's `dag` module; "recursing" above describes the mathematics,
//! not the control flow. The same DAG backs the interval
//! ([`crate::interval`]) and the trace ([`mod@crate::explain`]) of an
//! estimate. The plain entry points here run it without a budget; the
//! budgeted ladder lives in [`crate::resilient`]. The literal recursion
//! survives only as the tests' twin, `tl_oracle::twin`.

use tl_fault::Budget;
use tl_twig::Twig;

use crate::dag::LocalIdCache;
use crate::Summary;

/// Which estimation strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Estimator {
    /// Recursive decomposition with a single deterministic pair per step.
    Recursive,
    /// Recursive decomposition averaging over all removable pairs.
    RecursiveVoting,
    /// Fix-sized pre-order covering (Lemma 3).
    FixSized,
    /// Fix-sized covering averaged over the cover-growth strategies
    /// (§3.3's voting extension; the paper observes it helps less than
    /// recursive voting because averaging happens only at the very end).
    FixSizedVoting,
}

impl Estimator {
    /// All estimators, in the paper's reporting order.
    pub const ALL: [Estimator; 4] = [
        Estimator::Recursive,
        Estimator::RecursiveVoting,
        Estimator::FixSized,
        Estimator::FixSizedVoting,
    ];

    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Estimator::Recursive => "recursive",
            Estimator::RecursiveVoting => "recursive+voting",
            Estimator::FixSized => "fix-sized",
            Estimator::FixSizedVoting => "fix-sized+voting",
        }
    }
}

impl std::fmt::Display for Estimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for estimation.
///
/// The same options steer both the per-query path
/// ([`crate::TreeLattice::estimate_with`]) and the shared-cache engine
/// ([`crate::EstimationEngine`]); the engine folds `voting_cap` into its
/// cache key (the *voting class*), so estimates cached under one cap are
/// never served to a query running under another.
#[derive(Clone, Copy, Debug)]
pub struct EstimateOptions {
    /// Upper bound on the number of removable pairs averaged per recursion
    /// node under [`Estimator::RecursiveVoting`]. `usize::MAX` = full
    /// voting; `1` degenerates to plain recursive decomposition.
    pub voting_cap: usize,
    /// Resource limits consulted by the resilient entry points
    /// ([`crate::TreeLattice::estimate_resilient`],
    /// [`crate::estimate_resilient_catalog`],
    /// [`crate::EstimationEngine::estimate_batch_resilient`]). The plain
    /// infallible APIs ignore it entirely, so the default (unlimited)
    /// budget costs nothing there.
    pub budget: Budget,
}

impl Default for EstimateOptions {
    fn default() -> Self {
        Self {
            voting_cap: usize::MAX,
            budget: Budget::unlimited(),
        }
    }
}

/// Estimates the selectivity of `twig` from `summary`.
///
/// Returns a non-negative estimate; `0.0` means the summary proves (or the
/// decomposition concludes) the query cannot match. Runs on the
/// decomposition-DAG evaluator (the crate's `dag` module) with a throwaway
/// id cache.
pub fn estimate(
    summary: &Summary,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
) -> f64 {
    let mut cache = LocalIdCache::default();
    crate::dag::estimate_dag(summary, twig, estimator, opts, &mut cache).0
}

/// Fix-sized estimation at an explicit window size `k` — possibly smaller
/// than the summary's mined order. This is exactly the computation behind
/// the `ReducedK` rung of the degradation ladder, run without a budget,
/// exposed so test harnesses can reproduce a `Degradation::ReducedK { k }`
/// value bit-for-bit. It takes no options: the windows run non-voting, so
/// no option changes the value.
///
/// # Panics
///
/// Panics unless `2 ≤ k ≤ |twig|` (the fix-sized cover's own bounds).
pub fn estimate_fixed_at(summary: &Summary, twig: &Twig, k: usize) -> f64 {
    let mut cache = LocalIdCache::default();
    crate::dag::estimate_fixed_dag(summary, twig, k, None, &mut cache)
        .expect("unbudgeted estimation cannot fault")
        .0
}

#[cfg(test)]
mod tests {
    use tl_twig::canonical::key_of;
    use tl_xml::{FxHashMap, LabelInterner};

    use super::*;

    /// Builds a summary directly from (query, count) pairs; levels present
    /// are exactly those with at least one pattern, and remain "complete".
    fn summary_of(patterns: &[(&str, u64)], k: usize) -> (Summary, LabelInterner) {
        let mut it = LabelInterner::new();
        let mut levels = vec![FxHashMap::default(); k];
        for (q, c) in patterns {
            let t = tl_twig::parse_twig(q, &mut it).unwrap();
            assert!(t.len() <= k, "pattern {q} larger than k");
            levels[t.len() - 1].insert(key_of(&t), *c);
        }
        (Summary::from_parts(levels, vec![false; k]), it)
    }

    fn q(it: &mut LabelInterner, s: &str) -> Twig {
        tl_twig::parse_twig(s, it).unwrap()
    }

    #[test]
    fn in_summary_lookup_is_exact() {
        let (s, mut it) = summary_of(&[("a", 10), ("a/b", 4)], 2);
        let t = q(&mut it, "a/b");
        for e in Estimator::ALL {
            assert_eq!(estimate(&s, &t, e, &EstimateOptions::default()), 4.0);
        }
    }

    #[test]
    fn lemma1_formula_on_one_step() {
        // T = a[b][c]; T1 = a[b] (12), T2 = a[c] (6), T12 = a (4)
        // => 12 * 6 / 4 = 18.
        let (s, mut it) = summary_of(&[("a", 4), ("a/b", 12), ("a/c", 6), ("b", 0), ("c", 0)], 2);
        let t = q(&mut it, "a[b][c]");
        let est = estimate(&s, &t, Estimator::Recursive, &EstimateOptions::default());
        assert!((est - 18.0).abs() < 1e-9, "est = {est}");
    }

    #[test]
    fn path_estimate_is_markov_chain() {
        // s(a/b/c/d) = s(a/b) s(b/c) s(c/d) / (s(b) s(c)).
        let (s, mut it) = summary_of(
            &[
                ("a", 2),
                ("b", 4),
                ("c", 8),
                ("d", 16),
                ("a/b", 6),
                ("b/c", 12),
                ("c/d", 24),
            ],
            2,
        );
        let t = q(&mut it, "a/b/c/d");
        let expected = 6.0 * 12.0 * 24.0 / (4.0 * 8.0);
        for e in Estimator::ALL {
            let est = estimate(&s, &t, e, &EstimateOptions::default());
            assert!(
                (est - expected).abs() < 1e-9,
                "{e}: est = {est}, expected {expected}"
            );
        }
    }

    #[test]
    fn zero_subpattern_zeroes_the_estimate() {
        let (s, mut it) = summary_of(&[("a", 4), ("a/b", 12)], 2);
        // a/z never occurs (complete level 2 miss) => a[b][z] estimates 0.
        let t = q(&mut it, "a[b][z]");
        for e in Estimator::ALL {
            assert_eq!(estimate(&s, &t, e, &EstimateOptions::default()), 0.0, "{e}");
        }
    }

    #[test]
    fn voting_averages_pair_estimates() {
        // T = a[b][c] with *inconsistent* counts so different pairs give
        // different values; removable pairs: (b, c) only — extend to a 4-node
        // twig a[b][c][d] where three pairs exist.
        let (s, mut it) = summary_of(
            &[
                ("a", 2),
                ("a/b", 4),
                ("a/c", 6),
                ("a/d", 8),
                ("a[b][c]", 10),
                ("a[b][d]", 20),
                ("a[c][d]", 30),
            ],
            3,
        );
        let t = q(&mut it, "a[b][c][d]");
        // Pair (b,c): s(T−c)·s(T−b)/s(T−b−c) = s(a[b][d])·s(a[c][d])/s(a[d])
        //  = 20·30/8 = 75
        // Pair (b,d): s(a[b][c])·s(a[c][d])/s(a[c]) = 10·30/6 = 50
        // Pair (c,d): s(a[b][c])·s(a[b][d])/s(a[b]) = 10·20/4 = 50
        let est_vote = estimate(
            &s,
            &t,
            Estimator::RecursiveVoting,
            &EstimateOptions::default(),
        );
        let expected = (75.0 + 50.0 + 50.0) / 3.0;
        assert!(
            (est_vote - expected).abs() < 1e-9,
            "voting est = {est_vote}, expected {expected}"
        );
        // Plain recursive picks the first pair deterministically; its value
        // must be one of the pair estimates.
        let est_plain = estimate(&s, &t, Estimator::Recursive, &EstimateOptions::default());
        assert!(
            [75.0, 50.0].iter().any(|v| (est_plain - v).abs() < 1e-9),
            "plain est = {est_plain}"
        );
    }

    #[test]
    fn voting_cap_one_equals_plain_recursive() {
        let (s, mut it) = summary_of(
            &[
                ("a", 2),
                ("a/b", 4),
                ("a/c", 6),
                ("a/d", 8),
                ("a[b][c]", 10),
                ("a[b][d]", 20),
                ("a[c][d]", 30),
            ],
            3,
        );
        let t = q(&mut it, "a[b][c][d]");
        let plain = estimate(&s, &t, Estimator::Recursive, &EstimateOptions::default());
        let capped = estimate(
            &s,
            &t,
            Estimator::RecursiveVoting,
            &EstimateOptions {
                voting_cap: 1,
                ..EstimateOptions::default()
            },
        );
        assert!((plain - capped).abs() < 1e-12);
    }

    #[test]
    fn fix_sized_telescopes() {
        // Path a/b/c/d/e with a 3-summary: windows abc, bcd, cde over
        // overlaps bc, cd.
        let (s, mut it) = summary_of(
            &[
                ("b", 4),
                ("c", 8),
                ("b/c", 12),
                ("c/d", 24),
                ("a/b/c", 100),
                ("b/c/d", 60),
                ("c/d/e", 40),
            ],
            3,
        );
        let t = q(&mut it, "a/b/c/d/e");
        let est = estimate(&s, &t, Estimator::FixSized, &EstimateOptions::default());
        let expected = 100.0 * 60.0 * 40.0 / (12.0 * 24.0);
        assert!((est - expected).abs() < 1e-9, "est = {est}");
    }

    #[test]
    fn fix_sized_voting_equals_plain_on_paths() {
        let (s, mut it) = summary_of(
            &[
                ("b", 4),
                ("c", 8),
                ("b/c", 12),
                ("c/d", 24),
                ("a/b/c", 100),
                ("b/c/d", 60),
                ("c/d/e", 40),
            ],
            3,
        );
        let t = q(&mut it, "a/b/c/d/e");
        let plain = estimate(&s, &t, Estimator::FixSized, &EstimateOptions::default());
        let voted = estimate(
            &s,
            &t,
            Estimator::FixSizedVoting,
            &EstimateOptions::default(),
        );
        assert!(
            (plain - voted).abs() < 1e-9,
            "both cover strategies coincide on paths: {plain} vs {voted}"
        );
    }

    #[test]
    fn fix_sized_voting_averages_distinct_covers_on_branching_twigs() {
        // A 5-node twig over a 3-summary where the two growth strategies
        // pick different overlaps: r[a[b][c]][d] — covering `d` can anchor
        // on r's ancestor side or on the a-subtree side.
        let (s, mut it) = summary_of(
            &[
                ("r", 2),
                ("a", 5),
                ("r/a", 5),
                ("r/d", 7),
                ("a/b", 9),
                ("a/c", 11),
                ("r[a[b]]", 10),
                ("r[a][d]", 20),
                ("a[b][c]", 18),
                ("r[a[b]][d]", 0), // force decomposition beyond k where needed
            ],
            4,
        );
        let t = q(&mut it, "r[a[b][c]][d]");
        let plain = estimate(&s, &t, Estimator::FixSized, &EstimateOptions::default());
        let voted = estimate(
            &s,
            &t,
            Estimator::FixSizedVoting,
            &EstimateOptions::default(),
        );
        assert!(plain.is_finite() && voted.is_finite());
        // Voting is the mean of the strategy estimates; with a 4-summary
        // and a size-5 twig it may coincide, so only sanity is asserted
        // here — the genuine divergence case is covered in the integration
        // suite where mined summaries produce differing covers.
        assert!(voted >= 0.0);
    }

    #[test]
    fn derivable_miss_falls_back_to_decomposition() {
        // Level 3 marked pruned and a[b][c] absent: derive 12*6/4 = 18.
        let (mut s, mut it) = summary_of(&[("a", 4), ("a/b", 12), ("a/c", 6)], 3);
        s.mark_pruned(3);
        let t = q(&mut it, "a[b][c]");
        let est = estimate(&s, &t, Estimator::Recursive, &EstimateOptions::default());
        assert!((est - 18.0).abs() < 1e-9, "est = {est}");
    }

    #[test]
    fn estimates_are_isomorphism_invariant() {
        let (s, mut it) = summary_of(
            &[("a", 4), ("a/b", 12), ("a/c", 6), ("b/d", 3), ("b", 5)],
            2,
        );
        let t1 = q(&mut it, "a[b[d]][c]");
        let t2 = q(&mut it, "a[c][b[d]]");
        for e in Estimator::ALL {
            let v1 = estimate(&s, &t1, e, &EstimateOptions::default());
            let v2 = estimate(&s, &t2, e, &EstimateOptions::default());
            assert!((v1 - v2).abs() < 1e-9, "{e}: {v1} vs {v2}");
        }
    }

    #[test]
    fn estimates_are_finite_and_nonnegative() {
        // Even with a zero denominator candidate (s(a) = 0 is inconsistent
        // but must not produce NaN/inf).
        let (s, mut it) = summary_of(&[("a", 0), ("a/b", 12), ("a/c", 6)], 2);
        let t = q(&mut it, "a[b][c]");
        for e in Estimator::ALL {
            let v = estimate(&s, &t, e, &EstimateOptions::default());
            assert!(v.is_finite() && v >= 0.0, "{e}: {v}");
        }
    }
}
