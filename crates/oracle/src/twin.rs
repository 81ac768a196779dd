//! The decomposition estimators as the paper writes them: a literal
//! recursion, kept as the independent twin the production DAG is diffed
//! against.
//!
//! [`estimate`] is Figure 4 (recursive decomposition by Lemma 1, averaged
//! over the removable pairs under §3.2's voting) and Figure 5 (fix-sized
//! covering by Lemma 3). It recurses on [`Twig`]s built by
//! [`decompose_pair`] and memoizes by canonical key, one memo per call.
//! It shares nothing with `treelattice`'s DAG evaluator but the summary it
//! reads: no interner, no arenas, no operands derived in the byte domain,
//! no cross-query cache. Bit-for-bit agreement between the two is
//! therefore evidence about both.
//!
//! The arithmetic is the paper's, in the order the DAG must reproduce:
//! pairs in [`removable_pairs`] order, operands `T − v`, `T − u`,
//! `T − u − v`, a vote of zero as soon as a factor is zero, and the sum
//! divided by the number of pairs taken.

use std::collections::HashMap;

use tl_twig::canonical::key_of;
use tl_twig::ops::{decompose_pair, fixed_cover_with, removable_pairs, CoverStrategy};
use tl_twig::{Twig, TwigKey};
use treelattice::{EstimateOptions, Estimator, Lookup, Summary};

/// A twin estimate, with the deepest decomposition it recursed through:
/// 0 when the summary answered every twig it looked up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TwinEstimate {
    /// The estimate.
    pub value: f64,
    /// Deepest nesting of decomposition steps (the root's step is 1).
    pub depth: usize,
}

/// Estimates `twig` from `summary` by plain recursion.
pub fn estimate(
    summary: &Summary,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
) -> TwinEstimate {
    let pairs = match estimator {
        Estimator::RecursiveVoting => opts.voting_cap.max(1),
        _ => 1,
    };
    let mut rec = Recursion::new(summary, pairs);
    // Canonicalize first, as the production estimators do, so isomorphic
    // queries decompose (and cover) identically.
    let canonical = key_of(twig).decode();
    let k = summary.max_size();
    let value = match estimator {
        Estimator::Recursive | Estimator::RecursiveVoting => rec.estimate(&canonical),
        Estimator::FixSized => rec.fixed(&canonical, CoverStrategy::AncestorsFirst, k),
        Estimator::FixSizedVoting => {
            let strategies = [CoverStrategy::AncestorsFirst, CoverStrategy::ChildrenFirst];
            let mut sum = 0.0f64;
            for &strategy in &strategies {
                sum += rec.fixed(&canonical, strategy, k);
            }
            sum / strategies.len() as f64
        }
    };
    TwinEstimate {
        value,
        depth: rec.max_depth,
    }
}

/// The fix-sized estimate over windows of `k` nodes (possibly fewer than
/// the summary's order): the twin of `treelattice::estimate_fixed_at`.
pub fn estimate_fixed_at(summary: &Summary, twig: &Twig, k: usize) -> f64 {
    Recursion::new(summary, 1).fixed(&key_of(twig).decode(), CoverStrategy::AncestorsFirst, k)
}

/// One call's recursion: the summary, the pairs averaged per step, and the
/// memo.
struct Recursion<'s> {
    summary: &'s Summary,
    pairs: usize,
    memo: HashMap<TwigKey, f64>,
    depth: usize,
    max_depth: usize,
}

impl<'s> Recursion<'s> {
    fn new(summary: &'s Summary, pairs: usize) -> Self {
        Self {
            summary,
            pairs,
            memo: HashMap::new(),
            depth: 0,
            max_depth: 0,
        }
    }

    /// Figure 4: a stored count, a true zero, or one decomposition step.
    fn estimate(&mut self, twig: &Twig) -> f64 {
        let key = key_of(twig);
        if let Some(&v) = self.memo.get(&key) {
            return v;
        }
        let value = match self.summary.lookup(&key) {
            Lookup::Exact(c) => c as f64,
            // Levels 1 and 2 are never pruned: a miss there is a true zero.
            Lookup::Derivable | Lookup::TooLarge if twig.len() <= 2 => 0.0,
            Lookup::Derivable | Lookup::TooLarge => {
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
                let v = self.decompose(&key.decode());
                self.depth -= 1;
                v
            }
        };
        self.memo.insert(key, value);
        value
    }

    /// Lemma 1 over the first `pairs` removable pairs, averaged.
    fn decompose(&mut self, twig: &Twig) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(u, v) in removable_pairs(twig).iter().take(self.pairs) {
            n += 1;
            let d = decompose_pair(twig, u, v);
            let e1 = self.estimate(&d.t1);
            if e1 <= 0.0 {
                continue;
            }
            let e2 = self.estimate(&d.t2);
            if e2 <= 0.0 {
                continue;
            }
            let e12 = self.estimate(&d.t12);
            if e12 > 0.0 {
                sum += e1 * e2 / e12;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Figure 5 / Lemma 3: the telescoping product over a pre-order cover
    /// by windows of `k` nodes, zero as soon as a factor is.
    fn fixed(&mut self, twig: &Twig, strategy: CoverStrategy, k: usize) -> f64 {
        if twig.len() <= k {
            return self.estimate(twig);
        }
        assert!(k >= 2, "fix-sized estimation needs windows of >= 2 nodes");
        let mut numerator = 1.0f64;
        let mut denominator = 1.0f64;
        for step in fixed_cover_with(twig, k, strategy) {
            let s_sub = self.estimate(&step.subtree);
            if s_sub <= 0.0 {
                return 0.0;
            }
            numerator *= s_sub;
            if let Some(overlap) = &step.overlap {
                let s_ov = self.estimate(overlap);
                if s_ov <= 0.0 {
                    return 0.0;
                }
                denominator *= s_ov;
            }
        }
        numerator / denominator
    }
}
