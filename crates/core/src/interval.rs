//! Interval estimates: a decomposition-disagreement error bar.
//!
//! The paper's future-work list (§6) asks for "an error bound associated
//! with the estimation". This module provides the natural bound available
//! *within* the decomposition framework: at every decomposition node the
//! voting candidates (one per removable pair) generally disagree, and the
//! spread of their values — propagated bottom-up with interval arithmetic
//! — measures how far the conditional-independence assumption is being
//! stretched for this particular query.
//!
//! The interval is a second bottom-up pass over the voting estimator's own
//! decomposition DAG (the crate's `dag` module, every removable pair at
//! every node), so it runs on any [`PatternStore`]: the in-memory summary
//! or the mmap catalog.
//!
//! The returned interval is a *heuristic diagnostic*, not a probabilistic
//! guarantee: a width of zero means every decomposition order agrees (on
//! perfectly regular data the estimate is then typically exact), while a
//! wide interval flags queries whose estimate should not be trusted. The
//! midpoint reproduces the voting estimator bit for bit.

use tl_twig::Twig;

use crate::catalog::PatternStore;
use crate::dag::{walk_dag, LocalIdCache};

/// A point estimate with a decomposition-disagreement interval around it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalEstimate {
    /// Smallest value any decomposition order produces.
    pub low: f64,
    /// The voting estimate (average over pairs at each decomposition node).
    pub estimate: f64,
    /// Largest value any decomposition order produces; `f64::INFINITY`
    /// when some order divides by a vanishing overlap estimate.
    pub high: f64,
}

impl IntervalEstimate {
    fn point(v: f64) -> Self {
        Self {
            low: v,
            estimate: v,
            high: v,
        }
    }

    /// Interval width relative to the estimate (0 = all orders agree).
    pub fn relative_width(&self) -> f64 {
        if self.estimate <= 0.0 {
            if self.high > self.low {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            (self.high - self.low) / self.estimate
        }
    }
}

/// Computes the interval estimate of `twig` against `store`.
pub fn estimate_interval<S: PatternStore + ?Sized>(store: &S, twig: &Twig) -> IntervalEstimate {
    walk_dag(store, twig, true, |dag, _: &LocalIdCache| {
        // Every operand is strictly smaller than the twig it decomposes, so
        // smallest first is bottom-up.
        let mut order: Vec<u32> = (0..dag.len() as u32).collect();
        order.sort_by_key(|&ix| dag.size(ix));
        let mut intervals = vec![IntervalEstimate::point(0.0); dag.len()];
        for ix in order {
            intervals[ix as usize] = match dag.pairs(ix) {
                [] => IntervalEstimate::point(dag.value(ix)),
                pairs => vote(pairs.iter().map(|&[a, b, c]| {
                    let at = |ix: u32| intervals[ix as usize];
                    (at(a), at(b), at(c))
                })),
            };
        }
        intervals[0]
    })
}

/// One decomposition node's interval from its pairs' operand intervals
/// `(T − v, T − u, T − u − v)`.
fn vote(
    pairs: impl Iterator<Item = (IntervalEstimate, IntervalEstimate, IntervalEstimate)>,
) -> IntervalEstimate {
    let mut low = f64::INFINITY;
    let mut high: f64 = 0.0;
    let mut mid_sum = 0.0;
    let mut n = 0usize;
    for (i1, i2, i12) in pairs {
        // Point part (matches the voting estimator's arithmetic exactly).
        let mid = if i1.estimate > 0.0 && i2.estimate > 0.0 && i12.estimate > 0.0 {
            i1.estimate * i2.estimate / i12.estimate
        } else {
            0.0
        };
        mid_sum += mid;
        n += 1;
        // Interval part: product of lows over the largest overlap, and
        // product of highs over the smallest overlap.
        let pair_low = if i12.high > 0.0 {
            i1.low * i2.low / i12.high
        } else {
            0.0
        };
        let pair_high = if i1.high == 0.0 || i2.high == 0.0 {
            0.0
        } else if i12.low > 0.0 {
            i1.high * i2.high / i12.low
        } else {
            f64::INFINITY
        };
        low = low.min(pair_low);
        high = high.max(pair_high);
    }
    let estimate = if n == 0 { 0.0 } else { mid_sum / n as f64 };
    if low > high {
        // All pairs degenerate (e.g. every branch zero).
        low = estimate;
        high = estimate;
    }
    IntervalEstimate {
        low: low.min(estimate),
        estimate,
        high: high.max(estimate),
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use tl_datagen::{random_document, RandomTreeConfig};
    use tl_workload::sample::random_occurred_twig;
    use tl_xml::{parse_document, ParseOptions};

    use crate::estimator::{estimate, EstimateOptions, Estimator};
    use crate::{BuildConfig, TreeLattice};

    use super::*;

    fn lattice_of(xml: &str, k: usize) -> (tl_xml::Document, TreeLattice) {
        let doc = parse_document(xml.as_bytes(), ParseOptions::default()).unwrap();
        let lat = TreeLattice::build(&doc, &BuildConfig::with_k(k));
        (doc, lat)
    }

    #[test]
    fn stored_patterns_are_points() {
        let _fp = tl_fault::failpoints::shared();
        let (_, lat) = lattice_of("<a><b/><c/></a>", 3);
        let q = lat.parse_query("a[b][c]").unwrap();
        let iv = estimate_interval(lat.summary(), &q);
        assert_eq!(iv, IntervalEstimate::point(1.0));
        assert_eq!(iv.relative_width(), 0.0);
    }

    /// The midpoint is the voting estimate, bit for bit: on a hand-made
    /// irregular document, and on seeded random documents with and without
    /// pruned levels.
    #[test]
    fn midpoint_equals_voting_estimate() {
        let _fp = tl_fault::failpoints::shared();
        let mut xml = String::from("<r>");
        for i in 0..12 {
            // Irregular records: disagreement between decomposition orders.
            xml.push_str(if i % 3 == 0 {
                "<a><b/><b/><c/><d/></a>"
            } else if i % 3 == 1 {
                "<a><b/><c/></a>"
            } else {
                "<a><d/><c/><c/></a>"
            });
        }
        xml.push_str("</r>");
        let (_, lat) = lattice_of(&xml, 2);
        let twigs: Vec<Twig> = ["a[b][c][d]", "r/a[b][c]", "a[b][c]"]
            .iter()
            .map(|q| lat.parse_query(q).unwrap())
            .collect();
        assert_midpoints_vote(&lat, &twigs, "hand-made");

        let mut wide = 0usize;
        for seed in 1..=5u64 {
            let doc = random_document(&RandomTreeConfig {
                seed,
                nodes: 400,
                labels: 6,
                max_children: 5,
            });
            let mut lat = TreeLattice::build(&doc, &BuildConfig::with_k(3));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let twigs: Vec<Twig> = (0..40)
                .filter_map(|i| random_occurred_twig(&doc, &mut rng, 4 + i % 5))
                .collect();
            assert!(twigs.len() >= 30, "seed {seed}: workload came up short");
            for pruned in [false, true] {
                if pruned {
                    lat.prune(0.0);
                }
                wide +=
                    assert_midpoints_vote(&lat, &twigs, &format!("seed {seed}, pruned {pruned}"));
            }
        }
        assert!(wide >= 200, "only {wide} cases with a nonzero width");
    }

    /// Asserts each twig's interval midpoint equals its voting estimate bit
    /// for bit and lies within the interval; returns how many intervals
    /// had a nonzero width.
    fn assert_midpoints_vote(lat: &TreeLattice, twigs: &[Twig], ctx: &str) -> usize {
        let mut wide = 0;
        for twig in twigs {
            let iv = estimate_interval(lat.summary(), twig);
            let vote = estimate(
                lat.summary(),
                twig,
                Estimator::RecursiveVoting,
                &EstimateOptions::default(),
            );
            let q = twig.to_query_string(lat.labels());
            assert_eq!(
                iv.estimate.to_bits(),
                vote.to_bits(),
                "{ctx}, {q}: interval mid {} vs voting {vote}",
                iv.estimate
            );
            assert!(
                iv.low <= iv.estimate && iv.estimate <= iv.high,
                "{ctx}, {q}"
            );
            wide += usize::from(iv.high > iv.low);
        }
        wide
    }

    #[test]
    fn regular_data_has_zero_width() {
        let _fp = tl_fault::failpoints::shared();
        let mut xml = String::from("<r>");
        for _ in 0..10 {
            xml.push_str("<a><b><c/></b><d/></a>");
        }
        xml.push_str("</r>");
        let (_, lat) = lattice_of(&xml, 2);
        let q = lat.parse_query("a[b[c]][d]").unwrap();
        let iv = estimate_interval(lat.summary(), &q);
        assert!(
            iv.relative_width() < 1e-9,
            "regular data should have no disagreement: {iv:?}"
        );
        assert!((iv.estimate - 10.0).abs() < 1e-9);
    }

    #[test]
    fn correlated_data_produces_positive_width() {
        let _fp = tl_fault::failpoints::shared();
        // Records where b/c co-occurrence is correlated but d is not:
        // different decomposition orders of a[b][c][d] route through
        // different stored size-3 patterns and disagree.
        let mut xml = String::from("<r>");
        for _ in 0..5 {
            xml.push_str("<a><b/><c/><d/></a>");
        }
        for _ in 0..5 {
            xml.push_str("<a><b/></a><a><c/></a><a><d/></a>");
        }
        for _ in 0..3 {
            xml.push_str("<a><b/><c/></a>");
        }
        xml.push_str("</r>");
        let (_, lat) = lattice_of(&xml, 3);
        let q = lat.parse_query("a[b][c][d]").unwrap();
        let iv = estimate_interval(lat.summary(), &q);
        assert!(
            iv.relative_width() > 0.05,
            "decomposition orders should disagree here: {iv:?}"
        );
        assert!(iv.low < iv.high);
        assert!(iv.low <= iv.estimate && iv.estimate <= iv.high);
        // The width is a *diagnostic*, not a guarantee: here every order
        // shares the independence bias and the truth (5) sits above the
        // whole interval — exactly the situation the caller is being
        // warned about by the positive width.
    }

    #[test]
    fn zero_queries_are_zero_points() {
        let _fp = tl_fault::failpoints::shared();
        let (_, lat) = lattice_of("<a><b/></a>", 2);
        let q = lat.parse_query("a[b][z]").unwrap();
        let iv = estimate_interval(lat.summary(), &q);
        assert_eq!(iv.estimate, 0.0);
        assert_eq!(iv.low, 0.0);
        assert_eq!(iv.high, 0.0);
    }
}
