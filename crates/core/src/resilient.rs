//! The degradation ladder: estimation that always comes back.
//!
//! A cardinality estimator embedded in a query optimizer must return *some*
//! number for every query — a crude estimate beats an aborted plan search.
//! The ladder runs the requested estimator under the caller's
//! [`Budget`](crate::Budget) and, instead of propagating a budget trip,
//! climbs down a ladder of progressively cheaper models:
//!
//! 1. **Requested estimator** (budget-enforced). Values are bit-for-bit
//!    identical to the unbudgeted path, so this rung runs through the
//!    caller's cache: the engine's cross-query cache
//!    ([`crate::EstimationEngine::estimate_resilient`]) or a per-query one
//!    ([`estimate_resilient_catalog`]).
//! 2. **Fix-sized at reduced k** ([`Degradation::ReducedK`]): windows of
//!    `k_eff < k` nodes still resolve exactly from the summary's lower
//!    levels; only the covering is coarser. Degraded values use a fresh
//!    per-query cache so they never pollute the shared one.
//! 3. **First-order Markov product** ([`Degradation::Markov`]): a closed
//!    form over summary levels 1–2 only — `s(root) · Π s(parent/child) /
//!    s(parent)` over the twig's edges. No decomposition, no allocation
//!    beyond one pair twig, cannot trip; the ladder therefore always
//!    terminates.
//!
//! Rungs 1 and 2 run on the decomposition DAG (the crate's `dag` module)
//! with the budget attached: the deadline is checked before every root probe
//! (each fix-sized window included) and before each DAG node is expanded
//! or evaluated, and the memory cap is charged key bytes + 32 for every
//! node resolved other than from the cache. The ladder is generic over
//! the pattern store, so the in-memory and mmap backends both run it.
//!
//! This mirrors the fall-back-to-weaker-model stance of the TreeSketch and
//! Markov-table baselines: each rung is itself a published estimator, just
//! a coarser-order one.

use tl_fault::{Degradation, Fault};
use tl_twig::canonical::key_of;
use tl_twig::{Twig, TwigKey};

use crate::catalog::{has_unknown_label, Catalog, PatternStore};
use crate::dag::{estimate_dag_within, estimate_fixed_dag, DagStats, IdCache, LocalIdCache};
use crate::estimator::{EstimateOptions, Estimator};
use crate::Lookup;

/// A selectivity estimate that always exists, tagged with how it was
/// obtained.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilientEstimate {
    /// The estimate; non-negative and finite.
    pub value: f64,
    /// How far down the degradation ladder the estimator had to go.
    pub degradation: Degradation,
    /// The fault that forced the final degradation step, when degraded.
    pub cause: Option<Fault>,
}

impl ResilientEstimate {
    /// Wraps an estimate produced without any degradation.
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            degradation: Degradation::None,
            cause: None,
        }
    }
}

/// Estimates `twig` on any [`Catalog`] backend under the budget in `opts`,
/// degrading instead of failing, with a per-query cache: the resilient
/// sibling of [`crate::estimate_catalog`]. The result is always a finite,
/// non-negative estimate tagged with the rung that produced it.
/// Equivalent to [`crate::TreeLattice::estimate_resilient`] when the
/// catalog is a `TreeLattice`.
pub fn estimate_resilient_catalog<S: Catalog + ?Sized>(
    catalog: &S,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
) -> ResilientEstimate {
    if has_unknown_label(catalog, twig) {
        return ResilientEstimate::exact(0.0);
    }
    estimate_resilient_with(catalog, twig, estimator, opts, &mut LocalIdCache::default()).0
}

/// Runs the degradation ladder, rung 1 through `cache`. Total: every path
/// returns an estimate, with rung 1's decomposition depth and DAG
/// statistics when rung 1 answered. Callers apply the unknown-label guard
/// first.
pub(crate) fn estimate_resilient_with<S: PatternStore + ?Sized, C: IdCache>(
    store: &S,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
    cache: &mut C,
) -> (ResilientEstimate, Option<(usize, DagStats)>) {
    let k = store.max_size();
    let capped = opts.budget.max_k.map(|mk| mk.max(2));
    let mut cause = None;

    // Rung 1: the requested estimator, unless max_k forbids touching
    // sub-twigs as large as this query would need.
    let within_cap = match capped {
        Some(mk) => twig.len() <= mk || mk >= k,
        None => true,
    };
    if within_cap {
        match estimate_dag_within(store, twig, estimator, opts, Some(&opts.budget), cache) {
            Ok((value, depth, stats)) => {
                return (ResilientEstimate::exact(value), Some((depth, stats)))
            }
            Err(fault) => cause = Some(fault),
        }
    }

    // Rung 2: fix-sized covering at a reduced order, with a fresh local
    // cache so degraded values never enter the shared one.
    let k_eff = capped.unwrap_or(usize::MAX).min(k.saturating_sub(1)).max(2);
    if k_eff >= 2 && k >= 2 {
        let mut local = LocalIdCache::default();
        match estimate_fixed_dag(store, twig, k_eff, Some(&opts.budget), &mut local) {
            Ok((value, ..)) => {
                let est = ResilientEstimate {
                    value,
                    degradation: Degradation::ReducedK { k: k_eff },
                    cause,
                };
                return (est, None);
            }
            Err(fault) => cause = Some(fault),
        }
    }

    // Rung 3: the closed-form Markov product; never fails.
    let est = ResilientEstimate {
        value: markov_estimate(store, twig),
        degradation: Degradation::Markov,
        cause,
    };
    (est, None)
}

/// First-order Markov (path-independence) estimate from levels 1–2:
/// `s(root) · Π_{edges (u,v)} s(u/v) / s(u)`, against any [`PatternStore`]
/// backend.
///
/// Public because it is rung 3 of the ladder: a [`Degradation::Markov`]
/// result must be bit-for-bit reproducible by calling this directly, and
/// the test suite asserts exactly that. The closed form only touches
/// levels 1–2, which every backend serves by key bytes, so the server
/// answers overload sheds with the same rung-3 value whether its summary
/// is in memory or mmapped.
pub fn markov_estimate<S: PatternStore + ?Sized>(store: &S, twig: &Twig) -> f64 {
    let count = |key: &TwigKey| -> f64 {
        match store.lookup_bytes(key.as_bytes()) {
            Lookup::Exact(c) => c as f64,
            // Levels 1-2 are never pruned; anything else means absent.
            Lookup::Derivable | Lookup::TooLarge => 0.0,
        }
    };
    let mut value = count(&key_of(&Twig::single(twig.label(twig.root()))));
    if value <= 0.0 {
        return 0.0;
    }
    for node in twig.nodes() {
        let Some(parent) = twig.parent(node) else {
            continue;
        };
        let s_parent = count(&key_of(&Twig::single(twig.label(parent))));
        if s_parent <= 0.0 {
            return 0.0;
        }
        let mut pair = Twig::single(twig.label(parent));
        pair.add_child(pair.root(), twig.label(node));
        let s_edge = count(&key_of(&pair));
        if s_edge <= 0.0 {
            return 0.0;
        }
        value *= s_edge / s_parent;
    }
    value
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use rand::SeedableRng;
    use tl_datagen::{random_document, RandomTreeConfig};
    use tl_fault::Budget;
    use tl_workload::sample::random_occurred_twig;
    use tl_xml::{parse_document, ParseOptions};

    use super::*;
    use crate::reference::{reference_estimate, reference_fixed_at};
    use crate::{estimate, estimate_fixed_at, BuildConfig, TreeLattice};

    fn sample_lattice(k: usize) -> TreeLattice {
        let mut s = String::from("<r>");
        for _ in 0..6 {
            s.push_str("<a><b><c/><d/></b><e/></a>");
        }
        s.push_str("</r>");
        let doc = parse_document(s.as_bytes(), ParseOptions::default()).unwrap();
        TreeLattice::build(&doc, &BuildConfig::with_k(k))
    }

    #[test]
    fn unlimited_budget_matches_plain_estimate() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice(3);
        for q in ["a[b[c][d]][e]", "a/b/c", "r/a/b"] {
            let twig = lat.parse_query(q).unwrap();
            for est in Estimator::ALL {
                let plain = lat.estimate(&twig, est);
                let res = lat.estimate_resilient(&twig, est, &EstimateOptions::default());
                assert_eq!(res.degradation, Degradation::None, "{est} {q}");
                assert_eq!(res.value.to_bits(), plain.to_bits(), "{est} {q}");
                assert!(res.cause.is_none());
            }
        }
    }

    #[test]
    fn max_k_cap_forces_reduced_k() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice(4);
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions {
            budget: Budget::unlimited().with_max_k(2),
            ..EstimateOptions::default()
        };
        let res = lat.estimate_resilient(&twig, Estimator::Recursive, &opts);
        assert_eq!(res.degradation, Degradation::ReducedK { k: 2 });
        assert!(res.value.is_finite() && res.value >= 0.0);
    }

    #[test]
    fn expired_deadline_lands_on_markov() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice(3);
        // A query big enough to force decomposition (so the deadline is
        // actually consulted).
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions {
            budget: Budget {
                deadline: Some(Instant::now() - Duration::from_millis(1)),
                ..Budget::default()
            },
            ..EstimateOptions::default()
        };
        let res = lat.estimate_resilient(&twig, Estimator::Recursive, &opts);
        assert!(res.degradation.is_degraded());
        assert!(res.value.is_finite() && res.value >= 0.0);
        assert!(res.cause.is_some());
    }

    #[test]
    fn markov_fallback_matches_closed_form_on_paths() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice(3);
        let twig = lat.parse_query("a/b/c").unwrap();
        // On a path, the recursive estimator over a k>=2 summary reduces to
        // the same Markov chain product.
        let markov = markov_estimate(lat.summary(), &twig);
        let exact = lat.estimate(&twig, Estimator::Recursive);
        assert!(
            (markov - exact).abs() < 1e-9,
            "markov {markov} vs exact {exact}"
        );
    }

    #[test]
    fn markov_zero_on_absent_labels_and_edges() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice(3);
        let absent = lat.parse_query("a/nosuch").unwrap();
        assert_eq!(markov_estimate(lat.summary(), &absent), 0.0);
        // c is never a child of a.
        let bad_edge = lat.parse_query("a/c").unwrap();
        assert_eq!(markov_estimate(lat.summary(), &bad_edge), 0.0);
    }

    #[test]
    fn tiny_mem_budget_degrades_instead_of_erroring() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice(3);
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions {
            budget: Budget::unlimited().with_max_mem_bytes(1),
            ..EstimateOptions::default()
        };
        let res = lat.estimate_resilient(&twig, Estimator::RecursiveVoting, &opts);
        assert!(res.degradation.is_degraded());
        assert!(res.value.is_finite() && res.value >= 0.0);
    }

    /// Rungs 1 and 2 run on the DAG; the reference recursion is their
    /// differential baseline. On seeded random documents and twigs, with
    /// and without pruned levels: the fix-sized estimate at every reduced
    /// window size equals the recursion's, and rung 1 under an unlimited
    /// budget equals both the unbudgeted DAG and the recursion, for every
    /// estimator.
    #[test]
    fn dag_rungs_match_the_reference_recursion_bitwise() {
        let _fp = tl_fault::failpoints::shared();
        let opts = EstimateOptions::default();
        let mut reduced = 0usize;
        for seed in [3u64, 17, 29] {
            let doc = random_document(&RandomTreeConfig {
                seed,
                nodes: 300,
                labels: 6,
                max_children: 5,
            });
            let mut lattice = TreeLattice::build(&doc, &BuildConfig::with_k(4));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let twigs: Vec<Twig> = (0..15)
                .filter_map(|i| random_occurred_twig(&doc, &mut rng, 3 + i % 5))
                .collect();
            assert!(twigs.len() >= 10, "seed {seed}: workload came up short");
            for pruned in [false, true] {
                if pruned {
                    lattice.prune(0.0);
                }
                let summary = lattice.summary();
                for (i, twig) in twigs.iter().enumerate() {
                    let ctx = format!("seed {seed}, pruned {pruned}, twig {i}");
                    for k_eff in 2..lattice.k() {
                        let dag = estimate_fixed_at(summary, twig, k_eff);
                        let reference = reference_fixed_at(summary, twig, k_eff);
                        assert_eq!(dag.to_bits(), reference.to_bits(), "{ctx}, k {k_eff}");
                        reduced += 1;
                    }
                    for est in Estimator::ALL {
                        let (rung1, _) = estimate_resilient_with(
                            summary,
                            twig,
                            est,
                            &opts,
                            &mut LocalIdCache::default(),
                        );
                        assert_eq!(rung1.degradation, Degradation::None, "{ctx}, {est}");
                        let plain = estimate(summary, twig, est, &opts);
                        let (reference, _) = reference_estimate(summary, twig, est, &opts);
                        assert_eq!(rung1.value.to_bits(), plain.to_bits(), "{ctx}, {est}");
                        assert_eq!(rung1.value.to_bits(), reference.to_bits(), "{ctx}, {est}");
                    }
                }
            }
        }
        assert!(reduced >= 100, "only {reduced} reduced-k comparisons ran");
    }
}
