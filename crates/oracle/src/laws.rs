//! The paper's identities as executable metamorphic laws.
//!
//! Each law returns `Ok(())` or a human-readable violation carrying a
//! (shrunk, where applicable) counterexample. The laws are deliberately
//! phrased against the *oracle* counter, not the production kernels, so a
//! law failure localizes to the estimator algebra rather than to match
//! counting.
//!
//! | law | paper claim |
//! |-----|-------------|
//! | [`lemma1_decomposition_identity`] | Lemma 1: `s(T)·s(T12) = s(T1)·s(T2)` under edge independence, and every estimator is exact on product documents |
//! | [`lemma2_cover_overlap`] | Lemma 2: each cover step shares a connected (k−1)-subtree with the covered part |
//! | [`exactness_below_k`] | §3.1: estimates are exact whenever `|Q| ≤ k` |
//! | [`voting_cap_one_is_plain`] | §3.2: voting with one vote *is* the plain recursive scheme |
//! | [`engine_matches_uncached`] | engine contract: the shared cache never changes a bit |
//! | [`exact_feedback_is_a_noop`] | §5.1/§6: feedback the summary already answers exactly leaves it as mined |

use tl_twig::ops::{connected_node_sets, fixed_cover_sets, CoverStrategy};
use tl_twig::Twig;
use tl_xml::Document;
use treelattice::{
    BuildConfig, EngineConfig, EstimateOptions, EstimationEngine, Estimator, TreeLattice,
    TunedLattice,
};

use crate::corpus::{describe_case, product_document};
use crate::enumerate::Oracle;

/// Relative tolerance for "estimator equals oracle" claims: the estimate
/// is a product/quotient chain over exactly-represented integers, so only
/// float rounding separates it from the truth.
const REL_EPS: f64 = 1e-9;

fn close(truth: u64, est: f64) -> bool {
    (est - truth as f64).abs() <= REL_EPS * (truth as f64).max(1.0)
}

/// Lemma 1 on a product document: for every feature-subset twig and every
/// removable pair, the decomposition identity holds exactly on oracle
/// counts, and all four estimators reproduce the oracle (features grow
/// independently, so the conditional-independence assumption is satisfied
/// by construction and nothing may drift).
pub fn lemma1_decomposition_identity(
    features: usize,
    replicas: usize,
    k: usize,
) -> Result<(), String> {
    let (doc, full) = product_document(features, replicas);
    let oracle = Oracle::new(&doc);
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(k));
    let opts = EstimateOptions::default();

    // Walk the sub-twig family: the full twig plus everything reachable by
    // repeatedly removing removable nodes (all feature subsets and
    // truncations appear along the way).
    let mut stack = vec![full];
    let mut seen = std::collections::HashSet::new();
    while let Some(twig) = stack.pop() {
        if !seen.insert(tl_twig::canonical::key_of(&twig)) {
            continue;
        }
        let s_t = oracle.count(&twig);
        // (a) the identity, for every removable pair. A 2-node twig has a
        // "pair" (leaf + degree-1 root) but removing both leaves nothing —
        // Lemma 1 starts at |T| ≥ 3.
        for (u, v) in tl_twig::ops::removable_pairs(&twig)
            .into_iter()
            .filter(|_| twig.len() >= 3)
        {
            let d = tl_twig::ops::decompose_pair(&twig, u, v);
            let (s1, s2, s12) = (
                oracle.count(&d.t1),
                oracle.count(&d.t2),
                oracle.count(&d.t12),
            );
            if s_t * s12 != s1 * s2 {
                return Err(format!(
                    "Lemma 1 identity violated: s(T)={s_t} s(T1)={s1} s(T2)={s2} s(T12)={s12}\n{}",
                    describe_case(&doc, &twig)
                ));
            }
        }
        // (b) estimator exactness under independence.
        for est in Estimator::ALL {
            let got = lattice.estimate_with(&twig, est, &opts);
            if !close(s_t, got) {
                return Err(format!(
                    "{est} not exact on product document: truth {s_t}, got {got}\n{}",
                    describe_case(&doc, &twig)
                ));
            }
        }
        if twig.len() > 1 {
            for node in twig.removable_nodes() {
                stack.push(twig.remove_node(node));
            }
        }
    }
    Ok(())
}

/// Lemma 2 set-level invariants of the pre-order fix-sized cover, for both
/// overlap-growth strategies: `|T| − k + 1` steps; each step after the
/// first adds exactly one new node on top of a *connected* (k−1)-subset of
/// the already-covered part containing the new node's parent; every node
/// ends up covered.
pub fn lemma2_cover_overlap(twig: &Twig, k: usize) -> Result<(), String> {
    if !(2..=twig.len()).contains(&k) {
        return Ok(());
    }
    let n = twig.len();
    // The (k−1)-subtree universe, for membership checks.
    let valid_overlaps = connected_node_sets(twig, k - 1);
    for strategy in [CoverStrategy::AncestorsFirst, CoverStrategy::ChildrenFirst] {
        let steps = fixed_cover_sets(twig, k, strategy);
        let fail = |msg: String| Err(format!("Lemma 2 ({strategy:?}): {msg}; twig {twig:?}"));
        if steps.len() != n - k + 1 {
            return fail(format!("{} steps, expected {}", steps.len(), n - k + 1));
        }
        let mut covered = vec![false; n];
        for (i, step) in steps.iter().enumerate() {
            if step.subtree.len() != k {
                return fail(format!("step {i} subtree has {} nodes", step.subtree.len()));
            }
            if i == 0 {
                if step.overlap.is_some() || step.added.is_some() {
                    return fail("first step must have no overlap".into());
                }
                for &node in &step.subtree {
                    covered[node as usize] = true;
                }
                continue;
            }
            let Some(overlap) = &step.overlap else {
                return fail(format!("step {i} lacks an overlap"));
            };
            let Some(added) = step.added else {
                return fail(format!("step {i} lacks an added node"));
            };
            if covered[added as usize] {
                return fail(format!("step {i} re-adds a covered node"));
            }
            if overlap.len() != k - 1 {
                return fail(format!("step {i} overlap has {} nodes", overlap.len()));
            }
            if overlap.iter().any(|&o| !covered[o as usize]) {
                return fail(format!("step {i} overlap leaves the covered part"));
            }
            let parent = twig.parent(added).expect("added node is never the root");
            if !overlap.contains(&parent) {
                return fail(format!("step {i} overlap misses parent of added node"));
            }
            let mut subtree = overlap.clone();
            subtree.push(added);
            subtree.sort_unstable();
            let mut expected = step.subtree.clone();
            expected.sort_unstable();
            if subtree != expected {
                return fail(format!("step {i} subtree != overlap ∪ {{added}}"));
            }
            let mut sorted = overlap.clone();
            sorted.sort_unstable();
            if !valid_overlaps.contains(&sorted) {
                return fail(format!("step {i} overlap is not a connected (k-1)-subtree"));
            }
            covered[added as usize] = true;
        }
        if covered.iter().any(|&c| !c) {
            return fail("cover missed a node".into());
        }
    }
    Ok(())
}

/// §3.1 exactness: when `|Q| ≤ k` the summary stores the true count and
/// every estimator must return it (against the oracle, not the kernels).
pub fn exactness_below_k(
    doc: &Document,
    lattice: &TreeLattice,
    twigs: &[Twig],
) -> Result<(), String> {
    let oracle = Oracle::new(doc);
    let opts = EstimateOptions::default();
    for twig in twigs {
        if twig.len() > lattice.k() {
            continue;
        }
        let truth = oracle.count(twig);
        for est in Estimator::ALL {
            let got = lattice.estimate_with(twig, est, &opts);
            if !close(truth, got) {
                return Err(format!(
                    "{est} inexact at |Q|={} ≤ k={}: truth {truth}, got {got}\n{}",
                    twig.len(),
                    lattice.k(),
                    describe_case(doc, twig)
                ));
            }
        }
    }
    Ok(())
}

/// §3.2: recursive voting capped to a single vote is bit-for-bit the plain
/// recursive scheme.
pub fn voting_cap_one_is_plain(lattice: &TreeLattice, twigs: &[Twig]) -> Result<(), String> {
    let one_vote = EstimateOptions {
        voting_cap: 1,
        ..EstimateOptions::default()
    };
    let plain_opts = EstimateOptions::default();
    for twig in twigs {
        let plain = lattice.estimate_with(twig, Estimator::Recursive, &plain_opts);
        let voted = lattice.estimate_with(twig, Estimator::RecursiveVoting, &one_vote);
        if plain.to_bits() != voted.to_bits() {
            return Err(format!(
                "voting_cap=1 differs from plain recursive: {plain} vs {voted} on {twig:?}"
            ));
        }
    }
    Ok(())
}

/// Engine contract: shared-cache estimates are bit-identical to uncached
/// `TreeLattice` estimates, cold and warm, for every estimator.
pub fn engine_matches_uncached(lattice: &TreeLattice, twigs: &[Twig]) -> Result<(), String> {
    let opts = EstimateOptions::default();
    let engine = EstimationEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    for est in Estimator::ALL {
        for pass in ["cold", "warm"] {
            for twig in twigs {
                let uncached = lattice.estimate_with(twig, est, &opts);
                let cached = engine.estimate(lattice, twig, est, &opts);
                if uncached.to_bits() != cached.to_bits() {
                    return Err(format!(
                        "{est} ({pass} cache) drifts: uncached {uncached} vs engine {cached} \
                         on {twig:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// §5.1 and §6: complete levels answer every pattern of size `<= k`
/// exactly, occurring or not, so feeding back such a pattern's true count
/// must leave the summary as mined. Run under an online budget of 0
/// bytes, where anything stored is evicted at once and its eviction marks
/// the level pruned.
pub fn exact_feedback_is_a_noop(
    doc: &Document,
    lattice: &TreeLattice,
    twigs: &[Twig],
) -> Result<(), String> {
    let oracle = Oracle::new(doc);
    let fresh = lattice.to_bytes();
    let mut tuned = TunedLattice::new(lattice.clone(), 0);
    for twig in twigs.iter().filter(|t| t.len() <= lattice.k()) {
        let truth = oracle.count(twig);
        tuned.observe(twig, truth);
        if tuned.lattice().to_bytes() != fresh {
            return Err(format!(
                "observing the true count {truth} changed the mined summary\n{}",
                describe_case(doc, twig)
            ));
        }
    }
    Ok(())
}
