//! Structural decomposition primitives (paper §3).
//!
//! These are the pure tree operations beneath both estimators; the
//! probabilistic arithmetic lives in the `treelattice` crate.
//!
//! * [`decompose_pair`] — the recursive scheme's single step: given two
//!   removable nodes `u ≠ v` of `T`, produce `(T1, T2, T12)` with
//!   `T1 = T − v`, `T2 = T − u`, `T12 = T − u − v` (Lemma 1's operands:
//!   `|T1| = |T2| = |T| − 1`, `|T12| = |T| − 2`, maximal overlap).
//! * [`removable_pairs`] — all candidate `(u, v)` pairs (the voting scheme
//!   averages over these).
//! * [`fixed_cover`] — Lemma 2's constructive pre-order covering of `T` by
//!   `|T| − k + 1` overlapping k-subtrees, each sharing a (k-1)-subtree
//!   with the part already covered.
//!
//! The pair operands here are built as [`Twig`]s, for the literal
//! recursion that `tl_oracle::twin` keeps for the tests and as the
//! reference the [`crate::canonical::RemovalView`] property test checks
//! against. No `treelattice` code builds them: its one decomposition
//! walker, the DAG evaluator, derives each operand's canonical bytes from
//! its parent's with the view.

use crate::twig::{Twig, TwigNodeId};

/// The operands of one recursive-decomposition step.
#[derive(Clone, Debug)]
pub struct PairDecomposition {
    /// `T` minus the second removable node.
    pub t1: Twig,
    /// `T` minus the first removable node.
    pub t2: Twig,
    /// The common part `T1 ∩ T2 = T` minus both nodes.
    pub t12: Twig,
}

/// All unordered pairs of simultaneously removable nodes of `twig`.
///
/// Every twig of size ≥ 3 has at least one pair (it has two leaves, counting
/// a degree-1 root as a leaf).
pub fn removable_pairs(twig: &Twig) -> Vec<(TwigNodeId, TwigNodeId)> {
    let r = twig.removable_nodes();
    let mut pairs = Vec::with_capacity(r.len() * (r.len().saturating_sub(1)) / 2);
    for i in 0..r.len() {
        for j in (i + 1)..r.len() {
            pairs.push((r[i], r[j]));
        }
    }
    pairs
}

/// Performs one decomposition step at nodes `u` and `v`.
///
/// # Panics
///
/// Panics if `u == v`, either node is not removable, or the twig has fewer
/// than 3 nodes (removing two would not leave a tree).
pub fn decompose_pair(twig: &Twig, u: TwigNodeId, v: TwigNodeId) -> PairDecomposition {
    assert!(u != v, "decomposition nodes must differ");
    assert!(twig.len() >= 3, "twig too small to decompose");
    let t1 = twig.remove_node(v);
    let t2 = twig.remove_node(u);
    let keep: Vec<TwigNodeId> = twig.nodes().filter(|&n| n != u && n != v).collect();
    let t12 = twig.subtwig(&keep);
    PairDecomposition { t1, t2, t12 }
}

/// One step of the fix-sized covering scheme.
#[derive(Clone, Debug)]
pub struct CoverStep {
    /// The covering k-subtree `t_i`.
    pub subtree: Twig,
    /// `t_i ∩ T_{covered}` — a (k-1)-subtree — for every step after the
    /// first.
    pub overlap: Option<Twig>,
}

/// One cover step as node-id sets over the *original* twig — the
/// enumeration hook beneath [`fixed_cover_with`]. Extracted subtwigs lose
/// the correspondence to the covered twig's nodes; property suites that
/// check Lemma 2's set-level invariants (overlap ⊆ covered part, contains
/// `parent(v)`, connected, size `k − 1`) need the raw sets.
#[derive(Clone, Debug)]
pub struct CoverStepSets {
    /// Node ids of the covering k-subtree, pre-order sorted.
    pub subtree: Vec<TwigNodeId>,
    /// Node ids of the (k-1)-overlap with the covered part; `None` for the
    /// first step.
    pub overlap: Option<Vec<TwigNodeId>>,
    /// The single newly covered node (`None` for the first step, which
    /// covers the whole k-prefix at once).
    pub added: Option<TwigNodeId>,
}

/// How the (k-1)-node overlap region is grown around `parent(v)` when
/// covering a new node — different strategies yield different (equally
/// valid) Lemma 2 covers, which the fix-sized voting scheme averages over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoverStrategy {
    /// Prefer the ancestor chain, then covered children (the default; on
    /// path queries this reproduces the Markov window of Lemma 4).
    AncestorsFirst,
    /// Breadth-first over covered neighbors, children before the parent.
    ChildrenFirst,
}

/// Covers `twig` with `|T| − k + 1` k-subtrees following Lemma 2: the first
/// subtree is the pre-order prefix of `k` nodes; each later subtree adds one
/// uncovered node `v` on top of a connected (k-1)-node subset of the covered
/// part that contains `parent(v)`, chosen ancestor-first so that on path
/// queries the scheme degenerates to the order-(k-1) Markov model (Lemma 4).
///
/// # Panics
///
/// Panics unless `2 ≤ k ≤ |T|`.
pub fn fixed_cover(twig: &Twig, k: usize) -> Vec<CoverStep> {
    fixed_cover_with(twig, k, CoverStrategy::AncestorsFirst)
}

/// [`fixed_cover`] with an explicit overlap-growth strategy.
///
/// # Panics
///
/// Panics unless `2 ≤ k ≤ |T|`.
pub fn fixed_cover_with(twig: &Twig, k: usize, strategy: CoverStrategy) -> Vec<CoverStep> {
    fixed_cover_sets(twig, k, strategy)
        .into_iter()
        .map(|s| CoverStep {
            subtree: twig.subtwig(&s.subtree),
            overlap: s.overlap.map(|o| twig.subtwig(&o)),
        })
        .collect()
}

/// [`fixed_cover_with`], but returning node-id sets over `twig` instead of
/// extracted subtwigs. See [`CoverStepSets`].
///
/// # Panics
///
/// Panics unless `2 ≤ k ≤ |T|`.
pub fn fixed_cover_sets(twig: &Twig, k: usize, strategy: CoverStrategy) -> Vec<CoverStepSets> {
    assert!(k >= 2, "fixed cover requires k >= 2");
    assert!(k <= twig.len(), "k exceeds twig size");
    let order = twig.pre_order();
    let mut covered = vec![false; twig.len()];
    let mut steps = Vec::with_capacity(twig.len() - k + 1);

    // First subtree: pre-order prefix (always connected, contains the root).
    let prefix: Vec<TwigNodeId> = order[..k].to_vec();
    for &n in &prefix {
        covered[n as usize] = true;
    }
    steps.push(CoverStepSets {
        subtree: prefix,
        overlap: None,
        added: None,
    });

    for &v in &order[k..] {
        let p = twig
            .parent(v)
            .expect("non-prefix pre-order node has a parent");
        debug_assert!(covered[p as usize], "pre-order guarantees parent covered");
        let overlap_set = grow_connected(twig, p, k - 1, &covered, strategy);
        let mut subtree_set = overlap_set.clone();
        subtree_set.push(v);
        steps.push(CoverStepSets {
            subtree: subtree_set,
            overlap: Some(overlap_set),
            added: Some(v),
        });
        covered[v as usize] = true;
    }
    steps
}

/// Enumerates every connected node subset of `twig` with exactly `size`
/// nodes, each sorted ascending. Connected subsets of a tree are subtrees:
/// each has a unique topmost node, so the enumeration iterates candidate
/// top nodes and extends downward with an include/exclude sweep that
/// visits each subset exactly once. Exponential in the worst case — meant
/// for test twigs, not production paths.
pub fn connected_node_sets(twig: &Twig, size: usize) -> Vec<Vec<TwigNodeId>> {
    let mut out = Vec::new();
    if size == 0 || size > twig.len() {
        return out;
    }
    for top in twig.nodes() {
        let mut set = vec![top];
        let cands: Vec<TwigNodeId> = twig.children(top).to_vec();
        extend_connected(twig, &mut set, cands, size, &mut out);
    }
    out
}

fn extend_connected(
    twig: &Twig,
    set: &mut Vec<TwigNodeId>,
    mut cands: Vec<TwigNodeId>,
    size: usize,
    out: &mut Vec<Vec<TwigNodeId>>,
) {
    if set.len() == size {
        let mut s = set.clone();
        s.sort_unstable();
        out.push(s);
        return;
    }
    // Include/exclude on the candidate frontier: taking `c` opens its
    // children; skipping `c` bars it for the rest of this branch, so no
    // subset is produced twice.
    while let Some(c) = cands.pop() {
        let mut next = cands.clone();
        next.extend_from_slice(twig.children(c));
        set.push(c);
        extend_connected(twig, set, next, size, out);
        set.pop();
    }
}

/// Grows a connected set of `want` covered nodes starting from `seed`.
fn grow_connected(
    twig: &Twig,
    seed: TwigNodeId,
    want: usize,
    covered: &[bool],
    strategy: CoverStrategy,
) -> Vec<TwigNodeId> {
    debug_assert!(covered[seed as usize]);
    let mut set = vec![seed];
    let mut in_set = vec![false; twig.len()];
    in_set[seed as usize] = true;

    if strategy == CoverStrategy::AncestorsFirst {
        // Ancestor chain first: on path twigs this reproduces the Markov
        // window.
        let mut cur = seed;
        while set.len() < want {
            match twig.parent(cur) {
                Some(p) if covered[p as usize] && !in_set[p as usize] => {
                    in_set[p as usize] = true;
                    set.push(p);
                    cur = p;
                }
                _ => break,
            }
        }
    }
    // BFS over covered neighbors of anything already selected; under
    // ChildrenFirst the parent link is enqueued after the children.
    let mut frontier = 0usize;
    while set.len() < want && frontier < set.len() {
        let n = set[frontier];
        frontier += 1;
        let push = |node: TwigNodeId, set: &mut Vec<TwigNodeId>, in_set: &mut Vec<bool>| {
            if set.len() < want && covered[node as usize] && !in_set[node as usize] {
                in_set[node as usize] = true;
                set.push(node);
            }
        };
        for &c in twig.children(n) {
            push(c, &mut set, &mut in_set);
        }
        if let Some(p) = twig.parent(n) {
            push(p, &mut set, &mut in_set);
        }
    }
    assert_eq!(
        set.len(),
        want,
        "covered region smaller than k-1; cover invariant violated"
    );
    set
}

#[cfg(test)]
mod tests {
    use tl_xml::LabelInterner;

    use crate::canonical::key_of;
    use crate::parser::parse_twig;

    use super::*;

    fn twig(q: &str) -> (Twig, LabelInterner) {
        let mut it = LabelInterner::new();
        let t = parse_twig(q, &mut it).unwrap();
        (t, it)
    }

    #[test]
    fn decompose_path() {
        let (t, it) = twig("a/b/c");
        let pairs = removable_pairs(&t);
        assert_eq!(pairs.len(), 1, "path of 3 has exactly one removable pair");
        let (u, v) = pairs[0];
        let d = decompose_pair(&t, u, v);
        assert_eq!(d.t1.len(), 2);
        assert_eq!(d.t2.len(), 2);
        assert_eq!(d.t12.len(), 1);
        let strings: Vec<String> = [&d.t1, &d.t2]
            .iter()
            .map(|t| t.to_query_string(&it))
            .collect();
        assert!(strings.contains(&"a[b]".to_owned()), "{strings:?}");
        assert!(strings.contains(&"b[c]".to_owned()), "{strings:?}");
        assert_eq!(d.t12.to_query_string(&it), "b");
    }

    #[test]
    fn decompose_star() {
        // a[b][c][d] : removable = {b, c, d}; 3 pairs.
        let (t, it) = twig("a[b][c][d]");
        let pairs = removable_pairs(&t);
        assert_eq!(pairs.len(), 3);
        let (u, v) = pairs[0];
        let d = decompose_pair(&t, u, v);
        assert_eq!(d.t12.len(), 2);
        assert!(d.t12.to_query_string(&it).starts_with('a'));
    }

    #[test]
    fn figure3a_first_level() {
        // Paper Figure 3(a): the 7-node twig a[b[c? ...]] — we use its
        // abstract shape a[d[c][f[e][g]]] and check the first recursion.
        let (t, _) = twig("a[b[d[c]][f[e][g]]]");
        assert_eq!(t.len(), 7);
        let pairs = removable_pairs(&t);
        // Leaves: c, e, g. Root has degree 1 -> also removable.
        assert_eq!(pairs.len(), 6);
        for (u, v) in pairs {
            let d = decompose_pair(&t, u, v);
            assert_eq!(d.t1.len(), 6);
            assert_eq!(d.t2.len(), 6);
            assert_eq!(d.t12.len(), 5);
        }
    }

    #[test]
    fn overlap_is_intersection() {
        let (t, _) = twig("a[b][c]");
        let (u, v) = removable_pairs(&t)[0];
        let d = decompose_pair(&t, u, v);
        // T1 and T2 are a[b] and a[c]; T12 = a.
        assert_eq!(d.t12.len(), 1);
        assert_ne!(key_of(&d.t1), key_of(&d.t2));
    }

    #[test]
    fn fixed_cover_of_path_is_markov_windows() {
        let (t, it) = twig("a/b/c/d/e");
        let steps = fixed_cover(&t, 3);
        assert_eq!(steps.len(), 3); // 5 - 3 + 1
        let subs: Vec<String> = steps
            .iter()
            .map(|s| s.subtree.to_query_string(&it))
            .collect();
        assert_eq!(subs, ["a[b[c]]", "b[c[d]]", "c[d[e]]"]);
        let overlaps: Vec<String> = steps
            .iter()
            .filter_map(|s| s.overlap.as_ref().map(|o| o.to_query_string(&it)))
            .collect();
        assert_eq!(overlaps, ["b[c]", "c[d]"]);
    }

    #[test]
    fn fixed_cover_covers_every_node() {
        let (t, _) = twig("a[b[d][e]][c[f/g]]");
        let n = t.len();
        for k in 2..=n {
            let steps = fixed_cover(&t, k);
            assert_eq!(steps.len(), n - k + 1, "k={k}");
            for (i, s) in steps.iter().enumerate() {
                assert_eq!(s.subtree.len(), k, "step {i} subtree size");
                if i == 0 {
                    assert!(s.overlap.is_none());
                } else {
                    assert_eq!(s.overlap.as_ref().unwrap().len(), k - 1);
                }
            }
        }
    }

    #[test]
    fn fixed_cover_figure3b_shape() {
        // Figure 3(b) covers a 7-node twig with 4-subtrees: 4 steps.
        let (t, _) = twig("a[b[d[c]][f[e][g]]]");
        assert_eq!(t.len(), 7);
        let steps = fixed_cover(&t, 4);
        assert_eq!(steps.len(), 4);
    }

    #[test]
    fn overlap_is_subtree_of_both() {
        use crate::matcher::count_matches;
        use tl_xml::{parse_document, ParseOptions};
        // On any document, the overlap of step i must have selectivity >=
        // each of the subtrees containing it (monotonicity sanity check).
        let doc = parse_document(
            b"<a><b><d><c/></d><f><e/><g/></f></b><b><d/><f><e/></f></b></a>",
            ParseOptions::default(),
        )
        .unwrap();
        let mut it = doc.labels().clone();
        let t = parse_twig("a[b[d][f[e]]]", &mut it).unwrap();
        for k in 2..t.len() {
            for step in fixed_cover(&t, k) {
                if let Some(overlap) = step.overlap {
                    let c_sub = count_matches(&doc, &step.subtree);
                    let c_ov = count_matches(&doc, &overlap);
                    assert!(
                        c_ov >= c_sub.min(1) * u64::from(c_sub > 0),
                        "an occurring subtree implies its overlap occurs"
                    );
                    if c_sub > 0 {
                        assert!(c_ov > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn cover_sets_agree_with_extracted_cover() {
        let (t, _) = twig("a[b[d][e]][c[f/g]]");
        for k in 2..=t.len() {
            for strategy in [CoverStrategy::AncestorsFirst, CoverStrategy::ChildrenFirst] {
                let sets = fixed_cover_sets(&t, k, strategy);
                let steps = fixed_cover_with(&t, k, strategy);
                assert_eq!(sets.len(), steps.len());
                for (s, step) in sets.iter().zip(&steps) {
                    assert_eq!(s.subtree.len(), step.subtree.len());
                    assert_eq!(key_of(&t.subtwig(&s.subtree)), key_of(&step.subtree));
                    match (&s.overlap, &step.overlap) {
                        (None, None) => assert!(s.added.is_none()),
                        (Some(o), Some(ov)) => {
                            assert_eq!(key_of(&t.subtwig(o)), key_of(ov));
                            let v = s.added.expect("later steps add one node");
                            assert!(s.subtree.contains(&v));
                            assert!(!o.contains(&v));
                        }
                        _ => panic!("set/twig overlap mismatch"),
                    }
                }
            }
        }
    }

    #[test]
    fn connected_node_sets_enumerates_exactly_the_connected_subsets() {
        let (t, _) = twig("a[b[d][e]][c]");
        // Size 1: every node. Size n: the whole twig.
        assert_eq!(connected_node_sets(&t, 1).len(), t.len());
        assert_eq!(
            connected_node_sets(&t, t.len()),
            vec![{
                let mut all: Vec<_> = t.nodes().collect();
                all.sort_unstable();
                all
            }]
        );
        for size in 1..=t.len() {
            let sets = connected_node_sets(&t, size);
            // No duplicates, each connected (subtwig() panics on a
            // disconnected set), each of the right size.
            let mut seen = sets.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), sets.len(), "duplicate sets at size {size}");
            for s in &sets {
                assert_eq!(s.len(), size);
                assert_eq!(t.subtwig(s).len(), size);
            }
        }
        // Hand count for size 2: one set per edge.
        assert_eq!(connected_node_sets(&t, 2).len(), t.len() - 1);
    }

    #[test]
    #[should_panic(expected = "k exceeds twig size")]
    fn cover_k_larger_than_twig_panics() {
        let (t, _) = twig("a/b");
        let _ = fixed_cover(&t, 3);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn decompose_same_node_panics() {
        let (t, _) = twig("a[b][c]");
        let leaf = t.leaves()[0];
        let _ = decompose_pair(&t, leaf, leaf);
    }
}
