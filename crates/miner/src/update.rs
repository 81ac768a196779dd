//! Incremental lattice maintenance after document edits.
//!
//! The paper notes (§2.2) that "our approach by design is also incremental
//! in nature and can maintain summaries on-line". The enabling observation:
//! every match gained or lost by an edit uses at least one added or removed
//! node, so **a pattern containing none of the edit's touched labels has
//! exactly the same count before and after**. [`update_mined`] therefore:
//!
//! 1. recounts level-1 entries from the new document (cheap);
//! 2. regenerates candidates level-wise as in a full mine, but for each
//!    candidate that contains *no* touched label it reuses the previous
//!    lattice's count verbatim, and only candidates overlapping the touched
//!    label set are recounted (with the exact [`tl_twig::MatchCounter`]);
//! 3. newly occurring patterns necessarily contain a touched label
//!    (their matches are new), so they are found by step 2.
//!
//! For record-append workloads (the common case for the paper's corpora,
//! which grow by records) the touched set is one record schema's labels,
//! and the bulk of the lattice is carried over without recounting.

use tl_twig::canonical::key_of;
use tl_twig::{MatchCounter, Twig, TwigKey};
use tl_xml::{DocIndex, Document, FxHashMap, FxHashSet, LabelId};

use crate::mine::MineConfig;
use crate::Summary;

/// Statistics of an incremental update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Patterns whose counts were carried over unchanged.
    pub reused: usize,
    /// Patterns recounted against the new document.
    pub recounted: usize,
}

/// Rebuilds a mined summary for `doc_new`, reusing counts from `prev` for
/// every pattern that contains none of the `touched` labels.
///
/// `prev` must have been mined (at the same `max_size`) from the document
/// this edit started from, and `touched` must cover the labels of all
/// added/removed nodes (as produced by [`tl_xml::append_subtree`] /
/// [`tl_xml::remove_subtree`]). `prev` is only read; the caller keeps it
/// until it swaps in the result.
pub fn update_mined(
    doc_new: &Document,
    prev: &Summary,
    touched: &[LabelId],
    config: MineConfig,
) -> (Summary, UpdateReport) {
    update_mined_with_index(doc_new, &DocIndex::new(doc_new), prev, touched, config)
}

/// [`update_mined`] over a pre-built index of `doc_new`, for callers that
/// already indexed the post-edit document (e.g. to serve queries from it).
pub fn update_mined_with_index(
    doc_new: &Document,
    index: &DocIndex,
    prev: &Summary,
    touched: &[LabelId],
    config: MineConfig,
) -> (Summary, UpdateReport) {
    assert!(config.max_size >= 1);
    let touched_set: FxHashSet<u32> = touched.iter().map(|l| l.0).collect();
    let counter = MatchCounter::with_index(doc_new, index);
    let mut report = UpdateReport::default();

    // Level 1 from the new document directly.
    let mut levels: Vec<FxHashMap<TwigKey, u64>> = Vec::with_capacity(config.max_size);
    let mut level1 = FxHashMap::default();
    for idx in 0..index.n_labels() {
        let label = LabelId(idx as u32);
        let count = index.label_count(label);
        if count > 0 {
            level1.insert(key_of(&Twig::single(label)), count);
        }
    }
    levels.push(level1);

    // The index's label-level adjacency (of the *new* document) bounds
    // candidate generation.
    for size in 2..=config.max_size {
        let mut level = FxHashMap::default();
        let mut seen: FxHashSet<TwigKey> = FxHashSet::default();
        for base_key in levels[size - 2].keys() {
            let base = base_key.decode();
            for q in base.nodes() {
                for &l in index.child_labels_of(base.label(q)) {
                    let mut ext = base.clone();
                    ext.add_child(q, l);
                    let key = key_of(&ext);
                    if !seen.insert(key.clone()) {
                        continue;
                    }
                    let unaffected = ext.nodes().all(|n| !touched_set.contains(&ext.label(n).0));
                    let count = if unaffected {
                        report.reused += 1;
                        prev.stored(&key).unwrap_or(0)
                    } else {
                        report.recounted += 1;
                        counter.count(&ext)
                    };
                    if count > 0 {
                        level.insert(key, count);
                    }
                }
            }
        }
        let empty = level.is_empty();
        levels.push(level);
        if empty {
            break;
        }
    }
    let pruned = vec![false; levels.len()];
    (Summary::from_parts(levels, pruned), report)
}

#[cfg(test)]
mod tests {
    use tl_xml::{append_subtree, parse_document, remove_subtree, ParseOptions};

    use crate::mine::mine;

    use super::*;

    fn doc(s: &str) -> Document {
        parse_document(s.as_bytes(), ParseOptions::default()).unwrap()
    }

    fn assert_lattices_equal(a: &Summary, b: &Summary, context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: pattern count");
        for (key, count) in a.iter() {
            assert_eq!(b.stored(key), Some(count), "{context}: count mismatch");
        }
    }

    #[test]
    fn append_matches_full_remine() {
        let base = doc("<r><a><b/><c/></a><a><b/></a><d/></r>");
        let record = doc("<a><b/><e/></a>");
        let cfg = MineConfig {
            max_size: 4,
            threads: 1,
        };
        let prev = mine(&base, cfg).lattice;
        let edit = append_subtree(&base, base.root(), &record);
        let (incremental, report) = update_mined(&edit.document, &prev, &edit.touched, cfg);
        let full = mine(&edit.document, cfg).lattice;
        assert_lattices_equal(&incremental, &full, "append");
        assert!(report.recounted > 0);
    }

    #[test]
    fn removal_matches_full_remine() {
        let base = doc("<r><a><b/><c/></a><a><b/><c/></a><d><e/></d></r>");
        let cfg = MineConfig {
            max_size: 3,
            threads: 1,
        };
        let prev = mine(&base, cfg).lattice;
        // Remove the second <a> subtree (find it by scanning).
        let second_a = base
            .pre_order()
            .filter(|&n| base.label_name(base.label(n)) == "a")
            .nth(1)
            .unwrap();
        let edit = remove_subtree(&base, second_a);
        let (incremental, _) = update_mined(&edit.document, &prev, &edit.touched, cfg);
        let full = mine(&edit.document, cfg).lattice;
        assert_lattices_equal(&incremental, &full, "removal");
    }

    #[test]
    fn untouched_patterns_are_reused_not_recounted() {
        // Appending an <x><y/></x> record cannot affect any a/b/c pattern.
        let mut body = String::from("<r>");
        for _ in 0..6 {
            body.push_str("<a><b><c/></b></a>");
        }
        body.push_str("</r>");
        let base = doc(&body);
        let record = doc("<x><y/></x>");
        let cfg = MineConfig {
            max_size: 3,
            threads: 1,
        };
        let prev = mine(&base, cfg).lattice;
        let edit = append_subtree(&base, base.root(), &record);
        let (incremental, report) = update_mined(&edit.document, &prev, &edit.touched, cfg);
        let full = mine(&edit.document, cfg).lattice;
        assert_lattices_equal(&incremental, &full, "disjoint append");
        assert!(
            report.reused > report.recounted,
            "most patterns are unaffected: {report:?}"
        );
    }

    #[test]
    fn repeated_appends_stay_consistent() {
        let mut current = doc("<r><a><b/></a></r>");
        let cfg = MineConfig {
            max_size: 3,
            threads: 1,
        };
        let mut lattice = mine(&current, cfg).lattice;
        for i in 0..5 {
            let record = if i % 2 == 0 {
                doc("<a><b/><c/></a>")
            } else {
                doc("<d><b/></d>")
            };
            let edit = append_subtree(&current, current.root(), &record);
            let (updated, _) = update_mined(&edit.document, &lattice, &edit.touched, cfg);
            current = edit.document;
            lattice = updated;
        }
        let full = mine(&current, cfg).lattice;
        assert_lattices_equal(&lattice, &full, "after 5 incremental appends");
    }

    #[test]
    fn new_labels_produce_new_patterns() {
        let base = doc("<r><a/></r>");
        let record = doc("<z><w/></z>");
        let cfg = MineConfig {
            max_size: 3,
            threads: 1,
        };
        let prev = mine(&base, cfg).lattice;
        let edit = append_subtree(&base, base.root(), &record);
        let (incremental, _) = update_mined(&edit.document, &prev, &edit.touched, cfg);
        let d = &edit.document;
        let q = tl_twig::parse_twig_in("r/z/w", d.labels()).unwrap();
        assert_eq!(incremental.lookup_twig(&q), crate::Lookup::Exact(1));
    }
}
