//! Human-readable decomposition traces.
//!
//! `EXPLAIN` for the estimator: shows how a twig query was reduced to
//! summary lookups — which sub-twigs were read exactly, where the
//! conditional-independence formula was applied, and what each step
//! contributed. Invaluable when an estimate looks off: the trace points at
//! the exact overlap whose correlation broke the assumption.
//!
//! The trace walks the plain recursive estimator's decomposition DAG (the
//! crate's `dag` module) from the root and prints each distinct node once,
//! numbered by its place in the DAG. A decomposed node's line names its
//! three operands by number; an operand printed before is not expanded
//! again, so the trace has one line per DAG node however often pairs share
//! an operand. It runs on any [`PatternStore`]: the in-memory summary or
//! the mmap catalog.

use std::fmt::Write as _;

use tl_twig::{Twig, TwigKey};
use tl_xml::LabelInterner;

use crate::catalog::PatternStore;
use crate::dag::{walk_dag, DagWalk, LocalIdCache};
use crate::interval::estimate_interval;
use crate::Lookup;

/// Renders the recursive-decomposition trace of `twig` against `store`.
///
/// The trace follows the plain recursive estimator (first removable pair
/// at each step); the header additionally reports the voting estimate and
/// the decomposition-disagreement interval. The root prints as given;
/// each operand prints as its canonical form decodes, which may list
/// siblings in another order than the query did. Every node prints once,
/// as `#n`; a later reference to it is the `#n` in its parent's line.
pub fn explain<S: PatternStore + ?Sized>(store: &S, labels: &LabelInterner, twig: &Twig) -> String {
    let iv = estimate_interval(store, twig);
    walk_dag(store, twig, false, |dag, cache: &LocalIdCache| {
        let mut out = String::new();
        let query = twig.to_query_string(labels);
        let _ = writeln!(
            out,
            "query: {query}\nrecursive = {:.3}   voting = {:.3}   spread = [{:.3}, {}]",
            dag.value(0),
            iv.estimate,
            iv.low,
            if iv.high.is_finite() {
                format!("{:.3}", iv.high)
            } else {
                "inf".to_owned()
            },
        );
        let mut trace = Trace {
            store,
            labels,
            dag,
            cache,
            printed: vec![false; dag.len()],
        };
        trace.render(0, &query, 0, &mut out);
        out
    })
}

/// What rendering one node reads: the store (for the node's reason), the
/// label table, the walked DAG with its keys, and which nodes are printed.
struct Trace<'a, S: ?Sized> {
    store: &'a S,
    labels: &'a LabelInterner,
    dag: &'a DagWalk<'a>,
    cache: &'a LocalIdCache,
    printed: Vec<bool>,
}

impl<S: PatternStore + ?Sized> Trace<'_, S> {
    /// Prints node `ix` as `query` at `depth`, then the operands of its
    /// pair that are not printed yet.
    fn render(&mut self, ix: u32, query: &str, depth: usize, out: &mut String) {
        self.printed[ix as usize] = true;
        let indent = "  ".repeat(depth);
        let key = self.cache.key(self.dag.id(ix));
        match self.store.lookup_bytes(key) {
            Lookup::Exact(c) => {
                let _ = writeln!(out, "{indent}#{ix} {query} = {c}  (stored, exact)");
            }
            Lookup::Derivable | Lookup::TooLarge if self.dag.size(ix) <= 2 => {
                let _ = writeln!(
                    out,
                    "{indent}#{ix} {query} = 0  (absent from complete level)"
                );
            }
            source @ (Lookup::Derivable | Lookup::TooLarge) => {
                let why = match source {
                    Lookup::TooLarge => "larger than the summary order",
                    _ => "pruned as derivable",
                };
                let [t1, t2, t12] = self.dag.pairs(ix)[0];
                let _ = writeln!(
                    out,
                    "{indent}#{ix} {query} ~= {:.3}  ({why}; s(T1)*s(T2)/s(T12) with #{t1} #{t2} #{t12})",
                    self.dag.value(ix)
                );
                for operand in [t1, t2, t12] {
                    if self.printed[operand as usize] {
                        continue;
                    }
                    let key = TwigKey::from_raw(self.cache.key(self.dag.id(operand)).into());
                    let query = key.decode().to_query_string(self.labels);
                    self.render(operand, &query, depth + 1, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, ParseOptions};

    use crate::{BuildConfig, TreeLattice};

    use super::*;

    fn lattice() -> TreeLattice {
        let mut xml = String::from("<r>");
        for _ in 0..6 {
            xml.push_str("<a><b><c/></b><d/></a>");
        }
        xml.push_str("</r>");
        let doc = parse_document(xml.as_bytes(), ParseOptions::default()).unwrap();
        TreeLattice::build(&doc, &BuildConfig::with_k(3))
    }

    #[test]
    fn stored_queries_explain_as_exact() {
        let _fp = tl_fault::failpoints::shared();
        let lat = lattice();
        let q = lat.parse_query("a/b/c").unwrap();
        let text = explain(lat.summary(), lat.labels(), &q);
        assert!(text.contains("stored, exact"), "{text}");
        assert!(text.contains("a[b[c]] = 6"), "{text}");
    }

    #[test]
    fn large_queries_show_the_decomposition_tree() {
        let _fp = tl_fault::failpoints::shared();
        let lat = lattice();
        let q = lat.parse_query("a[b[c]][d]").unwrap();
        let text = explain(lat.summary(), lat.labels(), &q);
        assert!(text.contains("larger than the summary order"), "{text}");
        // The three operands appear, indented.
        assert!(text.contains("\n  "), "{text}");
        assert!(text.contains("s(T1)*s(T2)/s(T12)"), "{text}");
        assert!(text.contains("recursive = 6.000"), "{text}");
    }

    #[test]
    fn zero_queries_explain_the_missing_edge() {
        let _fp = tl_fault::failpoints::shared();
        let lat = lattice();
        // `zzz` never occurred: explain through the query API, which keeps
        // the scratch interner that can resolve it.
        let text = lat.explain_query("a[b][zzz]").unwrap();
        assert!(
            text.contains("absent from complete level") || text.contains("= 0  (stored, exact)"),
            "{text}"
        );
    }

    /// A 13-node query on an XMark summary at k = 2 decomposes into a DAG
    /// whose operands are shared many times over; the trace prints each
    /// node once, so it has no more lines than the DAG has nodes, plus the
    /// two header lines.
    #[test]
    fn each_dag_node_prints_once() {
        let _fp = tl_fault::failpoints::shared();
        let doc = tl_datagen::Dataset::Xmark.generate(tl_datagen::GenConfig {
            seed: 11,
            target_elements: 20_000,
        });
        let lat = TreeLattice::build(&doc, &BuildConfig::with_k(2));
        let q = lat
            .parse_query(
                "site/regions/namerica/item[name][incategory]\
                 [mailbox/mail[from][to]][description/parlist/listitem]",
            )
            .unwrap();
        assert_eq!(q.len(), 13);
        let nodes = walk_dag(lat.summary(), &q, false, |dag, _: &LocalIdCache| dag.len());
        let text = explain(lat.summary(), lat.labels(), &q);
        let lines = text.lines().count();
        assert!(lines <= nodes + 2, "{lines} lines for {nodes} DAG nodes");
        assert!(nodes > 20, "the query decomposes: {nodes} nodes");
        // Every node is numbered once, and every operand a line names is
        // printed somewhere.
        for ix in 0..nodes {
            let label = format!("#{ix} ");
            let printed = text.lines().filter(|l| l.trim_start().starts_with(&label));
            assert_eq!(printed.count(), 1, "node {ix}:\n{text}");
        }
    }

    #[test]
    fn header_reports_interval() {
        let _fp = tl_fault::failpoints::shared();
        let lat = lattice();
        let q = lat.parse_query("r/a[b[c]][d]").unwrap();
        let text = explain(lat.summary(), lat.labels(), &q);
        assert!(text.contains("spread = ["), "{text}");
        assert!(text.contains("voting = "), "{text}");
    }
}
