//! Human-readable decomposition traces.
//!
//! `EXPLAIN` for the estimator: shows how a twig query was reduced to
//! summary lookups — which sub-twigs were read exactly, where the
//! conditional-independence formula was applied, and what each step
//! contributed. Invaluable when an estimate looks off: the trace points at
//! the exact overlap whose correlation broke the assumption.
//!
//! The trace walks the plain recursive estimator's decomposition DAG (the
//! crate's `dag` module) from the root, printing a node each time a pair
//! references it, so it runs on any [`PatternStore`]: the in-memory
//! summary or the mmap catalog.

use std::fmt::Write as _;

use tl_twig::{Twig, TwigId, TwigKey};
use tl_xml::LabelInterner;

use crate::catalog::PatternStore;
use crate::dag::{walk_dag, DagWalk, IdCache, LocalIdCache};
use crate::interval::estimate_interval;
use crate::Lookup;

/// Renders the recursive-decomposition trace of `twig` against `store`.
///
/// The trace follows the plain recursive estimator (first removable pair
/// at each step); the header additionally reports the voting estimate and
/// the decomposition-disagreement interval. The root prints as given;
/// each operand prints as its canonical form decodes, which may list
/// siblings in another order than the query did.
pub fn explain<S: PatternStore + ?Sized>(store: &S, labels: &LabelInterner, twig: &Twig) -> String {
    let iv = estimate_interval(store, twig);
    walk_dag(store, twig, false, |dag, cache: &TraceCache| {
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
        let trace = Trace {
            store,
            labels,
            dag,
            cache,
        };
        trace.render(0, &query, 0, &mut out);
        out
    })
}

/// The walk's id cache: a [`LocalIdCache`] that also keeps each id's
/// canonical bytes, so every node of the DAG can be printed.
#[derive(Default)]
struct TraceCache {
    ids: LocalIdCache,
    keys: Vec<TwigKey>,
}

impl IdCache for TraceCache {
    fn intern(&mut self, bytes: &[u8]) -> TwigId {
        let id = self.ids.intern(bytes);
        if id as usize == self.keys.len() {
            self.keys.push(TwigKey::from_raw(bytes.into()));
        }
        id
    }

    fn lookup(&mut self, id: TwigId) -> Option<f64> {
        self.ids.lookup(id)
    }

    fn store(&mut self, id: TwigId, value: f64) {
        self.ids.store(id, value);
    }
}

/// What rendering one node reads: the store (for the node's reason), the
/// label table, and the walked DAG with its keys.
struct Trace<'a, S: ?Sized> {
    store: &'a S,
    labels: &'a LabelInterner,
    dag: &'a DagWalk<'a>,
    cache: &'a TraceCache,
}

impl<S: PatternStore + ?Sized> Trace<'_, S> {
    /// Prints node `ix` as `query` at `depth`, then its pair's operands.
    fn render(&self, ix: u32, query: &str, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let key = &self.cache.keys[self.dag.id(ix) as usize];
        match self.store.lookup_bytes(key.as_bytes()) {
            Lookup::Exact(c) => {
                let _ = writeln!(out, "{indent}{query} = {c}  (stored, exact)");
            }
            Lookup::Derivable | Lookup::TooLarge if self.dag.size(ix) <= 2 => {
                let _ = writeln!(out, "{indent}{query} = 0  (absent from complete level)");
            }
            source @ (Lookup::Derivable | Lookup::TooLarge) => {
                let why = match source {
                    Lookup::TooLarge => "larger than the summary order",
                    _ => "pruned as derivable",
                };
                let _ = writeln!(
                    out,
                    "{indent}{query} ~= {:.3}  ({why}; s(T1)*s(T2)/s(T12) with)",
                    self.dag.value(ix)
                );
                for &operand in &self.dag.pairs(ix)[0] {
                    let key = &self.cache.keys[self.dag.id(operand) as usize];
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
