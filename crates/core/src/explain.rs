//! Human-readable decomposition traces.
//!
//! `EXPLAIN` for the estimator: shows how a twig query was reduced to
//! summary lookups — which sub-twigs were read exactly, where the
//! conditional-independence formula was applied, and what each step
//! contributed. Invaluable when an estimate looks off: the trace points at
//! the exact overlap whose correlation broke the assumption.

use std::fmt::Write as _;

use tl_twig::canonical::key_of;
use tl_twig::ops::{decompose_pair, removable_pairs};
use tl_twig::Twig;
use tl_xml::LabelInterner;

use crate::estimator::{estimate, EstimateOptions, Estimator};
use crate::interval::estimate_interval;
use crate::{Lookup, Summary};

/// Renders the recursive-decomposition trace of `twig` against `summary`.
///
/// The trace follows the plain recursive estimator (first removable pair
/// at each step); the header additionally reports the voting estimate and
/// the decomposition-disagreement interval.
pub fn explain(summary: &Summary, labels: &LabelInterner, twig: &Twig) -> String {
    let mut out = String::new();
    let opts = EstimateOptions::default();
    let point = estimate(summary, twig, Estimator::Recursive, &opts);
    let vote = estimate(summary, twig, Estimator::RecursiveVoting, &opts);
    let iv = estimate_interval(summary, twig);
    let _ = writeln!(
        out,
        "query: {}\nrecursive = {:.3}   voting = {:.3}   spread = [{:.3}, {}]",
        twig.to_query_string(labels),
        point,
        vote,
        iv.low,
        if iv.high.is_finite() {
            format!("{:.3}", iv.high)
        } else {
            "inf".to_owned()
        },
    );
    render(summary, labels, twig, 0, &mut out);
    out
}

fn render(summary: &Summary, labels: &LabelInterner, twig: &Twig, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let query = twig.to_query_string(labels);
    let key = key_of(twig);
    match summary.lookup(&key) {
        Lookup::Exact(c) => {
            let _ = writeln!(out, "{indent}{query} = {c}  (stored, exact)");
        }
        Lookup::Derivable | Lookup::TooLarge if twig.len() <= 2 => {
            let _ = writeln!(out, "{indent}{query} = 0  (absent from complete level)");
        }
        source @ (Lookup::Derivable | Lookup::TooLarge) => {
            let why = match source {
                Lookup::TooLarge => "larger than the summary order",
                _ => "pruned as derivable",
            };
            let opts = EstimateOptions::default();
            let value = estimate(summary, twig, Estimator::Recursive, &opts);
            let canonical = key.decode();
            let (u, v) = removable_pairs(&canonical)[0];
            let d = decompose_pair(&canonical, u, v);
            let _ = writeln!(
                out,
                "{indent}{query} ~= {value:.3}  ({why}; s(T1)*s(T2)/s(T12) with)"
            );
            render(summary, labels, &d.t1, depth + 1, out);
            render(summary, labels, &d.t2, depth + 1, out);
            render(summary, labels, &d.t12, depth + 1, out);
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
