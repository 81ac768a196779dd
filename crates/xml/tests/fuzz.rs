//! Fuzz-style robustness tests for the XML parser.
//!
//! The parser is the first crate boundary untrusted bytes cross, so its
//! contract is strict: for *any* input it returns `Ok(Document)` or a
//! positioned `ParseError` — never a panic, never unbounded recursion or
//! memory (the depth cap guards hostile nesting). Proptest drives random
//! byte soup and markup-shaped soup through it; the targeted cases cover
//! pathological nesting and unclosed documents.

use proptest::prelude::*;
use tl_xml::{parse_document, ParseOptions, ValueMode};

proptest! {
    /// Arbitrary byte soup: parse must return a value, never panic. (A
    /// panic would fail the test; OOM/stack overflow would abort it.)
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _fp = tl_fault::failpoints::shared();
        match parse_document(&bytes, ParseOptions::default()) {
            Ok(doc) => prop_assert!(!doc.is_empty()),
            Err(e) => {
                prop_assert!(e.line >= 1);
                prop_assert!(e.column >= 1);
            }
        }
    }

    /// Markup-shaped soup — drawn from an alphabet dense in XML
    /// metacharacters so tag/attribute/comment code paths actually run.
    #[test]
    fn markup_soup_never_panics(picks in prop::collection::vec(any::<u8>(), 0..256)) {
        let _fp = tl_fault::failpoints::shared();
        const ALPHABET: &[u8] = b"<>/=!?-'\" \tab\n&;[]cD";
        let bytes: Vec<u8> = picks
            .iter()
            .map(|&p| ALPHABET[p as usize % ALPHABET.len()])
            .collect();
        for opts in [
            ParseOptions::default(),
            ParseOptions { attributes_as_nodes: true, ..ParseOptions::default() },
            ParseOptions { values: ValueMode::AsLabels, ..ParseOptions::default() },
        ] {
            if let Err(e) = parse_document(&bytes, opts) {
                prop_assert!(e.line >= 1 && e.column >= 1);
            }
        }
    }

    /// Any nesting deeper than the configured cap is rejected with a parse
    /// error — bounded memory no matter how deep the input goes.
    #[test]
    fn nesting_beyond_cap_is_rejected(depth in 5usize..64) {
        let _fp = tl_fault::failpoints::shared();
        let mut input = Vec::new();
        for _ in 0..depth {
            input.extend_from_slice(b"<a>");
        }
        for _ in 0..depth {
            input.extend_from_slice(b"</a>");
        }
        let opts = ParseOptions { max_depth: 4, ..ParseOptions::default() };
        let err = parse_document(&input, opts).unwrap_err();
        prop_assert!(err.message.contains("depth"), "unexpected error: {}", err.message);
    }
}

/// A megabyte of unclosed `<a>` tags: the default depth cap must stop it
/// with an error long before the builder stack grows with the input.
#[test]
fn pathological_unclosed_nesting_errors_quickly() {
    let _fp = tl_fault::failpoints::shared();
    let mut input = Vec::with_capacity(300_000);
    for _ in 0..100_000 {
        input.extend_from_slice(b"<a>");
    }
    let err = parse_document(&input, ParseOptions::default()).unwrap_err();
    assert!(
        err.message.contains("depth"),
        "expected the depth cap, got: {}",
        err.message
    );
}

/// Unclosed-but-shallow documents are a plain parse error.
#[test]
fn unclosed_document_is_a_parse_error() {
    let _fp = tl_fault::failpoints::shared();
    for input in [
        &b"<a><b>"[..],
        b"<a>",
        b"<a><b></b>",
        b"<",
        b"<a",
        b"<a attr=",
    ] {
        let res = parse_document(input, ParseOptions::default());
        assert!(
            res.is_err(),
            "{:?} must not parse",
            String::from_utf8_lossy(input)
        );
    }
}

/// The `xml.parse` fail-point surfaces as a typed `ParseError` that
/// converts into `FaultKind::Parse`, and parsing recovers once inactive.
#[test]
fn injected_parse_fault_is_typed_and_transient() {
    let fp = tl_fault::failpoints::exclusive();
    let input = b"<a><b/></a>";
    fp.with_active("xml.parse=always", 0, || {
        let err = parse_document(input, ParseOptions::default()).unwrap_err();
        let fault: tl_fault::Fault = err.into();
        assert_eq!(fault.kind, tl_fault::FaultKind::Parse);
    });
    assert!(parse_document(input, ParseOptions::default()).is_ok());
}
