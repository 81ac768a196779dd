//! # tl-oracle — ground truth and metamorphic laws for TreeLattice
//!
//! The estimation pipeline already has two exact kernels (`MatchCounter`,
//! `ReferenceMatchCounter`); this crate adds the *verification surface*
//! that certifies them — and the estimators above them — against the
//! paper's algebra:
//!
//! * [`Oracle`] — a third, independently formulated exact counter
//!   (top-down permanent expansion; see [`enumerate`]) plus a capped match
//!   enumerator, for 3-way differential testing;
//! * [`laws`] — the paper's Lemmas as executable metamorphic laws;
//! * [`corpus`] — seeded random (document, twig) corpora, the Lemma 1
//!   product-document construction, and a greedy counterexample shrinker;
//! * [`twin`] — the decomposition estimators as a literal recursion over
//!   the paper's Figures 4 and 5: the independent twin the production
//!   DAG is diffed against.
//!
//! Everything here is test infrastructure: deliberately naive, heavily
//! checked, and not on any production path.

pub mod corpus;
pub mod enumerate;
pub mod laws;
pub mod twin;

pub use corpus::{
    describe_case, generate, product_document, seeds_from_env, shrink_case, Corpus, CorpusConfig,
};
pub use enumerate::{match_is_valid, Oracle};
