//! Metamorphic law suite: the paper's identities run as executable laws
//! (see `tl_oracle::laws`) over product documents and seeded random
//! corpora.
//!
//! `TL_ORACLE_SEED` (comma-separated) narrows the random-corpus laws to
//! one CI matrix slot.

use tl_oracle::{generate, laws, seeds_from_env, CorpusConfig};
use treelattice::{BuildConfig, TreeLattice};

const DEFAULT_SEEDS: &[u64] = &[1, 7, 42];

#[test]
fn lemma1_identity_and_estimator_exactness_on_product_documents() {
    // Feature counts × replica counts × lattice orders: every combination
    // must satisfy the decomposition identity on oracle counts AND make
    // all four estimators exact (independence holds by construction).
    for (features, replicas, k) in [(2, 3, 2), (3, 2, 2), (4, 2, 3), (5, 1, 3)] {
        laws::lemma1_decomposition_identity(features, replicas, k)
            .unwrap_or_else(|e| panic!("features={features} replicas={replicas} k={k}: {e}"));
    }
}

#[test]
fn lemma2_cover_invariants_on_random_twigs() {
    for &seed in &seeds_from_env("TL_ORACLE_SEED", DEFAULT_SEEDS) {
        let corpus = generate(&CorpusConfig {
            seed: seed.wrapping_add(0x1e44a2), // decorrelate from differential corpora
            docs: 2,
            twigs_per_doc: 25,
            twig_sizes: (3, 10),
            ..CorpusConfig::default()
        });
        let mut checked = 0usize;
        for case in &corpus.cases {
            for k in 2..=case.twig.len() {
                laws::lemma2_cover_overlap(&case.twig, k)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                checked += 1;
            }
        }
        assert!(checked >= 50, "seed {seed}: only {checked} covers checked");
    }
}

#[test]
fn exactness_voting_and_engine_laws_on_random_corpora() {
    for &seed in &seeds_from_env("TL_ORACLE_SEED", DEFAULT_SEEDS) {
        let corpus = generate(&CorpusConfig {
            seed,
            docs: 2,
            twigs_per_doc: 20,
            twig_sizes: (2, 6),
            ..CorpusConfig::default()
        });
        for (i, doc) in corpus.docs.iter().enumerate() {
            let twigs: Vec<_> = corpus
                .cases
                .iter()
                .filter(|c| c.doc == i)
                .map(|c| c.twig.clone())
                .collect();
            let lattice = TreeLattice::build(doc, &BuildConfig::with_k(3));
            laws::exactness_below_k(doc, &lattice, &twigs)
                .unwrap_or_else(|e| panic!("seed {seed} doc {i}: {e}"));
            laws::voting_cap_one_is_plain(&lattice, &twigs)
                .unwrap_or_else(|e| panic!("seed {seed} doc {i}: {e}"));
            laws::engine_matches_uncached(&lattice, &twigs)
                .unwrap_or_else(|e| panic!("seed {seed} doc {i}: {e}"));
        }
    }
}

#[test]
fn exact_feedback_leaves_the_mined_summary_as_built() {
    for &seed in &seeds_from_env("TL_ORACLE_SEED", DEFAULT_SEEDS) {
        // Sizes up to k, a third of them perturbed so that many never occur.
        let corpus = generate(&CorpusConfig {
            seed: seed.wrapping_add(0x0b5e),
            docs: 2,
            twigs_per_doc: 30,
            twig_sizes: (1, 3),
            ..CorpusConfig::default()
        });
        for (i, doc) in corpus.docs.iter().enumerate() {
            let twigs: Vec<_> = corpus
                .cases
                .iter()
                .filter(|c| c.doc == i)
                .map(|c| c.twig.clone())
                .collect();
            let lattice = TreeLattice::build(doc, &BuildConfig::with_k(3));
            laws::exact_feedback_is_a_noop(doc, &lattice, &twigs)
                .unwrap_or_else(|e| panic!("seed {seed} doc {i}: {e}"));
        }
    }
}

#[test]
fn evicted_feedback_leaves_no_trace() {
    for &seed in &seeds_from_env("TL_ORACLE_SEED", DEFAULT_SEEDS) {
        // Sizes 1 to k + 3, a third of them perturbed so that many never
        // occur.
        let corpus = generate(&CorpusConfig {
            seed: seed.wrapping_add(0xe71c),
            docs: 2,
            twigs_per_doc: 24,
            twig_sizes: (1, 6),
            ..CorpusConfig::default()
        });
        for (i, doc) in corpus.docs.iter().enumerate() {
            let twigs: Vec<_> = corpus
                .cases
                .iter()
                .filter(|c| c.doc == i)
                .map(|c| c.twig.clone())
                .collect();
            let lattice = TreeLattice::build(doc, &BuildConfig::with_k(3));
            laws::evicted_feedback_leaves_no_trace(doc, &lattice, &twigs, seed)
                .unwrap_or_else(|e| panic!("seed {seed} doc {i}: {e}"));
        }
    }
}
