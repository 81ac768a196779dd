//! The production decomposition DAG against its independent twin: the
//! literal Figure 4 / Figure 5 recursion in `tl_oracle::twin`.
//!
//! Every estimator, the degradation ladder's first two rungs and the
//! engine must agree with the twin bit for bit, and the DAG's reported
//! decomposition depth can only exceed the twin's (the DAG evaluates
//! operands a zero factor lets the recursion skip).
//!
//! `TL_ORACLE_SEED` (comma-separated) narrows the seeded random-document
//! test to one CI matrix slot.

use std::sync::Arc;

use rand::SeedableRng;
use tl_datagen::{random_document, RandomTreeConfig};
use tl_oracle::{seeds_from_env, twin};
use tl_twig::canonical::key_of;
use tl_twig::Twig;
use tl_workload::sample::random_occurred_twig;
use tl_xml::{parse_document, FxHashMap, LabelInterner, ParseOptions};
use treelattice::{
    estimate, estimate_fixed_at, BuildConfig, Degradation, EngineConfig, EstimateOptions,
    EstimationEngine, Estimator, Summary, TreeLattice,
};

const DEFAULT_SEEDS: &[u64] = &[3, 17, 29];

/// A summary holding exactly `patterns`, every level complete.
fn summary_of(patterns: &[(&str, u64)], k: usize) -> (Summary, LabelInterner) {
    let mut it = LabelInterner::new();
    let mut levels = vec![FxHashMap::default(); k];
    for (q, c) in patterns {
        let t = tl_twig::parse_twig(q, &mut it).unwrap();
        assert!(t.len() <= k, "pattern {q} larger than k");
        levels[t.len() - 1].insert(key_of(&t), *c);
    }
    (Summary::from_parts(levels, vec![false; k]), it)
}

/// The DAG's decomposition depth for one cold query, as the engine's
/// recorder observes it, and the engine's `(dag nodes, dag refs)`.
fn engine_depth(lattice: &TreeLattice, twig: &Twig, est: Estimator) -> (f64, u64, (u64, u64)) {
    let rec = Arc::new(tl_obs::MetricsRecorder::new());
    let engine = EstimationEngine::with_recorder(EngineConfig::default(), rec.clone());
    let value = engine.estimate(lattice, twig, est, &EstimateOptions::default());
    let depth = &rec.snapshot().histograms[tl_obs::names::DECOMP_DEPTH];
    assert_eq!(depth.count, 1, "one query, one depth observation");
    let stats = engine.stats();
    (value, depth.sum, (stats.dag_nodes, stats.dag_refs))
}

/// The DAG path must agree bit-for-bit with the recursion on every
/// estimator, and report at least the recursion's decomposition depth.
#[test]
fn dag_matches_recursive_path_bitwise() {
    let chain = [
        ("a", 2),
        ("b", 4),
        ("c", 8),
        ("d", 16),
        ("a/b", 6),
        ("b/c", 12),
        ("c/d", 24),
    ];
    let mut branching = chain.to_vec();
    branching.extend([("a/c", 3), ("a/d", 5), ("b/d", 7)]);
    let branching_queries = [
        "a/b/c/d",
        "a[b][c]",
        "a[b][c][d]",
        "a[b[c]][d]",
        "a/b[c][d]",
    ];
    // The queries the pooled-scratch unit test in `dag.rs` runs back to
    // back on one thread.
    let chain_queries = ["a/b/c/d", "a/b/c", "b/c/d", "a/b/c/d"];
    let opts = EstimateOptions::default();
    for (patterns, queries) in [
        (branching.as_slice(), branching_queries.as_slice()),
        (chain.as_slice(), chain_queries.as_slice()),
    ] {
        let (s, mut it) = summary_of(patterns, 2);
        for qs in queries {
            let t = tl_twig::parse_twig(qs, &mut it).unwrap();
            let lattice = TreeLattice::from_parts(it.clone(), s.clone());
            for e in Estimator::ALL {
                let rec = twin::estimate(&s, &t, e, &opts);
                let dag = estimate(&s, &t, e, &opts);
                assert_eq!(rec.value.to_bits(), dag.to_bits(), "{e} on {qs}");
                let (engine, dag_depth, (nodes, refs)) = engine_depth(&lattice, &t, e);
                assert_eq!(engine.to_bits(), dag.to_bits(), "{e} on {qs} (engine)");
                assert!(
                    dag_depth >= rec.depth as u64,
                    "DAG depth can only grow (eagerness): {e} on {qs}"
                );
                assert!(refs >= nodes);
            }
        }
    }
}

/// Rungs 1 and 2 of the degradation ladder run on the DAG; the twin is
/// their differential baseline. On seeded random documents and twigs,
/// with and without pruned levels: the fix-sized estimate at every reduced
/// window size equals the twin's, and rung 1 under an unlimited budget
/// equals both the unbudgeted DAG and the twin, for every estimator.
#[test]
fn dag_rungs_match_the_twin_recursion_bitwise() {
    let seeds = seeds_from_env("TL_ORACLE_SEED", DEFAULT_SEEDS);
    let opts = EstimateOptions::default();
    let mut reduced = 0usize;
    for &seed in &seeds {
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
                    let rec = twin::estimate_fixed_at(summary, twig, k_eff);
                    assert_eq!(dag.to_bits(), rec.to_bits(), "{ctx}, k {k_eff}");
                    reduced += 1;
                }
                for est in Estimator::ALL {
                    let rung1 = lattice.estimate_resilient(twig, est, &opts);
                    assert_eq!(rung1.degradation, Degradation::None, "{ctx}, {est}");
                    let plain = estimate(summary, twig, est, &opts);
                    let rec = twin::estimate(summary, twig, est, &opts).value;
                    assert_eq!(rung1.value.to_bits(), plain.to_bits(), "{ctx}, {est}");
                    assert_eq!(rung1.value.to_bits(), rec.to_bits(), "{ctx}, {est}");
                }
            }
        }
    }
    // 100 over the three default seeds.
    let floor = 100 * seeds.len() / DEFAULT_SEEDS.len();
    assert!(reduced >= floor, "only {reduced} reduced-k comparisons ran");
}

/// The lattice the engine tests run on: six identical records, k = 3.
fn sample_lattice() -> TreeLattice {
    let mut s = String::from("<r>");
    for _ in 0..6 {
        s.push_str("<a><b><c/><d/></b><e/></a>");
    }
    s.push_str("</r>");
    let doc = parse_document(s.as_bytes(), ParseOptions::default()).unwrap();
    TreeLattice::build(&doc, &BuildConfig::with_k(3))
}

/// The twin against the production engine, for every estimator.
#[test]
fn twin_matches_production_engine_bitwise() {
    let lat = sample_lattice();
    let engine = EstimationEngine::default();
    let opts = EstimateOptions::default();
    for est in Estimator::ALL {
        for q in ["a[b[c][d]][e]", "a/b/c", "a[b][e]", "r/a/b/c", "a/b/c"] {
            let twig = lat.parse_query(q).unwrap();
            let want = twin::estimate(lat.summary(), &twig, est, &opts).value;
            let got = engine.estimate(&lat, &twig, est, &opts);
            assert_eq!(want.to_bits(), got.to_bits(), "{est} {q}");
        }
    }
}

/// After a mutation the twin reads the new summary, as the lattice does.
#[test]
fn twin_reads_the_mutated_summary() {
    let mut lat = sample_lattice();
    let opts = EstimateOptions::default();
    let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
    lat.prune(0.0);
    let after = twin::estimate(lat.summary(), &twig, Estimator::Recursive, &opts).value;
    assert_eq!(
        after.to_bits(),
        lat.estimate(&twig, Estimator::Recursive).to_bits(),
        "post-mutation estimates come from the new summary"
    );
}

/// Labels past the table never occurred: the recursion bottoms out in
/// exact zeros, as the production estimators' unknown-label rule says.
#[test]
fn twin_answers_zero_for_unknown_labels() {
    let lat = sample_lattice();
    let opts = EstimateOptions::default();
    let unknown = lat.parse_query("nosuchlabel/other").unwrap();
    for est in Estimator::ALL {
        assert_eq!(
            twin::estimate(lat.summary(), &unknown, est, &opts).value,
            0.0
        );
        assert_eq!(lat.estimate(&unknown, est), 0.0);
    }
}
