//! Integration tests for the batched estimation engine.
//!
//! The engine contract under test:
//! * `estimate_batch` is bit-for-bit identical to a sequential
//!   `TreeLattice::estimate_with` loop, for every estimator and any thread
//!   count, warm or cold cache;
//! * summary mutations (`update_after_edit`, `prune`) invalidate the shared
//!   cache through the generation counter;
//! * one engine serves concurrent batches from multiple OS threads without
//!   data races or cross-talk;
//! * under interleaved estimates and mutations, every engine answer also
//!   equals the literal recursion of `tl_oracle::twin`;
//! * under any byte budget, down to a few slots, an engine that evicts
//!   answers bit for bit like one that never does, and a flood of
//!   distinct queries keeps its state under the budget.

use tl_datagen::{Dataset, GenConfig};
use tl_workload::{negative_workload, positive_workload};
use tl_xml::{append_subtree, parse_document, Document, ParseOptions};
use treelattice::{
    BuildConfig, EngineConfig, EstimateOptions, EstimationEngine, Estimator, TreeLattice,
};

fn dataset() -> Document {
    Dataset::Xmark.generate(GenConfig {
        seed: 7,
        target_elements: 3000,
    })
}

/// A mixed workload with structural overlap: positives at two sizes plus
/// negatives, so the shared cache has something to share.
fn mixed_twigs(doc: &Document) -> Vec<tl_twig::Twig> {
    let mut twigs = Vec::new();
    for (size, n, seed) in [(5, 25, 11), (6, 25, 12)] {
        twigs.extend(
            positive_workload(doc, size, n, seed)
                .cases
                .into_iter()
                .map(|c| c.twig),
        );
    }
    twigs.extend(
        negative_workload(doc, 5, 10, 13)
            .cases
            .into_iter()
            .map(|c| c.twig),
    );
    assert!(twigs.len() >= 40, "workload generation came up short");
    twigs
}

#[test]
fn batch_is_bitwise_equal_to_sequential_for_all_estimators_and_threads() {
    let doc = dataset();
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let twigs = mixed_twigs(&doc);
    let opts = EstimateOptions::default();
    for estimator in Estimator::ALL {
        let expected: Vec<u64> = twigs
            .iter()
            .map(|t| lattice.estimate_with(t, estimator, &opts).to_bits())
            .collect();
        for threads in [1, 4] {
            let engine = EstimationEngine::new(EngineConfig {
                shards: 8,
                threads,
                ..EngineConfig::default()
            });
            // Cold cache, then warm cache: both must be exact.
            for pass in ["cold", "warm"] {
                let got = engine.estimate_batch(&lattice, &twigs, estimator, &opts);
                assert_eq!(got.len(), twigs.len());
                for (i, v) in got.iter().enumerate() {
                    assert_eq!(
                        v.to_bits(),
                        expected[i],
                        "{estimator}, threads={threads}, {pass} pass, query {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn update_after_edit_invalidates_the_shared_cache() {
    let base = parse_document(
        b"<r><a><b/><c/></a><a><b/><c/></a><a><b/></a></r>",
        ParseOptions::default(),
    )
    .unwrap();
    let mut lattice = TreeLattice::build(&base, &BuildConfig::with_k(3));
    let engine = EstimationEngine::default();
    let opts = EstimateOptions::default();
    let twig = lattice.parse_query("a[b][c]").unwrap();

    let before = engine.estimate(&lattice, &twig, Estimator::Recursive, &opts);
    assert_eq!(before, 2.0);
    let generation_before = lattice.generation();

    // Append another a[b][c] record: the true count becomes 3.
    let record = parse_document(b"<a><b/><c/></a>", ParseOptions::default()).unwrap();
    let edit = append_subtree(&base, base.root(), &record);
    lattice.update_after_edit(&edit.document, &edit.touched);
    assert_ne!(lattice.generation(), generation_before);

    let after = engine.estimate(&lattice, &twig, Estimator::Recursive, &opts);
    assert_eq!(after, 3.0, "stale cached estimate served after an edit");
}

#[test]
fn prune_invalidates_the_shared_cache() {
    let doc = dataset();
    let mut lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let engine = EstimationEngine::default();
    let opts = EstimateOptions::default();
    let twigs = mixed_twigs(&doc);

    // Warm the cache on the unpruned summary.
    engine.estimate_batch(&lattice, &twigs, Estimator::RecursiveVoting, &opts);
    lattice.prune(0.05);

    // Every post-prune engine answer must match a fresh per-query run
    // against the pruned summary.
    let got = engine.estimate_batch(&lattice, &twigs, Estimator::RecursiveVoting, &opts);
    for (i, twig) in twigs.iter().enumerate() {
        let direct = lattice.estimate_with(twig, Estimator::RecursiveVoting, &opts);
        assert_eq!(got[i].to_bits(), direct.to_bits(), "query {i}");
    }
}

#[test]
fn concurrent_batches_share_one_engine_race_free() {
    let doc = dataset();
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let engine = EstimationEngine::new(EngineConfig {
        shards: 4,
        threads: 4,
        ..EngineConfig::default()
    });
    let opts = EstimateOptions::default();
    let twigs_a = mixed_twigs(&doc);
    let twigs_b: Vec<tl_twig::Twig> = positive_workload(&doc, 6, 30, 99)
        .cases
        .into_iter()
        .map(|c| c.twig)
        .collect();
    let expected_a: Vec<u64> = twigs_a
        .iter()
        .map(|t| {
            lattice
                .estimate_with(t, Estimator::Recursive, &opts)
                .to_bits()
        })
        .collect();
    let expected_b: Vec<u64> = twigs_b
        .iter()
        .map(|t| {
            lattice
                .estimate_with(t, Estimator::Recursive, &opts)
                .to_bits()
        })
        .collect();

    std::thread::scope(|scope| {
        let run_a =
            scope.spawn(|| engine.estimate_batch(&lattice, &twigs_a, Estimator::Recursive, &opts));
        let run_b =
            scope.spawn(|| engine.estimate_batch(&lattice, &twigs_b, Estimator::Recursive, &opts));
        let got_a = run_a.join().unwrap();
        let got_b = run_b.join().unwrap();
        for (i, v) in got_a.iter().enumerate() {
            assert_eq!(v.to_bits(), expected_a[i], "batch A query {i}");
        }
        for (i, v) in got_b.iter().enumerate() {
            assert_eq!(v.to_bits(), expected_b[i], "batch B query {i}");
        }
    });
}

#[test]
fn stats_report_hits_entries_and_batch_time() {
    let doc = dataset();
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let engine = EstimationEngine::new(EngineConfig {
        shards: 8,
        threads: 2,
        ..EngineConfig::default()
    });
    let opts = EstimateOptions::default();
    let twigs = mixed_twigs(&doc);

    engine.estimate_batch(&lattice, &twigs, Estimator::RecursiveVoting, &opts);
    let cold = engine.stats();
    assert!(cold.misses > 0, "cold batch must compute entries");
    assert!(cold.entries > 0);
    assert!(cold.bytes > 0);

    engine.estimate_batch(&lattice, &twigs, Estimator::RecursiveVoting, &opts);
    let warm = engine.stats();
    assert!(warm.hits > cold.hits, "warm batch must hit the cache");
    assert!(warm.hit_rate() > 0.0);

    engine.clear();
    assert_eq!(engine.stats().entries, 0);
}

/// A flood of distinct serve-cold-shaped queries (7–10-node occurring
/// twigs, `RecursiveVoting`, an IMDB stand-in at k = 5) keeps the engine's
/// state under its budget, evicting as it goes, and every value stays the
/// engineless one.
#[test]
fn a_flood_of_distinct_queries_stays_under_the_budget() {
    use rand::{Rng, SeedableRng};
    let doc = Dataset::Imdb.generate(GenConfig {
        seed: 5,
        target_elements: 20_000,
    });
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(5));
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut seen = std::collections::HashSet::new();
    let mut twigs = Vec::new();
    while twigs.len() < FLOOD_QUERIES {
        let size = rng.gen_range(7..=10);
        if let Some(t) = tl_workload::sample::random_occurred_twig(&doc, &mut rng, size) {
            if seen.insert(tl_twig::canonical::key_of(&t)) {
                twigs.push(t);
            }
        }
    }
    let budget = 256 << 10;
    let rec = std::sync::Arc::new(tl_obs::MetricsRecorder::new());
    let engine = EstimationEngine::with_recorder(
        EngineConfig {
            threads: 1,
            budget_bytes: budget,
            ..EngineConfig::default()
        },
        rec.clone(),
    );
    let opts = EstimateOptions::default();
    let mut peak = 0;
    for (i, twig) in twigs.iter().enumerate() {
        let got = engine.estimate(&lattice, twig, Estimator::RecursiveVoting, &opts);
        if i % 50 == 0 {
            let want = lattice.estimate_with(twig, Estimator::RecursiveVoting, &opts);
            assert_eq!(got.to_bits(), want.to_bits(), "query {i}");
        }
        peak = peak.max(engine.stats().bytes);
    }
    let stats = engine.stats();
    assert!(
        peak <= budget,
        "peak {peak} bytes over a {budget}-byte budget"
    );
    assert!(stats.evicted > 0, "{stats:?}");
    assert!(stats.hits > 0, "{stats:?}");
    let snap = rec.snapshot();
    assert_eq!(snap.counters["engine.cache.evicted"], stats.evicted);
    assert_eq!(snap.gauges["engine.cache.bytes"], stats.bytes as f64);
}

/// Distinct queries in the flood above.
const FLOOD_QUERIES: usize = 2_000;

/// Satellite property: the shared cache is transparent under arbitrary
/// interleavings of estimates and summary mutations. Whatever sequence of
/// edits and prunes the lattice goes through, an engine answer (cold or
/// warm) is bit-identical to a fresh uncached `estimate_with` against the
/// lattice's current summary — the generation counter may never serve a
/// stale entry.
mod cache_generation_properties {
    use super::*;
    use proptest::prelude::*;
    use tl_xml::{remove_subtree, DocumentBuilder, LabelId, NodeId};

    /// Node i hangs off `spec[i].0 % i` with label `l<spec[i].1>`.
    type TreeSpec = Vec<(u32, u8)>;

    fn arb_tree(max_nodes: usize, labels: u8) -> impl Strategy<Value = TreeSpec> {
        prop::collection::vec((any::<u32>(), 0..labels), 1..max_nodes)
    }

    fn build_doc(spec: &TreeSpec) -> Document {
        let n = spec.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &(p, _)) in spec.iter().enumerate().skip(1) {
            children[(p as usize) % i].push(i);
        }
        let mut b = DocumentBuilder::new();
        let mut stack = vec![(0usize, false)];
        while let Some((i, entered)) = stack.pop() {
            if entered {
                b.end();
                continue;
            }
            b.begin(&format!("l{}", spec[i].1));
            stack.push((i, true));
            for &c in children[i].iter().rev() {
                stack.push((c, false));
            }
        }
        b.finish().expect("spec builds a single tree")
    }

    fn build_twig(spec: &TreeSpec, doc: &Document) -> tl_twig::Twig {
        let n_labels = doc.labels().len() as u32;
        let label = |raw: u8| LabelId(u32::from(raw) % n_labels.max(1));
        let mut t = tl_twig::Twig::single(label(spec[0].1));
        let mut ids = vec![0u32; spec.len()];
        for (i, &(p, l)) in spec.iter().enumerate().skip(1) {
            ids[i] = t.add_child(ids[(p as usize) % i], label(l));
        }
        t.normalized()
    }

    /// One step of the interleaving: mutate or no-op, then verify every
    /// (twig, estimator) engine answer twice (cold miss, then warm hit).
    #[derive(Debug, Clone)]
    enum Op {
        /// Append a small record under node `at % len`.
        Append(TreeSpec, u32),
        /// Remove the subtree at non-root node `1 + (at % (len - 1))`.
        Remove(u32),
        /// Prune with the given delta.
        Prune(f64),
        /// No mutation: re-check only (exercises the warm path further).
        Check,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (arb_tree(5, 3), any::<u32>()).prop_map(|(s, at)| Op::Append(s, at)),
            any::<u32>().prop_map(Op::Remove),
            prop_oneof![Just(0.0), Just(0.05), Just(0.2)].prop_map(Op::Prune),
            Just(Op::Check),
        ]
    }

    fn assert_engine_transparent(
        engine: &EstimationEngine,
        lattice: &TreeLattice,
        twigs: &[tl_twig::Twig],
        step: usize,
    ) -> Result<(), TestCaseError> {
        let opts = EstimateOptions::default();
        for est in Estimator::ALL {
            for (i, twig) in twigs.iter().enumerate() {
                let fresh = lattice.estimate_with(twig, est, &opts).to_bits();
                for pass in ["cold", "warm"] {
                    let got = engine.estimate(lattice, twig, est, &opts).to_bits();
                    prop_assert_eq!(
                        got,
                        fresh,
                        "step {}, {}, twig {}, {} pass served a stale estimate",
                        step,
                        est,
                        i,
                        pass
                    );
                }
                // The DAG must also agree bit-for-bit with the independent
                // recursion on the summary as it stands after this step.
                let recursion = tl_oracle::twin::estimate(lattice.summary(), twig, est, &opts);
                prop_assert_eq!(
                    recursion.value.to_bits(),
                    fresh,
                    "step {}, {}, twig {}: the recursion diverged",
                    step,
                    est,
                    i
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn interleaved_mutations_never_serve_stale_cache_entries(
            doc_spec in arb_tree(30, 3),
            twig_specs in prop::collection::vec(arb_tree(5, 3), 2..5),
            ops in prop::collection::vec(arb_op(), 1..7),
        ) {
            let mut doc = build_doc(&doc_spec);
            let twigs: Vec<tl_twig::Twig> =
                twig_specs.iter().map(|s| build_twig(s, &doc)).collect();
            let mut lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
            // One engine for the whole run: its cache must survive every
            // mutation only through generation-tagged invalidation.
            let engine = EstimationEngine::new(EngineConfig {
                shards: 4,
                threads: 1,
                ..EngineConfig::default()
            });

            assert_engine_transparent(&engine, &lattice, &twigs, 0)?;
            // `update_after_edit` requires an unpruned summary (the API
            // contract is "prune after updates"), so edits stop once a
            // prune has happened.
            let mut pruned = false;
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Append(record_spec, at) if !pruned => {
                        let record = build_doc(record_spec);
                        let parent = NodeId(at % doc.len() as u32);
                        let edit = append_subtree(&doc, parent, &record);
                        lattice.update_after_edit(&edit.document, &edit.touched);
                        doc = edit.document;
                    }
                    Op::Remove(at) if !pruned => {
                        if doc.len() > 1 {
                            let victim = NodeId(1 + at % (doc.len() as u32 - 1));
                            let edit = remove_subtree(&doc, victim);
                            lattice.update_after_edit(&edit.document, &edit.touched);
                            doc = edit.document;
                        }
                    }
                    Op::Prune(delta) => {
                        lattice.prune(*delta);
                        pruned = true;
                    }
                    Op::Append(..) | Op::Remove(_) | Op::Check => {}
                }
                assert_engine_transparent(&engine, &lattice, &twigs, step + 1)?;
            }
        }
    }

    /// One step of a bounded-engine run. Every estimating step compares
    /// the bounded engine with an unbounded one on the same lattice.
    #[derive(Debug, Clone)]
    enum Step {
        /// `engine.estimate` of one twig under one estimator.
        Estimate(usize, usize),
        /// `engine.estimate_resilient` of one twig.
        Resilient(usize, usize),
        /// `engine.estimate_batch` of every twig.
        Batch(usize),
        /// Append a record, or prune: the generation moves.
        Bump(Op),
        /// `clear` the bounded engine only.
        Clear,
    }

    fn arb_step(twigs: usize) -> impl Strategy<Value = Step> {
        let est = 0..Estimator::ALL.len();
        prop_oneof![
            (0..twigs, est.clone()).prop_map(|(t, e)| Step::Estimate(t, e)),
            (0..twigs, est.clone()).prop_map(|(t, e)| Step::Estimate(t, e)),
            (0..twigs, est.clone()).prop_map(|(t, e)| Step::Resilient(t, e)),
            est.prop_map(Step::Batch),
            arb_op().prop_map(Step::Bump),
            Just(Step::Clear),
        ]
    }

    /// Budgets from a few slots (one query evicts slots it interned
    /// itself) through a few dozen to unbounded.
    fn arb_budget() -> impl Strategy<Value = usize> {
        prop_oneof![200usize..800, 800usize..8_000, Just(usize::MAX)]
    }

    fn bounded(budget: usize, threads: usize) -> EstimationEngine {
        EstimationEngine::new(EngineConfig {
            shards: 4,
            threads,
            budget_bytes: budget,
        })
    }

    /// Runs `steps` on a bounded engine and an unbounded one over the same
    /// lattice, failing on the first value that differs.
    fn run_bounded(
        doc_spec: &TreeSpec,
        twig_specs: &[TreeSpec],
        steps: &[Step],
        budget: usize,
        threads: usize,
    ) -> Result<u64, TestCaseError> {
        let mut doc = build_doc(doc_spec);
        let twigs: Vec<tl_twig::Twig> = twig_specs.iter().map(|s| build_twig(s, &doc)).collect();
        let mut lattice = TreeLattice::build(&doc, &BuildConfig::with_k(2));
        let engine = bounded(budget, threads);
        let reference = bounded(usize::MAX, 1);
        let opts = EstimateOptions::default();
        let mut pruned = false;
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Estimate(t, e) => {
                    let est = Estimator::ALL[*e];
                    let got = engine.estimate(&lattice, &twigs[*t], est, &opts);
                    let want = reference.estimate(&lattice, &twigs[*t], est, &opts);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "step {} {:?}", i, step);
                }
                Step::Resilient(t, e) => {
                    let est = Estimator::ALL[*e];
                    let got = engine.estimate_resilient(&lattice, &twigs[*t], est, &opts);
                    let want = reference.estimate_resilient(&lattice, &twigs[*t], est, &opts);
                    prop_assert_eq!(got.unwrap(), want.unwrap(), "step {} {:?}", i, step);
                }
                Step::Batch(e) => {
                    let est = Estimator::ALL[*e];
                    let got = engine.estimate_batch(&lattice, &twigs, est, &opts);
                    let want = reference.estimate_batch(&lattice, &twigs, est, &opts);
                    for (j, (a, b)) in got.iter().zip(&want).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "step {} {:?} twig {}",
                            i,
                            step,
                            j
                        );
                    }
                }
                Step::Bump(Op::Append(record_spec, at)) if !pruned => {
                    let record = build_doc(record_spec);
                    let parent = NodeId(at % doc.len() as u32);
                    let edit = append_subtree(&doc, parent, &record);
                    lattice.update_after_edit(&edit.document, &edit.touched);
                    doc = edit.document;
                }
                Step::Bump(Op::Remove(at)) if !pruned && doc.len() > 1 => {
                    let victim = NodeId(1 + at % (doc.len() as u32 - 1));
                    let edit = remove_subtree(&doc, victim);
                    lattice.update_after_edit(&edit.document, &edit.touched);
                    doc = edit.document;
                }
                Step::Bump(Op::Prune(delta)) => {
                    lattice.prune(*delta);
                    pruned = true;
                }
                Step::Bump(_) => {}
                Step::Clear => engine.clear(),
            }
        }
        Ok(engine.stats().evicted)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn a_bounded_engine_answers_like_an_unbounded_one(
            doc_spec in arb_tree(40, 3),
            twig_specs in prop::collection::vec(arb_tree(9, 3), 2..6),
            steps in prop::collection::vec(arb_step(5), 1..24),
            budget in arb_budget(),
        ) {
            let steps: Vec<Step> = steps
                .into_iter()
                .map(|step| match step {
                    Step::Estimate(t, e) => Step::Estimate(t % twig_specs.len(), e),
                    Step::Resilient(t, e) => Step::Resilient(t % twig_specs.len(), e),
                    other => other,
                })
                .collect();
            run_bounded(&doc_spec, &twig_specs, &steps, budget, 1)?;
        }

        /// Four batch workers share one bounded engine.
        #[test]
        fn four_workers_on_a_bounded_engine_answer_like_one_unbounded(
            doc_spec in arb_tree(40, 3),
            twig_specs in prop::collection::vec(arb_tree(9, 3), 4..12),
            estimators in prop::collection::vec(0..Estimator::ALL.len(), 1..6),
            budget in arb_budget(),
        ) {
            let steps: Vec<Step> = estimators.into_iter().map(Step::Batch).collect();
            run_bounded(&doc_spec, &twig_specs, &steps, budget, 4)?;
        }
    }

    /// The smallest budgets do evict inside a single query: one cold
    /// voting estimate of a twig that decomposes into more sub-twigs than
    /// the budget holds.
    #[test]
    fn a_few_slots_force_evictions_within_one_query() {
        let doc_spec: TreeSpec = (0..40u32).map(|i| (i / 2, (i % 3) as u8)).collect();
        let twig_spec: TreeSpec = (0..8u32).map(|i| (i / 2, (i % 3) as u8)).collect();
        let doc = build_doc(&doc_spec);
        let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(2));
        let twig = build_twig(&twig_spec, &doc);
        let engine = bounded(400, 1);
        let opts = EstimateOptions::default();
        let got = engine.estimate(&lattice, &twig, Estimator::RecursiveVoting, &opts);
        let want = lattice.estimate_with(&twig, Estimator::RecursiveVoting, &opts);
        assert_eq!(got.to_bits(), want.to_bits());
        let stats = engine.stats();
        assert!(stats.interner_keys <= 4, "{stats:?}");
        assert!(stats.dag_nodes > 10, "{stats:?}");
        assert!(stats.evicted > 0, "{stats:?}");
    }
}

/// Satellite property: canonical-encoding interning round-trips — dense
/// first-sighting ids, byte-exact resolution, zero clone bytes on warm
/// probes, and duplicate encodings collapsing onto one id.
mod interner_properties {
    use proptest::prelude::*;
    use tl_twig::canonical::key_of;
    use tl_twig::{Twig, TwigInterner};
    use tl_xml::LabelId;

    /// Node i hangs off `spec[i].0 % i` with label id `spec[i].1`.
    fn build_twig(spec: &[(u32, u8)]) -> Twig {
        let mut t = Twig::single(LabelId(u32::from(spec[0].1)));
        let mut ids = vec![0u32; spec.len()];
        for (i, &(p, l)) in spec.iter().enumerate().skip(1) {
            ids[i] = t.add_child(ids[(p as usize) % i], LabelId(u32::from(l)));
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn interning_round_trips_and_warm_probes_are_free(
            specs in prop::collection::vec(
                prop::collection::vec((any::<u32>(), 0..6u8), 1..8),
                1..20,
            ),
        ) {
            let mut interner = TwigInterner::new();
            let keys: Vec<_> = specs.iter().map(|s| key_of(&build_twig(s))).collect();
            let ids: Vec<_> = keys
                .iter()
                .map(|k| interner.intern_bytes(k.as_bytes()).0)
                .collect();
            let mut sighted: Vec<&[u8]> = Vec::new();
            for (k, &id) in keys.iter().zip(&ids) {
                // Round-trip: ids are dense in first-sighting order, so an
                // id names exactly one encoding...
                let first = match sighted.iter().position(|&s| s == k.as_bytes()) {
                    Some(first) => first,
                    None => {
                        sighted.push(k.as_bytes());
                        sighted.len() - 1
                    }
                };
                prop_assert_eq!(id.slot() as usize, first);
                // ...and re-interning is stable and clones zero key bytes.
                let (again, cloned) = interner.intern_bytes(k.as_bytes());
                prop_assert_eq!(again, id);
                prop_assert_eq!(cloned, 0);
                prop_assert_eq!(interner.get(k.as_bytes()), Some(id));
            }
            // Distinct encodings get distinct ids; duplicates collapse.
            let distinct: std::collections::HashSet<&[u8]> =
                keys.iter().map(|k| k.as_bytes()).collect();
            prop_assert_eq!(interner.len(), distinct.len());
            let mut unique_ids: Vec<u32> = ids.iter().map(|id| id.slot()).collect();
            unique_ids.sort_unstable();
            unique_ids.dedup();
            prop_assert_eq!(unique_ids.len(), distinct.len());
        }
    }
}
