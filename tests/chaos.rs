//! Chaos suite: drives the deterministic fail-point harness across every
//! site the pipeline defines and asserts the fault-tolerance contract —
//! an injected fault always surfaces as a typed [`Fault`] or a
//! [`Degradation`]-tagged estimate, never as a panic or a silently wrong
//! exact count.

use tl_datagen::{Dataset, GenConfig};
use tl_fault::failpoints::{self, sites};
use tl_workload::{average_relative_error_pct, positive_workload};
use tl_xml::{parse_document, Document, ParseOptions};
use treelattice::{
    Budget, BuildConfig, Degradation, DurabilityPolicy, DurableLattice, DurableOptions,
    EngineConfig, EstimateOptions, EstimationEngine, Estimator, FaultKind, TreeLattice,
};

fn dataset() -> Document {
    Dataset::Xmark.generate(GenConfig {
        seed: 7,
        target_elements: 3000,
    })
}

/// Size-5 queries, so estimation genuinely decomposes (k = 3 lattice) and
/// the budget sites get exercised on the memoization path.
fn twigs_for(doc: &Document, n: usize) -> Vec<tl_twig::Twig> {
    let w = positive_workload(doc, 5, n, 11);
    assert!(w.cases.len() >= n.min(10), "workload came up short");
    w.cases.into_iter().map(|c| c.twig).collect()
}

/// Drives the pipeline path guarded by `site` once, asserting the
/// per-site contract. Runs inside an active fail-point plan; whether the
/// site actually fires depends on the plan's rule, so every assertion
/// covers both the fired and not-fired outcome.
fn drive_site(site: &str, doc: &Document, lattice: &TreeLattice, twig: &tl_twig::Twig) {
    let engine = EstimationEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let opts = EstimateOptions::default();
    match site {
        "xml.parse" => match parse_document(b"<a><b/></a>", ParseOptions::default()) {
            Ok(doc) => assert!(doc.len() >= 2),
            Err(e) => {
                let fault: treelattice::Fault = e.into();
                assert_eq!(fault.kind, FaultKind::Parse);
            }
        },
        "summary.corrupt" => {
            let bytes = lattice.to_bytes();
            match TreeLattice::from_bytes(&bytes) {
                Ok(roundtrip) => {
                    // Not fired: the round trip must be faithful, never a
                    // silently different summary.
                    assert_eq!(roundtrip.to_bytes(), bytes);
                }
                Err(e) => {
                    let fault: treelattice::Fault = e.into();
                    assert_eq!(fault.kind, FaultKind::CorruptSummary);
                }
            }
        }
        "budget.deadline" | "budget.mem" => {
            let est = lattice.estimate_resilient(twig, Estimator::RecursiveVoting, &opts);
            assert!(est.value.is_finite() && est.value >= 0.0);
            if est.degradation.is_degraded() {
                let cause = est.cause.expect("degraded estimate must carry its cause");
                assert!(
                    matches!(cause.kind, FaultKind::Timeout | FaultKind::BudgetExhausted),
                    "unexpected cause {cause}"
                );
            }
        }
        "engine.worker" => {
            match engine.estimate_resilient(lattice, twig, Estimator::Recursive, &opts) {
                Ok(est) => assert!(est.value.is_finite() && est.value >= 0.0),
                Err(fault) => assert_eq!(fault.kind, FaultKind::WorkerPanic),
            }
        }
        "miner.deadline" => {
            let index = tl_xml::DocIndex::new(doc);
            let (built, stopped) =
                TreeLattice::build_with_report(doc, &index, &BuildConfig::with_k(3), &tl_obs::NOOP);
            match stopped {
                Some(fault) => {
                    assert_eq!(fault.kind, FaultKind::Timeout);
                    assert!(built.k() < 3, "early stop must lower the order");
                }
                None => assert_eq!(built.k(), 3),
            }
            // Either way the summary answers queries without panicking.
            let est = built.estimate_resilient(twig, Estimator::Recursive, &opts);
            assert!(est.value.is_finite() && est.value >= 0.0);
        }
        "wal.append.torn"
        | "wal.append.short"
        | "wal.fsync"
        | "snapshot.before_rename"
        | "snapshot.after_rename" => {
            // The durability contract under injection: an append failure
            // is a typed fault and never an ack; a snapshot failure
            // leaves the WAL authoritative; recovery always lands on
            // exactly the acknowledged prefix.
            let dir = std::env::temp_dir().join(format!(
                "tl-chaos-{}-{}-{}",
                site.replace('.', "-"),
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.subsec_nanos())
            ));
            let opts = DurableOptions {
                policy: DurabilityPolicy::Strict,
                snapshot_every: 1,
                ..DurableOptions::default()
            };
            let mut acked = 0u64;
            {
                let (mut durable, _) =
                    DurableLattice::open(&dir, Some(lattice), &opts, &tl_obs::NOOP)
                        .expect("open on a fresh dir never faults");
                for idem in 1..=2u64 {
                    match durable.apply(twig, 5, idem, &tl_obs::NOOP) {
                        Ok(applied) => {
                            acked += 1;
                            assert!(!applied.deduped);
                            if let Some(fault) = applied.snapshot_fault {
                                assert_eq!(fault.kind, FaultKind::CorruptSummary);
                            }
                        }
                        Err(fault) => assert_eq!(fault.kind, FaultKind::CorruptSummary),
                    }
                }
            }
            // Recovery must see every acknowledged update — injection
            // active or not — and must itself be injection-proof here
            // (the sites under test only guard the write path).
            let (recovered, report) =
                DurableLattice::open(&dir, Some(lattice), &opts, &tl_obs::NOOP)
                    .expect("recovery after injected write faults");
            assert_eq!(report.last_seq, acked, "recovered prefix != acked prefix");
            assert_eq!(recovered.last_seq(), acked);
            std::fs::remove_dir_all(&dir).ok();
        }
        other => panic!("chaos sweep does not know site `{other}`"),
    }
}

/// The tentpole guarantee, swept exhaustively: every site × rule × seed
/// combination yields a typed fault or a tagged degraded estimate. A
/// panic anywhere fails the test; `with_active` guarantees the plan is
/// dropped even then.
#[test]
fn every_site_and_rule_yields_typed_outcomes_never_a_panic() {
    let fp = failpoints::exclusive();
    let doc = dataset();
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let twig = twigs_for(&doc, 1).remove(0);
    for seed in [1u64, 7, 42] {
        for rule in ["always", "nth:2", "1in2"] {
            for site in sites::ALL {
                fp.with_active(&format!("{site}={rule}"), seed, || {
                    drive_site(site, &doc, &lattice, &twig);
                });
                assert!(!failpoints::is_active(), "plan leaked past with_active");
            }
        }
    }
}

/// Same seed, same plan, same workload → identical injection decisions.
#[test]
fn injection_is_deterministic_per_seed() {
    let fp = failpoints::exclusive();
    let doc = dataset();
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let twigs = twigs_for(&doc, 12);
    let run = |seed: u64| -> Vec<bool> {
        fp.with_active("engine.worker=1in3", seed, || {
            let engine = EstimationEngine::new(EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            });
            twigs
                .iter()
                .map(|t| {
                    engine
                        .estimate_resilient(&lattice, t, Estimator::Recursive, &Default::default())
                        .is_err()
                })
                .collect()
        })
    };
    let a = run(9);
    assert_eq!(a, run(9), "same seed must replay identically");
    assert!(a.iter().any(|&x| x), "1in3 over 12 queries never fired");
    assert!(!a.iter().all(|&x| x), "1in3 over 12 queries always fired");
}

/// Satellite: a batch mixing valid queries, an unknown-label query, and
/// one fail-point-induced worker panic returns per-query results with
/// exactly the failing entry typed as an error — and the shared cache
/// stays consistent, answering the identical batch correctly afterwards.
#[test]
fn batch_partial_failure_is_isolated_and_cache_stays_consistent() {
    let fp = failpoints::exclusive();
    let doc = dataset();
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let mut twigs = twigs_for(&doc, 6);
    // An alphabet-foreign label: estimates to exactly zero, not an error.
    let mut foreign = lattice.labels().clone();
    let unknown = tl_twig::parse_twig("no_such_label/nowhere", &mut foreign).unwrap();
    twigs.insert(2, unknown);

    let opts = EstimateOptions::default();
    let engine = EstimationEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    // threads=1 visits queries in order and every worker consults the
    // fail-point on entry, so hit 5 is the valid query at index 4.
    let results = fp.with_active("engine.worker=nth:5", 0, || {
        engine.estimate_batch_resilient(&lattice, &twigs, Estimator::RecursiveVoting, &opts)
    });
    assert_eq!(results.len(), twigs.len());
    for (i, result) in results.iter().enumerate() {
        match result {
            Err(fault) => {
                assert_eq!(i, 4, "only the injected query may fail");
                assert_eq!(fault.kind, FaultKind::WorkerPanic);
                assert!(fault.message.contains("injected"), "{}", fault.message);
            }
            Ok(est) => {
                assert_eq!(est.degradation, Degradation::None);
                if i == 2 {
                    assert_eq!(est.value, 0.0, "unknown labels estimate to zero");
                }
            }
        }
    }

    // Cache consistency: the survivor-warmed cache serves the full batch
    // bit-for-bit like a fresh engine once injection stops.
    let after = engine.estimate_batch(&lattice, &twigs, Estimator::RecursiveVoting, &opts);
    let fresh = EstimationEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    })
    .estimate_batch(&lattice, &twigs, Estimator::RecursiveVoting, &opts);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&after), bits(&fresh));
}

/// With no plan active and an unlimited budget, the resilient paths are
/// bit-for-bit the plain paths, all tagged undegraded.
#[test]
fn resilient_paths_match_plain_paths_when_nothing_fires() {
    let _fp = failpoints::shared();
    let doc = dataset();
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let twigs = twigs_for(&doc, 10);
    let opts = EstimateOptions::default();
    for estimator in Estimator::ALL {
        let engine = EstimationEngine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let plain = engine.estimate_batch(&lattice, &twigs, estimator, &opts);
        let resilient = engine.estimate_batch_resilient(&lattice, &twigs, estimator, &opts);
        for (i, (p, r)) in plain.iter().zip(&resilient).enumerate() {
            let r = r.as_ref().expect("no fault without an active plan");
            assert_eq!(r.value.to_bits(), p.to_bits(), "{estimator}, query {i}");
            assert_eq!(r.degradation, Degradation::None);
        }
    }
}

/// Acceptance gate: forcing the reduced-k rung on the XMark accuracy
/// workload stays within 5x of the undegraded error threshold recorded in
/// `tests/gates/accuracy.json`.
#[test]
fn degraded_xmark_estimates_stay_within_5x_of_the_accuracy_gate() {
    let _fp = failpoints::shared();
    let gate_json = std::fs::read_to_string("../../tests/gates/accuracy.json")
        .expect("accuracy gate file present");
    let gate = tl_obs::Snapshot::from_json(&gate_json).expect("gate file is a tl-metrics snapshot");
    let threshold = *gate
        .gauges
        .get("gate.accuracy.max_mean_error_pct.voting")
        .expect("voting threshold recorded");

    let doc = Dataset::Xmark.generate(GenConfig {
        seed: 42,
        target_elements: 8000,
    });
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(4));
    let w = positive_workload(&doc, 5, 30, 42);
    assert!(w.cases.len() >= 20, "workload came up short");
    let truths = w.true_counts();

    // max_k = 3 < query size forces the fix-sized rung at reduced order —
    // deterministic, unlike deadline- or memory-triggered degradation.
    let opts = EstimateOptions {
        budget: Budget::unlimited().with_max_k(3),
        ..EstimateOptions::default()
    };
    let estimates: Vec<f64> = w
        .cases
        .iter()
        .map(|c| {
            let est = lattice.estimate_resilient(&c.twig, Estimator::RecursiveVoting, &opts);
            assert_eq!(
                est.degradation,
                Degradation::ReducedK { k: 3 },
                "size-5 queries under max_k=3 must take the reduced-k rung"
            );
            est.value
        })
        .collect();
    let err = average_relative_error_pct(&truths, &estimates);
    assert!(
        err <= 5.0 * threshold,
        "degraded error {err:.2}% exceeds 5x the gate threshold {threshold:.2}%"
    );
}

/// Full collapse to the Markov rung (an expired deadline) is still total:
/// every estimate exists, is finite, and carries the timeout cause.
#[test]
fn expired_deadline_collapses_to_markov_totally() {
    let _fp = failpoints::shared();
    let doc = dataset();
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let opts = EstimateOptions {
        budget: Budget::unlimited().with_time_limit(std::time::Duration::ZERO),
        ..EstimateOptions::default()
    };
    for twig in twigs_for(&doc, 8) {
        let est = lattice.estimate_resilient(&twig, Estimator::Recursive, &opts);
        assert!(est.value.is_finite() && est.value >= 0.0);
        assert_eq!(est.degradation, Degradation::Markov);
        assert_eq!(
            est.cause.expect("markov fallback carries a cause").kind,
            FaultKind::Timeout
        );
    }
}
