//! Attribution tests for the resilient degradation ladder.
//!
//! The contract under test is stronger than "degraded estimates are
//! finite" (the chaos suite's): the [`Degradation`] tag must name the rung
//! that *actually produced the number*. Every rung has a public clean-path
//! twin — plain `estimate_with` for rung 1, [`treelattice::estimate_fixed_at`]
//! for rung 2, [`treelattice::markov_estimate`] for rung 3 — and the
//! returned value must be bit-for-bit equal to its twin. Where the tag
//! claims an exact answer (`Degradation::None` with `|Q| ≤ k`), the value
//! is additionally cross-checked against the `tl-oracle` ground truth.

use tl_datagen::{random_document, RandomTreeConfig};
use tl_fault::failpoints::{self, sites};
use tl_oracle::Oracle;
use tl_twig::Twig;
use tl_workload::sample::random_occurred_twig;
use tl_xml::Document;
use treelattice::{
    estimate_fixed_at, markov_estimate, Budget, BuildConfig, Degradation, EngineConfig,
    EstimateOptions, EstimationEngine, Estimator, FaultKind, ResilientEstimate, TreeLattice,
};

fn fixture() -> (Document, TreeLattice, Vec<Twig>) {
    let doc = random_document(&RandomTreeConfig {
        seed: 1905,
        nodes: 350,
        labels: 7,
        max_children: 6,
    });
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(23);
    let mut twigs = Vec::new();
    for size in [2, 3, 5, 5, 6] {
        if let Some(t) = random_occurred_twig(&doc, &mut rng, size) {
            twigs.push(t);
        }
    }
    assert!(twigs.len() >= 4, "fixture workload came up short");
    (doc, lattice, twigs)
}

/// Asserts that `res.value` is bit-identical to the clean-path computation
/// of the rung its tag names. Must be called with no fail-point plan
/// active, so the twins compute clean.
fn assert_attribution(
    doc: &Document,
    lattice: &TreeLattice,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
    res: &ResilientEstimate,
    ctx: &str,
) {
    assert!(
        res.value.is_finite() && res.value >= 0.0,
        "{ctx}: bad value {}",
        res.value
    );
    match res.degradation {
        Degradation::None => {
            let twin = lattice.estimate_with(twig, estimator, opts);
            assert_eq!(
                res.value.to_bits(),
                twin.to_bits(),
                "{ctx}: tag None but value differs from the plain estimator"
            );
            assert!(res.cause.is_none(), "{ctx}: undegraded result has a cause");
            if twig.len() <= lattice.k() {
                // The tag claims the exact rung; at |Q| ≤ k that rung IS
                // exact, so the oracle must agree.
                let truth = Oracle::new(doc).count(twig) as f64;
                assert!(
                    (res.value - truth).abs() <= 1e-9 * truth.max(1.0),
                    "{ctx}: claimed exact but oracle says {truth}, got {}",
                    res.value
                );
            }
        }
        Degradation::ReducedK { k } => {
            assert!(
                (2..lattice.k()).contains(&k) || k == 2,
                "{ctx}: odd k_eff {k}"
            );
            let twin = estimate_fixed_at(lattice.summary(), twig, k, opts);
            assert_eq!(
                res.value.to_bits(),
                twin.to_bits(),
                "{ctx}: tag ReducedK{{{k}}} but value differs from fix-sized at {k}"
            );
        }
        Degradation::Markov => {
            let twin = markov_estimate(lattice.summary(), twig);
            assert_eq!(
                res.value.to_bits(),
                twin.to_bits(),
                "{ctx}: tag Markov but value differs from the closed form"
            );
            assert!(
                res.cause.is_some(),
                "{ctx}: bottom rung reached without a recorded cause"
            );
        }
    }
}

#[test]
fn clean_path_is_attributed_to_rung_one_and_matches_the_oracle() {
    let _fp = failpoints::shared();
    let (doc, lattice, twigs) = fixture();
    let opts = EstimateOptions::default();
    for twig in &twigs {
        for est in Estimator::ALL {
            let res = lattice.estimate_resilient(twig, est, &opts);
            assert_eq!(res.degradation, Degradation::None, "{est}");
            assert_attribution(
                &doc,
                &lattice,
                twig,
                est,
                &opts,
                &res,
                &format!("clean/{est}"),
            );
        }
    }
}

#[test]
fn max_k_budget_is_attributed_to_reduced_k() {
    let _fp = failpoints::shared();
    let (doc, lattice, twigs) = fixture();
    let opts = EstimateOptions {
        budget: Budget::unlimited().with_max_k(2),
        ..EstimateOptions::default()
    };
    let mut reduced = 0usize;
    for twig in &twigs {
        let res = lattice.estimate_resilient(twig, Estimator::Recursive, &opts);
        if twig.len() > 2 {
            assert_eq!(res.degradation, Degradation::ReducedK { k: 2 }, "{twig:?}");
            reduced += 1;
        }
        assert_attribution(
            &doc,
            &lattice,
            twig,
            Estimator::Recursive,
            &opts,
            &res,
            "max_k=2",
        );
    }
    assert!(reduced >= 3, "cap never engaged");
}

/// Runs `estimate_resilient` under an injection plan, then verifies
/// attribution (and, when given, the expected tag/cause) on the clean
/// path after the plan is gone.
fn drive_injected(
    spec: &str,
    expect_degraded: bool,
    expect_cause: Option<FaultKind>,
) -> Vec<(Twig, ResilientEstimate)> {
    let fp = failpoints::exclusive();
    let (doc, lattice, twigs) = fixture();
    let opts = EstimateOptions::default();
    // Size ≥ 5 twigs genuinely decompose on a k=3 lattice, so the budget
    // sites are consulted.
    let big: Vec<Twig> = twigs.iter().filter(|t| t.len() >= 5).cloned().collect();
    assert!(!big.is_empty());
    let results: Vec<(Twig, ResilientEstimate)> = fp.with_active(spec, 9, || {
        big.iter()
            .map(|t| {
                (
                    t.clone(),
                    lattice.estimate_resilient(t, Estimator::RecursiveVoting, &opts),
                )
            })
            .collect()
    });
    for (twig, res) in &results {
        if expect_degraded {
            assert!(
                res.degradation.is_degraded(),
                "{spec}: injection did not degrade {twig:?}"
            );
        }
        if let Some(kind) = expect_cause {
            if res.degradation.is_degraded() {
                let cause = res.cause.as_ref().expect("degraded result carries cause");
                assert_eq!(cause.kind, kind, "{spec}");
            }
        }
        assert_attribution(
            &doc,
            &lattice,
            twig,
            Estimator::RecursiveVoting,
            &opts,
            res,
            spec,
        );
    }
    results
}

#[test]
fn deadline_always_lands_on_markov_with_timeout_cause() {
    let results = drive_injected("budget.deadline=always", true, Some(FaultKind::Timeout));
    // Every deadline check fires, so rung 2 (also enforced) trips too: the
    // ladder must bottom out at Markov, and the tag must say so.
    for (twig, res) in &results {
        assert_eq!(res.degradation, Degradation::Markov, "{twig:?}");
    }
}

#[test]
fn single_deadline_trip_lands_on_reduced_k() {
    // nth:1 fires exactly once, on the first query's first deadline check:
    // rung 1 faults, rung 2 then runs clean and must be credited — not
    // Markov, not None. Later queries see an exhausted rule and run clean.
    let results = drive_injected("budget.deadline=nth:1", false, Some(FaultKind::Timeout));
    let (twig, first) = &results[0];
    assert!(
        matches!(first.degradation, Degradation::ReducedK { .. }),
        "one trip should stop at rung 2, got {:?} for {twig:?}",
        first.degradation
    );
    for (twig, res) in &results[1..] {
        assert_eq!(
            res.degradation,
            Degradation::None,
            "exhausted rule still degraded {twig:?}"
        );
    }
}

#[test]
fn memory_exhaustion_is_attributed_with_budget_cause() {
    drive_injected("budget.mem=always", true, Some(FaultKind::BudgetExhausted));
}

#[test]
fn engine_worker_panic_is_a_typed_fault_not_a_mislabeled_estimate() {
    let fp = failpoints::exclusive();
    let (doc, lattice, twigs) = fixture();
    let opts = EstimateOptions::default();
    let engine = EstimationEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let twig = &twigs[0];
    let (first, second) = fp.with_active("engine.worker=nth:1", 3, || {
        (
            engine.estimate_resilient(&lattice, twig, Estimator::Recursive, &opts),
            engine.estimate_resilient(&lattice, twig, Estimator::Recursive, &opts),
        )
    });
    // First call: the injected panic must surface as WorkerPanic — never
    // as a degraded-but-tagged estimate.
    assert_eq!(first.unwrap_err().kind, FaultKind::WorkerPanic);
    // Second call: clean, and fully attributed.
    let res = second.expect("second call runs clean");
    assert_eq!(res.degradation, Degradation::None);
    assert_attribution(
        &doc,
        &lattice,
        twig,
        Estimator::Recursive,
        &opts,
        &res,
        "engine.worker=nth:1 (second call)",
    );
}

#[test]
fn every_injection_site_preserves_attribution_or_types_its_fault() {
    // Sweep all sites with an always-rule: estimation sites must keep the
    // tag-matches-rung contract; pipeline sites must surface their typed
    // fault kind. Either way, nothing panics and nothing is mislabeled.
    let fp = failpoints::exclusive();
    let (doc, lattice, twigs) = fixture();
    let opts = EstimateOptions::default();
    let twig = twigs.iter().find(|t| t.len() >= 5).expect("big twig");
    for &site in sites::ALL {
        let spec = format!("{site}=always");
        match site {
            "budget.deadline" | "budget.mem" => {
                let res = fp.with_active(&spec, 5, || {
                    lattice.estimate_resilient(twig, Estimator::Recursive, &opts)
                });
                assert!(res.degradation.is_degraded(), "{site}");
                assert_attribution(
                    &doc,
                    &lattice,
                    twig,
                    Estimator::Recursive,
                    &opts,
                    &res,
                    &spec,
                );
            }
            "engine.worker" => {
                let engine = EstimationEngine::new(EngineConfig {
                    threads: 1,
                    ..EngineConfig::default()
                });
                let err = fp
                    .with_active(&spec, 5, || {
                        engine.estimate_resilient(&lattice, twig, Estimator::Recursive, &opts)
                    })
                    .unwrap_err();
                assert_eq!(err.kind, FaultKind::WorkerPanic, "{site}");
            }
            "xml.parse" => {
                let err = fp
                    .with_active(&spec, 5, || {
                        tl_xml::parse_document(b"<a><b/></a>", tl_xml::ParseOptions::default())
                    })
                    .unwrap_err();
                let fault: treelattice::Fault = err.into();
                assert_eq!(fault.kind, FaultKind::Parse, "{site}");
            }
            "summary.corrupt" => {
                let bytes = lattice.to_bytes();
                let err = fp
                    .with_active(&spec, 5, || TreeLattice::from_bytes(&bytes))
                    .unwrap_err();
                let fault: treelattice::Fault = err.into();
                assert_eq!(fault.kind, FaultKind::CorruptSummary, "{site}");
            }
            "miner.deadline" => {
                // A build under a dying deadline must still produce a
                // lattice whose ladder keeps the attribution contract.
                let degraded = fp.with_active(&spec, 5, || {
                    TreeLattice::build(&doc, &BuildConfig::with_k(3))
                });
                let res = degraded.estimate_resilient(twig, Estimator::Recursive, &opts);
                assert_attribution(
                    &doc,
                    &degraded,
                    twig,
                    Estimator::Recursive,
                    &opts,
                    &res,
                    &spec,
                );
            }
            "wal.append.torn" | "wal.append.short" | "wal.fsync" => {
                // Durability write sites: an always-firing append path
                // must refuse the ack with a typed CorruptSummary-family
                // fault — never a wrong generation, never a panic.
                let dir = std::env::temp_dir().join(format!(
                    "tl-ladder-{}-{}",
                    site.replace('.', "-"),
                    std::process::id()
                ));
                std::fs::remove_dir_all(&dir).ok();
                let opts = treelattice::DurableOptions {
                    policy: treelattice::DurabilityPolicy::Strict,
                    ..treelattice::DurableOptions::default()
                };
                let (mut durable, _) =
                    treelattice::DurableLattice::open(&dir, Some(&lattice), &opts, &tl_obs::NOOP)
                        .expect("open durable dir");
                let err = fp
                    .with_active(&spec, 5, || durable.apply(twig, 9, 1, &tl_obs::NOOP))
                    .unwrap_err();
                assert_eq!(err.kind, FaultKind::CorruptSummary, "{site}");
                std::fs::remove_dir_all(&dir).ok();
            }
            "snapshot.before_rename" | "snapshot.after_rename" => {
                // Snapshot sites: the explicit snapshot call faults typed,
                // and the WAL stays authoritative for recovery.
                let dir = std::env::temp_dir().join(format!(
                    "tl-ladder-{}-{}",
                    site.replace('.', "-"),
                    std::process::id()
                ));
                std::fs::remove_dir_all(&dir).ok();
                let opts = treelattice::DurableOptions::default();
                let (mut durable, _) =
                    treelattice::DurableLattice::open(&dir, Some(&lattice), &opts, &tl_obs::NOOP)
                        .expect("open durable dir");
                durable
                    .apply(twig, 9, 1, &tl_obs::NOOP)
                    .expect("append without injection");
                let err = fp
                    .with_active(&spec, 5, || durable.snapshot(&tl_obs::NOOP))
                    .unwrap_err();
                assert_eq!(err.kind, FaultKind::CorruptSummary, "{site}");
                let (recovered, report) =
                    treelattice::DurableLattice::open(&dir, Some(&lattice), &opts, &tl_obs::NOOP)
                        .expect("recovery after snapshot fault");
                assert_eq!(report.last_seq, 1, "{site}: acked update lost");
                assert_eq!(recovered.last_seq(), 1);
                std::fs::remove_dir_all(&dir).ok();
            }
            other => panic!("new fail-point site {other} has no ladder coverage"),
        }
    }
}
