//! Golden accuracy store: oracle-verified q-error / MRE envelopes per
//! (dataset, seed, estimator), committed under `tests/gates/` and enforced
//! in CI.
//!
//! Where the plain accuracy gate ([`crate::gates`]) watches two estimators
//! on one fixture, the golden store records an *envelope per corpus* for
//! all four estimators over the full dataset × seed matrix, with every
//! workload truth re-verified against the independent `tl-oracle` counter
//! before it is trusted — a drifting kernel can therefore never silently
//! re-baseline the gate. Regenerate with
//! `cargo run --release -p tl-bench --bin gates -- --only golden --write-thresholds`
//! after an intentional accuracy change, and justify the diff in review.

use std::collections::BTreeMap;

use tl_datagen::{Dataset, GenConfig};
use tl_obs::Snapshot;
use tl_oracle::Oracle;
use tl_workload::{average_relative_error_pct, max_q_error, positive_workload};
use treelattice::{BuildConfig, EstimateOptions, Estimator, TreeLattice};

use crate::gates::GateReport;

/// Gauge name prefix: `gate.golden.<dataset>.s<seed>.<estimator>.max_qerror`
/// and `….mre_pct`.
pub const GOLDEN_PREFIX: &str = "gate.golden";

/// The deterministic corpus matrix the golden gate runs on. Changing any
/// field invalidates `tests/gates/golden_accuracy.json`.
#[derive(Clone, Debug)]
pub struct GoldenConfig {
    /// Generation/workload seeds — one golden envelope per seed.
    pub seeds: Vec<u64>,
    /// Target elements per generated document.
    pub scale: usize,
    /// Lattice order.
    pub k: usize,
    /// Workload twig sizes.
    pub sizes: Vec<usize>,
    /// Queries per (dataset, seed, size) cell.
    pub queries: usize,
}

impl Default for GoldenConfig {
    fn default() -> Self {
        Self {
            seeds: vec![1, 7, 42],
            scale: 3_000,
            k: 3,
            sizes: vec![4, 5],
            queries: 20,
        }
    }
}

impl GoldenConfig {
    /// This config restricted to a single seed (one CI matrix slot).
    pub fn with_seed(&self, seed: u64) -> Self {
        Self {
            seeds: vec![seed],
            ..self.clone()
        }
    }
}

/// One corpus cell's accuracy envelope.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Envelope {
    /// Largest q-error over the cell's workload (≥ 1).
    pub max_qerror: f64,
    /// Mean relative error, percent, under the paper's sanity bound.
    pub mre_pct: f64,
}

/// What the golden gate measured: envelopes keyed
/// `<dataset>.s<seed>.<estimator>`, plus the workload size behind them.
#[derive(Clone, Debug)]
pub struct GoldenMeasurement {
    /// Envelope per corpus cell.
    pub envelopes: BTreeMap<String, Envelope>,
    /// Total (query, estimator) evaluations.
    pub evaluations: usize,
}

/// Runs the golden measurement over `cfg`'s dataset × seed matrix.
///
/// # Panics
///
/// Panics when a workload truth disagrees with the oracle — the gate's
/// ground truth is not allowed to be wrong, so this is a hard stop rather
/// than a gate failure.
pub fn measure_golden(cfg: &GoldenConfig) -> GoldenMeasurement {
    let mut envelopes = BTreeMap::new();
    let mut evaluations = 0usize;
    for ds in Dataset::ALL {
        for &seed in &cfg.seeds {
            let doc = ds.generate(GenConfig {
                seed,
                target_elements: cfg.scale,
            });
            let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(cfg.k));
            let oracle = Oracle::new(&doc);
            let mut twigs = Vec::new();
            let mut truths = Vec::new();
            for &size in &cfg.sizes {
                let w = positive_workload(&doc, size, cfg.queries, seed.wrapping_add(size as u64));
                for case in w.cases {
                    let oracle_count = oracle.count(&case.twig);
                    assert_eq!(
                        case.true_count,
                        oracle_count,
                        "workload truth disagrees with the oracle on {} seed {seed}: \
                         kernel {} vs oracle {oracle_count}",
                        ds.name(),
                        case.true_count,
                    );
                    truths.push(case.true_count);
                    twigs.push(case.twig);
                }
            }
            assert!(
                !twigs.is_empty(),
                "{} seed {seed}: empty workload",
                ds.name()
            );
            let opts = EstimateOptions::default();
            for est in Estimator::ALL {
                let estimates: Vec<f64> = twigs
                    .iter()
                    .map(|t| lattice.estimate_with(t, est, &opts))
                    .collect();
                evaluations += estimates.len();
                envelopes.insert(
                    cell_key(ds, seed, est),
                    Envelope {
                        max_qerror: max_q_error(&truths, &estimates),
                        mre_pct: average_relative_error_pct(&truths, &estimates),
                    },
                );
            }
        }
    }
    GoldenMeasurement {
        envelopes,
        evaluations,
    }
}

fn cell_key(ds: Dataset, seed: u64, est: Estimator) -> String {
    format!("{}.s{seed}.{}", ds.name(), est.name())
}

/// Renders a measurement as a committed-thresholds snapshot with headroom:
/// q-error ceilings at `1.25×` measured (floored at `+0.1`), MRE ceilings
/// at `1.15×` (floored at 1pp above) — tight enough to catch a real
/// regression, loose enough to survive float-order changes.
pub fn golden_thresholds(m: &GoldenMeasurement, cfg: &GoldenConfig) -> Snapshot {
    let mut snap = Snapshot::default();
    snap.meta.insert("gate".into(), "golden-accuracy".into());
    snap.meta.insert(
        "seeds".into(),
        cfg.seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
    );
    snap.meta.insert("scale".into(), cfg.scale.to_string());
    snap.meta.insert("k".into(), cfg.k.to_string());
    snap.meta.insert(
        "sizes".into(),
        cfg.sizes
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(","),
    );
    snap.meta
        .insert("queries_per_size".into(), cfg.queries.to_string());
    for (cell, env) in &m.envelopes {
        snap.gauges.insert(
            format!("{GOLDEN_PREFIX}.{cell}.max_qerror"),
            (env.max_qerror * 1.25).max(env.max_qerror + 0.1),
        );
        snap.gauges.insert(
            format!("{GOLDEN_PREFIX}.{cell}.mre_pct"),
            (env.mre_pct * 1.15).max(env.mre_pct + 1.0),
        );
    }
    snap
}

/// Compares a measurement against the committed thresholds. Fail-closed:
/// a measured cell whose gauges the snapshot lacks is a failure (the gate
/// must never silently check nothing). Cells in the snapshot but not in
/// the measurement are fine — a single-seed CI slot checks its subset.
pub fn check_golden(m: &GoldenMeasurement, thresholds: &Snapshot) -> GateReport {
    let mut report = GateReport::default();
    for (cell, env) in &m.envelopes {
        for (metric, value, fmt) in [
            ("max_qerror", env.max_qerror, "q-error"),
            ("mre_pct", env.mre_pct, "MRE%"),
        ] {
            let key = format!("{GOLDEN_PREFIX}.{cell}.{metric}");
            match thresholds.gauges.get(&key) {
                Some(&max) => report.check(
                    value <= max,
                    format!("{cell}: {fmt} {value:.3} (max {max:.3})"),
                ),
                None => report.check(false, format!("thresholds missing gauge `{key}`")),
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_measurement() -> GoldenMeasurement {
        let mut envelopes = BTreeMap::new();
        for ds in Dataset::ALL {
            for est in Estimator::ALL {
                envelopes.insert(
                    cell_key(ds, 42, est),
                    Envelope {
                        max_qerror: 2.0,
                        mre_pct: 15.0,
                    },
                );
            }
        }
        GoldenMeasurement {
            envelopes,
            evaluations: 160,
        }
    }

    #[test]
    fn thresholds_pass_their_own_measurement_and_round_trip() {
        let m = fake_measurement();
        let thresholds = golden_thresholds(&m, &GoldenConfig::default());
        let report = check_golden(&m, &thresholds);
        assert!(report.passed(), "{:?}", report.failures);
        // 4 datasets × 4 estimators × 2 metrics.
        assert_eq!(report.lines.len(), 32);
        let parsed = Snapshot::from_json(&thresholds.to_json()).unwrap();
        assert_eq!(parsed, thresholds);
    }

    #[test]
    fn regressions_and_missing_gauges_fail() {
        let m = fake_measurement();
        let mut thresholds = golden_thresholds(&m, &GoldenConfig::default());
        for v in thresholds.gauges.values_mut() {
            *v /= 100.0;
        }
        assert_eq!(check_golden(&m, &thresholds).failures.len(), 32);
        let report = check_golden(&m, &Snapshot::default());
        assert!(!report.passed());
        assert!(report.failures.iter().all(|f| f.contains("missing gauge")));
    }

    #[test]
    fn subset_measurement_checks_only_its_cells() {
        let full = fake_measurement();
        let thresholds = golden_thresholds(&full, &GoldenConfig::default());
        let mut subset = full.clone();
        subset
            .envelopes
            .retain(|cell, _| cell.starts_with("xmark."));
        let report = check_golden(&subset, &thresholds);
        assert!(report.passed());
        assert_eq!(report.lines.len(), 8, "4 estimators × 2 metrics");
    }
}
