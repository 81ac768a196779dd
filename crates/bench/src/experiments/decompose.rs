//! Decomposition-path comparison (`bench_decompose`).
//!
//! Times the interned-id, DAG-evaluating [`EstimationEngine`] against the
//! preserved byte-keyed recursive [`ReferenceEngine`] on the accuracy-gate
//! workload (XMark, sizes 4–6), cold (fresh cache, first batch) and warm
//! (repeat batch against a populated cache), verifies the two paths return
//! bit-identical estimates before any timing, and records everything —
//! including the interner occupancy and the DAG dedup ratio — in
//! `BENCH_decompose.json` at the workspace root. The record uses the
//! `tl-metrics/1` snapshot schema, so `treelattice metrics report
//! BENCH_decompose.json` renders it like any other snapshot.

use std::time::Instant;

use tl_datagen::{Dataset, GenConfig};
use tl_twig::Twig;
use tl_workload::positive_workload_with_index;
use tl_xml::DocIndex;
use treelattice::{
    BuildConfig, EngineConfig, EstimateOptions, EstimationEngine, Estimator, ReferenceEngine,
    TreeLattice,
};

use crate::{ExpConfig, Table};

/// One estimator's cold/warm comparison cell.
#[derive(Clone, Debug)]
pub struct DecomposeRow {
    /// Estimator name (`recursive` / `voting`).
    pub estimator: &'static str,
    /// Queries in the batch.
    pub queries: usize,
    /// Median wall time of the byte-keyed recursive path, cold cache, ms.
    pub reference_cold_ms: f64,
    /// Median wall time of the byte-keyed recursive path, warm cache, ms.
    pub reference_warm_ms: f64,
    /// Median wall time of the id-keyed DAG path, cold cache, ms.
    pub engine_cold_ms: f64,
    /// Median wall time of the id-keyed DAG path, warm cache, ms.
    pub engine_warm_ms: f64,
    /// `reference_cold_ms / engine_cold_ms`.
    pub cold_speedup: f64,
    /// `reference_warm_ms / engine_warm_ms` — the headline number.
    pub warm_speedup: f64,
    /// Warm id-keyed path per query, nanoseconds.
    pub warm_ns_per_query: f64,
    /// DAG references / DAG nodes over the cold batch; > 1 whenever
    /// decomposition operands are shared.
    pub dedup_ratio: f64,
    /// Distinct canonical encodings interned over the cold batch.
    pub interner_keys: usize,
    /// Distinct sub-twig DAG nodes materialized over the cold batch.
    pub dag_nodes: u64,
    /// Total sub-twig references across the cold batch's DAGs.
    pub dag_refs: u64,
}

/// The full comparison result.
#[derive(Clone, Debug)]
pub struct DecomposeBench {
    /// Configuration echo for the JSON record.
    pub scale: usize,
    /// Seed echo.
    pub seed: u64,
    /// CPUs available to the process that took the timings.
    pub host_cpus: usize,
    /// One row per estimator.
    pub rows: Vec<DecomposeRow>,
}

/// Timed samples per cold median; each sample is one batch.
const COLD_REPEATS: usize = 5;
/// Timed samples per warm median.
const WARM_REPEATS: usize = 7;
/// Batches per warm sample.
const WARM_ITERS: usize = 20;

/// The fixed configuration `bench_decompose` runs with: the accuracy-gate
/// fixture, so the committed record and the committed thresholds describe
/// the same workload.
pub fn bench_config() -> ExpConfig {
    ExpConfig {
        scale: 8_000,
        seed: 42,
        queries: 30,
        k: 4,
        ..ExpConfig::default()
    }
}

/// Median of `repeats` timed samples of `f`, each sample running `f`
/// `iters` times, in milliseconds per run. Warm batches finish in tens of
/// microseconds, so a sample must span many runs to out-scale timer and
/// scheduler noise.
fn median_ms(repeats: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e3 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One single-threaded engine: the reference is sequential, and a fair
/// cold/warm comparison must not hand the DAG path extra cores.
fn fresh_engine() -> EstimationEngine {
    EstimationEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    })
}

/// Runs the comparison without printing or writing.
pub fn build(cfg: &ExpConfig) -> DecomposeBench {
    let doc = Dataset::Xmark.generate(GenConfig {
        seed: cfg.seed,
        target_elements: cfg.scale,
    });
    let index = DocIndex::new(&doc);
    let lattice = TreeLattice::build_with_index(
        &doc,
        &index,
        &BuildConfig {
            k: cfg.k,
            threads: 0,
            prune_delta: None,
            ..BuildConfig::default()
        },
    );
    let mut twigs: Vec<Twig> = Vec::new();
    for size in [4usize, 5, 6] {
        let w = positive_workload_with_index(
            &doc,
            &index,
            size,
            cfg.queries,
            cfg.seed.wrapping_add(size as u64),
        );
        assert!(!w.cases.is_empty(), "size {size}: empty workload");
        twigs.extend(w.cases.into_iter().map(|c| c.twig));
    }

    let opts = EstimateOptions::default();
    let mut rows = Vec::new();
    for (name, estimator) in [
        ("recursive", Estimator::Recursive),
        ("voting", Estimator::RecursiveVoting),
    ] {
        // Bit-identity before any timing: the id-keyed DAG engine, the
        // byte-keyed reference, and the engineless estimator must agree on
        // every query, bit for bit.
        let engine = fresh_engine();
        let reference = ReferenceEngine::new();
        let got = engine.estimate_batch(&lattice, &twigs, estimator, &opts);
        let want = reference.estimate_batch(&lattice, &twigs, estimator, &opts);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{name}: engine diverged from reference on query {i}"
            );
            let direct = lattice.estimate_with(&twigs[i], estimator, &opts);
            assert_eq!(
                w.to_bits(),
                direct.to_bits(),
                "{name}: reference diverged from estimator on query {i}"
            );
        }

        // Cold: fresh cache, one batch. The fresh state is inside the
        // closure, so every sample pays first-sighting interning and the
        // full DAG expansion (or, for the reference, the full recursion).
        let reference_cold_ms = median_ms(COLD_REPEATS, 1, || {
            let r = ReferenceEngine::new();
            std::hint::black_box(r.estimate_batch(&lattice, &twigs, estimator, &opts));
        });
        let engine_cold_ms = median_ms(COLD_REPEATS, 1, || {
            let e = fresh_engine();
            std::hint::black_box(e.estimate_batch(&lattice, &twigs, estimator, &opts));
        });

        // Warm: repeat the batch against the populated caches from the
        // verification run above.
        let reference_warm_ms = median_ms(WARM_REPEATS, WARM_ITERS, || {
            std::hint::black_box(reference.estimate_batch(&lattice, &twigs, estimator, &opts));
        });
        let engine_warm_ms = median_ms(WARM_REPEATS, WARM_ITERS, || {
            std::hint::black_box(engine.estimate_batch(&lattice, &twigs, estimator, &opts));
        });

        // Structural stats from one cold batch, uncontaminated by the
        // repeated warm runs (warm root hits add no DAG nodes anyway, but
        // the cold engine's counters are the numbers worth pinning).
        let cold_engine = fresh_engine();
        let _ = cold_engine.estimate_batch(&lattice, &twigs, estimator, &opts);
        let stats = cold_engine.stats();

        rows.push(DecomposeRow {
            estimator: name,
            queries: twigs.len(),
            reference_cold_ms,
            reference_warm_ms,
            engine_cold_ms,
            engine_warm_ms,
            cold_speedup: reference_cold_ms / engine_cold_ms.max(1e-9),
            warm_speedup: reference_warm_ms / engine_warm_ms.max(1e-9),
            warm_ns_per_query: engine_warm_ms * 1e6 / twigs.len().max(1) as f64,
            dedup_ratio: stats.dedup_ratio(),
            interner_keys: stats.interner_keys,
            dag_nodes: stats.dag_nodes,
            dag_refs: stats.dag_refs,
        });
    }
    DecomposeBench {
        scale: cfg.scale,
        seed: cfg.seed,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
    }
}

/// Renders the result as a `tl-metrics/1` snapshot: timings and ratios as
/// gauges, structural counts as counters, configuration echo as meta. The
/// meta also records the host's CPU count and each median's repeat count
/// (`repeats.warm` is samples × batches per sample).
pub fn to_snapshot(b: &DecomposeBench) -> tl_obs::Snapshot {
    let mut snap = tl_obs::Snapshot::default();
    snap.meta.insert("bench".into(), "decompose".into());
    snap.meta.insert("scale".into(), b.scale.to_string());
    snap.meta.insert("seed".into(), b.seed.to_string());
    snap.meta
        .insert("host.cpus".into(), b.host_cpus.to_string());
    snap.meta
        .insert("repeats.cold".into(), COLD_REPEATS.to_string());
    snap.meta.insert(
        "repeats.warm".into(),
        format!("{WARM_REPEATS}x{WARM_ITERS}"),
    );
    for r in &b.rows {
        let p = format!("bench.decompose.{}", r.estimator);
        snap.counters
            .insert(format!("{p}.queries"), r.queries as u64);
        snap.counters
            .insert(format!("{p}.interner_keys"), r.interner_keys as u64);
        snap.counters.insert(format!("{p}.dag_nodes"), r.dag_nodes);
        snap.counters.insert(format!("{p}.dag_refs"), r.dag_refs);
        snap.gauges
            .insert(format!("{p}.reference_cold_ms"), r.reference_cold_ms);
        snap.gauges
            .insert(format!("{p}.reference_warm_ms"), r.reference_warm_ms);
        snap.gauges
            .insert(format!("{p}.engine_cold_ms"), r.engine_cold_ms);
        snap.gauges
            .insert(format!("{p}.engine_warm_ms"), r.engine_warm_ms);
        snap.gauges
            .insert(format!("{p}.cold_speedup"), r.cold_speedup);
        snap.gauges
            .insert(format!("{p}.warm_speedup"), r.warm_speedup);
        snap.gauges
            .insert(format!("{p}.warm_ns_per_query"), r.warm_ns_per_query);
        snap.gauges
            .insert(format!("{p}.dedup_ratio"), r.dedup_ratio);
    }
    snap
}

/// [`to_snapshot`] serialized as JSON.
pub fn to_json(b: &DecomposeBench) -> String {
    to_snapshot(b).to_json()
}

/// Runs, prints, and writes `BENCH_decompose.json`.
pub fn run(cfg: &ExpConfig) -> DecomposeBench {
    let b = build(cfg);
    let mut t = Table::new(
        "Decomposition path: reference (byte-keyed recursion) vs engine (id-keyed DAG)",
        &[
            "Estimator",
            "Queries",
            "Ref cold",
            "Engine cold",
            "Ref warm",
            "Engine warm",
            "Warm speedup",
            "ns/query",
            "Dedup",
        ],
    );
    for r in &b.rows {
        t.row(vec![
            r.estimator.to_owned(),
            r.queries.to_string(),
            format!("{:.2}ms", r.reference_cold_ms),
            format!("{:.2}ms", r.engine_cold_ms),
            format!("{:.3}ms", r.reference_warm_ms),
            format!("{:.3}ms", r.engine_warm_ms),
            format!("{:.2}x", r.warm_speedup),
            format!("{:.0}", r.warm_ns_per_query),
            format!("{:.2}x", r.dedup_ratio),
        ]);
    }
    t.print();
    let path = crate::workspace_root().join("BENCH_decompose.json");
    match std::fs::write(&path, to_json(&b)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_agree_and_json_is_well_formed() {
        let cfg = ExpConfig {
            scale: 1200,
            queries: 4,
            ..ExpConfig::default()
        };
        let b = build(&cfg);
        assert_eq!(b.rows.len(), 2, "recursive + voting");
        for r in &b.rows {
            assert!(r.engine_cold_ms >= 0.0 && r.reference_cold_ms >= 0.0);
            assert!(r.warm_speedup.is_finite() && r.cold_speedup.is_finite());
            assert!(
                r.dedup_ratio > 1.0,
                "{}: dedup ratio {} not > 1",
                r.estimator,
                r.dedup_ratio
            );
            assert!(r.dag_refs > r.dag_nodes);
            assert!(r.interner_keys > 0);
        }
        // The record is a valid tl-metrics/1 snapshot and round-trips.
        let snap = to_snapshot(&b);
        let parsed = tl_obs::Snapshot::from_json(&to_json(&b)).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(
            snap.meta.get("bench").map(String::as_str),
            Some("decompose")
        );
        assert!(snap
            .gauges
            .contains_key("bench.decompose.recursive.warm_speedup"));
        assert!(snap
            .counters
            .contains_key("bench.decompose.voting.dag_nodes"));
    }
}
