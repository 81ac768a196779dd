//! Decomposition-path benchmark (`bench_decompose`).
//!
//! Runs the interned-id, DAG-evaluating [`EstimationEngine`] on the
//! accuracy-gate workload (XMark, sizes 4–6), cold (fresh cache, first
//! batch) and warm (repeat batch against a populated cache). Before any
//! timing it checks the engine bit for bit against the literal recursion
//! of [`tl_oracle::twin`] and the engineless estimator. It counts the work
//! of one cold batch (DAG nodes, DAG references, interner keys) and of one
//! warm repeat, times both, and records everything in
//! `BENCH_decompose.json` at the workspace root. The record uses the
//! `tl-metrics/1` snapshot schema, so `treelattice metrics report
//! BENCH_decompose.json` renders it like any other snapshot. The decompose
//! gate checks the counts (see [`crate::gates::check_decompose`]).

use std::time::Instant;

use tl_datagen::{Dataset, GenConfig};
use tl_twig::Twig;
use tl_workload::positive_workload_with_index;
use tl_xml::DocIndex;
use treelattice::{
    BuildConfig, EngineConfig, EstimateOptions, EstimationEngine, Estimator, TreeLattice,
};

use crate::{ExpConfig, Table};

/// One estimator's cold/warm cell.
#[derive(Clone, Debug)]
pub struct DecomposeRow {
    /// Estimator name (`recursive` / `voting`).
    pub estimator: &'static str,
    /// Queries in the batch.
    pub queries: usize,
    /// Median wall time of a batch on a fresh engine, ms.
    pub engine_cold_ms: f64,
    /// Median wall time of a batch repeated on a populated cache, ms.
    pub engine_warm_ms: f64,
    /// Warm batch time per query, nanoseconds.
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
    /// DAG nodes materialized by one warm repeat of the batch: 0 when
    /// every root resolves from the cache.
    pub warm_dag_nodes: u64,
    /// DAG references of one warm repeat: the root probe of each query.
    pub warm_dag_refs: u64,
}

/// The full benchmark result.
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

/// One single-threaded engine, so the counts and timings do not depend on
/// the host's core count.
fn fresh_engine() -> EstimationEngine {
    EstimationEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    })
}

/// Runs the benchmark without printing or writing.
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
        // Bit-identity before any timing: the engine's cold batch, the
        // literal recursion, and the engineless estimator must agree on
        // every query, bit for bit.
        let engine = fresh_engine();
        let got = engine.estimate_batch(&lattice, &twigs, estimator, &opts);
        for (i, (g, twig)) in got.iter().zip(&twigs).enumerate() {
            let want = tl_oracle::twin::estimate(lattice.summary(), twig, estimator, &opts).value;
            assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "{name}: engine diverged from the recursion on query {i}"
            );
            let direct = lattice.estimate_with(twig, estimator, &opts);
            assert_eq!(
                want.to_bits(),
                direct.to_bits(),
                "{name}: the recursion diverged from the estimator on query {i}"
            );
        }
        // The work of that cold batch, then of one warm repeat.
        let cold = engine.stats();
        let _ = engine.estimate_batch(&lattice, &twigs, estimator, &opts);
        let warm = engine.stats();

        // Cold: fresh cache, one batch. The fresh state is inside the
        // closure, so every sample pays first-sighting interning and the
        // full DAG expansion.
        let engine_cold_ms = median_ms(COLD_REPEATS, 1, || {
            let e = fresh_engine();
            std::hint::black_box(e.estimate_batch(&lattice, &twigs, estimator, &opts));
        });
        // Warm: repeat the batch against the populated cache.
        let engine_warm_ms = median_ms(WARM_REPEATS, WARM_ITERS, || {
            std::hint::black_box(engine.estimate_batch(&lattice, &twigs, estimator, &opts));
        });

        rows.push(DecomposeRow {
            estimator: name,
            queries: twigs.len(),
            engine_cold_ms,
            engine_warm_ms,
            warm_ns_per_query: engine_warm_ms * 1e6 / twigs.len().max(1) as f64,
            dedup_ratio: cold.dedup_ratio(),
            interner_keys: cold.interner_keys,
            dag_nodes: cold.dag_nodes,
            dag_refs: cold.dag_refs,
            warm_dag_nodes: warm.dag_nodes - cold.dag_nodes,
            warm_dag_refs: warm.dag_refs - cold.dag_refs,
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
        for (name, count) in [
            ("queries", r.queries as u64),
            ("interner_keys", r.interner_keys as u64),
            ("dag_nodes", r.dag_nodes),
            ("dag_refs", r.dag_refs),
            ("warm_dag_nodes", r.warm_dag_nodes),
            ("warm_dag_refs", r.warm_dag_refs),
        ] {
            snap.counters.insert(format!("{p}.{name}"), count);
        }
        for (name, value) in [
            ("engine_cold_ms", r.engine_cold_ms),
            ("engine_warm_ms", r.engine_warm_ms),
            ("warm_ns_per_query", r.warm_ns_per_query),
            ("dedup_ratio", r.dedup_ratio),
        ] {
            snap.gauges.insert(format!("{p}.{name}"), value);
        }
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
        "Decomposition path: id-keyed DAG engine, cold and warm",
        &[
            "Estimator",
            "Queries",
            "Cold",
            "Warm",
            "ns/query",
            "DAG nodes",
            "DAG refs",
            "Keys",
            "Dedup",
        ],
    );
    for r in &b.rows {
        t.row(vec![
            r.estimator.to_owned(),
            r.queries.to_string(),
            format!("{:.2}ms", r.engine_cold_ms),
            format!("{:.3}ms", r.engine_warm_ms),
            format!("{:.0}", r.warm_ns_per_query),
            r.dag_nodes.to_string(),
            r.dag_refs.to_string(),
            r.interner_keys.to_string(),
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
            assert!(r.engine_cold_ms >= 0.0 && r.engine_warm_ms >= 0.0);
            assert!(
                r.dedup_ratio > 1.0,
                "{}: dedup ratio {} not > 1",
                r.estimator,
                r.dedup_ratio
            );
            assert!(r.dag_refs > r.dag_nodes);
            assert!(r.interner_keys > 0);
            assert_eq!(
                r.warm_dag_nodes, 0,
                "{}: a warm repeat builds nothing",
                r.estimator
            );
            assert_eq!(
                r.warm_dag_refs, r.queries as u64,
                "{}: one root probe per query",
                r.estimator
            );
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
            .contains_key("bench.decompose.recursive.engine_warm_ms"));
        assert!(snap
            .counters
            .contains_key("bench.decompose.voting.dag_nodes"));
    }
}
