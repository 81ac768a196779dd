//! Old-vs-new exact-match kernel comparison (`bench matcher`).
//!
//! Times the dense CSR [`tl_twig::MatchCounter`] against the preserved
//! hash-map [`tl_twig::ReferenceMatchCounter`] on the same positive
//! workloads over the synthetic datasets, verifies the two kernels return
//! identical totals, times a full mining run at 1 and 4 threads (checking
//! the lattices are identical), and records everything in
//! `BENCH_matcher.json` at the workspace root so the repo's perf trajectory
//! is tracked in-tree, not just in criterion's local target directory.
//! The record uses the `tl-metrics/1` snapshot schema, so `treelattice
//! metrics report BENCH_matcher.json` renders it like any other snapshot.

use std::time::Instant;

use tl_datagen::{Dataset, GenConfig};
use tl_miner::{mine_with_index, MineConfig};
use tl_twig::{MatchCounter, ReferenceMatchCounter};
use tl_workload::positive_workload_with_index;
use tl_xml::DocIndex;

use crate::{ExpConfig, Table};

/// One (dataset, query-size) kernel comparison cell.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Query size (nodes).
    pub size: usize,
    /// Queries in the workload cell.
    pub queries: usize,
    /// Median wall time of the reference (hash-map) kernel, ms.
    pub reference_ms: f64,
    /// Median wall time of the dense CSR kernel, ms.
    pub dense_ms: f64,
    /// `reference_ms / dense_ms`.
    pub speedup: f64,
}

/// One mining timing row (the new index-backed path).
#[derive(Clone, Debug)]
pub struct MineRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Lattice order mined.
    pub k: usize,
    /// Worker threads.
    pub threads: usize,
    /// Median wall time, ms.
    pub ms: f64,
    /// Patterns mined (equal across thread counts by construction).
    pub patterns: usize,
}

/// The full comparison result.
#[derive(Clone, Debug)]
pub struct MatcherBench {
    /// Configuration echo for the JSON record.
    pub scale: usize,
    /// Seed echo.
    pub seed: u64,
    /// Kernel comparison cells.
    pub kernel: Vec<KernelRow>,
    /// Mining rows.
    pub mine: Vec<MineRow>,
}

/// Median of `repeats` timed runs of `f`, in milliseconds.
fn median_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs the comparison without printing or writing.
pub fn build(cfg: &ExpConfig) -> MatcherBench {
    let mut kernel = Vec::new();
    let mut mine_rows = Vec::new();
    for ds in [Dataset::Xmark, Dataset::Psd] {
        let doc = ds.generate(GenConfig {
            seed: cfg.seed,
            target_elements: cfg.scale,
        });
        let index = DocIndex::new(&doc);
        let dense = MatchCounter::with_index(&doc, &index);
        let reference = ReferenceMatchCounter::new(&doc);
        for size in [3usize, 5, 8] {
            let w = positive_workload_with_index(
                &doc,
                &index,
                size,
                cfg.queries,
                cfg.seed.wrapping_add(size as u64),
            );
            assert!(
                !w.cases.is_empty(),
                "{} size {size}: empty workload",
                ds.name()
            );
            let total = |count: &dyn Fn(&tl_twig::Twig) -> u64| -> u64 {
                w.cases
                    .iter()
                    .fold(0u64, |a, c| a.wrapping_add(count(&c.twig)))
            };
            let dense_total = total(&|t| dense.count(t));
            let reference_total = total(&|t| reference.count(t));
            assert_eq!(
                dense_total,
                reference_total,
                "kernel disagreement on {} size {size}",
                ds.name()
            );
            let reference_ms = median_ms(5, || {
                std::hint::black_box(total(&|t| reference.count(t)));
            });
            let dense_ms = median_ms(5, || {
                std::hint::black_box(total(&|t| dense.count(t)));
            });
            kernel.push(KernelRow {
                dataset: ds.name(),
                size,
                queries: w.cases.len(),
                reference_ms,
                dense_ms,
                speedup: reference_ms / dense_ms.max(1e-9),
            });
        }

        // Mining at 1 and 4 threads: identical lattices, recorded times.
        let k = cfg.k.min(4);
        let serial = mine_with_index(
            &index,
            MineConfig {
                max_size: k,
                threads: 1,
            },
        );
        let parallel = mine_with_index(
            &index,
            MineConfig {
                max_size: k,
                threads: 4,
            },
        );
        assert_eq!(serial.lattice.len(), parallel.lattice.len());
        for (key, count) in serial.lattice.iter() {
            assert_eq!(
                parallel.lattice.stored(key),
                Some(count),
                "parallel mining diverged on {}",
                ds.name()
            );
        }
        for threads in [1usize, 4] {
            let ms = median_ms(3, || {
                let r = mine_with_index(
                    &index,
                    MineConfig {
                        max_size: k,
                        threads,
                    },
                );
                std::hint::black_box(r.lattice.len());
            });
            mine_rows.push(MineRow {
                dataset: ds.name(),
                k,
                threads,
                ms,
                patterns: serial.lattice.len(),
            });
        }
    }
    MatcherBench {
        scale: cfg.scale,
        seed: cfg.seed,
        kernel,
        mine: mine_rows,
    }
}

/// Renders the result as a `tl-metrics/1` snapshot: timings as gauges,
/// sizes as counters, configuration echo as meta.
pub fn to_snapshot(b: &MatcherBench) -> tl_obs::Snapshot {
    let mut snap = tl_obs::Snapshot::default();
    snap.meta.insert("bench".into(), "matcher".into());
    snap.meta.insert("scale".into(), b.scale.to_string());
    snap.meta.insert("seed".into(), b.seed.to_string());
    for r in &b.kernel {
        let p = format!("bench.matcher.kernel.{}.s{}", r.dataset, r.size);
        snap.counters
            .insert(format!("{p}.queries"), r.queries as u64);
        snap.gauges
            .insert(format!("{p}.reference_ms"), r.reference_ms);
        snap.gauges.insert(format!("{p}.dense_ms"), r.dense_ms);
        snap.gauges.insert(format!("{p}.speedup"), r.speedup);
    }
    for r in &b.mine {
        let p = format!("bench.matcher.mine.{}.k{}.t{}", r.dataset, r.k, r.threads);
        snap.gauges.insert(format!("{p}.ms"), r.ms);
        snap.counters
            .insert(format!("{p}.patterns"), r.patterns as u64);
    }
    snap
}

/// [`to_snapshot`] serialized as JSON.
pub fn to_json(b: &MatcherBench) -> String {
    to_snapshot(b).to_json()
}

/// Runs, prints, and writes `BENCH_matcher.json`.
pub fn run(cfg: &ExpConfig) -> MatcherBench {
    let b = build(cfg);
    let mut t = Table::new(
        "Exact-match kernel: reference (hash-map) vs dense (CSR)",
        &[
            "Dataset",
            "Size",
            "Queries",
            "Reference",
            "Dense",
            "Speedup",
        ],
    );
    for r in &b.kernel {
        t.row(vec![
            r.dataset.to_owned(),
            r.size.to_string(),
            r.queries.to_string(),
            format!("{:.2}ms", r.reference_ms),
            format!("{:.2}ms", r.dense_ms),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t.print();
    let mut m = Table::new(
        "Mining (index-backed kernel)",
        &["Dataset", "k", "Threads", "Time", "Patterns"],
    );
    for r in &b.mine {
        m.row(vec![
            r.dataset.to_owned(),
            r.k.to_string(),
            r.threads.to_string(),
            format!("{:.1}ms", r.ms),
            r.patterns.to_string(),
        ]);
    }
    m.print();
    let path = crate::workspace_root().join("BENCH_matcher.json");
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
    fn kernels_agree_and_json_is_well_formed() {
        let cfg = ExpConfig {
            scale: 1200,
            queries: 4,
            ..ExpConfig::default()
        };
        let b = build(&cfg);
        assert_eq!(b.kernel.len(), 6, "2 datasets x 3 sizes");
        assert_eq!(b.mine.len(), 4, "2 datasets x 2 thread counts");
        for r in &b.kernel {
            assert!(r.dense_ms >= 0.0 && r.reference_ms >= 0.0);
            assert!(r.speedup.is_finite());
        }
        // The record is a valid tl-metrics/1 snapshot and round-trips.
        let snap = to_snapshot(&b);
        let parsed = tl_obs::Snapshot::from_json(&to_json(&b)).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(snap.meta.get("bench").map(String::as_str), Some("matcher"));
        assert_eq!(
            snap.gauges.len(),
            6 * 3 + 4,
            "3 per kernel cell, 1 per mine row"
        );
        assert!(snap
            .gauges
            .contains_key("bench.matcher.kernel.xmark.s3.dense_ms"));
        assert!(snap
            .counters
            .contains_key("bench.matcher.mine.psd.k4.t4.patterns"));
    }
}
