//! Batched engine vs per-query estimation on an overlapping 200-query
//! workload — the acceptance benchmark for the shared cross-query
//! sub-twig cache. The interesting comparison is `per_query_loop` (fresh
//! memo per call, today's `estimate()` path) against `engine_warm_*`
//! (persistent sharded cache, batch API): on a workload with structural
//! overlap the warm engine should be at least 2x faster.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tl_datagen::{Dataset, GenConfig};
use tl_workload::positive_workload;
use treelattice::{
    BuildConfig, EngineConfig, EstimateOptions, EstimationEngine, Estimator, TreeLattice,
};

fn bench_batch(c: &mut Criterion) {
    let doc = Dataset::Xmark.generate(GenConfig {
        seed: 5,
        target_elements: 20_000,
    });
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(4));
    let opts = EstimateOptions::default();
    let est = Estimator::RecursiveVoting;

    // 200 positive queries drawn from four sizes over the same corpus:
    // heavy sub-twig overlap, as an optimizer's plan enumeration produces.
    let mut twigs = Vec::new();
    for (size, seed) in [(6usize, 9u64), (7, 10), (8, 11), (9, 12)] {
        twigs.extend(
            positive_workload(&doc, size, 60, seed)
                .cases
                .into_iter()
                .map(|c| c.twig),
        );
    }
    assert!(
        twigs.len() >= 200,
        "workload came up short: {}",
        twigs.len()
    );
    twigs.truncate(200);

    let mut group = c.benchmark_group("batch200");
    group.throughput(Throughput::Elements(twigs.len() as u64));

    group.bench_function("per_query_loop", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for t in &twigs {
                acc += lattice.estimate_with(t, est, &opts);
            }
            std::hint::black_box(acc)
        })
    });

    group.bench_function("engine_cold_t4", |b| {
        b.iter(|| {
            let engine = EstimationEngine::new(EngineConfig {
                shards: 16,
                threads: 4,
                ..EngineConfig::default()
            });
            std::hint::black_box(engine.estimate_batch(&lattice, &twigs, est, &opts))
        })
    });

    for threads in [1usize, 4] {
        let engine = EstimationEngine::new(EngineConfig {
            shards: 16,
            threads,
            ..EngineConfig::default()
        });
        // Warm the shared cache once; the measured loop is the warm path.
        engine.estimate_batch(&lattice, &twigs, est, &opts);
        group.bench_function(format!("engine_warm_t{threads}"), |b| {
            b.iter(|| std::hint::black_box(engine.estimate_batch(&lattice, &twigs, est, &opts)))
        });
        let stats = engine.stats();
        eprintln!(
            "engine_warm_t{threads}: hit rate {:.1}% ({} hits / {} misses, {} entries, {} KiB)",
            100.0 * stats.hit_rate(),
            stats.hits,
            stats.misses,
            stats.entries,
            stats.bytes / 1024
        );
    }

    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
