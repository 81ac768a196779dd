//! Counts heap allocations per estimate, a work counter that does not
//! depend on the host: a change that allocates once more per warm query,
//! or once more per DAG node of a cold one, fails here on any machine,
//! however loaded.
//!
//! A counting `#[global_allocator]` wraps the system allocator, on the
//! model of `tests/mmap_alloc.rs`. Each thread counts its own allocations,
//! so the tests of this binary can run side by side without seeing each
//! other's.
//!
//! - A warm estimate, answered by the engine's root probe, allocates
//!   nothing, through the plain and the resilient entry points alike.
//! - A cold `RecursiveVoting` estimate on the mmap catalog builds its whole
//!   decomposition DAG with a per-query cache. After one warm-up pass on
//!   the same thread, its allocations per query stay under a committed
//!   ceiling. Deriving each operand's canonical bytes from its parent's,
//!   instead of rebuilding it as a `Twig`, is what keeps it there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

use rand::{Rng, SeedableRng};
use tl_datagen::{Dataset, GenConfig};
use tl_twig::canonical::key_of;
use tl_twig::Twig;
use treelattice::{
    estimate_catalog, BuildConfig, EstimateOptions, EstimationEngine, Estimator, MmapCatalog,
    TreeLattice,
};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. A `const`-initialized `Cell` needs
    /// no lazy set-up and no destructor, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations per cold voting query allowed on the fixture below. The
/// byte-domain DAG measured 114.3 here, most of them the per-query
/// interner's key copies; rebuilding each operand as a twig took 1,441.8.
const MAX_COLD_ALLOCATIONS_PER_QUERY: f64 = 130.0;

#[test]
fn warm_engine_estimates_allocate_nothing() {
    let doc = Dataset::Xmark.generate(GenConfig {
        seed: 42,
        target_elements: 2_000,
    });
    let lat = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let twig = lat.parse_query("item[name][mailbox/mail]").unwrap();
    let engine = EstimationEngine::default();
    let opts = EstimateOptions::default();
    let estimators = [Estimator::Recursive, Estimator::RecursiveVoting];
    for est in estimators {
        assert!(engine.estimate(&lat, &twig, est, &opts) > 0.0, "{est}");
        engine.estimate_resilient(&lat, &twig, est, &opts).unwrap();
    }
    assert!(engine.stats().dag_nodes > 0, "the cold pass decomposed");

    let before = allocations();
    for _ in 0..100 {
        for est in estimators {
            std::hint::black_box(engine.estimate(&lat, &twig, est, &opts));
            std::hint::black_box(engine.estimate_resilient(&lat, &twig, est, &opts).unwrap());
        }
    }
    assert_eq!(allocations() - before, 0, "a warm estimate allocated");
}

#[test]
fn cold_voting_estimates_stay_under_the_allocation_ceiling() {
    let seed = 5u64;
    let doc = Dataset::Imdb.generate(GenConfig {
        seed,
        target_elements: 20_000,
    });
    let lat = TreeLattice::build(&doc, &BuildConfig::with_k(5));
    let dir = std::env::temp_dir().join(format!("tl-dag-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("frame.tlat");
    std::fs::write(&path, lat.to_bytes()).unwrap();
    let catalog = MmapCatalog::open(&path).unwrap();

    // 200 distinct occurring twigs of 7-10 nodes, the serve-cold shape.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut twigs: Vec<Twig> = Vec::new();
    for _ in 0..10_000 {
        if twigs.len() == 200 {
            break;
        }
        let size = rng.gen_range(7..=10);
        if let Some(t) = tl_workload::sample::random_occurred_twig(&doc, &mut rng, size) {
            if seen.insert(key_of(&t)) {
                twigs.push(t);
            }
        }
    }
    assert_eq!(twigs.len(), 200, "workload came up short");

    let opts = EstimateOptions::default();
    let estimate = |t: &Twig| estimate_catalog(&catalog, t, Estimator::RecursiveVoting, &opts);
    // The warm-up pass grows this thread's DAG scratch to its working size.
    let warm_up: Vec<f64> = twigs.iter().map(estimate).collect();
    assert!(warm_up.iter().any(|&v| v > 0.0), "every estimate was zero");

    let mut measured = Vec::with_capacity(twigs.len());
    let before = allocations();
    measured.extend(twigs.iter().map(estimate));
    let per_query = (allocations() - before) as f64 / twigs.len() as f64;
    assert_eq!(measured, warm_up, "a repeat pass must repeat the values");
    assert!(
        per_query <= MAX_COLD_ALLOCATIONS_PER_QUERY,
        "{per_query:.1} allocations per cold voting query, ceiling {MAX_COLD_ALLOCATIONS_PER_QUERY}"
    );

    drop(catalog);
    let _ = std::fs::remove_dir_all(dir);
}
