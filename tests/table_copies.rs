//! Counts the copies of the pattern table that builds and online updates
//! make. Every stored pattern owns one boxed canonical key, so a
//! whole-table copy costs at least one heap allocation per pattern; an
//! allocation count that does not grow with the table proves none was
//! made.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! each thread's allocations apart, on the model of `tests/dag_alloc.rs`.
//!
//! - An `observe` that inserts a fresh pattern, and one that forces an
//!   eviction, allocate the same on two summaries whose pattern counts
//!   differ several-fold.
//! - `TreeLattice::build_with_index` allocates a constant number more than
//!   mining the same index alone.
//! - A seeded storm of observations, under an online budget small enough
//!   to evict, ends in a frame, a footprint and an online state pinned to
//!   committed values: updating the live table stores exactly what
//!   replacing it with an updated copy stored.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tl_datagen::{Dataset, GenConfig};
use tl_fault::fnv1a;
use tl_miner::{mine_with_index_budgeted, MineConfig};
use tl_twig::Twig;
use tl_xml::{DocIndex, Document, LabelId};
use treelattice::{Budget, BuildConfig, TreeLattice, TunedLattice};

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

/// Runs `f` and returns its result with the allocations it made.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// Lattice order of the allocation fixtures.
const K: usize = 4;

/// IMDB stand-in documents, seed 5: at k = 4 the small one mines 1,741
/// patterns and the large one 5,672.
const SMALL: usize = 300;
const LARGE: usize = 10_000;

fn imdb(elements: usize) -> (Document, DocIndex) {
    let doc = Dataset::Imdb.generate(GenConfig {
        seed: 5,
        target_elements: elements,
    });
    let index = DocIndex::new(&doc);
    (doc, index)
}

fn build(doc: &Document, index: &DocIndex, k: usize) -> TreeLattice {
    TreeLattice::build_with_index(
        doc,
        index,
        &BuildConfig {
            k,
            threads: 1,
            ..BuildConfig::default()
        },
    )
}

/// A path of `k` root labels ending in `leaf`: a pattern one node larger
/// than the summary stores, so observing it inserts a fresh entry.
fn fresh(k: usize, leaf: u32) -> Twig {
    let mut labels = vec![LabelId(0); k];
    labels.push(LabelId(leaf));
    Twig::path(&labels)
}

#[test]
fn observe_allocations_do_not_grow_with_the_summary() {
    let mut counts = Vec::new();
    let mut patterns = Vec::new();
    for elements in [SMALL, LARGE] {
        let (doc, index) = imdb(elements);
        let lattice = build(&doc, &index, K);
        patterns.push(lattice.summary().len());
        // Room for two fresh patterns: the third overflows and evicts one.
        let key_bytes = tl_twig::canonical::key_of(&fresh(K, 1)).heap_bytes();
        let mut tuned = TunedLattice::new(lattice, 2 * key_bytes);
        // The first insert opens the new level and the online tables.
        tuned.observe(&fresh(K, 1), 7);
        let ((), insert) = measured(|| tuned.observe(&fresh(K, 2), 7));
        assert_eq!(tuned.stats().evicted, 0);
        let ((), evict) = measured(|| tuned.observe(&fresh(K, 3), 7));
        assert_eq!(tuned.stats().evicted, 1, "the third fresh pattern evicts");
        counts.push((insert, evict));
    }
    assert!(
        patterns[1] >= 3 * patterns[0],
        "fixtures must differ several-fold: {patterns:?} patterns"
    );
    assert_eq!(
        counts[0], counts[1],
        "(insert, evict) allocations on {patterns:?} patterns"
    );
}

#[test]
fn build_allocates_a_constant_beyond_mining() {
    let mut extra = Vec::new();
    let mut patterns = Vec::new();
    for elements in [SMALL, LARGE] {
        let (doc, index) = imdb(elements);
        let config = MineConfig {
            max_size: K,
            threads: 1,
        };
        // Warm-up: first use of any thread-local scratch on this thread.
        drop(build(&doc, &index, K));
        let (mined, mining) = measured(|| {
            mine_with_index_budgeted(&index, config, Budget::unlimited(), &tl_obs::NOOP)
        });
        let (lattice, building) = measured(|| build(&doc, &index, K));
        assert_eq!(lattice.summary().len(), mined.lattice.len());
        patterns.push(mined.lattice.len());
        extra.push(building as i64 - mining as i64);
    }
    assert!(
        patterns[1] >= 3 * patterns[0],
        "fixtures must differ several-fold: {patterns:?} patterns"
    );
    assert_eq!(
        extra[0], extra[1],
        "allocations beyond mining on {patterns:?} patterns"
    );
}

/// SplitMix64: a fixed, dependency-free stream for the storm below.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The online state in the layout a snapshot stores it: the clock, then
/// each `(key, heat, last-touch)` row in key order.
fn online_state_bytes(tuned: &TunedLattice) -> Vec<u8> {
    let (clock, rows) = tuned.online_state();
    let mut out = clock.to_le_bytes().to_vec();
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for (key, heat, touched) in rows {
        out.extend_from_slice(&(key.as_bytes().len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(&heat.to_le_bytes());
        out.extend_from_slice(&touched.to_le_bytes());
    }
    out
}

#[test]
fn an_eviction_storm_stores_what_it_always_stored() {
    let (doc, index) = imdb(2_000);
    let lattice = build(&doc, &index, 3);
    // The pool: stored patterns of sizes 2 and 3 in key order, each also
    // grown by one child into a size the summary does not store.
    let mut stored: Vec<(Vec<u8>, u64)> = lattice
        .summary()
        .iter()
        .filter(|(key, _)| key.node_count() >= 2)
        .map(|(key, count)| (key.as_bytes().to_vec(), count))
        .collect();
    stored.sort();
    stored.truncate(48);
    let labels = lattice.labels().len();
    let mut rng = SplitMix(2026);
    let mut pool: Vec<(Twig, u64)> = Vec::new();
    for (bytes, count) in &stored {
        let twig = tl_twig::TwigKey::from_raw(bytes.as_slice().into()).decode();
        let mut grown = twig.clone();
        let at = rng.below(grown.len()) as u32;
        grown.add_child(at, LabelId(rng.below(labels) as u32));
        pool.push((twig, *count));
        pool.push((grown, 0));
    }
    let mut tuned = TunedLattice::new(lattice, 640);
    for _ in 0..2_400 {
        let (twig, count) = &pool[rng.below(pool.len())];
        // A quarter of the observations repeat the stored count (a no-op
        // while the pattern is not online); the rest correct it.
        let truth = match rng.below(4) {
            0 => *count,
            _ => rng.next() % 1_000,
        };
        tuned.observe(twig, truth);
    }
    let stats = tuned.stats();
    assert!(
        stats.evicted > 0 && stats.inserted < stats.observed,
        "{stats:?}"
    );
    let lattice = tuned.lattice();
    let pinned = (
        (stats.observed, stats.inserted, stats.evicted),
        format!("{:016x}", fnv1a(&lattice.to_bytes())),
        lattice.summary_bytes(),
        format!("{:016x}", fnv1a(&online_state_bytes(&tuned))),
    );
    // Recorded from the build that still replaced the table on every
    // update.
    assert_eq!(
        pinned,
        (
            (2_400, 2_385, 1_877),
            "63d693bcc4458ebf".to_owned(),
            40_493,
            "1a8e8618171b150c".to_owned()
        )
    );
}
