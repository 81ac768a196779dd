//! Proves the mmap catalog's hot path is zero-copy *and* zero-alloc, and
//! that opening it allocates for the label table and level directory only.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! each thread's allocations apart, on the model of `tests/dag_alloc.rs`,
//! so the tests of this binary can run side by side.
//!
//! - A burst of `lookup_bytes` probes — hits, completed-level misses, and
//!   pruned-level misses alike — performs **zero** heap allocations.
//!   Binary search over the fixed-stride frame bytes must borrow, never
//!   copy.
//! - `MmapCatalog::open` checks every record of the frame, but its
//!   allocations depend on the label and level counts only: a pruned and
//!   an unpruned frame over the same labels and levels open with the same
//!   count, under a committed ceiling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use treelattice::{BuildConfig, Catalog, Lookup, MmapCatalog, PatternStore, TreeLattice};

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

/// Allocations `MmapCatalog::open` may make: a fixed part, plus three per
/// label (the label table keeps each name twice and grows its vector and
/// map), plus one per level. None per record: the frame of 96 records
/// below opened with 929 allocations while each record's key was decoded
/// into a twig to check it.
fn open_allocation_ceiling(labels: usize, levels: usize) -> u64 {
    (8 + 3 * labels + levels) as u64
}

/// XMark stand-in, 2,000 elements, k=4: the unpruned lattice, and the
/// same lattice pruned at δ = 0.05.
fn fixtures() -> (TreeLattice, TreeLattice) {
    let doc = tl_datagen::Dataset::Xmark.generate(tl_datagen::GenConfig {
        seed: 42,
        target_elements: 2_000,
    });
    let full = TreeLattice::build(&doc, &BuildConfig::with_k(4));
    let mut pruned = full.clone();
    pruned.prune(0.05);
    (full, pruned)
}

fn write_frame(lat: &TreeLattice, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tl-mmap-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, lat.to_bytes()).unwrap();
    path
}

#[test]
fn mmap_lookups_allocate_zero_bytes_on_the_hot_path() {
    // Setup (allocates freely): build a pruned lattice, persist the frame,
    // open the mapped catalog, and pre-collect every probe key.
    let (_, lat) = fixtures();
    let path = write_frame(&lat, "lookups.tlat");

    let catalog = MmapCatalog::open(&path).unwrap();
    let mut probes: Vec<Vec<u8>> = lat
        .summary()
        .iter()
        .map(|(key, _)| key.as_bytes().to_vec())
        .collect();
    // Misses too: mutate stored keys so binary search fails at every level.
    let missing: Vec<Vec<u8>> = probes
        .iter()
        .map(|k| {
            let mut k = k.clone();
            let last = k.len() - 1;
            k[last] ^= 0x55;
            k
        })
        .collect();
    probes.extend(missing);
    assert!(probes.len() > 100, "corpus too small to be meaningful");

    // Measured region: nothing but lookups between the two counter reads.
    let before = allocations();
    let mut hits = 0u64;
    for key in &probes {
        if let Lookup::Exact(c) = catalog.lookup_bytes(key) {
            hits += c;
        }
    }
    let after = allocations();

    assert!(hits > 0, "probe set never hit the catalog");
    assert_eq!(
        after - before,
        0,
        "mmap lookup hot path allocated ({} probes)",
        probes.len()
    );

    drop(catalog);
    let _ = std::fs::remove_file(path);
}

#[test]
fn mmap_open_allocations_do_not_grow_with_the_record_count() {
    let (full, pruned) = fixtures();
    assert_eq!(pruned.summary().len(), 96, "the fixture's record count");
    assert!(full.summary().len() > 2 * pruned.summary().len());
    let mut opened = Vec::new();
    for (lat, name) in [(&pruned, "pruned.tlat"), (&full, "full.tlat")] {
        let path = write_frame(lat, name);
        let before = allocations();
        let catalog = MmapCatalog::open(&path).unwrap();
        let made = allocations() - before;
        let (labels, levels) = (catalog.labels().len(), catalog.max_size());
        assert_eq!((labels, levels), (lat.labels().len(), lat.k()));
        let ceiling = open_allocation_ceiling(labels, levels);
        assert!(
            made <= ceiling,
            "{name}: {made} allocations to open {} records, ceiling {ceiling}",
            catalog.len()
        );
        opened.push(made);
        drop(catalog);
        let _ = std::fs::remove_file(path);
    }
    assert_eq!(
        opened[0], opened[1],
        "same labels and levels, different record counts"
    );
}
