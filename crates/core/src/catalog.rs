//! Catalog backends: where pattern-count lookups come from.
//!
//! The estimator only ever asks two things of its statistics store: "what is
//! the count behind these canonical key bytes" and "how large may a stored
//! pattern be". [`PatternStore`] captures exactly that, which lets the same
//! decomposition DAG run against two backends:
//!
//! * **in-memory** — [`Summary`] / [`TreeLattice`], the mined hash tables,
//!   or the ones [`TreeLattice::from_bytes`] fills from a serialized frame;
//! * **mmap** — [`MmapCatalog`], the same frame served *in place*: the file
//!   is mapped read-only and every lookup is a binary search over the mapped
//!   record bytes — zero copies, zero allocations, and an open that builds
//!   no hash table.
//!
//! Both open a frame through the one reader in [`crate::serialize`], so
//! they accept exactly the same files and reject the rest with the same
//! [`ReadError`]. The mmap backend keeps that reader's level directory:
//! each level's records have a fixed stride (canonical keys are exactly
//! [`NODE_BYTES`] per node) and are sorted by key bytes, so a lookup is
//! `O(log n)` pointer arithmetic over the mapping.
//!
//! [`Catalog`] extends [`PatternStore`] with the label table and content
//! generation the estimation engine needs to key its shared cache.

use std::fmt;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use tl_twig::canonical::NODE_BYTES;
use tl_twig::Twig;
use tl_xml::LabelInterner;

use crate::estimator::{EstimateOptions, Estimator};
use crate::serialize::{Frame, Level, ReadError};
use crate::{dag, next_generation, Lookup, Summary, TreeLattice};

/// A source of pattern-count lookups keyed by canonical twig encoding —
/// the minimal store interface the decomposition DAG evaluates against.
pub trait PatternStore {
    /// Looks up the canonical encoding `bytes` ([`NODE_BYTES`] per node); the
    /// result distinguishes exact counts, pruned-level misses, and
    /// beyond-`k` patterns exactly like [`Summary::lookup_bytes`].
    fn lookup_bytes(&self, bytes: &[u8]) -> Lookup;

    /// The store's order `k` (largest pattern size stored).
    fn max_size(&self) -> usize;
}

impl PatternStore for Summary {
    #[inline]
    fn lookup_bytes(&self, bytes: &[u8]) -> Lookup {
        Summary::lookup_bytes(self, bytes)
    }

    #[inline]
    fn max_size(&self) -> usize {
        Summary::max_size(self)
    }
}

impl PatternStore for TreeLattice {
    #[inline]
    fn lookup_bytes(&self, bytes: &[u8]) -> Lookup {
        self.summary().lookup_bytes(bytes)
    }

    #[inline]
    fn max_size(&self) -> usize {
        self.summary().max_size()
    }
}

/// A pattern store with the label table and content version the estimation
/// engine needs: labels gate unknown-label queries to zero, the generation
/// keys shared-cache entries so two backends serving the same summary
/// content can share warm estimates only when they really are the same.
pub trait Catalog: PatternStore {
    /// The label universe the stored keys are encoded against.
    fn labels(&self) -> &LabelInterner;

    /// Content version; equal values imply interchangeable summaries.
    fn generation(&self) -> u64;

    /// Backend probes served so far, for backends that count them. The
    /// in-memory backends return 0 (hash-map probes are not metered);
    /// [`MmapCatalog`] reports its lookup counter, which the engine folds
    /// into [`EngineStats::catalog_lookups`](crate::EngineStats).
    fn served_lookups(&self) -> u64 {
        0
    }
}

impl Catalog for TreeLattice {
    #[inline]
    fn labels(&self) -> &LabelInterner {
        TreeLattice::labels(self)
    }

    #[inline]
    fn generation(&self) -> u64 {
        TreeLattice::generation(self)
    }
}

/// Failure to open a catalog file: the I/O layer or the frame itself.
#[derive(Debug)]
pub enum CatalogError {
    /// The file could not be read or mapped.
    Io(std::io::Error),
    /// The frame or payload failed validation (see [`ReadError`]).
    Corrupt(ReadError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "cannot open catalog: {e}"),
            CatalogError::Corrupt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<ReadError> for CatalogError {
    fn from(e: ReadError) -> Self {
        CatalogError::Corrupt(e)
    }
}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        CatalogError::Io(e)
    }
}

/// Read-only memory mapping with a plain-read fallback for platforms (or
/// mount options) where `mmap` is unavailable. Lookups only ever see
/// `&[u8]`, so the two variants are interchangeable.
enum Backing {
    #[cfg(unix)]
    Mapped(Mapping),
    Owned(Vec<u8>),
}

impl Backing {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(m) => m.as_slice(),
            Backing::Owned(v) => v,
        }
    }
}

/// An owned `PROT_READ`/`MAP_PRIVATE` mapping. Declared against raw libc
/// symbols so the vendored dependency set stays unchanged.
#[cfg(unix)]
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

#[cfg(unix)]
mod mmap_ffi {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

#[cfg(unix)]
impl Mapping {
    /// Maps `len` bytes of `file` read-only. A zero `len` fails (mmap
    /// returns EINVAL), like any other refusal.
    fn new(file: &File, len: usize) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            mmap_ffi::mmap(
                std::ptr::null_mut(),
                len,
                mmap_ffi::PROT_READ,
                mmap_ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr.is_null() || ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Self {
            ptr: ptr.cast(),
            len,
        })
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        unsafe {
            mmap_ffi::munmap(self.ptr.cast(), self.len);
        }
    }
}

// SAFETY: the mapping is PROT_READ and never written through `ptr`; sharing
// immutable views across threads is sound.
#[cfg(unix)]
unsafe impl Send for Mapping {}
#[cfg(unix)]
unsafe impl Sync for Mapping {}

/// The zero-copy mmap backend: pattern counts are served straight from the
/// serialized frame bytes.
///
/// Opening runs every check of the frame reader once (see
/// [`crate::serialize`]), allocating for the label table and the level
/// directory only. After that, [`PatternStore::lookup_bytes`] is a binary
/// search over the mapping: no hash tables are ever built, no key is ever
/// boxed, and the hot path allocates nothing (both asserted by
/// counting-allocator tests). Lookups are counted internally so observed
/// runs can surface `catalog.mmap.lookups` without threading a recorder
/// through the estimator.
pub struct MmapCatalog {
    backing: Backing,
    labels: LabelInterner,
    levels: Vec<Level>,
    generation: u64,
    lookups: AtomicU64,
}

impl MmapCatalog {
    /// Maps and validates `path`.
    pub fn open(path: &Path) -> Result<Self, CatalogError> {
        Self::open_observed(path, &tl_obs::NOOP)
    }

    /// [`open`](Self::open), recording `catalog.mmap.opens` and
    /// `catalog.mmap.bytes_mapped` to `rec`.
    pub fn open_observed(path: &Path, rec: &dyn tl_obs::Recorder) -> Result<Self, CatalogError> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            CatalogError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file too large to map",
            ))
        })?;
        #[cfg(unix)]
        let backing = match Mapping::new(&file, len) {
            Ok(m) => Backing::Mapped(m),
            // An empty file cannot be mapped, and some filesystems refuse
            // mmap; read the file instead.
            Err(_) => Backing::Owned(std::fs::read(path)?),
        };
        #[cfg(not(unix))]
        let backing = Backing::Owned(std::fs::read(path)?);
        let Frame { labels, levels } = Frame::read(backing.bytes())?;
        rec.add(tl_obs::names::CATALOG_MMAP_OPENS, 1);
        rec.add(
            tl_obs::names::CATALOG_MMAP_BYTES_MAPPED,
            backing.bytes().len() as u64,
        );
        Ok(Self {
            backing,
            labels,
            levels,
            generation: next_generation(),
            lookups: AtomicU64::new(0),
        })
    }

    /// Bytes served by this catalog (the whole mapped or read file).
    pub fn bytes_mapped(&self) -> usize {
        self.backing.bytes().len()
    }

    /// Lookups served since open (or since the last
    /// [`flush_lookups`](Self::flush_lookups)).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Drains the lookup counter into `rec` as `catalog.mmap.lookups`.
    pub fn flush_lookups(&self, rec: &dyn tl_obs::Recorder) {
        let n = self.lookups.swap(0, Ordering::Relaxed);
        if n > 0 {
            rec.add(tl_obs::names::CATALOG_MMAP_LOOKUPS, n);
        }
    }

    /// Total stored patterns (directory metadata, no scan).
    pub fn len(&self) -> usize {
        self.levels.iter().map(|level| level.entries).sum()
    }

    /// Whether the catalog stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PatternStore for MmapCatalog {
    fn lookup_bytes(&self, probe: &[u8]) -> Lookup {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let size = probe.len() / NODE_BYTES;
        let Some(level) = size.checked_sub(1).and_then(|i| self.levels.get(i)) else {
            return Lookup::TooLarge;
        };
        match level.find(self.backing.bytes(), probe) {
            Some(count) => Lookup::Exact(count),
            None if level.pruned => Lookup::Derivable,
            None => Lookup::Exact(0),
        }
    }

    #[inline]
    fn max_size(&self) -> usize {
        self.levels.len()
    }
}

impl Catalog for MmapCatalog {
    #[inline]
    fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    #[inline]
    fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    fn served_lookups(&self) -> u64 {
        self.lookups()
    }
}

/// The unknown-label rule: a label past `catalog`'s table never occurred in
/// the summarized document, so a twig holding one cannot match anything
/// and estimates 0 without a store probe. Every estimation entry point
/// applies it first.
pub(crate) fn has_unknown_label<C: Catalog + ?Sized>(catalog: &C, twig: &Twig) -> bool {
    let known = catalog.labels().len();
    twig.nodes().any(|n| twig.label(n).index() >= known)
}

/// Engineless estimation against any catalog backend: the unknown-label
/// rule, then the decomposition DAG with a per-call cache. What
/// [`TreeLattice::estimate_with`] runs on the in-memory backend.
pub fn estimate_catalog<C: Catalog + ?Sized>(
    catalog: &C,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
) -> f64 {
    if has_unknown_label(catalog, twig) {
        return 0.0;
    }
    let mut cache = dag::LocalIdCache::default();
    dag::estimate_dag(catalog, twig, estimator, opts, &mut cache).0
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, ParseOptions};

    use super::*;
    use crate::{estimate_interval, explain, BuildConfig, Estimator};

    fn sample_lattice() -> TreeLattice {
        let doc = parse_document(
            b"<r><a><b/><c/></a><a><b/></a><d><a><c/></a></d></r>",
            ParseOptions::default(),
        )
        .unwrap();
        TreeLattice::build(&doc, &BuildConfig::with_k(3))
    }

    fn write_lattice(lat: &TreeLattice, name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tl-catalog-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, lat.to_bytes()).unwrap();
        path
    }

    /// Parses `query` against the catalog's label table and estimates it.
    fn estimate_query<C: Catalog>(catalog: &C, query: &str, est: Estimator) -> f64 {
        let twig = tl_twig::parse_twig_in(query, catalog.labels()).unwrap();
        estimate_catalog(catalog, &twig, est, &EstimateOptions::default())
    }

    #[test]
    fn mmap_lookups_match_in_memory_summary() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let path = write_lattice(&lat, "lookups.tlat");
        let mmap = MmapCatalog::open(&path).unwrap();
        assert_eq!(mmap.max_size(), lat.k());
        assert_eq!(mmap.len(), lat.summary().len());
        let mut enc = tl_twig::canonical::KeyEncoder::new();
        let mut buf = Vec::new();
        for size in 1..=lat.k() {
            for (key, _) in lat.summary().iter_level(size) {
                let twig = key.decode();
                enc.encode_into(&twig, &mut buf);
                assert_eq!(
                    mmap.lookup_bytes(&buf),
                    lat.summary().lookup_bytes(&buf),
                    "stored key must match"
                );
            }
        }
        // Misses agree too (complete level ⇒ exact zero).
        let mut it = lat.labels().clone();
        let absent = tl_twig::parse_twig("b/d", &mut it).unwrap();
        enc.encode_into(&absent, &mut buf);
        assert_eq!(mmap.lookup_bytes(&buf), Lookup::Exact(0));
        assert_eq!(lat.summary().lookup_bytes(&buf), Lookup::Exact(0));
        assert!(mmap.lookups() > 0, "lookup counter advances");
    }

    #[test]
    fn mmap_preserves_pruned_semantics() {
        let _fp = tl_fault::failpoints::shared();
        let mut lat = sample_lattice();
        lat.prune(0.0);
        let path = write_lattice(&lat, "pruned.tlat");
        let mmap = MmapCatalog::open(&path).unwrap();
        let mut enc = tl_twig::canonical::KeyEncoder::new();
        let mut buf = Vec::new();
        let mut it = lat.labels().clone();
        // A pattern the pruning dropped: derivable on both backends.
        let mut derivable_checked = false;
        for size in 3..=lat.k() {
            if !lat.summary().is_pruned(size) {
                continue;
            }
            // Probe an absent key on a pruned level: a/a/... chains never
            // occur in the sample document.
            let chain = "a/".repeat(size - 1) + "a";
            let t = tl_twig::parse_twig(&chain, &mut it).unwrap();
            enc.encode_into(&t, &mut buf);
            assert_eq!(mmap.lookup_bytes(&buf), Lookup::Derivable);
            derivable_checked = true;
        }
        assert!(derivable_checked, "sample summary must have a pruned level");
    }

    #[test]
    fn estimates_agree_across_all_backends() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let path = write_lattice(&lat, "backends.tlat");
        let file = TreeLattice::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        let mmap = MmapCatalog::open(&path).unwrap();
        for q in ["a", "a/b", "a[b][c]", "r/a/b", "d/a/c", "r[a[b]][d]"] {
            for est in Estimator::ALL {
                let want = lat.estimate_query(q, est).unwrap();
                let from_file = estimate_query(&file, q, est);
                let from_mmap = estimate_query(&mmap, q, est);
                assert_eq!(want.to_bits(), from_file.to_bits(), "{est} {q} (file)");
                assert_eq!(want.to_bits(), from_mmap.to_bits(), "{est} {q} (mmap)");
            }
        }
    }

    /// Intervals and EXPLAIN traces walk the same DAG on either backend, so
    /// the mmap catalog must answer them exactly as the in-memory summary
    /// does, pruned or not.
    #[test]
    fn interval_and_explain_agree_across_backends() {
        let _fp = tl_fault::failpoints::shared();
        let doc = tl_datagen::random_document(&tl_datagen::RandomTreeConfig {
            seed: 7,
            nodes: 300,
            labels: 5,
            max_children: 5,
        });
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let random: Vec<Twig> = (0..20)
            .filter_map(|i| tl_workload::sample::random_occurred_twig(&doc, &mut rng, 4 + i % 5))
            .collect();
        let sample = sample_lattice();
        let fixed: Vec<Twig> = ["a", "a/b", "a[b][c]", "r[a[b]][d]", "r[a[b][c]][d[a[c]]]"]
            .iter()
            .map(|q| sample.parse_query(q).unwrap())
            .collect();
        let cases = [
            (sample, fixed),
            (TreeLattice::build(&doc, &BuildConfig::with_k(3)), random),
        ];
        let mut checked = 0;
        for (mut lat, twigs) in cases {
            for pruned in [false, true] {
                if pruned {
                    lat.prune(0.0);
                }
                let path = write_lattice(&lat, &format!("walks-{checked}.tlat"));
                let mmap = MmapCatalog::open(&path).unwrap();
                for twig in &twigs {
                    let q = twig.to_query_string(lat.labels());
                    let (want, got) = (
                        estimate_interval(lat.summary(), twig),
                        estimate_interval(&mmap, twig),
                    );
                    for (w, g) in [
                        (want.low, got.low),
                        (want.estimate, got.estimate),
                        (want.high, got.high),
                    ] {
                        assert_eq!(w.to_bits(), g.to_bits(), "interval of {q}, pruned {pruned}");
                    }
                    assert_eq!(
                        explain(lat.summary(), lat.labels(), twig),
                        explain(&mmap, Catalog::labels(&mmap), twig),
                        "explain {q}, pruned {pruned}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 40, "only {checked} twigs compared");
    }

    #[test]
    fn unknown_labels_estimate_zero_via_catalog() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let path = write_lattice(&lat, "unknown.tlat");
        let mmap = MmapCatalog::open(&path).unwrap();
        let v = estimate_query(&mmap, "nosuchtag/a", Estimator::Recursive);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn corrupt_files_are_rejected_at_open() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let path = write_lattice(&lat, "corrupt.tlat");
        let good = std::fs::read(&path).unwrap();

        // Truncation.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(
            MmapCatalog::open(&path),
            Err(CatalogError::Corrupt(ReadError::Truncated(_)))
        ));

        // Payload bit flip.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            MmapCatalog::open(&path),
            Err(CatalogError::Corrupt(ReadError::Corrupt(
                "checksum mismatch"
            )))
        ));

        // Bad magic / empty file.
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(matches!(
            MmapCatalog::open(&path),
            Err(CatalogError::Corrupt(ReadError::BadMagic))
        ));
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            MmapCatalog::open(&path),
            Err(CatalogError::Corrupt(ReadError::BadMagic))
        ));

        // Missing file.
        assert!(matches!(
            MmapCatalog::open(&path.with_extension("missing")),
            Err(CatalogError::Io(_))
        ));
    }

    #[test]
    fn every_single_byte_flip_is_rejected_by_mmap_open() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let path = write_lattice(&lat, "flips.tlat");
        let good = std::fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut corrupt = good.clone();
            corrupt[i] ^= 0x01;
            std::fs::write(&path, &corrupt).unwrap();
            assert!(
                MmapCatalog::open(&path).is_err(),
                "flip at byte {i} must not open"
            );
        }
    }

    #[test]
    fn observed_open_records_counters() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let path = write_lattice(&lat, "observed.tlat");
        let rec = tl_obs::MetricsRecorder::new();
        let mmap = MmapCatalog::open_observed(&path, &rec).unwrap();
        estimate_query(&mmap, "a/b", Estimator::Recursive);
        mmap.flush_lookups(&rec);
        let snap = rec.snapshot();
        assert_eq!(snap.counters[tl_obs::names::CATALOG_MMAP_OPENS], 1);
        assert_eq!(
            snap.counters[tl_obs::names::CATALOG_MMAP_BYTES_MAPPED],
            mmap.bytes_mapped() as u64
        );
        assert!(snap.counters[tl_obs::names::CATALOG_MMAP_LOOKUPS] > 0);
        // Flushing drained the internal counter.
        assert_eq!(mmap.lookups(), 0);
    }

    #[test]
    fn generations_are_fresh_per_open() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let path = write_lattice(&lat, "gen.tlat");
        let a = MmapCatalog::open(&path).unwrap();
        let b = MmapCatalog::open(&path).unwrap();
        assert_ne!(Catalog::generation(&a), Catalog::generation(&b));
    }
}
