//! Catalog backends: where pattern-count lookups come from.
//!
//! The estimator only ever asks two things of its statistics store: "what is
//! the count behind these canonical key bytes" and "how large may a stored
//! pattern be". [`PatternStore`] captures exactly that, which lets the same
//! decomposition DAG run against three backends:
//!
//! * **in-memory** — [`Summary`] / [`TreeLattice`], the mined hash tables;
//! * **file** — [`FileCatalog`], the checksummed binary frame loaded eagerly
//!   back into hash tables (one validation + one deserialization at open);
//! * **mmap** — [`MmapCatalog`], the same frame served *in place*: the file
//!   is mapped read-only, the CRC-32 and structure are validated once at
//!   open, and every lookup afterwards is a binary search over the mapped
//!   record bytes — zero copies, zero allocations, cold-start proportional
//!   to one checksum pass instead of a full hash-table build.
//!
//! The mmap reader leans on two properties the PR-4 frame was designed
//! around: records are length-prefixed with a *fixed* per-level stride
//! (`2 + 6·size + 8` bytes — canonical keys are exactly 6 bytes per node),
//! and each level's records are sorted by key bytes, so a lookup is
//! `O(log n)` pointer arithmetic over the mapping.
//!
//! [`Catalog`] extends [`PatternStore`] with the label table and content
//! generation the estimation engine needs to key its shared cache.

use std::fmt;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use tl_twig::{Twig, TwigParseError};
use tl_xml::{LabelId, LabelInterner};

use crate::estimator::{EstimateOptions, Estimator};
use crate::serialize::{crc32, ReadError, HEADER_LEN, MAGIC, VERSION};
use crate::summary::{Lookup, Summary};
use crate::{dag, next_generation, TreeLattice};

/// A source of pattern-count lookups keyed by canonical twig encoding —
/// the minimal store interface the decomposition DAG evaluates against.
pub trait PatternStore {
    /// Looks up the canonical encoding `bytes` (6 bytes per node); the
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

/// The eager file backend: reads the checksummed frame, validates it, and
/// materializes the summary back into in-memory hash tables. Exactly
/// [`TreeLattice::from_bytes`] with the I/O folded in — the baseline the
/// mmap backend is measured against.
pub struct FileCatalog {
    lattice: TreeLattice,
}

impl FileCatalog {
    /// Reads and deserializes `path`.
    pub fn open(path: &Path) -> Result<Self, CatalogError> {
        let bytes = std::fs::read(path)?;
        Ok(Self {
            lattice: TreeLattice::from_bytes(&bytes)?,
        })
    }

    /// The deserialized lattice.
    pub fn lattice(&self) -> &TreeLattice {
        &self.lattice
    }

    /// Unwraps into the deserialized lattice.
    pub fn into_lattice(self) -> TreeLattice {
        self.lattice
    }
}

impl PatternStore for FileCatalog {
    #[inline]
    fn lookup_bytes(&self, bytes: &[u8]) -> Lookup {
        self.lattice.summary().lookup_bytes(bytes)
    }

    #[inline]
    fn max_size(&self) -> usize {
        self.lattice.summary().max_size()
    }
}

impl Catalog for FileCatalog {
    #[inline]
    fn labels(&self) -> &LabelInterner {
        self.lattice.labels()
    }

    #[inline]
    fn generation(&self) -> u64 {
        self.lattice.generation()
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
    /// Maps `len` bytes of `file` read-only. `len` must be non-zero (a
    /// zero-length mmap is EINVAL; callers reject short files first).
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

/// Directory entry for one level of the mapped frame: where its records
/// start, how many there are, and their fixed stride.
#[derive(Clone, Copy, Debug)]
struct LevelDir {
    /// Byte offset of the first record, relative to the full file bytes.
    start: usize,
    /// Record count.
    entries: usize,
    /// `2 + 6·size + 8`: length prefix, key bytes, count.
    stride: usize,
    /// δ-pruning flag: misses derive instead of meaning zero.
    pruned: bool,
}

/// The zero-copy mmap backend: pattern counts are served straight from the
/// serialized frame bytes.
///
/// Opening validates everything once — magic, version, payload length,
/// CRC-32, label table, and a full strided pass over every record (length
/// prefix, strictly ascending canonical order, decodable keys, in-range
/// labels). After that, [`PatternStore::lookup_bytes`] is a binary search
/// over the mapping: no hash tables are ever built, no key is ever boxed,
/// and the hot path allocates nothing (asserted by a counting-allocator
/// test). Lookups are counted internally so observed runs can surface
/// `catalog.mmap.lookups` without threading a recorder through the
/// estimator.
pub struct MmapCatalog {
    backing: Backing,
    labels: LabelInterner,
    levels: Vec<LevelDir>,
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
        if len < HEADER_LEN {
            // Too short to map meaningfully (an empty file is not mappable
            // at all); read it and let `validate` produce the precise error.
            Self::validate(Backing::Owned(std::fs::read(path)?))?;
            unreachable!("a short frame never validates");
        }
        #[cfg(unix)]
        let backing = match Mapping::new(&file, len) {
            Ok(m) => Backing::Mapped(m),
            // Some filesystems refuse mmap; fall back to a plain read.
            Err(_) => Backing::Owned(std::fs::read(path)?),
        };
        #[cfg(not(unix))]
        let backing = Backing::Owned(std::fs::read(path)?);
        let catalog = Self::validate(backing)?;
        rec.add(tl_obs::names::CATALOG_MMAP_OPENS, 1);
        rec.add(
            tl_obs::names::CATALOG_MMAP_BYTES_MAPPED,
            catalog.backing.bytes().len() as u64,
        );
        Ok(catalog)
    }

    /// One-time frame + structural validation; builds the level directory.
    fn validate(backing: Backing) -> Result<Self, CatalogError> {
        let bytes = backing.bytes();
        if bytes.len() < 4 || bytes[..4] != MAGIC[..] {
            return Err(ReadError::BadMagic.into());
        }
        if bytes.len() < HEADER_LEN {
            return Err(ReadError::Truncated("integrity frame").into());
        }
        if bytes[4] != VERSION {
            return Err(ReadError::BadVersion(bytes[4]).into());
        }
        let expected_crc = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes"));
        let expected_len = u64::from_le_bytes(bytes[9..HEADER_LEN].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if (payload.len() as u64) < expected_len {
            return Err(ReadError::Truncated("payload").into());
        }
        if payload.len() as u64 > expected_len {
            return Err(ReadError::Corrupt("trailing bytes after payload").into());
        }
        if crc32(payload) != expected_crc {
            return Err(ReadError::Corrupt("checksum mismatch").into());
        }

        // Label table (the only part materialized into owned memory).
        let mut pos = HEADER_LEN;
        let take = |pos: &mut usize, n: usize, what: &'static str| -> Result<usize, ReadError> {
            let start = *pos;
            let end = start.checked_add(n).ok_or(ReadError::Truncated(what))?;
            if end > bytes.len() {
                return Err(ReadError::Truncated(what));
            }
            *pos = end;
            Ok(start)
        };
        let at = take(&mut pos, 4, "label count")?;
        let n_labels = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let mut labels = LabelInterner::new();
        for _ in 0..n_labels {
            let at = take(&mut pos, 2, "label length")?;
            let n = u16::from_le_bytes(bytes[at..at + 2].try_into().expect("2 bytes")) as usize;
            let at = take(&mut pos, n, "label bytes")?;
            let name = std::str::from_utf8(&bytes[at..at + n]).map_err(|_| ReadError::BadLabel)?;
            labels.intern(name);
        }

        // Level directory: one strided validation pass per level. Every
        // record's length prefix must equal the level's fixed key width,
        // keys must be strictly ascending (canonical sorted order — what
        // makes the lookup a binary search) and structurally valid.
        let at = take(&mut pos, 1, "summary order")?;
        let k = bytes[at] as usize;
        let mut levels = Vec::with_capacity(k);
        let mut scratch = Twig::single(LabelId(0));
        for size in 1..=k {
            let at = take(&mut pos, 1, "level header")?;
            let pruned = bytes[at] != 0;
            let at = take(&mut pos, 4, "level header")?;
            let entries =
                u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
            let key_len = size * 6;
            let stride = 2 + key_len + 8;
            let total = entries
                .checked_mul(stride)
                .ok_or(ReadError::Truncated("level records"))?;
            let start = take(&mut pos, total, "level records")?;
            let mut prev: Option<&[u8]> = None;
            for i in 0..entries {
                let rec_at = start + i * stride;
                let len = u16::from_le_bytes(bytes[rec_at..rec_at + 2].try_into().expect("2 bytes"))
                    as usize;
                if len != key_len {
                    return Err(ReadError::BadKey.into());
                }
                let key = &bytes[rec_at + 2..rec_at + 2 + key_len];
                if prev.is_some_and(|p| p >= key) {
                    return Err(ReadError::Corrupt("records out of canonical order").into());
                }
                prev = Some(key);
                if !decode_bytes_into_checked(key, &mut scratch, size, labels.len()) {
                    return Err(ReadError::BadKey.into());
                }
            }
            levels.push(LevelDir {
                start,
                entries,
                stride,
                pruned,
            });
        }
        if pos != bytes.len() {
            return Err(ReadError::Corrupt("trailing bytes after payload").into());
        }
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

    /// Whether the file is actually memory-mapped (`false` on the plain-read
    /// fallback).
    pub fn is_mapped(&self) -> bool {
        match self.backing {
            #[cfg(unix)]
            Backing::Mapped(_) => true,
            Backing::Owned(_) => false,
        }
    }

    /// Lookups served since open (or since the last
    /// [`take_lookups`](Self::take_lookups)).
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
        self.levels.iter().map(|l| l.entries).sum()
    }

    /// Whether the catalog stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the mapped content back into an in-memory lattice
    /// (for tooling that needs to mutate; estimation does not use this).
    pub fn to_lattice(&self) -> Result<TreeLattice, ReadError> {
        crate::serialize::from_bytes(self.backing.bytes())
    }
}

/// Strict decode for validation: size and label range checked.
fn decode_bytes_into_checked(
    bytes: &[u8],
    scratch: &mut Twig,
    expected_size: usize,
    n_labels: usize,
) -> bool {
    let key = tl_twig::TwigKey::from_raw(bytes.to_vec().into_boxed_slice());
    let Some(twig) = key.try_decode() else {
        return false;
    };
    if twig.len() != expected_size {
        return false;
    }
    if twig.nodes().any(|n| twig.label(n).index() >= n_labels) {
        return false;
    }
    *scratch = twig;
    true
}

impl PatternStore for MmapCatalog {
    fn lookup_bytes(&self, probe: &[u8]) -> Lookup {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let size = probe.len() / 6;
        if size == 0 || size > self.levels.len() {
            return Lookup::TooLarge;
        }
        let dir = self.levels[size - 1];
        let bytes = self.backing.bytes();
        let key_len = size * 6;
        // Binary search over the fixed-stride sorted records.
        let (mut lo, mut hi) = (0usize, dir.entries);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let at = dir.start + mid * dir.stride + 2;
            let key = &bytes[at..at + key_len];
            match key.cmp(probe) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let count_at = at + key_len;
                    let count = u64::from_le_bytes(
                        bytes[count_at..count_at + 8].try_into().expect("8 bytes"),
                    );
                    return Lookup::Exact(count);
                }
            }
        }
        if dir.pruned {
            Lookup::Derivable
        } else {
            Lookup::Exact(0)
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

/// Engineless estimation against any catalog backend: the decomposition DAG
/// with a per-call cache, plus the unknown-label guard every estimation
/// entry point applies. Equivalent to [`TreeLattice::estimate_with`] when
/// the catalog is a `TreeLattice`.
pub fn estimate_catalog<C: Catalog + ?Sized>(
    catalog: &C,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
) -> f64 {
    if twig
        .nodes()
        .any(|n| twig.label(n).index() >= catalog.labels().len())
    {
        return 0.0;
    }
    let mut cache = dag::LocalIdCache::default();
    dag::estimate_dag(catalog, twig, estimator, opts, &mut cache).0
}

/// Parses a query against a catalog's label table, read in place, and
/// estimates it (new labels map to fresh ids past the table, which
/// estimate to zero) — the catalog-backend sibling of
/// [`TreeLattice::estimate_query`].
pub fn estimate_catalog_query<C: Catalog + ?Sized>(
    catalog: &C,
    query: &str,
    estimator: Estimator,
) -> Result<f64, TwigParseError> {
    let twig = tl_twig::parse_twig_in(query, catalog.labels())?;
    Ok(estimate_catalog(
        catalog,
        &twig,
        estimator,
        &EstimateOptions::default(),
    ))
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, ParseOptions};

    use super::*;
    use crate::{BuildConfig, Estimator};

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
        let file = FileCatalog::open(&path).unwrap();
        let mmap = MmapCatalog::open(&path).unwrap();
        for q in ["a", "a/b", "a[b][c]", "r/a/b", "d/a/c", "r[a[b]][d]"] {
            for est in Estimator::ALL {
                let want = lat.estimate_query(q, est).unwrap();
                let from_file = estimate_catalog_query(&file, q, est).unwrap();
                let from_mmap = estimate_catalog_query(&mmap, q, est).unwrap();
                assert_eq!(want.to_bits(), from_file.to_bits(), "{est} {q} (file)");
                assert_eq!(want.to_bits(), from_mmap.to_bits(), "{est} {q} (mmap)");
            }
        }
    }

    #[test]
    fn unknown_labels_estimate_zero_via_catalog() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let path = write_lattice(&lat, "unknown.tlat");
        let mmap = MmapCatalog::open(&path).unwrap();
        let v = estimate_catalog_query(&mmap, "nosuchtag/a", Estimator::Recursive).unwrap();
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
    fn out_of_order_records_with_valid_checksum_rejected() {
        let _fp = tl_fault::failpoints::shared();
        // Craft a file whose checksum is valid but whose level-1 records
        // are swapped out of canonical order; the strided validation pass
        // must refuse it (the binary search depends on the order).
        let lat = sample_lattice();
        let path = write_lattice(&lat, "order.tlat");
        let mut bytes = std::fs::read(&path).unwrap();
        let mut idx = HEADER_LEN + 4;
        for _ in 0..lat.labels().len() {
            let len = u16::from_le_bytes([bytes[idx], bytes[idx + 1]]) as usize;
            idx += 2 + len;
        }
        idx += 1; // k
        idx += 1; // level-1 pruned flag
        let n = u32::from_le_bytes(bytes[idx..idx + 4].try_into().unwrap()) as usize;
        assert!(n >= 2, "need two level-1 records to swap");
        idx += 4;
        let stride = 2 + 6 + 8;
        let (a, b) = (idx, idx + stride);
        let mut tmp = vec![0u8; stride];
        tmp.copy_from_slice(&bytes[a..a + stride]);
        bytes.copy_within(b..b + stride, a);
        bytes[b..b + stride].copy_from_slice(&tmp);
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[5..9].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            MmapCatalog::open(&path),
            Err(CatalogError::Corrupt(ReadError::Corrupt(
                "records out of canonical order"
            )))
        ));
    }

    #[test]
    fn observed_open_records_counters() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let path = write_lattice(&lat, "observed.tlat");
        let rec = tl_obs::MetricsRecorder::new();
        let mmap = MmapCatalog::open_observed(&path, &rec).unwrap();
        estimate_catalog_query(&mmap, "a/b", Estimator::Recursive).unwrap();
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
